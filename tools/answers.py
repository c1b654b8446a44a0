#!/usr/bin/env python3
"""Answer digests: one short hash per seeded benchmark op, to diff two checkouts.

Run from a checkout's root:

    python tools/answers.py WORKLOAD FIRST LAST [ROUNDS]

For each seed FIRST..LAST it draws the workload's op list
(`bench/workloads.generate_ops`, with ROUNDS seeded rounds, 12 by default)
and runs every op in this process.  `edges` and `scan` ops call `cli.main`
with the benchmark's argv (`edges_argv`, `scan_argv`); the digest covers the
exit code, the parsed JSON of stdout (stdout itself when empty), stderr and
the messages of any warnings.  A `closed-forms` op calls
`closed_forms_values`; the digest covers the values' repr, with the sample
command's stdout parsed the same way.  A digest of the parsed JSON, not its
bytes, keeps every answer whose values are the same when only the JSON
spelling (separators, a float's exponent form) changes.  An exception that
escapes an op is digested as its type and message, and its traceback goes to
stderr.

One line per op: seed, index, the first 16 hex digits of the sha256, and
the argv or the (m, beta) point.  The same program prints the same lines,
so `diff` of two runs, at two commits, shows every op whose answer moved.
The script only reads `bench/`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import traceback
import warnings
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"  # as bench/run.py: one BLAS thread, set before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads as wl  # noqa: E402
from ptlame import cli  # noqa: E402


def _parsed(stdout: str) -> object:
    """A command's JSON stdout as parsed values; empty stdout as itself."""
    return json.loads(stdout) if stdout else stdout


def answer(op: wl.Op) -> tuple[str, object]:
    """(what was run, what it gave) for one op."""
    if op.workload == "closed-forms":
        vals = wl.closed_forms_values(op.m, op.beta, wl.FAMILIES[op.index % len(wl.FAMILIES)][0])  # as run_closed_forms
        rc, out, err = vals["sample"]
        vals["sample"] = (rc, _parsed(out), err)
        return f"m={op.m!r} beta={op.beta!r}", vals
    argv = wl.edges_argv(op) if op.workload == "edges" else wl.scan_argv(op)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    return " ".join(argv), (rc, _parsed(out.getvalue()), err.getvalue(), [str(w.message) for w in caught])


def main(argv: list[str]) -> int:
    if not 3 <= len(argv) <= 4:
        print(__doc__.strip().splitlines()[4], file=sys.stderr)
        return 2
    workload, first, last, rounds = argv[0], int(argv[1]), int(argv[2]), int(argv[3]) if len(argv) == 4 else 12
    for seed in range(first, last + 1):
        for op in wl.generate_ops(workload, seed, rounds):
            try:
                label, value = answer(op)
            except Exception as exc:  # noqa: BLE001 - a raising op is an answer too; the run goes on
                traceback.print_exc()
                label, value = f"m={op.m!r} beta={op.beta!r}", ("raised", type(exc).__name__, str(exc))
            digest = hashlib.sha256(repr(value).encode()).hexdigest()[:16]
            print(f"{seed} {op.index} {digest} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
