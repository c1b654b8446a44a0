"""Command-line surface: sampling, edge tables, scans, dispersion, selfcheck.

Each command declares only the options it reads and returns (columns,
results, passed), with ``passed`` None when it checks nothing.
:func:`main` alone writes the table, CSV or JSON (``--format``, to
``--out``), under a metadata header: the options as parsed or resolved (all
but ``--format``/``--out``), the results (for ``edges``, ``scan`` and
``dispersion`` also ``integration_beta``, the line the Floquet engine
integrated on, and for every command that integrates the tolerances it
integrated at) and last, unless ``passed`` is None, ``verdict=PASS`` or
``verdict=FAIL``.  ``edges`` pairs each closed-form edge with its nearest
row of any class or multiplicity (2 for a closed gap), the first on a tie,
and passes when the pairs are distinct simple edges of their edges'
classes, the 2a + 1 simple edges are all found and every pair is within
``--tol``; it warns when fewer simple edges are found.
Exit codes: 0 = ok, 2 = configuration error (an ``--out`` that cannot be
written among them), 3 = verdict FAIL, 4 = integration error
(``FloquetIntegrationError``), so CI can gate directly on the cross-checks.
``selfcheck`` runs the invariant registry (:mod:`ptlame.invariants`) at
``--m``/``--beta``, one row per invariant with its value, tolerance, verdict
and seconds; the registry fixes its specs and tolerances.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings

import numpy as np

from . import elliptic as ell
from . import floquet as flq
from . import potentials as pot
from . import spectra as spc

__all__ = ["main", "build_spec", "ConfigError"]


class ConfigError(ValueError):
    pass


def build_spec(args):
    """The potential spec of the parsed options (:func:`potentials.build`);
    raises ConfigError."""
    try:
        return pot.build(args.a, args.b, args.m, args.beta, args.ops, args.shift_zero)
    except (pot.PotentialError, ell.EllipticDomainError) as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _integrator_meta() -> dict:
    """Header entries for floquet's (``RTOL``, ``ATOL``), every integration's."""
    return {"integrator_rtol": flq.RTOL, "integrator_atol": flq.ATOL}


def _write_table(args, columns, results) -> None:
    """Write ``columns`` under a header of the options as parsed or resolved,
    all but ``--format``/``--out``, then the command's ``results``; raises
    ConfigError when ``--out`` cannot be written."""
    meta = {k: v for k, v in vars(args).items() if k not in ("fmt", "out")}
    meta.update(results)
    if args.fmt == "json":
        import orjson  # here, off the CSV path; it writes a non-finite float as null

        doc = {"meta": meta, "columns": {name: list(vals) for name, vals in columns}}
        text = orjson.dumps(doc, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY).decode() + "\n"
    else:
        parts = [f"# {' '.join(f'{k}={v}' for k, v in meta.items())}\n"]
        parts.append(",".join(name for name, _ in columns) + "\n")
        rows = len(columns[0][1])
        for i in range(rows):
            parts.append(",".join(
                (_fmt(vals[i]) if isinstance(vals[i], (int, float, np.floating)) else str(vals[i]))
                for _, vals in columns) + "\n")
        text = "".join(parts)
    if args.out in ("-", ""):
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", newline="\n", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc


def _samples(args, least: int) -> int:
    """``--n``; ConfigError below ``least``."""
    if args.n < least:
        raise ConfigError(f"--n must be at least {least}, not {args.n}")
    return args.n


def _energy_range(args, lo, hi) -> tuple[float, float]:
    """``--emin``/``--emax``, each defaulting to ``lo``/``hi`` and stored back
    into ``args`` as resolved, for the header; ConfigError unless the range
    is finite and nonempty."""
    args.emin = lo if args.emin is None else args.emin
    args.emax = hi if args.emax is None else args.emax
    if not (math.isfinite(args.emin) and math.isfinite(args.emax) and args.emin < args.emax):
        raise ConfigError(f"--emin ({args.emin}) must be below --emax ({args.emax}), both finite")
    return args.emin, args.emax


def cmd_sample_potential(args):
    spec = build_spec(args)
    n = _samples(args, 1)
    L = spec.period
    xs = np.linspace(0.0, 2.0 * L, 2 * n, endpoint=False)
    vals = pot.compiled_value_fn(spec)(xs)
    return [("x", xs.tolist()), ("re_v", vals.real.tolist()), ("im_v", vals.imag.tolist())], {"period": L}, None


def cmd_edges(args):
    spec = build_spec(args)
    predicted = pot.predicted_edges(spec)
    lo, hi = (predicted[0][0] - 0.5, predicted[-1][0] + 0.5) if predicted else flq.default_energy_range(spec)
    found = flq.find_band_edges(spec, *_energy_range(args, lo, hi))
    # each closed-form edge's pair is its nearest row of any class or
    # multiplicity, the first on a tie, as the benchmark's check pairs them
    nearest = [(min(range(len(found)), key=lambda i: abs(found[i].energy - ea), default=None), ea, period_class)
               for ea, period_class in predicted or []]
    pairs = {i: ea for i, ea, _ in nearest}
    diff = [abs(pairs[i] - e.energy) if i in pairs else math.nan for i, e in enumerate(found)]
    max_diff = max((diff[i] for i in pairs if i is not None), default=0.0)
    # a PASS needs 2a + 1 simple edges, which every family with a >= 1 has,
    # with closed forms or not, and distinct pairs, each a simple edge of its
    # closed-form edge's class within --tol
    expected = flq.simple_edge_count(spec)
    simple = sum(e.multiplicity == 1 for e in found)
    if expected is not None and simple < expected:
        warnings.warn(f"found {simple} simple band edges but the base family has {expected} "
                      f"(closed gaps found: {len(found) - simple}): the energy range is probably too small, "
                      "or a narrow open gap was reported closed")
    passed = ((expected is None or simple == expected)
              and len(pairs) == len(nearest) and max_diff < args.tol
              and all(i is not None and found[i].multiplicity == 1 and found[i].period_class == c
                      for i, _, c in nearest))
    return ([("index", list(range(len(found)))),
             ("energy_analytic", [_fmt(pairs[i]) if i in pairs else "" for i in range(len(found))]),
             ("energy_numeric", [e.energy for e in found]), ("abs_diff", diff),
             ("discriminant", [e.discriminant.real for e in found]),
             ("period_class", [e.period_class for e in found]),
             ("multiplicity", [e.multiplicity for e in found])],
            {**_integrator_meta(), "max_abs_diff": max_diff, "analytic_available": predicted is not None,
             "integration_beta": flq.integration_beta(spec)},
            passed)


def cmd_scan(args):
    if args.paired and (args.ops != ["pt"] or args.b != 0 or args.shift_zero):
        raise ConfigError("--paired requires a plain PT Lame spec (--pt, b=0, no partner/shift)")
    spec = build_spec(args)
    n = _samples(args, 2)
    lo, hi = flq.default_energy_range(spec) if args.emin is None or args.emax is None else (None, None)
    emin, emax = _energy_range(args, lo, hi)
    ranges = [(spec, emin, emax)]
    if args.paired:
        # the modulus dual, Lame(a, 1 - m) on the real axis, shares the PT
        # spec's half period K(1 - m), so both sides integrate together
        shift = args.a * (args.a + 1)
        ranges.append((pot.Lame(args.a, 1.0 - args.m), emin + shift, emax + shift))
    scan, *dual = flq.discriminant_scans(ranges, n)
    cols = [("e", scan.energies.tolist()),
            ("re_delta", scan.discriminants.real.tolist()),
            ("im_delta", scan.discriminants.imag.tolist())]
    meta = {**_integrator_meta(), "im_flags": int(scan.im_flags.sum()),
            "integration_beta": flq.integration_beta(spec)}
    if not args.paired:
        return cols, meta, None
    dd = dual[0].discriminants
    diffs = np.abs(scan.discriminants - dd)
    cols += [("re_delta_dual", dd.real.tolist()), ("im_delta_dual", dd.imag.tolist()),
             ("abs_diff", diffs.tolist())]
    meta["paired_max_abs_diff"] = max_diff = float(np.max(diffs))
    return cols, meta, max_diff < args.tol


def cmd_dispersion(args):
    spec = build_spec(args)
    predicted = pot.predicted_edges(spec)
    base0 = predicted[0][0] if predicted else 0.0
    emin, emax = _energy_range(args, base0, base0 + 3.0)
    n = _samples(args, 1)
    # the analytic dispersion covers the a=1 PT potential, in the basis shifted so its ground
    # edge is zero, and its SUSY partners, as the intertwining keeps the Floquet multipliers
    analytic = (spec.kind, spec.a, spec.b) == ("lame", 1, 0) and spec.beta is not None
    es = np.linspace(emin, emax, n)
    kn = flq.dispersion_numeric(spec, es)
    if analytic:
        ka = np.array([spc.dispersion_analytic(args.m, args.beta, float(e) - base0).k for e in es])
        diffs = np.abs(ka - kn)
        ka_re, ka_im = [_fmt(k) for k in ka.real], [_fmt(k) for k in ka.imag]
    else:
        ka_re = ka_im = [""] * n
        diffs = np.full(n, np.nan)
    max_diff = float(diffs.max()) if analytic else 0.0
    return ([("e", es.tolist()), ("k_numeric_re", kn.real.tolist()), ("k_numeric_im", kn.imag.tolist()),
             ("k_analytic_re", ka_re), ("k_analytic_im", ka_im), ("abs_diff", diffs.tolist())],
            {**_integrator_meta(), "analytic_available": analytic, "max_abs_diff": max_diff,
             "integration_beta": flq.integration_beta(spec)},
            max_diff < args.tol if analytic else None)


# ---------------------------------------------------------------------------
# selfcheck


def cmd_selfcheck(args):
    # the registry serves this command alone, so it is imported here, off the
    # start-up path of every other command
    from . import invariants as inv

    # every spec the registry reads is built before the first check, so an
    # unusable (m, beta) is a configuration error, not a failure mid-run
    try:
        inv.specs(args.m, args.beta)
    except (pot.PotentialError, ell.EllipticDomainError) as exc:
        raise ConfigError(str(exc)) from exc
    results = inv.run(inv.REGISTRY, args.m, args.beta)
    name, value, tol, ok, seconds = zip(*results)
    return ([("name", name), ("value", value), ("tol", tol),
             ("verdict", ["PASS" if o else "FAIL" for o in ok]), ("seconds", seconds)],
            {**_integrator_meta(), "passed": sum(ok), "total": len(ok)},
            all(ok))


# ---------------------------------------------------------------------------
# argument parsing


def _tolerance(text: str) -> float:
    """``--tol``: positive and finite, else a usage error (exit 2) before any work."""
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {text}")
    return tol


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once.  Each ``parse_args`` fills a new namespace,
    and ``--pt``/``--partner`` append to a copy of their shared default."""
    p = argparse.ArgumentParser(prog="ptlame", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--m", type=float, default=0.75)
    point.add_argument("--beta", type=float, default=0.5)
    point.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    point.add_argument("--out", default="-")
    spec = argparse.ArgumentParser(add_help=False, parents=[point])
    spec.add_argument("--a", type=int, default=3)
    spec.add_argument("--b", type=int, default=0)
    spec.add_argument("--pt", action="append_const", const="pt", dest="ops", default=[],
                      help="apply the PT transform (order-sensitive, repeatable)")
    spec.add_argument("--partner", action="append_const", const="partner", dest="ops", default=[],
                      help="take the SUSY partner (order-sensitive, repeatable)")
    spec.add_argument("--shift-zero", action="store_true", dest="shift_zero",
                      help="shift so the lowest band edge sits at zero energy")
    checked = argparse.ArgumentParser(add_help=False, parents=[spec])
    checked.add_argument("--tol", type=_tolerance, default=1e-6)
    checked.add_argument("--emin", type=float, default=None)
    checked.add_argument("--emax", type=float, default=None)
    sub.add_parser("sample-potential", parents=[spec]).add_argument(
        "--n", type=int, default=400, help="points per period")
    sub.add_parser("edges", parents=[checked])
    ps = sub.add_parser("scan", parents=[checked])
    ps.add_argument("--n", type=int, default=500, help="scan energies")
    ps.add_argument("--paired", action="store_true",
                    help="emit the modulus-dual Lame discriminant side by side")
    sub.add_parser("dispersion", parents=[checked]).add_argument(
        "--n", type=int, default=25, help="dispersion energies")
    sub.add_parser("selfcheck", parents=[point])
    return p


_COMMANDS = {
    "sample-potential": cmd_sample_potential,
    "edges": cmd_edges,
    "scan": cmd_scan,
    "dispersion": cmd_dispersion,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    """Run one command; a command that checks something gets a ``verdict``
    as its header's last entry, and a FAIL exits 3."""
    args = _parser().parse_args(argv)
    try:
        columns, results, passed = _COMMANDS[args.command](args)
        if passed is not None:
            results["verdict"] = "PASS" if passed else "FAIL"
        _write_table(args, columns, results)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except flq.FloquetIntegrationError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return 4
    return 3 if results.get("verdict") == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
