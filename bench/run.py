#!/usr/bin/env python3
"""ptlame benchmark: one closed-loop client, one process, no threads.

Run from the repository root:

    python3 bench/run.py --workload edges --seed 1 --seconds 30 --trace 0

Workloads are `edges`, `scan` and `closed-forms` (see workloads.py).  With
`--trace 0` the run sets up, then runs the seed's op list back to back,
checks every op's output and prints the end-to-end metrics; the timed
figures are scaled to a reference machine speed measured along the way
(`calibration_s`).  The list's length follows from `--seconds` and a fixed
per-round cost (`timed_rounds`), never from the clock, so a seed always
runs the same ops and gets the same verdicts.
With `--trace 1` it runs a shorter fixed op list of the same seed twice,
untraced and then traced, and prints the per-layer metrics; the fixed list
makes the per-layer counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Per-op records, the drawn
inputs and, for traced runs, the span tree go to `.bench_out/`.
"""

import os

# One BLAS/OpenMP thread: set in this process's environment before numpy is
# imported, and inherited by the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("edges", "scan", "closed-forms")

SETUP_PROBES = 2  # fresh processes besides this one; setup_s is the median of all
WARMUP_POINT = (0.5, 0.7)  # not on any seeded sequence's anchor
# seeded rounds of a traced run, after the anchor round: 12, 15 and 15 ops
TRACE_ROUNDS = {"edges": 1, "scan": 4, "closed-forms": 14}
# mean cost of one seeded round at the reference speed, measured at the
# commit that added the benchmark; it sizes a timed run's op list
REF_ROUND_S = {"edges": 13.0, "scan": 0.6, "closed-forms": 0.14}
MIN_ROUNDS = 2  # seeded rounds of a timed run, at least
GUARD_S = 120.0  # no op starts later, so that a run ends within 180 s
P90_MIN_OPS = 100  # p90 needs ten samples beyond it
CAL_ITERATIONS = 60000  # about 10 ms
REF_CAL_S = 0.010  # the calibration loop's time at the reference speed

clock = time.perf_counter


def timed_rounds(workload: str, seconds: int) -> int:
    """Seeded rounds of a timed run: with the anchor round, about `seconds`
    of ops at the reference speed, and at least MIN_ROUNDS."""
    return max(MIN_ROUNDS, round(seconds / REF_ROUND_S[workload]) - 1)


def set_up(workload: str, seed: int, rounds: int):
    """Import ptlame, generate the inputs and run one warm-up op.

    Returns (seconds taken, speed factor, workloads module, ops, warm-up
    outcome); the speed factor is the mean of a calibration before and one
    after, over REF_CAL_S.
    """
    before = calibration_s()
    t0 = clock()
    sys.path.insert(0, str(SRC))
    import workloads as wl  # imports ptlame: part of the set-up being timed

    ops = wl.generate_ops(workload, seed, rounds)
    warm = wl.run_op(wl.Op(-1, workload, ops[0].family, ops[0].construction, *WARMUP_POINT), clock)
    elapsed = clock() - t0
    return elapsed, (before + calibration_s()) / 2.0 / REF_CAL_S, wl, ops, warm


def probe_setup(args) -> list[tuple[float, float]]:
    """(set-up seconds, speed factor) of SETUP_PROBES fresh processes, run
    one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["speed_factor"]))
    return samples


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed.

    The VM the benchmark was built on shifts its speed by up to 1.9x, in
    spells of seconds to minutes, with nothing else running in it.  The
    interpreter-bound ops of ptlame shift with this loop: over 60 s of
    closed-forms ops, op latency moved by 1.5x while latency over the loop's
    time moved by +-3%.  The loop touches no ptlame code, so a change to
    ptlame moves the scaled latency as much as the wall-clock one.
    """
    t0 = clock()
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        acc += math.sin(i * 1e-3)
    return clock() - t0


def run_speed(pairs, factors) -> float:
    """The run's speed factor: the ops' factors weighted by their latency.

    The calibrations fall between ops, and the speed changes within an op
    of several seconds, so one op's factor is a poor estimate of its own
    speed; the run's time-weighted mean of them estimates the speed the run
    ran at, which is what differs between runs.
    """
    total = sum(o.latency_s for _, o in pairs)
    return sum(o.latency_s * f for (_, o), f in zip(pairs, factors)) / total if total else 1.0


def combination(op) -> tuple[str, str]:
    return op.family, op.construction


def ranked_latencies(pairs, group=lambda op: None) -> list[float]:
    """Each op's latency as ranked, in op order.

    A failed op counts at least the slowest passing latency of its group, so
    it ranks slower than every passing op of the group.  Where the group has
    no passing op, the slowest passing latency of the run takes that place,
    and where no op passed, the slowest latency of the run.  The default is
    one group: the whole run.
    """
    latencies = [o.latency_s for _, o in pairs]
    run_ceiling = max([o.latency_s for _, o in pairs if o.passed] or latencies)
    ceiling = {}
    for op, o in pairs:
        if o.passed:
            ceiling[group(op)] = max(ceiling.get(group(op), 0.0), o.latency_s)
    return [o.latency_s if o.passed else max(o.latency_s, ceiling.get(group(op), run_ceiling))
            for op, o in pairs]


def op_mean(pairs) -> float:
    """Mean over the workload's combinations of each one's mean ranked latency.

    A timed run holds whole rounds, so this is the plain mean of its ops;
    weighting every combination alike keeps it so when GUARD_S stops a run
    in the middle of a round.  A failed op is
    ranked within its combination: at the run's slowest passing latency it
    would stand in for an op up to 20x dearer, and the run-to-run spread
    would follow the number of failures.
    """
    by_combo = {}
    for (op, _), latency in zip(pairs, ranked_latencies(pairs, combination)):
        by_combo.setdefault(combination(op), []).append(latency)
    return statistics.mean(statistics.mean(v) for v in by_combo.values())


def run_problems(pairs) -> list[str]:
    """Why a run is incorrect: an op that reported success with a wrong
    output or ended in an untyped exception, or no op passing at all."""
    problems = [f"op {op.index}: {o.reason}" for op, o in pairs if o.breaks_run]
    if not any(o.passed for _, o in pairs):
        problems.append("no op passed")
    return problems


def failure_kind(reason: str) -> str:
    return reason.split(":")[0].split(",")[0].strip()


def op_record(op, o) -> dict:
    rec = op.describe()
    rec.update(latency_s=o.latency_s, passed=o.passed, reason=o.reason,
               max_abs_diff=o.max_abs_diff if math.isfinite(o.max_abs_diff) else None, **o.extra)
    return rec


def report_failures(pairs) -> dict:
    tally = {}
    for op, o in pairs:
        if not o.passed:
            kind = failure_kind(o.reason)
            tally[kind] = tally.get(kind, 0) + 1
            print(f"  failed op {op.index} {op.family} {op.construction} m={op.m:.6f} beta={op.beta:.6f}: {o.reason}")
    for kind, n in sorted(tally.items()):
        print(f"  failures[{kind}] = {n}")
    return tally


def write_record(name: str, doc: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args) -> dict:
    setup_samples = probe_setup(args)
    own_setup, own_factor, wl, ops, warm = set_up(args.workload, args.seed,
                                                  timed_rounds(args.workload, args.seconds))
    setup_samples.append((own_setup, own_factor))
    if not warm.passed:
        print(f"  warm-up op failed: {warm.reason}")

    # A calibration before the first op and after each; an op's speed factor
    # is the mean of the two around it over REF_CAL_S.
    pairs, factors = [], []
    before = calibration_s()
    start = clock()
    for op in ops:
        if clock() - start >= GUARD_S:
            print(f"  stopped after {GUARD_S:.0f} s, {len(pairs)} of {len(ops)} ops run")
            break
        pairs.append((op, wl.run_op(op, clock)))
        after = calibration_s()
        factors.append((before + after) / 2.0 / REF_CAL_S)
        before = after
    measured_s = clock() - start

    ranked = sorted(ranked_latencies(pairs))
    failed = sum(1 for _, o in pairs if not o.passed)
    # The gated latency is a mean of the ranked latencies, not their median
    # (README.md, "Why the mean"), and is scaled to the reference speed
    # ("Machine speed"): on a shared VM whose speed shifts by up to 1.9x,
    # with 18 edges ops spread over 0.2-10 s, the median and the wall
    # clock moved more across seeds.  Failed ops enter at their ranked value,
    # so turning a fast failure into a slower success reads as a gain unless
    # it is the slowest of its combination.
    metrics = {
        "setup_s": metric(statistics.median(t / f for t, f in setup_samples), "s"),
        "op_mean_norm_s": metric(op_mean(pairs) / run_speed(pairs, factors), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(ranked)
    print(f"workload {args.workload} seed {args.seed}: {n} ops in {measured_s:.1f} s, {failed} failed")
    print(f"  setup_s        = {metrics['setup_s']['value']:.4f} s (median of {len(setup_samples)} fresh processes, "
          f"at the reference speed; {statistics.median(t for t, _ in setup_samples):.4f} s on the wall clock)")
    print(f"  op_mean_norm_s = {metrics['op_mean_norm_s']['value']:.4f} s (n={n}, mean over combinations, "
          "failed ops ranked slowest, at the reference speed)")
    print(f"  speed factor   = {run_speed(pairs, factors):.3f} (calibration time over {REF_CAL_S} s, "
          f"weighted by op latency; {min(factors):.3f}-{max(factors):.3f} around single ops)")
    print(f"  op_mean_s      = {op_mean(pairs):.4f} s (n={n}, the same on the wall clock)")
    print(f"  op_p50_s       = {statistics.median(ranked):.4f} s (n={n}, wall clock)")
    if n >= P90_MIN_OPS:
        print(f"  op_p90_s       = {statistics.quantiles(ranked, n=10)[-1]:.4f} s (n={n}, wall clock)")
    else:
        print(f"  op_p90_s       : not reported, n={n} < {P90_MIN_OPS}")
    print(f"  fail_ratio     = {failed / n:.4f} ({failed}/{n})")
    print(f"  peak_rss_mb    = {metrics['peak_rss_mb']['value']:.1f} MB")
    tally = report_failures(pairs)
    problems = run_problems(pairs)
    for problem in problems:
        print(f"  incorrect: {problem}")
    write_record(f"{args.workload}-seed{args.seed}-trace0.json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "setup_samples_s_factor": setup_samples, "failures": tally, "problems": problems,
        "metrics": metrics, "ops": [dict(op_record(op, o), speed_factor=f) for (op, o), f in zip(pairs, factors)],
    })
    return {"correct": not problems, "attempted": n, "failed": failed, "metrics": metrics}


def traced_run(args) -> dict:
    from layers import largest_self_times, layer_metrics
    from tracing import Tracer, instrument

    _, _, wl, ops, _ = set_up(args.workload, args.seed, TRACE_ROUNDS[args.workload])
    untraced = [wl.run_op(op, clock) for op in ops]

    tracer = Tracer()
    traced, per_op = [], []
    with instrument(tracer, wl.MODULES):
        for op in ops:
            tracer.op = op.index
            before = tracer.snapshot()
            idx = tracer.begin("op")
            traced.append(wl.run_op(op, clock))
            tracer.end(idx)
            per_op.append(_counter_diff(before, tracer.snapshot()))

    metrics = layer_metrics(tracer, ops, untraced, traced, lambda outcomes: op_mean(list(zip(ops, outcomes))))
    mismatch = [op.index for op, u, t in zip(ops, untraced, traced) if u.passed != t.passed]
    failed = sum(1 for o in traced if not o.passed)
    print(f"workload {args.workload} seed {args.seed}: traced run of {len(ops)} ops, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    largest = largest_self_times(tracer, ops)
    for op in ops:
        if op.index in largest and op.family == "a3" and op.workload == "edges":
            name, self_s, total_s = largest[op.index]
            print(f"  op {op.index} a3 {op.construction}: largest self time {name} ({self_s:.3f} s of {total_s:.3f} s)")
    pairs = list(zip(ops, traced))
    tally = report_failures(pairs)
    problems = run_problems(pairs)
    if mismatch:
        problems.append(f"ops {mismatch} passed/failed differently with tracing on")
    for problem in problems:
        print(f"  incorrect: {problem}")
    write_record(f"{args.workload}-seed{args.seed}-trace1.json", {
        "workload": args.workload, "seed": args.seed, "failures": tally, "problems": problems,
        "metrics": metrics, "largest_self_time_by_op": largest,
        "ops": [dict(op_record(op, o), untraced_latency_s=u.latency_s, layers=d)
                for op, o, u, d in zip(ops, traced, untraced, per_op)],
        "spans": tracer.spans,
    })
    return {"correct": not problems, "attempted": len(ops), "failed": failed, "metrics": metrics}


def _counter_diff(before, after) -> dict:
    out = {}
    for kind, b, a in zip(("calls", "busy_s", "totals"), before, after):
        out[kind] = {k: v - b.get(k, 0) for k, v in a.items() if v != b.get(k, 0)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "ptlame" / "__init__.py").is_file():
        print(f"ptlame sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        seconds, factor, _, _, _ = set_up(args.workload, args.seed, timed_rounds(args.workload, args.seconds))
        print(json.dumps({"setup_s": seconds, "speed_factor": factor}))
        return 0
    result = traced_run(args) if args.trace else timed_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
