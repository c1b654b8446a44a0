#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks and tracing.

    python3 bench/selftest.py            # ~2 min

1. A corrupted output is a failed op: a perturbed numeric or closed-form
   edge energy, a perturbed paired discriminant, a nonzero `im_flags`, a
   perturbed dispersion point, edge energy or Bloch-solution residual in
   the closed-forms outputs; the Schroedinger residual fails a perturbed
   psi'' but not rounding next to a zero of psi.
2. Two traced runs at one seed, in fresh processes, give exactly equal
   per-layer counts; on `edges` the potential calls equal the integrator's
   RHS calls.
3. The tracing wrappers leave every public function of the five modules
   restored, also when an op raises inside the traced region.
4. The gated latency ranks failed ops slowest, also when no op passes, is
   scaled by the run's latency-weighted speed factor, and does not depend
   on where the time guard stops a run in a round; a run in which no
   op passes, or an op ends in an untyped exception such as a broken output
   format, is incorrect.
5. A timed run's op list follows from the seed and `--seconds` alone: whole
   rounds, the anchor round first, the same list for the same seed.
6. The metric names emitted match BENCHMARK.json.

Exits 0 when every test passes.
"""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402  (sets the single-thread environment first)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TIME_UNITS = {"s", "ms", "us"}
failures = []


def check(cond: bool, what: str) -> None:
    print(f"{'PASS' if cond else 'FAIL'}  {what}")
    if not cond:
        failures.append(what)


def cli_output(argv):
    _, rc, out, err = wl._run_cli(argv, run.clock)
    return rc, out, err


def test_corrupted_outputs() -> None:
    op = wl.Op(0, "edges", "a1", "pt", *wl.ANCHOR)
    rc, out, err = cli_output(wl.edges_argv(op))
    check(rc == 0 and wl.edges_outcome(op, rc, out, err).passed, "edges: unmodified anchor output passes")
    doc = json.loads(out)
    for column, row, delta in (("energy_numeric", 1, 1e-5), ("energy_analytic", 2, 1e-3)):
        bad = copy.deepcopy(doc)
        col = bad["columns"][column]
        col[row] = float(col[row]) + delta if column == "energy_numeric" else repr(float(col[row]) + delta)
        res = wl.edges_outcome(op, 0, json.dumps(bad), "")
        check(not res.passed and res.silent_wrong, f"edges: perturbed {column} row {row} is a failed op ({res.reason})")
    res = wl.edges_outcome(op, 3, out.replace('"PASS"', '"FAIL"'), "")
    check(not res.passed and not res.silent_wrong, "edges: exit 3 is a failed op")
    res = wl.edges_outcome(op, 2, "", "config error: beta outside range\n")
    check(not res.passed and res.reason.startswith("ConfigError"), "edges: exit 2 is a failed ConfigError op")

    sop = wl.Op(0, "scan", "a1", "pt", *wl.ANCHOR)
    rc, out, err = cli_output(wl.scan_argv(sop))
    check(rc == 0 and wl.scan_outcome(rc, out, err).passed, "scan: unmodified anchor output passes")
    doc = json.loads(out)
    bad = copy.deepcopy(doc)
    bad["columns"]["re_delta"][7] += 1e-4
    res = wl.scan_outcome(0, json.dumps(bad), "")
    check(not res.passed and res.silent_wrong, f"scan: perturbed discriminant is a failed op ({res.reason})")
    bad = copy.deepcopy(doc)
    bad["columns"]["im_delta"][7] = bad["columns"]["im_delta_dual"][7] = 1e-3
    bad["meta"]["im_flags"] = 1
    res = wl.scan_outcome(0, json.dumps(bad), "")
    check(not res.passed and not res.silent_wrong, f"scan: nonzero im_flags is a failed op ({res.reason})")
    bad["meta"]["im_flags"] = 0
    res = wl.scan_outcome(0, json.dumps(bad), "")
    check(not res.passed and res.silent_wrong, f"scan: unreported |Im Delta| flag is a failed op ({res.reason})")

    m, beta = wl.ANCHOR
    vals = wl.closed_forms_values(m, beta, "a3")
    check(wl.check_closed_forms(m, beta, vals) == "", "closed-forms: unmodified anchor outputs pass")
    bad = copy.deepcopy(vals)
    label, rows = bad["tables"][1]
    rows[3] = (rows[3][0] + 1e-9, rows[3][1])
    check(wl.check_closed_forms(m, beta, bad) != "", "closed-forms: perturbed closed-form energy fails")
    bad = copy.deepcopy(vals)
    e, k, factors = bad["dispersion"][2]
    bad["dispersion"][2] = (e, k + 1e-6, factors)
    check(wl.check_closed_forms(m, beta, bad) != "", "closed-forms: perturbed dispersion k fails")
    bad = copy.deepcopy(vals)
    rc, out, err = bad["sample"]
    sdoc = json.loads(out)
    sdoc["columns"]["im_v"][5] += 1e-6
    bad["sample"] = (rc, json.dumps(sdoc), err)
    check(wl.check_closed_forms(m, beta, bad) != "", "closed-forms: PT-asymmetric sample fails")
    bad = copy.deepcopy(vals)
    bad["bloch"][1] = 1e-6
    check(wl.check_closed_forms(m, beta, bad) != "", "closed-forms: Bloch-solution residual above 1e-7 fails")

    # psi = sin x solves -psi'' + (V - E) psi = 0 for V = 1, E = 2; the grid
    # passes 1e-6 from its zero at x = 0
    xs = [1e-6 + k * math.pi / 10 for k in range(20)]
    def jet(d2_error):
        return lambda x: (math.sin(x), math.cos(x), -math.sin(x) + d2_error)
    near_zero, off = (wl.schroedinger_residual(jet(err), 2.0, xs, [1.0] * 20) for err in (2e-11, 1e-6))
    check(near_zero < wl.BLOCH_ODE_TOL < off,
          f"residual: psi'' off by 2e-11 next to a zero of psi passes ({near_zero:.1e}), off by 1e-6 fails ({off:.1e})")
    # a seeded draw where the Bloch solution of sign -1 vanishes to 1e-6 at a grid point
    m, beta = 0.6396898822605691, 0.8395919362572617
    check(wl.check_closed_forms(m, beta, wl.closed_forms_values(m, beta, "a1")) == "",
          "closed-forms: a draw next to a zero of the Bloch solution passes")


def test_run_verdicts() -> None:
    def pair(i, family, latency, passed=True, reason=""):
        return wl.Op(i, "edges", family, "pt", *wl.ANCHOR), wl.Outcome(latency, passed, reason)

    ok = [pair(0, "a1", 0.1), pair(1, "a3", 1.0), pair(2, "a1", 0.3), pair(3, "a3", 3.0)]
    check(math.isclose(run.op_mean(ok), 1.1) and math.isclose(run.op_mean(ok + [pair(4, "a1", 0.2)]), 1.1),
          "op_mean: an extra op of an average-cost combination past a whole round leaves it unchanged")
    mixed = ok + [pair(4, "a1", 0.05, False, "exit 3: verdict FAIL")]
    check(run.ranked_latencies(mixed)[-1] == 3.0 and run.ranked_latencies(mixed, run.combination)[-1] == 0.3
          and math.isclose(run.op_mean(mixed), (0.7 / 3 + 2.0) / 2) and not run.run_problems(mixed),
          "ranking: a fast failed op counts at the slowest passing latency of the run or of its combination; "
          "the run stays correct")
    check(math.isclose(run.run_speed(ok, [2.0, 1.0, 1.0, 0.5]), (0.2 + 1.0 + 0.3 + 1.5) / 4.4),
          "speed: the run's speed factor is the ops' factors weighted by their latency")
    none = [pair(0, "a1", 0.0, False, "untyped KeyError: 'columns'"), pair(1, "a3", 2.0, False, "exit 3: x")]
    check(run.ranked_latencies(none) == run.ranked_latencies(none, run.combination) == [2.0, 2.0],
          "ranking: with no passing op, every failed op counts at the run's slowest latency")
    check(len(run.run_problems(none)) == 2, f"verdict: untyped exception and no passing op make the run incorrect "
          f"{run.run_problems(none)}")

    # a break of the output format the checks read, through the real op path
    real_main = wl.cli.main
    wl.cli.main = lambda argv: print('{"meta": {"verdict": "PASS"}}') or 0
    try:
        op = wl.Op(0, "edges", "a1", "pt", *wl.ANCHOR)
        res = wl.run_op(op, run.clock)
    finally:
        wl.cli.main = real_main
    check(not res.passed and res.breaks_run and res.latency_s > 0.0 and run.run_problems([(op, res)]),
          f"verdict: an edges output without its columns fails the op and the run ({res.reason})")


def test_op_lists() -> None:
    for workload in run.WORKLOADS:
        rounds = run.timed_rounds(workload, 30)
        ops = wl.generate_ops(workload, 7, rounds)
        width = len(ops) // (rounds + 1)
        check(rounds >= run.MIN_ROUNDS and len(ops) == width * (rounds + 1)
              and all((op.m, op.beta) == wl.ANCHOR for op in ops[:width])
              and not any((op.m, op.beta) == wl.ANCHOR for op in ops[width:])
              and ops == wl.generate_ops(workload, 7, rounds) != wl.generate_ops(workload, 8, rounds),
              f"{workload}: the timed op list is the anchor round and {rounds} seeded rounds of {width}, "
              "the same for the same seed")


def test_wrappers_restored() -> None:
    public = {(name, attr): getattr(mod, attr)
              for name, mod in wl.MODULES.items() for attr in getattr(mod, "__all__", ())}
    patched = {(n, a): getattr(wl.MODULES[n], a) for n, a in tracing.PATCHED}
    tracer = tracing.Tracer()
    replaced = False
    try:
        with tracing.instrument(tracer, wl.MODULES):
            replaced = all(getattr(wl.MODULES[n], a) is not f for (n, a), f in patched.items())
            wl.run_op(wl.Op(0, "closed-forms", "all", "closed-forms", *wl.ANCHOR), run.clock)
            raise RuntimeError("leave the traced region by an exception")
    except RuntimeError:
        pass
    check(replaced, "tracing: every listed attribute is replaced while tracing")
    check(tracer.calls["potentials.V"] > 0 and tracer.span_summary().get("spectra.pt_band_edges", (0,))[0] == 3,
          "tracing: counters and spans record a closed-forms op")
    still = [f"{n}.{a}" for (n, a), f in {**public, **patched}.items() if getattr(wl.MODULES[n], a) is not f]
    check(not still, f"tracing: every public function restored after the traced run {still or ''}")


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] not in TIME_UNITS}


def test_repeatable_counts(workload: str, seed: int = 5) -> None:
    first, second = traced_counts(workload, seed), traced_counts(workload, seed)
    check(bool(first) and first == second, f"{workload}: two traced runs at seed {seed} give equal counts")
    if workload == "edges" and first:
        check(first["potentials.V.calls"] == first["floquet.rhs_calls"],
              f"edges: potential calls {first['potentials.V.calls']} equal RHS calls {first['floquet.rhs_calls']}")


def test_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names(),
          "BENCHMARK.json per_layer matches the traced run's metrics")
    check([m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_mean_norm_s", "peak_rss_mb"],
          "BENCHMARK.json end_to_end matches the timed run's metrics")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads match")


def main() -> int:
    test_metric_names()
    test_corrupted_outputs()
    test_run_verdicts()
    test_op_lists()
    test_wrappers_restored()
    for workload in run.WORKLOADS:
        test_repeatable_counts(workload)
    print(f"selftest: {'PASS' if not failures else 'FAIL'} ({len(failures)} failed)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
