"""Seeded inputs, ops and output checks of the three benchmark workloads.

One op is one user-level call.  Each op checks its own output and returns an
`Outcome`; the latency the benchmark reports covers the call only, not the
check.

* edges        -- `ptlame edges --shift-zero` in process, per (family,
                  construction, m, beta); scalar root refinement dominates.
* scan         -- `ptlame scan --pt --paired --n 500` in process, per
                  (a, m, beta); batched integration only.
* closed-forms -- the analytic side at one (m, beta): edge tables, edge-jet
                  and Bloch-solution residuals, the a=1 dispersion, and
                  `ptlame sample-potential --pt --partner --shift-zero`;
                  no ODE.

Draws are kept as drawn: no (m, beta) is rejected or moved because an op
fails there.  Every seeded run starts with the anchor point (0.75, 0.5).
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from ptlame import cli, elliptic, floquet, potentials, spectra

MODULES = {"cli": cli, "elliptic": elliptic, "floquet": floquet, "potentials": potentials, "spectra": spectra}

ANCHOR = (0.75, 0.5)
M_RANGE = (0.05, 0.95)
BETA_RANGE = (0.05, 1.5)
VERIFY_TOL = 1e-6  # the CLI's own --tol default
JET_TOL = 1e-8
BLOCH_ODE_TOL = 1e-7
BLOCH_FACTOR_TOL = 1e-8
PT_SYMMETRY_TOL = 1e-9

# (label, a, b, spectra kind)
FAMILIES = (("a1", 1, 0, "lame"), ("a3", 3, 0, "lame"), ("a21", 2, 1, "assoc"))
CONSTRUCTIONS = (("pt", ("--pt",)), ("pt+partner", ("--pt", "--partner")))
SCAN_A = (1, 2, 3)
SCAN_N = 500

UNTYPED = "untyped "  # reason prefix of an exception not among TYPED_ERRORS
# ptlame's own typed errors; anything else escaping an op is tallied too,
# under its own name
TYPED_ERRORS = tuple(
    getattr(mod, name)
    for mod in (elliptic, floquet, potentials, spectra, cli)
    for name in getattr(mod, "__all__", ())
    if isinstance(getattr(mod, name), type) and issubclass(getattr(mod, name), Exception)
)


@dataclass
class Op:
    index: int
    workload: str
    family: str
    construction: str
    m: float
    beta: float

    def describe(self) -> dict:
        return {"index": self.index, "family": self.family, "construction": self.construction,
                "m": self.m, "beta": self.beta}


@dataclass
class Outcome:
    """Result of one op.

    ``passed`` is the op's verdict.  ``silent_wrong`` marks an op that
    reported success while the benchmark's own check of its output failed;
    it makes the run incorrect, as an untyped exception does (`run_op`).
    Failures the program reports itself (exit codes 2 and 3, typed
    exceptions) are counted as failed ops.
    """

    latency_s: float = 0.0
    passed: bool = False
    reason: str = ""
    silent_wrong: bool = False
    max_abs_diff: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def breaks_run(self) -> bool:
        return self.silent_wrong or self.reason.startswith(UNTYPED)


def _latin(rng: random.Random, size: int) -> list[tuple[float, float]]:
    """``size`` (m, beta) draws, each uniform over the full ranges.

    The draws are stratified (a Latin hypercube): each of ``size`` equal
    slices of the m range and of the beta range holds one draw, in random
    order.
    """
    def column(lo, hi):
        slots = list(range(size))
        rng.shuffle(slots)
        return [lo + (hi - lo) * (k + rng.random()) / size for k in slots]

    return list(zip(column(*M_RANGE), column(*BETA_RANGE)))


def generate_ops(workload: str, seed: int, rounds: int) -> list[Op]:
    """The workload's op list for ``seed``: the anchor round and ``rounds``
    seeded rounds.

    A round visits every family/construction combination (edges), every a
    (scan) or one point (closed-forms) in a fixed order.  Round 0 is the
    anchor point.  Each combination's ``rounds`` seeded draws are one Latin
    hypercube (`_latin`), one draw per round, so every combination spans
    the domain, including the ends where ops fail, within the run.  The
    same seed and round count give the same list.
    """
    rng = random.Random(f"ptlame-bench/{workload}/{seed}")
    if workload == "edges":
        combos = [(fam[0], con[0]) for fam in FAMILIES for con in CONSTRUCTIONS]
    elif workload == "scan":
        combos = [(f"a{a}", "pt") for a in SCAN_A]
    elif workload == "closed-forms":
        combos = [("all", "closed-forms")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    draws = [_latin(rng, rounds) for _ in combos]
    points = [[ANCHOR] * len(combos)] + [[d[r] for d in draws] for r in range(rounds)]
    ops: list[Op] = []
    for row in points:
        for (family, construction), (m, beta) in zip(combos, row):
            ops.append(Op(len(ops), workload, family, construction, m, beta))
    return ops


def _family(label: str):
    """(label, a, b, kind) of a family label; scan's 'a2' is the plain a=2 Lame."""
    for fam in FAMILIES:
        if fam[0] == label:
            return fam
    return (label, int(label[1:]), 0, "lame")


def _run_cli(argv: list[str], clock) -> tuple[float, int, str, str]:
    """Call `ptlame <argv>` in process; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return clock() - t0, rc, out.getvalue(), err.getvalue()


def _exit_reason(rc: int, err: str) -> str:
    """Failure reason of a CLI call; exit code 2 is a ConfigError by the CLI's contract."""
    msg = err.strip().splitlines()[-1] if err.strip() else ""
    return (f"ConfigError (exit 2): {msg}" if rc == 2 else f"exit {rc}: {msg}")[:200]


# ---------------------------------------------------------------------------
# edges


def edges_argv(op: Op) -> list[str]:
    _, a, b, _ = _family(op.family)
    flags = dict(CONSTRUCTIONS)[op.construction]
    return ["edges", "--a", str(a), "--b", str(b), "--m", repr(op.m), "--beta", repr(op.beta),
            *flags, "--shift-zero", "--format", "json"]


def check_edges(op: Op, doc: dict) -> tuple[str, float]:
    """Benchmark-side check of an edges table: ('' or a reason, max |diff|).

    Every closed-form edge, from `spectra.closed_form_energies`, must appear
    once in the analytic column and have a numeric edge within 1e-6.
    """
    _, a, b, kind = _family(op.family)
    expected = sorted(spectra.closed_form_energies(kind, a, b, op.m, pt=True, shifted=True))
    cols = doc["columns"]
    analytic = [float(s) for s in cols["energy_analytic"] if s != ""]
    numeric = np.array(cols["energy_numeric"], dtype=float)
    if len(analytic) != len(expected):
        return f"{len(analytic)} of {len(expected)} closed-form edges matched", math.inf
    if max(abs(x - y) for x, y in zip(sorted(analytic), expected)) > 1e-12 * max(1.0, max(map(abs, expected))):
        return "analytic column differs from spectra.closed_form_energies", math.inf
    worst = 0.0
    used = set()
    for e in expected:
        j = int(np.argmin(np.abs(numeric - e)))
        if j in used:
            return f"two closed-form edges paired with numeric row {j}", math.inf
        used.add(j)
        worst = max(worst, abs(numeric[j] - e))
    if not worst < VERIFY_TOL:
        return f"closed form vs Floquet differs by {worst:.3e}", worst
    return "", worst


def run_edges(op: Op, clock) -> Outcome:
    latency, rc, out, err = _run_cli(edges_argv(op), clock)
    res = edges_outcome(op, rc, out, err)
    res.latency_s = latency
    return res


def edges_outcome(op: Op, rc: int, out: str, err: str) -> Outcome:
    """Verdict on one `ptlame edges` call from its exit code and output."""
    res = Outcome()
    if rc == 2:
        res.reason = _exit_reason(rc, err)
        return res
    doc = json.loads(out)
    meta = doc["meta"]
    problem, worst = check_edges(op, doc)
    res.max_abs_diff = worst
    if rc == 0 and meta.get("verdict") == "PASS":
        res.passed = not problem
        res.silent_wrong = bool(problem)
        res.reason = f"PASS reported but {problem}" if problem else ""
    else:
        res.reason = f"exit {rc}: verdict {meta.get('verdict')}, {problem or 'benchmark check passes'}"
    return res


# ---------------------------------------------------------------------------
# scan


def scan_argv(op: Op) -> list[str]:
    _, a, _, _ = _family(op.family)
    return ["scan", "--a", str(a), "--m", repr(op.m), "--beta", repr(op.beta), "--pt", "--paired",
            "--n", str(SCAN_N), "--format", "json"]


def check_scan(doc: dict) -> tuple[str, int, float]:
    """Benchmark-side check of a paired scan: ('' or a reason, |Im| flags, max |diff|).

    Recomputes Delta_PT(E) - Delta_dual(E + a(a+1)) and the |Im Delta| > 1e-6
    flags from the emitted columns and requires them to agree with the
    program's own metadata.
    """
    cols, meta = doc["columns"], doc["meta"]
    d = np.array(cols["re_delta"], dtype=float) + 1j * np.array(cols["im_delta"], dtype=float)
    dd = np.array(cols["re_delta_dual"], dtype=float) + 1j * np.array(cols["im_delta_dual"], dtype=float)
    if len(d) != SCAN_N:
        return f"{len(d)} samples, expected {SCAN_N}", 0, math.inf
    worst = float(np.max(np.abs(d - dd)))
    flags = int(np.sum(np.abs(d.imag) > 1e-6))
    if flags != meta.get("im_flags"):
        return f"im_flags reported {meta.get('im_flags')}, recomputed {flags}", flags, worst
    if not worst < VERIFY_TOL:
        return f"paired discriminants differ by {worst:.3e}", flags, worst
    return "", flags, worst


def run_scan(op: Op, clock) -> Outcome:
    latency, rc, out, err = _run_cli(scan_argv(op), clock)
    res = scan_outcome(rc, out, err)
    res.latency_s = latency
    return res


def scan_outcome(rc: int, out: str, err: str) -> Outcome:
    """Verdict on one paired `ptlame scan` call from its exit code and output."""
    res = Outcome()
    if rc == 2:
        res.reason = _exit_reason(rc, err)
        return res
    doc = json.loads(out)
    problem, flags, worst = check_scan(doc)
    res.max_abs_diff = worst
    res.extra["im_flags"] = flags
    if rc == 0 and doc["meta"].get("verdict") == "PASS":
        res.silent_wrong = bool(problem)
        if problem:
            res.reason = f"PASS reported but {problem}"
        elif doc["meta"]["im_flags"]:
            res.reason = f"im_flags: {doc['meta']['im_flags']} samples with |Im Delta| > 1e-6"
        res.passed = not res.reason
    else:
        res.reason = f"exit {rc}: verdict {doc['meta'].get('verdict')}, {problem or 'benchmark check passes'}"
    return res


# ---------------------------------------------------------------------------
# closed-forms


def _shifted_pt(kind: str, a: int, b: int, m: float, beta: float):
    eg = spectra.ground_energy(kind, a, b, m, pt=True)
    return potentials.Shifted(potentials.PTTransform(potentials.associated_lame(a, b, m), beta), eg)


def dispersion_energies(m: float) -> list[float]:
    """Six energies in each band of the shifted a=1 PT potential, three in the gap (m, 1)."""
    lower = [m * t for t in np.linspace(0.05, 0.95, 6)]
    gap = [m + (1.0 - m) * t for t in (0.1, 0.5, 0.9)]
    upper = list(np.linspace(1.05, 3.0, 6))
    return [float(e) for e in lower + gap + upper]


def schroedinger_residual(jet, energy: float, xs, vx) -> float:
    """max |-psi'' + (V - E) psi| over the grid ``xs``, divided by max |V psi|.

    ``jet(x)`` gives (psi, psi', psi'') and ``vx`` the potential on the
    grid.  The residual is taken relative to the solution's scale on the
    grid, not point by point: at a zero of psi the pointwise ratio is 0/0,
    and a grid point that falls within ~1e-4 of a zero would read as a
    wrong solution.
    """
    rmax = vmax = 0.0
    for x, v in zip(xs, vx):
        psi, _, d2psi = jet(float(x))
        rmax = max(rmax, abs(-d2psi + (v - energy) * psi))
        vmax = max(vmax, abs(v * psi))
    return rmax / vmax


def closed_forms_values(m: float, beta: float, sample_family: str):
    """Run the closed-forms op; returns the raw outputs for `check_closed_forms`.

    Everything inside is the op: edge tables with their jet residuals,
    dispersion points with Bloch factors, the Bloch-solution residual and the
    sample-potential command.
    """
    vals = {"tables": [], "dispersion": [], "bloch": []}
    for label, a, b, kind in FAMILIES:
        edges = spectra.pt_band_edges(kind, a, b, m, beta)
        spec = _shifted_pt(kind, a, b, m, beta)
        f = potentials.compiled_value_fn(spec)
        xs = np.linspace(0.0, spec.period, 40, endpoint=False)
        vx = [f(float(x)) for x in xs]
        rows = [(e.energy, schroedinger_residual(e.jet, e.energy, xs, vx)) for e in edges]
        vals["tables"].append((label, rows))

    L = 2.0 * elliptic.modulus(m).Kprime
    x0 = 0.37 * L
    for e in dispersion_energies(m):
        dp = spectra.dispersion_analytic(m, beta, e)
        factors = []
        for sign in (1, -1):
            p0 = spectra.bloch_solution_jet(m, beta, e, sign, x0)[0]
            p1 = spectra.bloch_solution_jet(m, beta, e, sign, x0 + L)[0]
            factors.append(p1 / p0)
        vals["dispersion"].append((e, dp.k, factors))

    spec1 = _shifted_pt("lame", 1, 0, m, beta)
    f1 = potentials.compiled_value_fn(spec1)
    e = m / 2.0
    xs = np.linspace(0.0, spec1.period, 20, endpoint=False)
    vx = [f1(float(x)) for x in xs]
    for sign in (1, -1):
        jet = functools.partial(spectra.bloch_solution_jet, m, beta, e, sign)
        vals["bloch"].append(schroedinger_residual(jet, e, xs, vx))

    _, a, b, _ = _family(sample_family)
    argv = ["sample-potential", "--a", str(a), "--b", str(b), "--m", repr(m), "--beta", repr(beta),
            "--pt", "--partner", "--shift-zero", "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    vals["sample"] = (rc, out.getvalue(), err.getvalue())
    return vals


def check_closed_forms(m: float, beta: float, vals) -> str:
    """'' when every closed-forms output checks, else the first failing check."""
    for (label, a, b, kind), (_, rows) in zip(FAMILIES, vals["tables"]):
        expected = spectra.closed_form_energies(kind, a, b, m, pt=True, shifted=True)
        if max(abs(r[0] - e) for r, e in zip(rows, expected)) > 1e-12 or len(rows) != len(expected):
            return f"{label}: pt_band_edges energies differ from closed_form_energies"
        worst = max(r[1] for r in rows)
        if not worst < JET_TOL:
            return f"{label}: edge-jet Schroedinger residual {worst:.3e}"
    L = 2.0 * elliptic.modulus(m).Kprime
    for e, k, factors in vals["dispersion"]:
        in_band = e < m or e > 1.0
        if in_band and not (k.imag == 0.0 and 0.0 <= k.real <= math.pi / L + 1e-12):
            return f"in-band E={e:.6g}: k={k} not real in [0, pi/L]"
        if not in_band and not k.imag > 0.0:
            return f"in-gap E={e:.6g}: k={k} has no attenuation"
        for fac in factors:
            dev = min(abs(fac - cmath.exp(1j * k * L)), abs(fac - cmath.exp(-1j * k * L))) / max(1.0, abs(fac))
            if not dev < BLOCH_FACTOR_TOL:
                return f"E={e:.6g}: Bloch factor off exp(+-ikL) by {dev:.3e}"
    worst = max(vals["bloch"])
    if not worst < BLOCH_ODE_TOL:
        return f"Bloch-solution residual {worst:.3e}"
    rc, out, err = vals["sample"]
    if rc != 0:
        return _exit_reason(rc, err)
    cols = json.loads(out)["columns"]
    v = np.array(cols["re_v"], dtype=float) + 1j * np.array(cols["im_v"], dtype=float)
    n = len(v) // 2
    scale = max(1.0, float(np.max(np.abs(v))))
    if not np.all(np.isfinite(v)):
        return "sample-potential emitted non-finite values"
    # grid x_i = i L / n over two periods: V(-x_i) = V(x_{2n-i}) must be conj V(x_i)
    sym = float(np.max(np.abs(v[1:][::-1] - np.conj(v[1:])))) / scale
    per = float(np.max(np.abs(v[n:] - v[:n]))) / scale
    if not max(sym, per) < PT_SYMMETRY_TOL:
        return f"sample-potential breaks PT symmetry/periodicity by {max(sym, per):.3e}"
    return ""


def run_closed_forms(op: Op, clock) -> Outcome:
    sample_family = FAMILIES[op.index % len(FAMILIES)][0]
    t0 = clock()
    vals = closed_forms_values(op.m, op.beta, sample_family)
    res = Outcome(latency_s=clock() - t0)
    problem = check_closed_forms(op.m, op.beta, vals)
    res.passed = not problem
    res.reason = problem
    # an exit code is the program reporting its own failure; anything else
    # is a wrong value returned without complaint
    res.silent_wrong = bool(problem) and not problem.startswith(("exit ", "ConfigError"))
    return res


RUNNERS = {"edges": run_edges, "scan": run_scan, "closed-forms": run_closed_forms}


def run_op(op: Op, clock) -> Outcome:
    """Run and check one op.

    An exception escaping it is a failed op named after the exception type,
    with the time from the op's start to the exception as its latency.  One
    that is not among ptlame's own error classes is prefixed with
    ``UNTYPED``: a crash of the program or a break of the output format the
    checks read, either of which makes the run incorrect.
    """
    t0 = clock()
    try:
        return RUNNERS[op.workload](op, clock)
    except Exception as exc:
        kind = "" if isinstance(exc, TYPED_ERRORS) else UNTYPED
        return Outcome(latency_s=clock() - t0, reason=f"{kind}{type(exc).__name__}: {exc}"[:200])
