"""Command-line surface: sampling, edge tables, scans, dispersion, selfcheck.

Every command emits machine-readable output (CSV or JSON) with a metadata
comment recording the configuration, and uses the exit-code contract
0 = ok, 2 = configuration error, 3 = verification failure, so CI can gate
directly on the cross-checks.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import elliptic as ell
from . import floquet as flq
from . import potentials as pot
from . import spectra as spc

__all__ = ["main", "RunConfig", "build_spec", "ConfigError", "run_selfcheck"]

_VERIFY_TOL = 1e-6


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    a: int = 3
    b: int = 0
    m: float = 0.75
    beta: float = 0.5
    ops: tuple = ()
    shift_zero: bool = False
    emin: float | None = None
    emax: float | None = None
    n: int | None = None
    fmt: str = "csv"
    out: str = "-"
    tol: float = _VERIFY_TOL
    paired: bool = False


def build_spec(cfg: RunConfig):
    """Construct the potential spec from config; raises ConfigError."""
    try:
        spec = pot.associated_lame(cfg.a, cfg.b, cfg.m)
        for op in cfg.ops:
            if op == "pt":
                spec = pot.PTTransform(spec, cfg.beta)
            elif op == "partner":
                kind, a, b, _ = pot.base_family(spec)
                rows = spc.predicted_edges(spec)
                if rows is None:
                    raise ConfigError(
                        f"--partner needs a closed-form ground state; none for (a={a}, b={b})"
                    )
                spec = pot.SusyPartner(pot.Shifted(spec, rows[0][0]))
            else:
                raise ConfigError(f"unknown op {op!r}")
        if cfg.shift_zero:
            rows = spc.predicted_edges(spec)
            if rows is None:
                raise ConfigError("--shift-zero needs closed-form edges; none for this family")
            if abs(rows[0][0]) > 1e-12:
                spec = pot.Shifted(spec, rows[0][0])
        return spec
    except (pot.PotentialError, ell.EllipticDomainError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _write_table(cfg: RunConfig, command: str, columns, extra_meta=None) -> None:
    meta = {
        "command": command,
        "a": cfg.a,
        "b": cfg.b,
        "m": cfg.m,
        "beta": cfg.beta,
        "ops": list(cfg.ops),
        "shift_zero": cfg.shift_zero,
        "tol": cfg.tol,
        "integrator_rtol": 1e-11,
        "integrator_atol": 1e-13,
    }
    if extra_meta:
        meta.update(extra_meta)
    if cfg.fmt == "json":
        doc = {"meta": meta, "columns": {name: list(vals) for name, vals in columns}}
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    else:
        parts = [f"# {' '.join(f'{k}={v}' for k, v in meta.items())}\n"]
        parts.append(",".join(name for name, _ in columns) + "\n")
        rows = len(columns[0][1])
        for i in range(rows):
            parts.append(",".join(
                (_fmt(vals[i]) if isinstance(vals[i], (int, float, np.floating)) else str(vals[i]))
                for _, vals in columns) + "\n")
        text = "".join(parts)
    if cfg.out in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(text)


def cmd_sample_potential(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    n = cfg.n or 400
    L = spec.period
    xs = np.linspace(0.0, 2.0 * L, 2 * n, endpoint=False)
    f = pot.compiled_value_fn(spec)
    vals = [f(float(x)) for x in xs]
    _write_table(cfg, "sample-potential",
                 [("x", list(xs)), ("re_v", [v.real for v in vals]), ("im_v", [v.imag for v in vals])],
                 {"period": L, "points_per_period": n})
    return 0


def _pair_edges(predicted, found) -> dict:
    """Pair each predicted (energy, class) row with the nearest unused simple
    numeric edge of the same class; returns {index into found: energy}.

    Pairing by energy and class, not by position, keeps one missed or
    spurious edge from shifting every later comparison.
    """
    pairs = {}
    for energy, period_class in predicted:
        free = [i for i, e in enumerate(found)
                if e.multiplicity == 1 and e.period_class == period_class and i not in pairs]
        if free:
            pairs[min(free, key=lambda i: abs(found[i].energy - energy))] = energy
    return pairs


def cmd_edges(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    predicted = spc.predicted_edges(spec)
    if predicted is not None:
        lo = min(e for e, _ in predicted) - 0.5
        hi = max(e for e, _ in predicted) + 0.5
    else:
        lo, hi = flq.default_energy_range(spec)
    emin = cfg.emin if cfg.emin is not None else lo
    emax = cfg.emax if cfg.emax is not None else hi
    found = flq.find_band_edges(spec, emin, emax)
    simple = [e for e in found if e.multiplicity == 1]
    pairs = _pair_edges(predicted or [], found)

    idx, eana, enum, diff, disc, cls = [], [], [], [], [], []
    max_diff = 0.0
    count_ok = predicted is None or len(simple) == len(predicted) == len(pairs)
    for i, e in enumerate(found):
        idx.append(i)
        enum.append(e.energy)
        disc.append(e.discriminant.real)
        cls.append(e.period_class)
        if i in pairs:
            ea = pairs[i]
            eana.append(_fmt(ea))
            diff.append(abs(ea - e.energy))
            max_diff = max(max_diff, abs(ea - e.energy))
        else:
            eana.append("")
            diff.append(float("nan"))
    passed = count_ok and (predicted is None or max_diff < cfg.tol)
    verdict = "PASS" if passed else "FAIL"
    _write_table(cfg, "edges",
                 [("index", idx), ("energy_analytic", eana), ("energy_numeric", enum),
                  ("abs_diff", diff), ("discriminant", disc), ("period_class", cls)],
                 {"verdict": verdict, "max_abs_diff": max_diff,
                  "analytic_available": predicted is not None})
    return 0 if passed else 3


def cmd_scan(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    if cfg.emin is None or cfg.emax is None:
        lo, hi = flq.default_energy_range(spec)
    emin = cfg.emin if cfg.emin is not None else lo
    emax = cfg.emax if cfg.emax is not None else hi
    n = cfg.n or 500
    scan = flq.discriminant_scan(spec, emin, emax, n)
    cols = [("e", list(scan.energies)),
            ("re_delta", list(scan.discriminants.real)),
            ("im_delta", list(scan.discriminants.imag))]
    meta = {"im_flags": int(scan.im_flags.sum())}
    rc = 0
    if cfg.paired:
        if cfg.ops != ("pt",) or cfg.b != 0 or cfg.shift_zero:
            raise ConfigError("--paired requires a plain PT Lame spec (--pt, b=0, no partner/shift)")
        dual = pot.Lame(cfg.a, 1.0 - cfg.m)
        shift = cfg.a * (cfg.a + 1)
        dual_scan = flq.discriminant_scan(dual, emin + shift, emax + shift, n)
        dd = dual_scan.discriminants
        cols += [("re_delta_dual", list(dd.real)), ("im_delta_dual", list(dd.imag)),
                 ("abs_diff", list(np.abs(scan.discriminants - dd)))]
        max_diff = float(np.max(np.abs(scan.discriminants - dd)))
        meta["paired_max_abs_diff"] = max_diff
        meta["verdict"] = "PASS" if max_diff < cfg.tol else "FAIL"
        rc = 0 if max_diff < cfg.tol else 3
    _write_table(cfg, "scan", cols, meta)
    return rc


def cmd_dispersion(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    predicted = spc.predicted_edges(spec)
    base0 = predicted[0][0] if predicted else 0.0
    emin = cfg.emin if cfg.emin is not None else base0
    emax = cfg.emax if cfg.emax is not None else base0 + 3.0
    n = cfg.n or 25
    # the analytic dispersion covers the a=1 PT potential, in the basis
    # shifted so its ground edge is zero
    kind, a, b, _ = pot.base_family(spec)
    analytic = (kind, a, b) == ("lame", 1, 0) and pot.has_pt(spec) and not pot._contains_partner(spec)
    offset = base0 if analytic else None
    es = np.linspace(emin, emax, n)
    kn_re, kn_im, ka_re, ka_im, diffs = [], [], [], [], []
    max_diff = 0.0
    for e in es:
        kn = flq.dispersion_numeric(spec, float(e))
        kn_re.append(kn.real)
        kn_im.append(kn.imag)
        if offset is not None:
            dp = spc.dispersion_analytic(cfg.m, cfg.beta, float(e) - offset)
            ka_re.append(_fmt(dp.k.real))
            ka_im.append(_fmt(dp.k.imag))
            d = abs(dp.k - kn)
            diffs.append(d)
            max_diff = max(max_diff, d)
        else:
            ka_re.append("")
            ka_im.append("")
            diffs.append(float("nan"))
    _write_table(cfg, "dispersion",
                 [("e", list(es)), ("k_numeric_re", kn_re), ("k_numeric_im", kn_im),
                  ("k_analytic_re", ka_re), ("k_analytic_im", ka_im), ("abs_diff", diffs)],
                 {"analytic_available": offset is not None, "max_abs_diff": max_diff})
    if offset is not None and max_diff >= cfg.tol:
        return 3
    return 0


# ---------------------------------------------------------------------------
# selfcheck


def _check_elliptic_identities():
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in (0.1, 0.25, 0.5, 0.75, 0.9):
        kp = ell.modulus(m).Kprime
        count = 0
        while count < 50:
            z = complex(rng.uniform(-4, 4), rng.uniform(-0.85, 0.85) * kp)
            try:
                jv = ell.jacobi_complex(z, m)
            except ell.PoleProximityError:
                continue
            count += 1
            worst = max(worst, abs(jv.sn**2 + jv.cn**2 - 1.0), abs(jv.dn**2 + m * jv.sn**2 - 1.0))
    return worst


def _check_imaginary_shift_identity():
    worst = 0.0
    for m in (0.25, 0.5, 0.75):
        mod = ell.modulus(m)
        for x in np.linspace(0.1, 1.9, 10):
            lhs = math.sqrt(m) * ell.jacobi_real(x, m).sn
            rhs = ell.jacobi_complex(1j * x + mod.Kprime + 1j * mod.K, 1.0 - m).dn
            worst = max(worst, abs(lhs + rhs))
    return worst


def _check_eta_quasi_periodicity():
    worst = 0.0
    for m in (0.5, 0.75):
        mod = ell.modulus(m)
        b = ell.theta_bundle(m)
        for x in np.linspace(0.0, 1.2, 7):
            u = 1j * x + 0.5
            lhs = ell.theta_jets(b, u + 2j * mod.Kprime)[0][0]
            fac = -math.exp(math.pi * mod.Kprime / mod.K) * np.exp(-1j * math.pi * u / mod.K)
            rhs = fac * ell.theta_jets(b, u)[0][0]
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def _check_eigenfunction_residuals(m=0.75, beta=0.5):
    worst = 0.0
    for kind, a, b in spc.ptlame_families:
        base = pot.associated_lame(a, b, m)
        for pt in (True, False):
            if pt:
                eg = spc.ground_energy(kind, a, b, m, pt=True)
                spec = pot.Shifted(pot.PTTransform(base, beta), eg)
                edges = spc.pt_band_edges(kind, a, b, m, beta)
            else:
                spec = base
                edges = spc.real_band_edges(kind, a, b, m)
            f = pot.compiled_value_fn(spec)
            xs = np.linspace(0.0, spec.period, 40, endpoint=False)
            for e in edges:
                rmax = vmax = 0.0
                for x in xs:
                    psi, _, d2psi = e.jet(x)
                    rmax = max(rmax, abs(-d2psi + (f(x) - e.energy) * psi))
                    vmax = max(vmax, abs(f(x) * psi))
                worst = max(worst, rmax / vmax)
    return worst


def _check_dualities():
    worst = 0.0
    for a in (1, 3):
        for m in (0.3, 0.5, 0.75):
            worst = max(worst, spc.modulus_duality_check(a, m).max_violation)
            worst = max(worst, spc.pt_duality_check(a, m).max_violation)
    worst = max(worst, spc.modulus_duality_check(2, 0.5).max_violation)
    return worst


def _check_discriminant_relation(m=0.75, beta=0.5):
    worst = 0.0
    for a in (1, 3):
        spec_pt = pot.PTTransform(pot.Lame(a, m), beta)
        dual = pot.Lame(a, 1.0 - m)
        shift = a * (a + 1)
        for e in np.linspace(-shift - 0.6, 0.4, 20):
            d1 = flq.monodromy(spec_pt, float(e)).discriminant
            d2 = flq.monodromy(dual, float(e) + shift).discriminant
            worst = max(worst, abs(d1 - d2))
    return worst


def _edge_energy_sets(m=0.75, beta=0.5):
    """Floquet edges for the three shifted PT potentials and their partners."""
    out = {}
    for kind, a, b in spc.ptlame_families:
        base = pot.associated_lame(a, b, m)
        eg = spc.ground_energy(kind, a, b, m, pt=True)
        spec = pot.Shifted(pot.PTTransform(base, beta), eg)
        top = spc.closed_form_energies(kind, a, b, m, pt=True, shifted=True)[-1]
        out[(kind, a, b, "base")] = flq.find_band_edges(spec, -0.5, top + 0.8)
        out[(kind, a, b, "partner")] = flq.find_band_edges(pot.SusyPartner(spec), -0.5, top + 0.8)
    return out


def _check_tables(edge_sets, m=0.75, beta=0.5):
    worst = 0.0
    classes_ok = True
    for kind, a, b in spc.ptlame_families:
        ref = spc.pt_band_edges(kind, a, b, m, beta)
        found = [e for e in edge_sets[(kind, a, b, "base")] if e.multiplicity == 1]
        if len(found) != len(ref):
            return float("inf"), False
        for fe, re_ in zip(found, ref):
            worst = max(worst, abs(fe.energy - re_.energy))
            classes_ok = classes_ok and fe.period_class == re_.period_class
    return worst, classes_ok


def _check_susy(edge_sets, m=0.75, beta=0.5):
    worst_edges = 0.0
    for kind, a, b in spc.ptlame_families:
        base_edges = [e.energy for e in edge_sets[(kind, a, b, "base")] if e.multiplicity == 1]
        part_edges = [e.energy for e in edge_sets[(kind, a, b, "partner")] if e.multiplicity == 1]
        if len(base_edges) != len(part_edges):
            return float("inf"), 0.0
        worst_edges = max(worst_edges, max(abs(x - y) for x, y in zip(base_edges, part_edges)))
    # factorization: W**2 - W' must reconstruct the shifted base potential
    worst_fact = 0.0
    for kind, a, b in spc.ptlame_families:
        base = pot.associated_lame(a, b, m)
        eg = spc.ground_energy(kind, a, b, m, pt=True)
        src = pot.Shifted(pot.PTTransform(base, beta), eg)
        fsrc = pot.compiled_value_fn(src)
        builder, _, _, bb = pot._resolve_ground(src)
        for x in np.linspace(0.0, src.period, 32, endpoint=False):
            jv = ell.jacobi_complex(1j * x + bb, m)
            j = builder(*ell.jets_from_scd(jv.sn, jv.cn, jv.dn, m))
            worst_fact = max(worst_fact, abs(-j.d2 / j.f - fsrc(x)))
    return worst_edges, worst_fact


def _check_a1_translation(m=0.75, beta=0.5):
    src = pot.Shifted(pot.PTTransform(pot.Lame(1, m), beta), -(1.0 + m))
    f = pot.compiled_value_fn(pot.SusyPartner(src))
    kp = ell.modulus(m).Kprime
    worst = 0.0
    for x in np.linspace(0.0, src.period, 48, endpoint=False):
        jv = ell.jacobi_complex(1j * x + beta + 1j * kp, m)
        worst = max(worst, abs(f(x) - (-2.0 * m * jv.sn**2 + m + 1.0)))
    return worst


def _check_not_self_isospectral(m=0.75, beta=0.5):
    eg = spc.ground_energy("assoc", 2, 1, m, pt=True)
    src = pot.Shifted(pot.PTTransform(pot.AssociatedLame(2, 1, m), beta), eg)
    fp = pot.compiled_value_fn(pot.SusyPartner(src))
    fb = pot.compiled_value_fn(src)
    L = src.period
    xs = np.linspace(0.0, L, 64, endpoint=False)
    vp = np.array([fp(float(x)) for x in xs])
    best = math.inf
    for tau in np.linspace(0.0, L, 128, endpoint=False):
        vb = np.array([fb(float(x + tau)) for x in xs])
        best = min(best, float(np.max(np.abs(vp - vb))))
    return best


def _check_dispersion(m=0.75, beta=0.5):
    spec = pot.Shifted(pot.PTTransform(pot.Lame(1, m), beta), -(1.0 + m))
    worst_k = 0.0
    for e in list(np.linspace(0.05, 0.70, 8)) + list(np.linspace(1.05, 3.0, 7)):
        dp = spc.dispersion_analytic(m, beta, float(e))
        worst_k = max(worst_k, abs(dp.k - flq.dispersion_numeric(spec, float(e))))
    f = pot.compiled_value_fn(spec)
    worst_r = 0.0
    e = m / 2.0
    for x in np.linspace(0.0, spec.period, 20, endpoint=False):
        for sign in (1, -1):
            psi, _, d2psi = spc.bloch_solution_jet(m, beta, e, sign, float(x))
            worst_r = max(worst_r, abs(-d2psi + (f(x) - e) * psi) / abs(f(x) * psi))
    return worst_k, worst_r


_ALL_CHECKS = (
    "elliptic", "imaginary-shift", "eta-quasi-periodicity", "residuals",
    "dualities", "discriminant-relation", "tables", "susy", "dispersion",
)


def run_selfcheck(tol_scale: float = 1.0, checks=None, stream=None, m: float = 0.75, beta: float = 0.5) -> int:
    """Run the invariant suite and print a pass/fail table; 0 iff all pass."""
    stream = stream or sys.stdout
    selected = set(checks or _ALL_CHECKS)
    rows = []

    def add(name, violation, tol):
        rows.append((name, violation, tol * tol_scale, violation < tol * tol_scale))

    if "elliptic" in selected:
        add("elliptic-identities", _check_elliptic_identities(), 1e-11)
    if "imaginary-shift" in selected:
        add("sn-dn-imaginary-shift", _check_imaginary_shift_identity(), 1e-10)
    if "eta-quasi-periodicity" in selected:
        add("eta-quasi-periodicity", _check_eta_quasi_periodicity(), 1e-9)
    if "residuals" in selected:
        add("eigenfunction-residuals", _check_eigenfunction_residuals(m, beta), 1e-8)
    if "dualities" in selected:
        add("duality-relations", _check_dualities(), 1e-6)
    if "discriminant-relation" in selected:
        add("discriminant-relation", _check_discriminant_relation(m, beta), 1e-6)
    need_edges = {"tables", "susy"} & selected
    if need_edges:
        edge_sets = _edge_energy_sets(m, beta)
        if "tables" in selected:
            worst, classes_ok = _check_tables(edge_sets, m, beta)
            add("band-edge-tables", worst, 1e-6)
            add("band-edge-classes", 0.0 if classes_ok else 1.0, 0.5)
            n_anti = sum(1 for e in edge_sets[("lame", 3, 0, "base")] if e.period_class == "A")
            add("antiperiodic-edges-present", 0.0 if n_anti >= 1 else 1.0, 0.5)
        if "susy" in selected:
            worst_edges, worst_fact = _check_susy(edge_sets, m, beta)
            add("susy-partner-isospectral", worst_edges, 1e-6)
            add("susy-factorization", worst_fact, 1e-8)
            add("a1-partner-translation", _check_a1_translation(m, beta), 1e-9)
            sep = _check_not_self_isospectral(m, beta)
            rows.append(("assoc21-not-self-isospectral", sep, 1e-3 * tol_scale, sep > 1e-3 * tol_scale))
    if "dispersion" in selected:
        worst_k, worst_r = _check_dispersion(m, beta)
        add("dispersion-analytic-vs-numeric", worst_k, 1e-6)
        add("bloch-ode-residual", worst_r, 1e-7)

    width = max(len(r[0]) for r in rows) + 2
    all_ok = True
    for name, violation, tol, ok in rows:
        all_ok = all_ok and ok
        stream.write(f"{name:<{width}} {violation:12.3e}  (tol {tol:8.1e})  {'PASS' if ok else 'FAIL'}\n")
    stream.write(f"selfcheck: {'PASS' if all_ok else 'FAIL'} ({sum(1 for r in rows if r[3])}/{len(rows)})\n")
    return 0 if all_ok else 3


def cmd_selfcheck(cfg: RunConfig) -> int:
    # the suite needs a usable PT construction; a corrupted beta or m must
    # fail validation up front rather than deep inside a check
    try:
        pot.PTTransform(pot.Lame(3, cfg.m), cfg.beta)
    except (pot.PotentialError, ell.EllipticDomainError) as exc:
        raise ConfigError(str(exc)) from exc
    build_spec(cfg)
    scale = cfg.tol / _VERIFY_TOL
    return run_selfcheck(tol_scale=scale, m=cfg.m, beta=cfg.beta)


# ---------------------------------------------------------------------------
# argument parsing


class _OpFlag(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        ops = list(getattr(namespace, "ops", ()) or ())
        ops.append("pt" if option_string == "--pt" else "partner")
        setattr(namespace, "ops", tuple(ops))


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ptlame", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", type=int, default=3)
    common.add_argument("--b", type=int, default=0)
    common.add_argument("--m", type=float, default=0.75)
    common.add_argument("--beta", type=float, default=0.5)
    common.add_argument("--pt", action=_OpFlag, nargs=0,
                        help="apply the PT transform (order-sensitive, repeatable)")
    common.add_argument("--partner", action=_OpFlag, nargs=0,
                        help="take the SUSY partner (order-sensitive, repeatable)")
    common.add_argument("--shift-zero", action="store_true", dest="shift_zero",
                        help="shift so the lowest band edge sits at zero energy")
    common.add_argument("--emin", type=float, default=None)
    common.add_argument("--emax", type=float, default=None)
    common.add_argument("--n", type=int, default=None)
    common.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    common.add_argument("--out", default="-")
    common.add_argument("--tol", type=float, default=_VERIFY_TOL)
    sub.add_parser("sample-potential", parents=[common])
    sub.add_parser("edges", parents=[common])
    ps = sub.add_parser("scan", parents=[common])
    ps.add_argument("--paired", action="store_true",
                    help="emit the modulus-dual Lame discriminant side by side")
    sub.add_parser("dispersion", parents=[common])
    sub.add_parser("selfcheck", parents=[common])
    return p


_COMMANDS = {
    "sample-potential": cmd_sample_potential,
    "edges": cmd_edges,
    "scan": cmd_scan,
    "dispersion": cmd_dispersion,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    cfg = RunConfig(
        a=ns.a, b=ns.b, m=ns.m, beta=ns.beta,
        ops=tuple(getattr(ns, "ops", ()) or ()),
        shift_zero=ns.shift_zero, emin=ns.emin, emax=ns.emax, n=ns.n,
        fmt=ns.fmt, out=ns.out, tol=ns.tol,
        paired=bool(getattr(ns, "paired", False)),
    )
    try:
        return _COMMANDS[ns.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
