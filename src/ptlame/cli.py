"""Command-line surface: sampling, edge tables, scans, dispersion, selfcheck.

Every command emits machine-readable output (CSV or JSON, ``--format``, to
``--out``) with a metadata comment recording the configuration (for
``edges``, ``scan`` and ``dispersion`` also ``integration_beta``, the line
the Floquet engine integrated on, beside the user's ``beta``, and for every
command that integrates the tolerances it integrated at), and uses the
exit-code contract 0 = ok, 2 = configuration error, 3 = verification failure,
so CI can gate directly on the cross-checks.  ``selfcheck`` runs the
invariant registry (:mod:`ptlame.invariants`) at ``--m``/``--beta``, one row
per invariant with its value, tolerance, verdict and seconds; its specs are
fixed by the registry, so it takes only ``--m``, ``--beta``, ``--tol``,
``--format`` and ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import elliptic as ell
from . import floquet as flq
from . import invariants as inv
from . import potentials as pot
from . import spectra as spc

__all__ = ["main", "RunConfig", "build_spec", "ConfigError"]

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
                rows = spc.predicted_edges(spec)
                if rows is None:
                    raise ConfigError(
                        f"--partner needs a closed-form ground state; none for (a={cfg.a}, b={cfg.b})"
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


def _integrator_meta(tol=None, key: str = "integrator") -> dict:
    """Header entries for the (rtol, atol) a command integrated at, by
    default floquet's (``RTOL``, ``ATOL``)."""
    rtol, atol = tol or (flq.RTOL, flq.ATOL)
    return {f"{key}_rtol": rtol, f"{key}_atol": atol}


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
    }
    if command == "selfcheck":
        # the registry builds its own specs; only (m, beta) and tol select them
        for key in ("a", "b", "ops", "shift_zero"):
            del meta[key]
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


def _samples(cfg: RunConfig, default: int, least: int) -> int:
    """``--n``, or the command's default when unset; ConfigError below ``least``."""
    n = default if cfg.n is None else cfg.n
    if n < least:
        raise ConfigError(f"--n must be at least {least}, not {n}")
    return n


def _energy_range(cfg: RunConfig, lo, hi) -> tuple[float, float]:
    """``--emin``/``--emax``, each defaulting to ``lo``/``hi``; ConfigError
    unless the range is nonempty."""
    emin = cfg.emin if cfg.emin is not None else lo
    emax = cfg.emax if cfg.emax is not None else hi
    if not emin < emax:
        raise ConfigError(f"--emin ({emin}) must be below --emax ({emax})")
    return emin, emax


def cmd_sample_potential(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    n = _samples(cfg, 400, 1)
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
    found = flq.find_band_edges(spec, *_energy_range(cfg, lo, hi))
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
                 {**_integrator_meta(flq._EDGE_TOL), "verdict": verdict, "max_abs_diff": max_diff,
                  "analytic_available": predicted is not None, "integration_beta": flq.integration_beta(spec)})
    return 0 if passed else 3


def cmd_scan(cfg: RunConfig) -> int:
    if cfg.paired and (cfg.ops != ("pt",) or cfg.b != 0 or cfg.shift_zero):
        raise ConfigError("--paired requires a plain PT Lame spec (--pt, b=0, no partner/shift)")
    spec = build_spec(cfg)
    n = _samples(cfg, 500, 2)
    lo, hi = flq.default_energy_range(spec) if cfg.emin is None or cfg.emax is None else (None, None)
    emin, emax = _energy_range(cfg, lo, hi)
    scan = flq.discriminant_scan(spec, emin, emax, n)
    cols = [("e", list(scan.energies)),
            ("re_delta", list(scan.discriminants.real)),
            ("im_delta", list(scan.discriminants.imag))]
    meta = {**_integrator_meta(), "im_flags": int(scan.im_flags.sum()),
            "integration_beta": flq.integration_beta(spec)}
    rc = 0
    if cfg.paired:
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
    emin, emax = _energy_range(cfg, base0, base0 + 3.0)
    n = _samples(cfg, 25, 1)
    # the analytic dispersion covers the a=1 PT potential, in the basis
    # shifted so its ground edge is zero
    form = pot.normal_form(spec)
    analytic = (form.kind, form.a, form.b) == ("lame", 1, 0) and form.beta is not None and not form.partner
    es = np.linspace(emin, emax, n)
    kn = flq.dispersion_numeric(spec, es)
    if analytic:
        ka = np.array([spc.dispersion_analytic(cfg.m, cfg.beta, float(e) - base0).k for e in es])
        diffs = np.abs(ka - kn)
        ka_re, ka_im = [_fmt(k) for k in ka.real], [_fmt(k) for k in ka.imag]
    else:
        ka_re = ka_im = [""] * n
        diffs = np.full(n, np.nan)
    max_diff = float(diffs.max()) if analytic else 0.0
    _write_table(cfg, "dispersion",
                 [("e", list(es)), ("k_numeric_re", list(kn.real)), ("k_numeric_im", list(kn.imag)),
                  ("k_analytic_re", ka_re), ("k_analytic_im", ka_im), ("abs_diff", list(diffs))],
                 {**_integrator_meta(), "analytic_available": analytic, "max_abs_diff": max_diff,
                  "integration_beta": flq.integration_beta(spec)})
    return 0 if not analytic or max_diff < cfg.tol else 3


# ---------------------------------------------------------------------------
# selfcheck


def cmd_selfcheck(cfg: RunConfig) -> int:
    # every spec the registry reads is built before the first check, so an
    # unusable (m, beta) is a configuration error, not a failure mid-run
    try:
        inv.specs(cfg.m, cfg.beta)
    except (pot.PotentialError, ell.EllipticDomainError) as exc:
        raise ConfigError(str(exc)) from exc
    results = inv.run(inv.REGISTRY, cfg.m, cfg.beta, tol_scale=cfg.tol / _VERIFY_TOL)
    name, value, tol, ok, seconds = zip(*results)
    verdict = "PASS" if all(ok) else "FAIL"
    _write_table(cfg, "selfcheck",
                 [("name", name), ("value", value), ("tol", tol),
                  ("verdict", ["PASS" if o else "FAIL" for o in ok]), ("seconds", seconds)],
                 {**_integrator_meta(), **_integrator_meta(flq._EDGE_TOL, "edge_integrator"),
                  "verdict": verdict, "passed": sum(ok), "total": len(ok)})
    return 0 if verdict == "PASS" else 3


# ---------------------------------------------------------------------------
# argument parsing


class _OpFlag(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        namespace.ops += ("pt" if option_string == "--pt" else "partner",)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ptlame", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--m", type=float, default=0.75)
    point.add_argument("--beta", type=float, default=0.5)
    point.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    point.add_argument("--out", default="-")
    point.add_argument("--tol", type=float, default=_VERIFY_TOL)
    common = argparse.ArgumentParser(add_help=False, parents=[point])
    common.add_argument("--a", type=int, default=3)
    common.add_argument("--b", type=int, default=0)
    common.add_argument("--pt", action=_OpFlag, nargs=0, dest="ops", default=(),
                        help="apply the PT transform (order-sensitive, repeatable)")
    common.add_argument("--partner", action=_OpFlag, nargs=0, dest="ops", default=(),
                        help="take the SUSY partner (order-sensitive, repeatable)")
    common.add_argument("--shift-zero", action="store_true", dest="shift_zero",
                        help="shift so the lowest band edge sits at zero energy")
    common.add_argument("--emin", type=float, default=None)
    common.add_argument("--emax", type=float, default=None)
    sampled = argparse.ArgumentParser(add_help=False, parents=[common])
    sampled.add_argument("--n", type=int, default=None,
                         help="samples: points per period, scan energies, dispersion energies")
    sub.add_parser("sample-potential", parents=[sampled])
    sub.add_parser("edges", parents=[common])
    ps = sub.add_parser("scan", parents=[sampled])
    ps.add_argument("--paired", action="store_true",
                    help="emit the modulus-dual Lame discriminant side by side")
    sub.add_parser("dispersion", parents=[sampled])
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
    args = vars(_parser().parse_args(argv))
    command = args.pop("command")
    cfg = RunConfig(**args)  # a command's unused fields keep their defaults
    try:
        return _COMMANDS[command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
