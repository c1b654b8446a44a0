"""Command-line surface: sampling, edge tables, scans, dispersion, selfcheck.

Each command declares only the options it reads and emits CSV or JSON
(``--format``, to ``--out``) under a metadata header: its options as parsed
or resolved (all but ``--format``/``--out``), then its results (for
``edges``, ``scan`` and ``dispersion`` also ``integration_beta``, the line
the Floquet engine integrated on, and for every command that integrates the
tolerances it integrated at).  Exit codes: 0 = ok, 2 = configuration error,
3 = verification failure, so CI can gate directly on the cross-checks.
``selfcheck`` runs the invariant registry (:mod:`ptlame.invariants`) at
``--m``/``--beta``, one row per invariant with its value, tolerance, verdict
and seconds; the registry fixes its specs and tolerances.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import elliptic as ell
from . import floquet as flq
from . import invariants as inv
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
    all but ``--format``/``--out``, then the command's ``results``."""
    meta = {k: v for k, v in vars(args).items() if k not in ("fmt", "out")}
    meta.update(results)
    if args.fmt == "json":
        doc = {"meta": meta, "columns": {name: list(vals) for name, vals in columns}}
        text = json.dumps(doc, sort_keys=True) + "\n"
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
        with open(args.out, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(text)


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


def cmd_sample_potential(args) -> int:
    spec = build_spec(args)
    n = _samples(args, 1)
    L = spec.period
    xs = np.linspace(0.0, 2.0 * L, 2 * n, endpoint=False)
    vals = pot.compiled_value_fn(spec)(xs)
    _write_table(args, [("x", xs.tolist()), ("re_v", vals.real.tolist()), ("im_v", vals.imag.tolist())],
                 {"period": L})
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


def cmd_edges(args) -> int:
    spec = build_spec(args)
    predicted = spc.predicted_edges(spec)
    if predicted is not None:
        lo = min(e for e, _ in predicted) - 0.5
        hi = max(e for e, _ in predicted) + 0.5
    else:
        lo, hi = flq.default_energy_range(spec)
    found = flq.find_band_edges(spec, *_energy_range(args, lo, hi))
    pairs = _pair_edges(predicted or [], found)

    idx, eana, enum, diff, disc, cls = [], [], [], [], [], []
    max_diff = 0.0
    # every family with a >= 1 has 2a + 1 simple edges, with closed forms or not
    expected = flq.simple_edge_count(spec)
    simple = sum(1 for e in found if e.multiplicity == 1)
    count_ok = (expected is None or simple == expected) and len(pairs) == len(predicted or [])
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
    passed = count_ok and (predicted is None or max_diff < args.tol)
    verdict = "PASS" if passed else "FAIL"
    _write_table(args, [("index", idx), ("energy_analytic", eana), ("energy_numeric", enum),
                        ("abs_diff", diff), ("discriminant", disc), ("period_class", cls)],
                 {**_integrator_meta(), "verdict": verdict, "max_abs_diff": max_diff,
                  "analytic_available": predicted is not None, "integration_beta": flq.integration_beta(spec)})
    return 0 if passed else 3


def cmd_scan(args) -> int:
    if args.paired and (args.ops != ["pt"] or args.b != 0 or args.shift_zero):
        raise ConfigError("--paired requires a plain PT Lame spec (--pt, b=0, no partner/shift)")
    spec = build_spec(args)
    n = _samples(args, 2)
    lo, hi = flq.default_energy_range(spec) if args.emin is None or args.emax is None else (None, None)
    emin, emax = _energy_range(args, lo, hi)
    scan = flq.discriminant_scan(spec, emin, emax, n)
    cols = [("e", scan.energies.tolist()),
            ("re_delta", scan.discriminants.real.tolist()),
            ("im_delta", scan.discriminants.imag.tolist())]
    meta = {**_integrator_meta(), "im_flags": int(scan.im_flags.sum()),
            "integration_beta": flq.integration_beta(spec)}
    rc = 0
    if args.paired:
        dual = pot.Lame(args.a, 1.0 - args.m)
        shift = args.a * (args.a + 1)
        dual_scan = flq.discriminant_scan(dual, emin + shift, emax + shift, n)
        dd = dual_scan.discriminants
        cols += [("re_delta_dual", dd.real.tolist()), ("im_delta_dual", dd.imag.tolist()),
                 ("abs_diff", np.abs(scan.discriminants - dd).tolist())]
        max_diff = float(np.max(np.abs(scan.discriminants - dd)))
        meta["paired_max_abs_diff"] = max_diff
        meta["verdict"] = "PASS" if max_diff < args.tol else "FAIL"
        rc = 0 if max_diff < args.tol else 3
    _write_table(args, cols, meta)
    return rc


def cmd_dispersion(args) -> int:
    spec = build_spec(args)
    predicted = spc.predicted_edges(spec)
    base0 = predicted[0][0] if predicted else 0.0
    emin, emax = _energy_range(args, base0, base0 + 3.0)
    n = _samples(args, 1)
    # the analytic dispersion covers the a=1 PT potential, in the basis
    # shifted so its ground edge is zero
    form = pot.normal_form(spec)
    analytic = (form.kind, form.a, form.b) == ("lame", 1, 0) and form.beta is not None and not form.partner
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
    _write_table(args, [("e", es.tolist()), ("k_numeric_re", kn.real.tolist()), ("k_numeric_im", kn.imag.tolist()),
                        ("k_analytic_re", ka_re), ("k_analytic_im", ka_im), ("abs_diff", diffs.tolist())],
                 {**_integrator_meta(), "analytic_available": analytic, "max_abs_diff": max_diff,
                  "integration_beta": flq.integration_beta(spec)})
    return 0 if not analytic or max_diff < args.tol else 3


# ---------------------------------------------------------------------------
# selfcheck


def cmd_selfcheck(args) -> int:
    # every spec the registry reads is built before the first check, so an
    # unusable (m, beta) is a configuration error, not a failure mid-run
    try:
        inv.specs(args.m, args.beta)
    except (pot.PotentialError, ell.EllipticDomainError) as exc:
        raise ConfigError(str(exc)) from exc
    results = inv.run(inv.REGISTRY, args.m, args.beta)
    name, value, tol, ok, seconds = zip(*results)
    verdict = "PASS" if all(ok) else "FAIL"
    _write_table(args, [("name", name), ("value", value), ("tol", tol),
                        ("verdict", ["PASS" if o else "FAIL" for o in ok]), ("seconds", seconds)],
                 {**_integrator_meta(), "verdict": verdict, "passed": sum(ok), "total": len(ok)})
    return 0 if verdict == "PASS" else 3


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
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
