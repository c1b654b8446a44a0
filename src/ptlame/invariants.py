"""The paper's invariants as one registry, run by ``ptlame selfcheck`` and the
acceptance tests.

Each :class:`Invariant` row holds a check ``(m, beta) -> float`` and a
tolerance that the value must stay below (a violation) or, for ``above``
rows, above (a separation).  The rows cover the elliptic identities, the
closed-form edges and eigenfunctions, the dualities, SUSY isospectrality and
the a=1 dispersion, each against the Floquet engine or a second evaluation
path, and four claims of the paper that no computation relies on: the
printed superpotentials, the Landen reduction of the a=b associated
potentials, the P AA PP order of the band edges and the finite number of
gaps, no simple edge above the top one.  The Floquet edges of each spec of
:func:`specs` are searched once per (m, beta), charged to the row that reads
them first, and compared with the rows ``ptlame edges`` prints for it.
"""

from __future__ import annotations

import functools
import math
import time
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from . import elliptic as ell
from . import floquet as flq
from . import potentials as pot
from . import spectra as spc

__all__ = ["Invariant", "REGISTRY", "specs", "run"]

_PARAMS = (0.1, 0.25, 0.5, 0.75, 0.9)
_A1, _A3, _A21 = spc.ptlame_families


class Invariant(NamedTuple):
    name: str
    check: Callable[[float, float], float]
    tol: float
    above: bool = False


@functools.lru_cache(maxsize=4)
def specs(m: float, beta: float) -> MappingProxyType:
    """The PT specs the rows read at (m, beta): each family's shifted PT
    potential, its SUSY partner (key ``family + ("partner",)``) and the a=3
    partner taken before the PT transform ("a3-exchanged").  Raises
    PotentialError or EllipticDomainError for an unusable (m, beta); every
    other spec a row builds is valid whenever these are."""
    out = {}
    for fam in spc.ptlame_families:
        out[fam] = pot.build(*fam[1:], m, beta, ["pt"], True)
        out[fam + ("partner",)] = pot.build(*fam[1:], m, beta, ["pt", "partner"], True)
    out["a3-exchanged"] = pot.build(3, 0, m, beta, ["partner", "pt"], True)
    return MappingProxyType(out)


def _simple_edges(spec, emin, emax):
    return tuple(e for e in flq.find_band_edges(spec, emin, emax) if e.multiplicity == 1)


@functools.lru_cache(maxsize=4)
def _edge_sets(m, beta):
    """Simple Floquet edges of each spec of :func:`specs`, keyed as there,
    each searched once over [-0.5, its top closed-form edge + 0.8]."""
    return MappingProxyType({key: _simple_edges(spec, -0.5, pot.predicted_edges(spec)[-1][0] + 0.8)
                             for key, spec in specs(m, beta).items()})


def _max_pair_diff(xs, ys):
    return max(abs(x - y) for x, y in zip(xs, ys)) if len(xs) == len(ys) else math.inf


def _energies(edges):
    return [e.energy for e in edges]


def _elliptic_identities(m, beta):
    rng = np.random.default_rng(7)
    worst = 0.0
    for mm in _PARAMS:
        kp = ell.modulus(mm).Kprime
        count = 0
        while count < 50:
            z = complex(rng.uniform(-4, 4), rng.uniform(-0.85, 0.85) * kp)
            try:
                jv = ell.jacobi_complex(z, mm)
            except ell.PoleProximityError:
                continue
            count += 1
            worst = max(worst, abs(jv.sn**2 + jv.cn**2 - 1.0), abs(jv.dn**2 + mm * jv.sn**2 - 1.0))
    return worst


def _imaginary_shift(m, beta):
    # sqrt(m) sn(x, m) = -dn(i x + K'(m) + i K(m), 1 - m)
    worst = 0.0
    for mm in (0.25, 0.5, 0.75):
        mod = ell.modulus(mm)
        for x in np.linspace(0.1, 1.9, 10):
            rhs = ell.jacobi_complex(1j * x + mod.Kprime + 1j * mod.K, 1.0 - mm).dn
            worst = max(worst, abs(math.sqrt(mm) * ell.jacobi_triple(mm)(float(x))[0] + rhs))
    return worst


def _eta_quasi_periodicity(m, beta):
    worst = 0.0
    for mm in (0.5, 0.75):
        mod = ell.modulus(mm)
        for x in np.linspace(0.0, 1.2, 7):
            u = 1j * x + 0.5
            rhs = (-math.exp(math.pi * mod.Kprime / mod.K) * np.exp(-1j * math.pi * u / mod.K)
                   * ell.theta_jets(mm, u, True)[0])
            worst = max(worst, abs(ell.theta_jets(mm, u + 2j * mod.Kprime, True)[0] - rhs) / abs(rhs))
    return worst


def _kprime_complement(m, beta):
    # the AGM's K'(m) = K(1 - m) against Carlson's R_F(0, m, 1) (DLMF 19.25.1)
    return max(abs(ell.modulus(mm).Kprime - ell._carlson_rf(0.0, mm, 1.0)) / ell.modulus(mm).Kprime
               for mm in _PARAMS)


def _landen_equal_ab(m, beta):
    # V_{a,a}(x, m) = a(a+1) m + V_Lame(x/alpha, m~)/alpha**2 for the
    # descended (alpha, m~); the constant is exact, so nothing is fitted
    alpha, mt = ell.landen_descend(m)
    worst = 0.0
    for a in (1, 2, 3):
        spec = pot.AssociatedLame(a, a, m)
        fa, fl = pot.compiled_value_fn(spec), pot.compiled_value_fn(pot.Lame(a, mt))
        xs = np.linspace(0.0, spec.period, 100, endpoint=False)
        worst = max(worst, float(np.max(np.abs(fa(xs) - a * (a + 1) * m - fl(xs / alpha) / alpha**2))))
    return worst


def _scaled_residual(jet, f, energy, xs):
    """max |-psi'' + (V - E) psi| / max |V psi| over the grid ``xs``: scaled
    by the whole grid, so a zero of psi on it is no 0/0."""
    rmax = vmax = 0.0
    for x in xs:
        (psi, _, d2psi), v = jet(x), f(x)
        rmax = max(rmax, abs(-d2psi + (v - energy) * psi))
        vmax = max(vmax, abs(v * psi))
    return rmax / vmax


def _eigenfunction_residuals(m, beta):
    worst = 0.0
    for fam in spc.ptlame_families:
        for spec, edges in ((specs(m, beta)[fam], spc.pt_band_edges(*fam, m, beta)),
                            (pot.associated_lame(*fam[1:], m), spc.real_band_edges(*fam, m))):
            f = pot.compiled_value_fn(spec)
            xs = np.linspace(0.0, spec.period, 40, endpoint=False)
            for e in edges:
                worst = max(worst, _scaled_residual(e.jet, f, e.energy, xs))
    return worst


@functools.lru_cache(maxsize=8)
def _lame_edges(a, m):
    """Simple edge energies of the plain Lame potential, ascending: the closed
    forms for a in {1, 3}, else the Floquet edges in [-0.5, a(a+1) + 0.5].
    Cached, so the a=2 set at m = 1/2, which two rows read, is searched once."""
    if a in (1, 3):
        return tuple(spc.closed_form_energies("lame", a, 0, m, pt=False))
    return tuple(_energies(_simple_edges(pot.Lame(a, m), -0.5, a * (a + 1) + 0.5)))


def _modulus_duality(a, m):
    # E_j(m) = a(a+1) - E_{2a-j}(1-m); at m = 1/2 the sum rule E_j + E_{2a-j} = a(a+1)
    return _max_pair_diff(_lame_edges(a, m), [a * (a + 1) - e for e in reversed(_lame_edges(a, 1.0 - m))])


def _pt_duality(a, m):
    # E^PT_j(m) = E_j(1-m) - a(a+1) between the closed-form PT and plain tables
    return _max_pair_diff(spc.closed_form_energies("lame", a, 0, m, pt=True),
                          [e - a * (a + 1) for e in _lame_edges(a, 1.0 - m)])


def _dualities(m, beta):
    # closed forms for a in {1, 3}; the Floquet engine supplies a=2 at m = 1/2
    checks = [check(a, mm) for a in (1, 3) for mm in (0.3, 0.5, 0.75) for check in (_modulus_duality, _pt_duality)]
    return max(checks + [_modulus_duality(2, 0.5)])


def _a2_half_parameter_sum_rule(m, beta):
    # at m = 1/2 the five a=2 edges pair up as e_j + e_{4-j} = 6, midpoint 3;
    # the edge set is the one the duality row's m = 1/2 check searched for
    es = _lame_edges(2, 0.5)
    if len(es) != 5:
        return math.inf
    return max(max(abs(es[j] + es[4 - j] - 6.0) for j in range(5)), abs(es[2] - 3.0))


def _discriminant_relation(m, beta):
    worst = 0.0
    for a in (1, 3):
        spec_pt, dual, shift = pot.PTTransform(pot.Lame(a, m), beta), pot.Lame(a, 1.0 - m), a * (a + 1)
        # 20 energies across the spectral span, both sides in one batch, as
        # the paired scan integrates them; inside its gaps |Delta| reaches
        # 1e7 at small m, so the difference is scaled by max(1, |Delta|)
        pt, ref = (s.discriminants for s in flq.discriminant_scans(
            [(spec_pt, -shift - 0.6, 0.4), (dual, -0.6, 0.4 + shift)], 20))
        worst = max(worst, float((np.abs(pt - ref) / np.maximum(1.0, np.abs(ref))).max()))
    return worst


def _beta_independence(m, beta):
    # Delta does not depend on the integration line (the Picard property):
    # the user's line, integrated as a custom potential (which stays on the
    # real axis and takes the whole period), against the engine's own line
    # and half period at the closed-form edges
    s = specs(m, beta)
    worst = 0.0
    for key in (k for fam in spc.ptlame_families for k in (fam, fam + ("partner",))):
        user = pot.CustomPotential(pot.compiled_value_fn(s[key]), s[key].period)
        es = [e for e, _ in pot.predicted_edges(s[key])]
        try:
            on_user = flq.discriminants(user, es)
        except flq.FloquetIntegrationError:
            return math.inf
        worst = max(worst, float(np.abs(on_user - flq.discriminants(s[key], es)).max()))
    return worst


def _edge_tables(m, beta):
    # each family's Floquet edges against the rows `ptlame edges` prints
    found, s = _edge_sets(m, beta), specs(m, beta)
    return max(_max_pair_diff(_energies(found[fam]), [e for e, _ in pot.predicted_edges(s[fam])])
               for fam in spc.ptlame_families)


def _edge_classes(m, beta):
    found, s = _edge_sets(m, beta), specs(m, beta)
    same = all([e.period_class for e in found[fam]] == [c for _, c in pot.predicted_edges(s[fam])]
               for fam in spc.ptlame_families)
    return 0.0 if same else 1.0


def _edge_class_interleaving(m, beta):
    # oscillation theory orders simple edges P, A, A, P, P, A, A, ...
    return sum("".join(e.period_class for e in edges) != ("P" + "AAPP" * len(edges))[:len(edges)]
               for edges in _edge_sets(m, beta).values())


def _antiperiodic_present(m, beta):
    return 0.0 if any(e.period_class == "A" for e in _edge_sets(m, beta)[_A3]) else 1.0


def _simple_edges_above(spec, top):
    """Simple Floquet edges in [top + 0.5, top + 100], above the top edge
    ``top``: none where every gap up there is closed."""
    return _simple_edges(spec, top + 0.5, top + 100.0)


def _finite_gap(m, beta):
    # the paper's finite number of gaps: 2a + 1 simple edges, every gap
    # above the top one closed (Ince's result for integer Lame)
    return sum(len(_simple_edges_above(spec, pot.predicted_edges(spec)[-1][0])) for spec in specs(m, beta).values())


def _partner_isospectral(m, beta):
    found = _edge_sets(m, beta)
    return max(_max_pair_diff(_energies(found[fam]), _energies(found[fam + ("partner",)]))
               for fam in spc.ptlame_families)


def _factorization(m, beta):
    # W**2 - W' = -psi''/psi rebuilds the zero-based potential; the ground
    # state goes through jacobi_complex, not the potential's own triple
    worst = 0.0
    for fam in spc.ptlame_families:
        src = specs(m, beta)[fam]
        fsrc = pot.compiled_value_fn(src)
        builder = spc.ground_state_builder(*fam, m, pt=True)[0]
        for x in np.linspace(0.0, src.period, 32, endpoint=False):
            jv = ell.jacobi_complex(1j * x + beta, m)
            f, _, d2 = builder(*ell.jets_from_scd(jv.sn, jv.cn, jv.dn, m))
            worst = max(worst, abs(-d2 / f - fsrc(x)))
    return worst


def _closed_superpotential(fam, m, s, c, d):
    # the paper's printed W of each shifted PT potential, in the Jacobi
    # triple at u = i x + beta
    if fam == _A1:
        return -1j * c * d / s
    if fam == _A3:
        p = 2.0 + 2.0 * m - math.sqrt(4.0 - 7.0 * m + 4.0 * m * m) - 5.0 * m * s * s
        return -1j * c * d / s + 10j * m * c * s * d / p
    q = 3.0 * m * s * s - 2.0 + math.sqrt(4.0 - 3.0 * m)
    return 1j * s * d / c - 1j * m * c * s / d - 6j * m * s * d * c / q


def _superpotential_defect(fam, m, beta):
    """Largest |W - (-psi_g'/psi_g)| of one family over 32 points, with
    psi_g'/psi_g the log-derivative in the spec's ``ground``, the one its
    SUSY partner is built from (d/dx = i d/du)."""
    src = specs(m, beta)[fam]
    log_d = src.ground[1]
    point = ell.jacobi_triple(m, beta)
    worst = 0.0
    for x in np.linspace(0.0, src.period, 32, endpoint=False):
        s, c, d = point(float(x))
        worst = max(worst, abs(_closed_superpotential(fam, m, s, c, d) + 1j * log_d(s, c, d)))
    return worst


def _a1_translation(m, beta):
    # the a=1 partner is the base potential with its argument advanced by i K'
    L = specs(m, beta)[_A1].period
    f = pot.compiled_value_fn(specs(m, beta)[_A1 + ("partner",)])
    kp = ell.modulus(m).Kprime
    xs = np.union1d(np.linspace(0.0, L, 40, endpoint=False), np.linspace(0.0, L, 48, endpoint=False))
    return max(abs(f(x) - (-2.0 * m * ell.jacobi_complex(1j * x + beta + 1j * kp, m).sn ** 2 + m + 1.0))
               for x in xs)


def _a3_exchanged_edges(m, beta):
    # partner-then-transform has the edges of transform-then-partner ...
    found = _edge_sets(m, beta)
    return _max_pair_diff(_energies(found["a3-exchanged"]), _energies(found[_A3]))


def _a3_exchanged_distinct(m, beta):
    # ... although it, the base and the base's partner differ pointwise
    s = specs(m, beta)
    xs = np.linspace(0.0, s[_A3].period, 64, endpoint=False)
    vs, va, vb = (pot.compiled_value_fn(s[k])(xs) for k in (_A3, _A3 + ("partner",), "a3-exchanged"))
    return min(float(np.max(np.abs(v - w))) for v, w in ((va, vb), (va, vs), (vb, vs)))


def _assoc21_not_self_isospectral(m, beta):
    # no real translation maps the (2,1) partner back onto its base
    src = specs(m, beta)[_A21]
    fp, fb = pot.compiled_value_fn(specs(m, beta)[_A21 + ("partner",)]), pot.compiled_value_fn(src)
    xs = np.linspace(0.0, src.period, 64, endpoint=False)
    taus = np.linspace(0.0, src.period, 128, endpoint=False)
    # one row of the base per translation tau
    return float(np.min(np.max(np.abs(fp(xs) - fb(taus[:, None] + xs)), axis=1)))


def _dispersion(m, beta):
    spec = specs(m, beta)[_A1]
    es = np.concatenate([np.linspace(0.05, 0.70, 8), np.linspace(1.05, 3.0, 7)])
    return max(abs(spc.dispersion_analytic(m, beta, e).k - k) for e, k in zip(es, flq.dispersion_numeric(spec, es)))


def _bloch_residual(m, beta):
    spec, e = specs(m, beta)[_A1], m / 2.0
    f = pot.compiled_value_fn(spec)
    xs = [float(x) for x in np.linspace(0.0, spec.period, 20, endpoint=False)]
    return max(_scaled_residual(functools.partial(spc.bloch_solution_jet, m, beta, e, sign), f, e, xs)
               for sign in (1, -1))


def _bloch_factor(m, beta):
    # psi(x + L) / psi(x) = exp(+-i k L) for the two Bloch solutions
    L, e = specs(m, beta)[_A1].period, m / 2.0
    k = spc.dispersion_analytic(m, beta, e).k
    worst = 0.0
    for sign in (1, -1):
        p0, p1 = (spc.bloch_solution_jet(m, beta, e, sign, x)[0] for x in (0.3, 0.3 + L))
        worst = max(worst, min(abs(p1 / p0 - np.exp(1j * k * L)), abs(p1 / p0 - np.exp(-1j * k * L))))
    return worst


REGISTRY = (
    Invariant("elliptic-identities", _elliptic_identities, 1e-11),
    Invariant("sn-dn-imaginary-shift", _imaginary_shift, 1e-10),
    Invariant("eta-quasi-periodicity", _eta_quasi_periodicity, 1e-9),
    # the paper prints the period 2K'(0.75) = 3.3715
    Invariant("printed-period-2kprime", lambda m, beta: abs(2.0 * ell.modulus(0.75).Kprime - 3.3715), 5e-5),
    Invariant("kprime-complementary-k", _kprime_complement, 1e-13),
    Invariant("landen-equal-ab", _landen_equal_ab, 1e-9),
    Invariant("eigenfunction-residuals", _eigenfunction_residuals, 1e-8),
    Invariant("duality-relations", _dualities, 1e-6),
    Invariant("a2-half-parameter-sum-rule", _a2_half_parameter_sum_rule, 1e-6),
    Invariant("discriminant-relation", _discriminant_relation, 1e-9),
    Invariant("beta-independence", _beta_independence, 1e-6),
    Invariant("band-edge-tables", _edge_tables, 1e-6),
    Invariant("band-edge-classes", _edge_classes, 0.5),
    Invariant("edge-class-interleaving", _edge_class_interleaving, 0.5),
    Invariant("antiperiodic-edges-present", _antiperiodic_present, 0.5),
    Invariant("finite-gap", _finite_gap, 0.5),
    Invariant("susy-partner-isospectral", _partner_isospectral, 1e-6),
    Invariant("susy-factorization", _factorization, 1e-8),
    Invariant("closed-superpotential",
              lambda m, beta: max(_superpotential_defect(fam, m, beta) for fam in spc.ptlame_families), 1e-9),
    Invariant("a1-partner-translation", _a1_translation, 1e-9),
    Invariant("a3-exchanged-order-edges", _a3_exchanged_edges, 1e-6),
    Invariant("a3-exchanged-order-distinct", _a3_exchanged_distinct, 1e-3, above=True),
    Invariant("assoc21-not-self-isospectral", _assoc21_not_self_isospectral, 1e-3, above=True),
    Invariant("dispersion-analytic-vs-numeric", _dispersion, 1e-6),
    Invariant("bloch-ode-residual", _bloch_residual, 1e-7),
    Invariant("bloch-factor", _bloch_factor, 1e-7),
)


def run(rows, m: float, beta: float) -> list[tuple]:
    """(name, value, tol, ok, seconds) for each of ``rows`` (usually
    :data:`REGISTRY`) at (m, beta)."""
    out = []
    for row in rows:
        t0 = time.perf_counter()
        value = float(row.check(m, beta))
        ok = value > row.tol if row.above else value < row.tol
        out.append((row.name, value, row.tol, ok, time.perf_counter() - t0))
    return out
