"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expensive Floquet edge sets are computed once per module and shared.
"""


import numpy as np
import pytest

from ptlame import elliptic as ell
from ptlame import floquet as flq
from ptlame import potentials as pot
from ptlame import spectra as spc

from conftest import jacobi_ode_complex, pole_free_complex_grid

M, BETA = 0.75, 0.5
PARAMS = (0.1, 0.25, 0.5, 0.75, 0.9)


def _report(num, label, ok):
    print(f"\nacceptance {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def _shifted_pt(kind, a, b, m=M, beta=BETA):
    base = pot.associated_lame(a, b, m)
    return pot.Shifted(pot.PTTransform(base, beta), spc.ground_energy(kind, a, b, m, pt=True))


@pytest.fixture(scope="module")
def pt_edge_sets():
    """Floquet edges of the three shifted PT potentials and their partners."""
    out = {}
    for kind, a, b in spc.ptlame_families:
        spec = _shifted_pt(kind, a, b)
        top = spc.closed_form_energies(kind, a, b, M, pt=True, shifted=True)[-1]
        out[(kind, a, b)] = {
            "base": flq.find_band_edges(spec, -0.5, top + 0.8),
            "partner": flq.find_band_edges(pot.SusyPartner(spec), -0.5, top + 0.8),
        }
    return out


@pytest.fixture(scope="module")
def a2_lame_edges_half():
    found = flq.find_band_edges(pot.Lame(2, 0.5), -0.5, 6.5)
    return [e.energy for e in found if e.multiplicity == 1]


def test_criterion_01_elliptic_identity_suite():
    worst_id = 0.0
    for m in PARAMS:
        pts = pole_free_complex_grid(m, 50)
        for z in pts:
            jv = ell.jacobi_complex(z, m)
            worst_id = max(worst_id,
                           abs(jv.sn**2 + jv.cn**2 - 1.0),
                           abs(jv.dn**2 + m * jv.sn**2 - 1.0))
    worst_oracle = 0.0
    for m in (0.25, 0.75):
        for z in pole_free_complex_grid(m, 6, seed=23):
            s, c, d = jacobi_ode_complex(z, m)
            jv = ell.jacobi_complex(z, m)
            worst_oracle = max(worst_oracle, abs(jv.sn - s), abs(jv.cn - c), abs(jv.dn - d))
    _report(1, "elliptic identities", worst_id < 1e-11 and worst_oracle < 1e-10)


def test_criterion_02_period_reproduction():
    printed = abs(2.0 * ell.modulus(0.75).Kprime - 3.3715) < 5e-5
    agm = all(
        abs(ell.modulus(m).Kprime - ell.modulus(1.0 - m).K) < 1e-13 * ell.modulus(m).Kprime
        for m in PARAMS
    )
    _report(2, "period 2K'(0.75)", printed and agm)


def test_criterion_03_a3_band_edges(pt_edge_sets):
    ref = spc.pt_band_edges("lame", 3, 0, M, BETA)
    found = [e for e in pt_edge_sets[("lame", 3, 0)]["base"] if e.multiplicity == 1]
    ok = len(found) == 7
    ok = ok and max(abs(f.energy - r.energy) for f, r in zip(found, ref)) < 1e-6
    ok = ok and tuple(e.period_class for e in found) == ("P", "A", "A", "P", "P", "A", "A")
    _report(3, "a=3 PT edge table", ok)


def test_criterion_04_assoc21_band_edges(pt_edge_sets):
    ref = spc.pt_band_edges("assoc", 2, 1, M, BETA)
    found = [e for e in pt_edge_sets[("assoc", 2, 1)]["base"] if e.multiplicity == 1]
    ok = len(found) == 5
    ok = ok and max(abs(f.energy - r.energy) for f, r in zip(found, ref)) < 1e-6
    ok = ok and tuple(e.period_class for e in found) == ("P", "A", "A", "P", "P")
    _report(4, "(2,1) PT edge table", ok)


def test_criterion_05_eigenfunction_residuals():
    worst = 0.0
    for kind, a, b in spc.ptlame_families:
        spec = _shifted_pt(kind, a, b)
        f = pot.compiled_value_fn(spec)
        xs = np.linspace(0.0, spec.period, 40, endpoint=False)
        for e in spc.pt_band_edges(kind, a, b, M, BETA):
            rmax = vmax = 0.0
            for x in xs:
                psi, _, d2psi = e.jet(float(x))
                rmax = max(rmax, abs(-d2psi + (f(float(x)) - e.energy) * psi))
                vmax = max(vmax, abs(f(float(x)) * psi))
            worst = max(worst, rmax / vmax)
    _report(5, "eigenfunction residuals", worst < 1e-8)


def test_criterion_06_duality_relations(a2_lame_edges_half):
    worst = 0.0
    for a in (1, 3):
        for m in (0.3, 0.5, 0.75):
            worst = max(worst, spc.modulus_duality_check(a, m).max_violation)
            worst = max(worst, spc.pt_duality_check(a, m).max_violation)
    # half-parameter sum rule including the midpoint level, a = 2 from the
    # Floquet engine
    es = a2_lame_edges_half
    ok_a2 = len(es) == 5
    if ok_a2:
        worst = max(worst, max(abs(es[j] + es[4 - j] - 6.0) for j in range(5)))
        worst = max(worst, abs(es[2] - 3.0))
    _report(6, "duality relations", ok_a2 and worst < 1e-6)


def test_criterion_07_discriminant_relation():
    worst = 0.0
    for a in (1, 3):
        spec_pt = pot.PTTransform(pot.Lame(a, M), BETA)
        dual = pot.Lame(a, 1.0 - M)
        shift = a * (a + 1)
        # sampled across the spectral span, where the discriminant stays O(1)
        for e in np.linspace(-shift - 0.6, 0.4, 20):
            d1 = flq.monodromy(spec_pt, float(e)).discriminant
            d2 = flq.monodromy(dual, float(e) + shift).discriminant
            worst = max(worst, abs(d1 - d2))
    _report(7, "discriminant modulus relation", worst < 1e-6)


def test_criterion_08_dispersion():
    spec = _shifted_pt("lame", 1, 0)
    L = spec.period
    worst_k = 0.0
    for e in list(np.linspace(0.05, 0.70, 8)) + list(np.linspace(1.05, 3.0, 7)):
        dp = spc.dispersion_analytic(M, BETA, float(e))
        worst_k = max(worst_k, abs(dp.k - flq.dispersion_numeric(spec, float(e))))
    f = pot.compiled_value_fn(spec)
    e0 = M / 2.0
    dp = spc.dispersion_analytic(M, BETA, e0)
    worst_r = 0.0
    for x in np.linspace(0.0, L, 20, endpoint=False):
        for sign in (1, -1):
            psi, _, d2psi = spc.bloch_solution_jet(M, BETA, e0, sign, float(x))
            worst_r = max(worst_r, abs(-d2psi + (f(float(x)) - e0) * psi) / abs(f(float(x)) * psi))
    worst_fac = 0.0
    for sign in (1, -1):
        p0 = spc.bloch_solution_jet(M, BETA, e0, sign, 0.3)[0]
        p1 = spc.bloch_solution_jet(M, BETA, e0, sign, 0.3 + L)[0]
        fac = p1 / p0
        worst_fac = max(worst_fac, min(abs(fac - np.exp(1j * dp.k * L)),
                                       abs(fac - np.exp(-1j * dp.k * L))))
    _report(8, "a=1 dispersion relation", worst_k < 1e-6 and worst_r < 1e-7 and worst_fac < 1e-7)


def test_criterion_09_susy_structure(pt_edge_sets):
    # factorization: W**2 - W' rebuilds the zero-based potential
    worst_fact = 0.0
    for kind, a, b in spc.ptlame_families:
        src = _shifted_pt(kind, a, b)
        fsrc = pot.compiled_value_fn(src)
        builder, _, _, bb = pot._resolve_ground(src)
        for x in np.linspace(0.0, src.period, 32, endpoint=False):
            jv = ell.jacobi_complex(1j * float(x) + bb, M)
            j = builder(*ell.jets_from_scd(jv.sn, jv.cn, jv.dn, M))
            worst_fact = max(worst_fact, abs(-j.d2 / j.f - fsrc(float(x))))
    ok = worst_fact < 1e-8

    # the partner shares every band edge with its base potential
    worst_edges = 0.0
    for key in pt_edge_sets:
        base = [e.energy for e in pt_edge_sets[key]["base"] if e.multiplicity == 1]
        part = [e.energy for e in pt_edge_sets[key]["partner"] if e.multiplicity == 1]
        ok = ok and len(base) == len(part)
        worst_edges = max(worst_edges, max(abs(x - y) for x, y in zip(base, part)))
    ok = ok and worst_edges < 1e-6

    # a = 1: the partner is exactly the base with the argument advanced
    src1 = _shifted_pt("lame", 1, 0)
    f1 = pot.compiled_value_fn(pot.SusyPartner(src1))
    kp = ell.modulus(M).Kprime
    worst_tr = max(
        abs(f1(float(x)) - (-2 * M * ell.jacobi_complex(1j * float(x) + BETA + 1j * kp, M).sn ** 2 + M + 1))
        for x in np.linspace(0.0, src1.period, 40, endpoint=False)
    )
    ok = ok and worst_tr < 1e-9

    # a = 3: partner-then-transform and transform-then-partner give the same
    # edge set although the potentials differ pointwise
    src3 = _shifted_pt("lame", 3, 0)
    top3 = spc.closed_form_energies("lame", 3, 0, M, pt=True, shifted=True)[-1]
    exchanged = pot.Shifted(
        pot.PTTransform(pot.SusyPartner(pot.Shifted(pot.Lame(3, M),
                                                    spc.ground_energy("lame", 3, 0, M, pt=False))), BETA),
        -top3,
    )
    ex_edges = [e.energy for e in flq.find_band_edges(exchanged, -0.5, top3 + 0.8) if e.multiplicity == 1]
    base3 = [e.energy for e in pt_edge_sets[("lame", 3, 0)]["base"] if e.multiplicity == 1]
    ok = ok and len(ex_edges) == len(base3)
    ok = ok and max(abs(x - y) for x, y in zip(ex_edges, base3)) < 1e-6
    fa = pot.compiled_value_fn(pot.SusyPartner(src3))
    fb = pot.compiled_value_fn(exchanged)
    fs = pot.compiled_value_fn(src3)
    xs = np.linspace(0.0, src3.period, 64, endpoint=False)
    ok = ok and max(abs(fa(float(x)) - fb(float(x))) for x in xs) > 1e-3
    ok = ok and max(abs(fa(float(x)) - fs(float(x))) for x in xs) > 1e-3
    ok = ok and max(abs(fb(float(x)) - fs(float(x))) for x in xs) > 1e-3

    # (2,1): no real translation maps the partner back onto the base
    src21 = _shifted_pt("assoc", 2, 1)
    fp = pot.compiled_value_fn(pot.SusyPartner(src21))
    fb21 = pot.compiled_value_fn(src21)
    L = src21.period
    xs = np.linspace(0.0, L, 64, endpoint=False)
    vp = np.array([fp(float(x)) for x in xs])
    separation = min(
        float(np.max(np.abs(vp - np.array([fb21(float(x + tau)) for x in xs]))))
        for tau in np.linspace(0.0, L, 128, endpoint=False)
    )
    ok = ok and separation > 1e-3
    _report(9, "SUSY structure", ok)


def test_criterion_10_antiperiodic_edges_exist(pt_edge_sets):
    n_anti = sum(1 for e in pt_edge_sets[("lame", 3, 0)]["base"]
                 if e.multiplicity == 1 and e.period_class == "A")
    _report(10, "antiperiodic edges present", n_anti >= 1)
