import ast
import math
import pathlib

import numpy as np
import pytest

from ptlame import elliptic as ell
from ptlame import floquet as flq
from ptlame import invariants as inv
from ptlame import potentials as pot
from ptlame import spectra as spc

M, BETA = 0.75, 0.5

# from the closed-form expressions at m = 0.75 (delta3 = 1)
A3_ENERGIES = (0.0, 4.25 - 2 * math.sqrt(3.8125), 5 - 2 * math.sqrt(2.5),
               3.75, 4.0, 4.25 + 2 * math.sqrt(3.8125), 5 + 2 * math.sqrt(2.5))
A3_CLASSES = ("P", "A", "A", "P", "P", "A", "A")
A21_CLASSES = ("P", "A", "A", "P", "P")
# the real rows' classes: the same factors under u -> u + 2K, not u -> u + 2iK'
A3_REAL_CLASSES = ("P", "A", "A", "P", "P", "A", "A")
A21_REAL_CLASSES = ("P", "A", "A", "A", "A")


def _shifted_pt_spec(kind, a, b, m=M, beta=BETA):
    base = pot.associated_lame(a, b, m)
    eg = spc.ground_energy(kind, a, b, m, pt=True)
    return pot.Shifted(pot.PTTransform(base, beta), eg)


class TestClosedFormEdges:
    def test_a1_energies(self):
        edges = spc.pt_band_edges("lame", 1, 0, M, BETA)
        assert [e.energy for e in edges] == [0.0, M, 1.0]
        assert [e.period_class for e in edges] == ["P", "A", "A"]

    def test_a3_energies_match_reference(self):
        edges = spc.pt_band_edges("lame", 3, 0, M, BETA)
        assert np.allclose([e.energy for e in edges], A3_ENERGIES, atol=1e-12)
        # four-decimal quotes for m = 0.75 (mixed rounding/truncation upstream)
        assert np.allclose([e.energy for e in edges],
                           [0.0, 0.3448, 1.8377, 3.75, 4.0, 8.1552, 8.1623], atol=1.2e-4)
        assert tuple(e.period_class for e in edges) == A3_CLASSES

    def test_a21_energies_and_classes(self):
        sg = math.sqrt(4 - 3 * M)
        d4 = math.sqrt(4 - 5 * M + M * M)
        ref = [0.0, 2 * sg - M - 2 * d4, 2 * sg - M + 2 * d4, 4 * sg, 5 - 3 * M + 2 * sg]
        edges = spc.pt_band_edges("assoc", 2, 1, M, BETA)
        assert np.allclose([e.energy for e in edges], ref, atol=1e-12)
        assert tuple(e.period_class for e in edges) == A21_CLASSES

    @pytest.mark.parametrize("kind,a,b", spc.ptlame_families)
    @pytest.mark.parametrize("m", (0.05, 0.3, 0.5, 0.75, 0.9, 0.95))
    def test_energies_ascend(self, kind, a, b, m):
        for pt in (True, False):
            es = spc.closed_form_energies(kind, a, b, m, pt=pt)
            assert all(x < y for x, y in zip(es, es[1:]))

    def test_real_edges_a1(self):
        edges = spc.real_band_edges("lame", 1, 0, M)
        assert np.allclose([e.energy for e in edges], [M, 1.0, 1.0 + M], atol=1e-14)
        assert [e.period_class for e in edges] == ["P", "A", "A"]

    def test_real_classes(self):
        assert tuple(e.period_class for e in spc.real_band_edges("lame", 3, 0, M)) == A3_REAL_CLASSES
        assert tuple(e.period_class for e in spc.real_band_edges("assoc", 2, 1, M)) == A21_REAL_CLASSES

    def test_real_ground_energies(self):
        assert abs(spc.ground_energy("lame", 1, 0, M, pt=False) - M) < 1e-14
        assert abs(spc.ground_energy("assoc", 2, 1, M, pt=False) - 4 * M) < 1e-14
        d1 = math.sqrt(1 - M + 4 * M * M)
        assert abs(spc.ground_energy("lame", 3, 0, M, pt=False) - (2 + 5 * M - 2 * d1)) < 1e-14

    @pytest.mark.parametrize("kind,a,b", [("lame", 1, 0), ("lame", 3, 0), ("assoc", 2, 1)])
    @pytest.mark.parametrize("pt", [False, True], ids=["real", "pt"])
    def test_ground_state_zeros(self, kind, a, b, pt):
        # the ground state vanishes wherever sn**2 takes a listed value; a
        # SUSY partner has its poles there
        builder, zeros, _ = spc.ground_state_builder(kind, a, b, M, pt)

        def psi(u):
            jv = ell.jacobi_complex(u, M)
            return builder(*ell.jets_from_scd(jv.sn, jv.cn, jv.dn, M))[0]

        assert zeros
        for w in zeros:
            assert abs(psi(ell.inverse_sn(complex(w) ** 0.5, M))) < 1e-9 * abs(psi(0.3 + 0.2j))

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            spc.ground_energy("lame", 2, 0, M, pt=True)

    def test_edge_rows_are_an_immutable_cached_tuple(self):
        # edge_rows is memoized, so what it returns must not be mutable by a caller
        rows = spc.edge_rows("lame", 3, 0, M, True)
        assert isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
        assert spc.edge_rows("lame", 3, 0, M, True) is rows


class TestEigenfunctions:
    @pytest.mark.parametrize("kind,a,b", spc.ptlame_families)
    @pytest.mark.parametrize("m", (0.3, 0.75))
    def test_pt_ode_residuals(self, kind, a, b, m):
        spec = _shifted_pt_spec(kind, a, b, m)
        f = pot.compiled_value_fn(spec)
        edges = spc.pt_band_edges(kind, a, b, m, BETA)
        xs = np.linspace(0.0, spec.period, 40, endpoint=False)
        for e in edges:
            rmax = vmax = 0.0
            for x in xs:
                psi, _, d2psi = e.jet(float(x))
                rmax = max(rmax, abs(-d2psi + (f(float(x)) - e.energy) * psi))
                vmax = max(vmax, abs(f(float(x)) * psi))
            assert rmax / vmax < 1e-8

    @pytest.mark.parametrize("kind,a,b", spc.ptlame_families)
    def test_real_ode_residuals(self, kind, a, b):
        base = pot.associated_lame(a, b, M)
        f = pot.compiled_value_fn(base)
        edges = spc.real_band_edges(kind, a, b, M)
        xs = np.linspace(0.0, base.period, 40, endpoint=False)
        for e in edges:
            rmax = vmax = 0.0
            for x in xs:
                psi, _, d2psi = e.jet(float(x))
                rmax = max(rmax, abs(-d2psi + (f(float(x)) - e.energy) * psi))
                vmax = max(vmax, abs(f(float(x)) * psi) + 1e-30)
            assert rmax / max(vmax, 1e-12) < 1e-8

    @pytest.mark.parametrize("kind,a,b", spc.ptlame_families)
    def test_periodicity_classes_literal(self, kind, a, b):
        spec = _shifted_pt_spec(kind, a, b)
        L = spec.period
        for e in spc.pt_band_edges(kind, a, b, M, BETA):
            sgn = 1.0 if e.period_class == "P" else -1.0
            for x in (0.123, 1.01):
                assert abs(e.jet(x + L)[0] - sgn * e.jet(x)[0]) < 1e-9

    @pytest.mark.parametrize("kind,a,b", spc.ptlame_families)
    def test_real_periodicity_classes_literal(self, kind, a, b):
        L = pot.associated_lame(a, b, M).period
        for e in spc.real_band_edges(kind, a, b, M):
            sgn = 1.0 if e.period_class == "P" else -1.0
            for x in (0.123, 1.01):
                assert abs(e.jet(x + L)[0] - sgn * e.jet(x)[0]) < 1e-9

    @pytest.mark.parametrize("m,beta", [(M, BETA), (0.3, 1.2)])
    def test_a1_pt_edges_are_sn_cn_dn(self, m, beta):
        # the rows print the a=1 edge states as sn, cn and dn at u = i x + beta,
        # unnormalized; d/dx = i d/du
        for x in (0.0, 0.4, 1.7, 3.1):
            jv = ell.jacobi_complex(1j * x + beta, m)
            s, c, d = jv.sn, jv.cn, jv.dn
            expected = ((s, 1j * c * d, (1 + m) * s - 2 * m * s**3),
                        (c, -1j * s * d, (1 - 2 * m) * c + 2 * m * c**3),
                        (d, -1j * m * s * c, 2 * d**3 - (2 - m) * d))
            for e, jet in zip(spc.pt_band_edges("lame", 1, 0, m, beta), expected):
                assert max(abs(p - q) for p, q in zip(e.jet(x), jet)) < 1e-14

    def test_first_derivative_consistency(self):
        e = spc.pt_band_edges("lame", 3, 0, M, BETA)[2]
        h = 1e-5
        for x in (0.2, 0.9):
            fd = (e.jet(x + h)[0] - e.jet(x - h)[0]) / (2 * h)
            assert abs(fd - e.jet(x)[1]) < 1e-8

    # a family with a row of each Jacobi factor type
    FACTOR_FAMILIES = {"sn": ("lame", 3, 0), "cn": ("lame", 1, 0), "dn": ("lame", 1, 0),
                       "sncndn": ("lame", 3, 0), "cn/dn": ("assoc", 2, 1), "sn/dn": ("assoc", 2, 1),
                       "dn2": ("assoc", 2, 1)}

    @pytest.mark.parametrize("pt", [False, True], ids=["real", "pt"])
    @pytest.mark.parametrize("tag", FACTOR_FAMILIES)
    def test_jets_match_mpmath(self, tag, pt):
        # independent oracle: the written-out edge state sn**p cn**q dn**r
        # (c0 + c1 sn**2) at u = x or u = i x + beta through mpmath's Jacobi
        # functions at 30 digits, differentiated in x by mpmath
        import mpmath as mp

        fam = self.FACTOR_FAMILIES[tag]
        edges = spc.pt_band_edges(*fam, M, BETA) if pt else spc.real_band_edges(*fam, M)
        edge, (_, c0, c1) = next((e, state) for e, (_, _, state) in zip(edges, spc.edge_rows(*fam, M, pt))
                                 if state[0] == tag)
        p, q, r = spc._FACTORS[tag]
        with mp.workdps(30):
            def psi(x):
                u = mp.mpc(BETA, x) if pt else x
                s, c, d = (mp.ellipfun(k, u, m=M) for k in ("sn", "cn", "dn"))
                return s**p * c**q * d**r * (c0 + c1 * s**2)

            for x in (0.37, 1.3, 2.9):
                ref = [complex(mp.diff(psi, mp.mpf(x), n)) for n in (0, 1, 2)]
                assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(edge.jet(x), ref))

    def test_edge_tables_on_one_line_share_jets(self, monkeypatch):
        # every table on one line reads the (S, C, D) jets of one cache: the
        # three PT families and the three real ones on one 40-point grid
        # build 40 jets per line, not one set per table
        made = []
        jets = spc.jets_from_scd
        monkeypatch.setattr(spc, "jets_from_scd", lambda *args: made.append(args) or jets(*args))
        spc._line_jets.cache_clear()
        xs = np.linspace(0.0, 2.0 * ell.modulus(M).Kprime, 40, endpoint=False)
        for fam in spc.ptlame_families:
            for e in spc.pt_band_edges(*fam, M, BETA) + spc.real_band_edges(*fam, M):
                for x in xs:
                    e.jet(float(x))
        assert len(made) == 80 == spc._line_jets.cache_info().misses

    def test_line_cache_is_bounded(self):
        spc._line_jets.cache_clear()
        edge = spc.pt_band_edges("lame", 3, 0, M, BETA)[0]
        bound = spc._line_jets.cache_info().maxsize
        xs = [float(x) for x in np.linspace(0.0, 1.0, bound + 40)]
        first = [edge.jet(x) for x in xs]
        assert bound == 256 and spc._line_jets.cache_info().currsize == bound
        # an evicted point is rebuilt with the same values
        assert [edge.jet(x) for x in xs] == first

    def test_one_sweep_clears_every_cache(self, monkeypatch):
        # every memo of the package is a functools cache, so clearing each
        # function that has cache_clear leaves no value behind: a second
        # pass over three tables on one grid rebuilds its 40 jets
        import importlib
        import pkgutil

        import ptlame

        modules = [importlib.import_module(f"ptlame.{info.name}") for info in pkgutil.iter_modules(ptlame.__path__)]
        made = []
        jets = spc.jets_from_scd
        monkeypatch.setattr(spc, "jets_from_scd", lambda *args: made.append(args) or jets(*args))
        xs = np.linspace(0.0, 2.0 * ell.modulus(M).Kprime, 40, endpoint=False)
        for _ in range(2):
            for mod in modules:
                for f in vars(mod).values():
                    if callable(getattr(f, "cache_clear", None)):
                        f.cache_clear()
            made.clear()
            for fam in spc.ptlame_families:
                for e in spc.pt_band_edges(*fam, M, BETA):
                    for x in xs:
                        e.jet(float(x))
            assert len(made) == 40

    @pytest.mark.parametrize("pt", [False, True], ids=["real", "pt"])
    @pytest.mark.parametrize("fam", spc.ptlame_families)
    def test_jets_are_the_product_rule_rotated_to_x(self, fam, pt):
        # each row's jet equals its Jacobi factor times c0 + c1 sn**2, built
        # by the product rule from the (S, C, D) jets in u and only then
        # rotated to x by d/dx = i d/du, as the rows did before the line
        # cache took the rotation and the shared S**2 and 1/D
        m, beta = 0.3, 1.2
        edges = spc.pt_band_edges(*fam, m, beta) if pt else spc.real_band_edges(*fam, m)
        triple = ell.jacobi_triple(m, beta if pt else None)
        dfac = 1j if pt else 1.0
        for x in (0.0, 0.41, 1.7, 3.3):
            S, C, D, *_ = ell.jets_from_scd(*triple(x), m)
            for edge, (_, _, (tag, c0, c1)) in zip(edges, spc.edge_rows(*fam, m, pt), strict=True):
                jet = (1.0, 0.0, 0.0)
                for base, k in zip((S, C, D), spc._FACTORS[tag]):
                    for _ in range(abs(k)):
                        jet = ell.jet_mul(jet, base if k > 0 else ell.jet_reciprocal(base))
                s, s1, s2 = ell.jet_mul(S, S)
                f, d1, d2 = ell.jet_mul(jet, (s * c1 + c0, s1 * c1, s2 * c1))
                assert edge.jet(x) == (f, dfac * d1, dfac * dfac * d2)

    def test_line_on_a_pole_raises_at_the_first_jet(self):
        # beta = 0 puts the line on the sn poles: the table builds, and its
        # first jet raises
        edges = spc.pt_band_edges("lame", 1, 0, M, 0.0)
        with pytest.raises(ell.PoleProximityError):
            edges[0].jet(0.3)


class TestEnergyMaps:
    # the PT energy map E_j -> -E_{2a-j} between the real and the PT tables
    def test_pt_map_a1(self):
        assert spc.closed_form_energies("lame", 1, 0, M, pt=False) == [M, 1.0, 1.0 + M]
        assert spc.closed_form_energies("lame", 1, 0, M, pt=True) == [-(1.0 + M), -1.0, -M]

    def test_involution(self):
        # the map takes the PT table back to the real one
        for family in spc.ptlame_families:
            real = spc.closed_form_energies(*family, M, pt=False)
            pt = spc.closed_form_energies(*family, M, pt=True)
            assert [-e for e in reversed(pt)] == pytest.approx(real, abs=1e-14)

    def test_preserves_ascending_order(self):
        for family in spc.ptlame_families:
            for pt in (False, True):
                out = spc.closed_form_energies(*family, M, pt=pt)
                assert out == sorted(out)

    def test_table_lengths_match(self):
        for family in spc.ptlame_families:
            a = family[1]
            assert len(spc.closed_form_energies(*family, M, pt=False)) == 2 * a + 1
            assert len(spc.closed_form_energies(*family, M, pt=True)) == 2 * a + 1


class TestDualities:
    def test_a1_modulus_duality_closed_form(self):
        # E_0(m) = m while a(a+1) - E_2(1-m) = 2 - (1 + (1-m)) = m
        assert inv._modulus_duality(1, 0.3) < 1e-12

    @pytest.mark.parametrize("a", (1, 3))
    @pytest.mark.parametrize("m", (0.3, 0.5, 0.75))
    def test_closed_form_dualities(self, a, m):
        assert inv._modulus_duality(a, m) < 1e-8
        assert inv._pt_duality(a, m) < 1e-8

    @pytest.mark.parametrize("a", (1, 3))
    def test_half_parameter_sum_rule(self, a):
        es = spc.closed_form_energies("lame", a, 0, 0.5, pt=False)
        s = a * (a + 1)
        for j in range(len(es)):
            assert abs(es[j] + es[2 * a - j] - s) < 1e-12
        assert abs(es[a] - s / 2) < 1e-12

    def test_a2_edge_set_searched_once(self, monkeypatch):
        # at m = 1/2 the duality row needs the a=2 edges at m and at 1 - m,
        # and the sum-rule row needs them again: one Floquet search serves all
        inv._lame_edges.cache_clear()
        searched = []
        find = flq.find_band_edges
        monkeypatch.setattr(flq, "find_band_edges", lambda spec, *args: searched.append(spec) or find(spec, *args))
        for row in inv.REGISTRY:
            if row.name in ("duality-relations", "a2-half-parameter-sum-rule"):
                assert inv.run([row], M, BETA)[0][3]
        assert [(s.kind, s.a, s.m) for s in searched].count(("lame", 2, 0.5)) == 1


class TestDispersion:
    def test_band_edge_wavenumbers(self):
        L = 2 * ell.modulus(M).Kprime
        for E, target in ((0.0, 0.0), (M, math.pi / L), (1.0, math.pi / L)):
            dp = spc.dispersion_analytic(M, BETA, E)
            assert abs(dp.k - target) < 1e-7 / L

    def test_in_band_reality_invariant(self):
        for E in np.linspace(0.02, 0.73, 9):
            dp = spc.dispersion_analytic(M, BETA, float(E))
            assert abs(dp.k.imag) < 1e-8

    def test_matches_floquet_mid_band(self):
        spec = _shifted_pt_spec("lame", 1, 0)
        for E, kn in zip((M / 2, 1.8), flq.dispersion_numeric(spec, [M / 2, 1.8])):
            dp = spc.dispersion_analytic(M, BETA, E)
            assert abs(dp.k - kn) < 1e-6

    @pytest.mark.parametrize("m,beta", [(0.75, 0.5), (0.3, 1.2), (0.95, 0.5)])
    def test_matches_floquet_below_the_spectrum(self, m, beta):
        # E < 0 puts alpha1 on the imaginary axis, the one path through
        # inverse_sn's imaginary leg; the energies in both bands and in the
        # gap (m, 1) take the others
        spec = _shifted_pt_spec("lame", 1, 0, m, beta)
        energies = (-2.0, -0.5, -0.05, m / 2, (m + 1) / 2, 2.5)
        for E, kn in zip(energies, flq.dispersion_numeric(spec, energies)):
            dp = spc.dispersion_analytic(m, beta, E)
            assert dp.alpha1.real == 0.0 or E > 0
            assert abs(dp.k - kn) < 1e-9

    @pytest.mark.parametrize("E", [M / 2, 2.0])
    def test_complex_k_inside_a_band_raises(self, monkeypatch, E):
        # a Z(alpha1) off by 0.01i puts Im k = 0.01 inside the bands (0, m) and
        # (1, inf): BranchResolutionError, not a k patched to real; in the gap
        # (m, 1) the same Im k is an attenuation and is returned
        alpha_zeta = spc._alpha_zeta

        def off(m, E):
            alpha1, z1 = alpha_zeta(m, E)
            return alpha1, z1 + 0.01j

        monkeypatch.setattr(spc, "_alpha_zeta", off)
        with pytest.raises(spc.BranchResolutionError, match=f"at E={E}, inside a band"):
            spc.dispersion_analytic(M, BETA, E)
        assert spc.dispersion_analytic(M, BETA, 0.85).k.imag > 1e-3

    def test_gap_attenuation(self):
        dp = spc.dispersion_analytic(M, BETA, 0.85)
        L = 2 * ell.modulus(M).Kprime
        assert dp.k.imag > 1e-3
        assert abs(dp.k.real - math.pi / L) < 1e-9

    def test_alpha_solves_the_energy_relation(self):
        for E in (0.1, 0.5, 2.0):
            dp = spc.dispersion_analytic(M, BETA, E)
            assert abs(M * ell.jacobi_complex(dp.alpha1, M).sn ** 2 - E) < 1e-10


class TestBlochSolutions:
    def test_ode_residual(self):
        spec = _shifted_pt_spec("lame", 1, 0)
        f = pot.compiled_value_fn(spec)
        E = M / 2
        for x in np.linspace(0.0, spec.period, 20, endpoint=False):
            for sign in (1, -1):
                psi, _, d2psi = spc.bloch_solution_jet(M, BETA, E, sign, float(x))
                assert abs(-d2psi + (f(float(x)) - E) * psi) < 1e-7 * abs(f(float(x)) * psi)

    @pytest.mark.parametrize("m", (0.75, 0.5, 0.3))
    def test_ode_residual_row_where_psi_vanishes(self, m):
        # at beta = 2K - alpha1(m/2) the + solution vanishes at x = 0, the
        # first point of the row's grid; a pointwise ratio read 0.6-0.9 there
        alpha1 = spc.dispersion_analytic(m, BETA, m / 2).alpha1.real
        beta = 2 * ell.modulus(m).K - alpha1
        assert abs(spc.bloch_solution_jet(m, beta, m / 2, 1, 0.0)[0]) < 1e-15
        row = next(r for r in inv.REGISTRY if r.name == "bloch-ode-residual")
        [(_, value, _, ok, _)] = inv.run([row], m, beta)
        assert ok and value < 1e-13

    def test_ode_residual_row_near_a_zero_of_h(self):
        # beta rounded off the zero: psi(0) = -2.5e-11, where a jet built
        # from the log-derivative dh/h loses every digit of psi''
        row = next(r for r in inv.REGISTRY if r.name == "bloch-ode-residual")
        [(_, value, _, ok, _)] = inv.run([row], 0.75, 3.461807546)
        assert ok and value < 1e-13

    def test_bloch_factors_are_conjugate_momenta(self):
        E = M / 2
        L = 2 * ell.modulus(M).Kprime
        dp = spc.dispersion_analytic(M, BETA, E)
        x0 = 0.3
        facs = []
        for sign in (1, -1):
            p0 = spc.bloch_solution_jet(M, BETA, E, sign, x0)[0]
            p1 = spc.bloch_solution_jet(M, BETA, E, sign, x0 + L)[0]
            facs.append(p1 / p0)
        assert abs(facs[0] * facs[1] - 1.0) < 1e-7
        assert any(abs(f - np.exp(1j * dp.k * L)) < 1e-7 or abs(f - np.exp(-1j * dp.k * L)) < 1e-7
                   for f in facs)

    def test_first_derivative_consistency(self):
        E, h, x = M / 2, 1e-5, 0.7
        fd = (spc.bloch_solution_jet(M, BETA, E, 1, x + h)[0]
              - spc.bloch_solution_jet(M, BETA, E, 1, x - h)[0]) / (2 * h)
        assert abs(fd - spc.bloch_solution_jet(M, BETA, E, 1, x)[1]) < 1e-8

    def test_rejects_theta_zero(self):
        # u = i K' + 2K is a zero of Theta: on the line beta = 2K at x = K';
        # a repeated call raises too, as the Theta memo keeps no exception
        mod = ell.modulus(M)
        with pytest.raises(ell.ThetaZeroError):
            ell.zeta_Z(M, 2 * mod.K + 1j * mod.Kprime)
        for _ in range(2):
            with pytest.raises(ell.ThetaZeroError):
                spc.bloch_solution_jet(M, 2 * mod.K, M / 2, 1, mod.Kprime)

    def test_theta_is_read_once_per_point(self, monkeypatch):
        # Theta(i x + beta) depends on the point only: the Bloch jets of 15
        # energies and both signs at x0 and x0 + L read it twice
        L = 2 * ell.modulus(M).Kprime
        x0 = 0.37 * L
        points = {1j * x + BETA for x in (x0, x0 + L)}
        calls = []
        theta = ell.theta_jets

        def counted(m, u, odd):
            calls.append((u, odd))
            return theta(m, u, odd)

        monkeypatch.setattr(ell, "theta_jets", counted)
        spc._theta.cache_clear()
        for E in np.linspace(-0.4, 1.8, 15):
            for sign in (1, -1):
                for x in (x0, x0 + L):
                    spc.bloch_solution_jet(M, BETA, float(E), sign, x)
        assert len([u for u, odd in calls if odd]) == 60
        assert [u for u, odd in calls if not odd and u in points] == sorted(points, key=lambda u: u.imag)
        assert spc._theta.cache_info().maxsize is not None

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            spc.bloch_solution_jet(M, BETA, 0.3, 0, 0.1)


def _imports(module):
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    return tree, [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_imports_neither_floquet_nor_numpy():
    # the closed forms stay independent of the engine they are checked
    # against, and of the specs that potentials maps onto their rows: imports
    # run one way, elliptic -> spectra -> potentials -> floquet
    _, nodes = _imports(spc)
    imported, package = set(), set()
    for node in nodes:
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        else:
            imported |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
            if node.level:
                package |= {(node.module or alias.name).split(".")[0] for alias in node.names}
    assert imported and not [n for n in imported if {"floquet", "numpy"} & set(n.split("."))]
    assert package == {"elliptic"}
    # potentials imports spectra once, at module top, with no import in a function
    tree, nodes = _imports(pot)
    assert nodes and all(node in tree.body for node in nodes)
    assert [n for n in nodes if isinstance(n, ast.ImportFrom) and "spectra" in {a.name for a in n.names}]
