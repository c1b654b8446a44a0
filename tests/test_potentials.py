import cmath
import math

import numpy as np
import pytest

from ptlame import elliptic as ell
from ptlame import floquet as flq
from ptlame import invariants as inv
from ptlame import potentials as pot
from ptlame import spectra as spc

M, BETA = 0.75, 0.5


def _grid(spec, n=60):
    return np.linspace(0.0, spec.period, n, endpoint=False)


class TestConstruction:
    def test_lame_rejects_bad_index(self):
        with pytest.raises(pot.PotentialError):
            pot.Lame(-1, 0.5)

    def test_associated_requires_ordered_indices(self):
        with pytest.raises(pot.PotentialError):
            pot.AssociatedLame(1, 2, 0.5)

    @pytest.mark.parametrize("a,b", [(2.5, 1), (2, 1.5)])
    def test_associated_requires_integer_indices(self, a, b):
        with pytest.raises(pot.PotentialError):
            pot.AssociatedLame(a, b, 0.5)

    def test_rejects_parameter_outside_unit_interval(self):
        with pytest.raises(pot.PotentialError, match="outside"):
            pot.AssociatedLame(3, 0, 1.5)

    def test_normal_form_rejects_unknown_spec(self):
        with pytest.raises(pot.PotentialError, match="unrecognized spec"):
            pot.normal_form(object())

    def test_b_zero_normalizes_to_lame(self):
        spec = pot.associated_lame(3, 0, M)
        assert spec == pot.Lame(3, M)

    def test_pt_rejects_zero_beta(self):
        with pytest.raises(pot.PotentialError):
            pot.PTTransform(pot.Lame(1, M), 0.0)

    def test_pt_rejects_beta_on_pole_line(self):
        with pytest.raises(pot.PotentialError):
            pot.PTTransform(pot.Lame(1, M), 2.0 * ell.modulus(M).K - 1e-6)

    def test_pt_rejects_beta_on_dn_zero_line_for_associated(self):
        with pytest.raises(pot.PotentialError):
            pot.PTTransform(pot.AssociatedLame(2, 1, M), ell.modulus(M).K)
        # the same beta is fine for a plain Lame potential
        pot.PTTransform(pot.Lame(2, M), ell.modulus(M).K)

    def test_pt_rejects_beta_on_partner_zero_line(self):
        # the real a=3 ground state vanishes on Re u = K, so its partner has
        # poles on that line
        real3 = pot.Shifted(pot.Lame(3, M), spc.ground_energy("lame", 3, 0, M, pt=False))
        K = ell.modulus(M).K
        for beta in (K - 5e-5, K + 5e-5):
            with pytest.raises(pot.PotentialError, match="zero line of the partner's ground state"):
                pot.PTTransform(pot.SusyPartner(real3), beta)

    def test_nested_pt_rejected(self):
        inner = pot.PTTransform(pot.Lame(1, M), BETA)
        with pytest.raises(pot.PotentialError):
            pot.PTTransform(inner, BETA)

    def test_pt_of_custom_potential_rejected(self):
        # a custom potential has no Jacobi-function expression to continue
        # onto the line, so the transform fails here, not at evaluation
        for inner in (pot.CustomPotential(math.cos, 2 * math.pi),
                      pot.Shifted(pot.CustomPotential(math.cos, 2 * math.pi), 1.0)):
            with pytest.raises(pot.PotentialError, match="custom potential"):
                pot.PTTransform(inner, 0.5)

    def test_partner_requires_zero_ground_energy(self):
        with pytest.raises(pot.MissingGroundStateError):
            pot.SusyPartner(pot.PTTransform(pot.Lame(1, M), BETA))

    def test_partner_requires_known_family(self):
        with pytest.raises(pot.MissingGroundStateError):
            pot.SusyPartner(pot.Shifted(pot.Lame(2, M), 1.0))

    def test_no_ground_state_under_a_pt_transform(self):
        # only the bare family keeps a closed-form ground state under the PT
        # transform; the error names both wrappers that lose it
        real1 = pot.Shifted(pot.Lame(1, M), spc.ground_energy("lame", 1, 0, M, pt=False))
        for inner in (pot.Shifted(pot.Lame(1, M), 1.0), pot.SusyPartner(real1)):
            with pytest.raises(pot.MissingGroundStateError, match="a shift or SUSY partner under a PT transform"):
                pot.ground_state(pot.PTTransform(inner, BETA))


class TestBuild:
    def test_rejects_unknown_op(self):
        with pytest.raises(pot.PotentialError, match="unknown op 'flip'"):
            pot.build(3, 0, M, BETA, ["pt", "flip"])

    @pytest.mark.parametrize("m,beta", [(0.75, 0.5), (0.3, 1.2), (0.05, 0.5), (0.95, 0.5), (0.5, 1.0)])
    def test_gives_the_hand_built_specs(self, m, beta):
        # each family's shifted PT potential and its partner, built wrapper by
        # wrapper, and the a=3 partner taken before the PT transform, whose
        # shift is computed another way and may differ by rounding
        for fam in spc.ptlame_families:
            src = pot.Shifted(pot.PTTransform(pot.AssociatedLame(*fam[1:], m), beta),
                              spc.ground_energy(*fam, m, pt=True))
            assert pot.build(*fam[1:], m, beta, ["pt"], True) == src
            assert pot.build(*fam[1:], m, beta, ["pt", "partner"], True) == pot.SusyPartner(src)
        real3 = pot.Shifted(pot.Lame(3, m), spc.ground_energy("lame", 3, 0, m, pt=False))
        top = spc.closed_form_energies("lame", 3, 0, m, pt=True, shifted=True)[-1]
        exchanged = pot.build(3, 0, m, beta, ["partner", "pt"], True)
        assert exchanged.inner == pot.PTTransform(pot.SusyPartner(real3), beta)
        assert abs(exchanged.c + top) <= 1e-14



class TestEvaluation:
    def test_lame_vanishes_at_origin(self):
        assert pot.compiled_value_fn(pot.Lame(1, M))(0.0) == 0

    def test_lame_values_are_real(self):
        spec = pot.Lame(3, M)
        f = pot.compiled_value_fn(spec)
        for x in _grid(spec, 40):
            assert abs(f(float(x)).imag) < 1e-12

    def test_associated_matches_formula(self):
        f = pot.compiled_value_fn(pot.AssociatedLame(2, 1, M))
        for x in (0.3, 1.1, 2.9):
            jv = ell.jacobi_real(x, M)
            ref = 6 * M * jv.sn**2 + 2 * M * (jv.cn / jv.dn) ** 2
            assert abs(f(x) - ref) < 1e-13

    def test_shifted_pt_matches_figure_normalization(self):
        # at m = 0.75 the ground energy is -5 - 5m - 2*delta3 = -10.75
        eg = spc.ground_energy("lame", 3, 0, M, pt=True)
        assert abs(eg + 10.75) < 1e-14
        spec = pot.Shifted(pot.PTTransform(pot.Lame(3, M), BETA), eg)
        sn0 = ell.jacobi_real(BETA, M).sn
        v0 = pot.compiled_value_fn(spec)(0.0)
        assert abs(v0 - (-12 * M * sn0**2 + 10.75)) < 1e-12
        assert abs(v0.imag) < 1e-12

    @pytest.mark.parametrize("build", [
        lambda: pot.Lame(2, M),
        lambda: pot.AssociatedLame(2, 1, M),
        lambda: pot.PTTransform(pot.Lame(3, M), BETA),
        lambda: pot.Shifted(pot.PTTransform(pot.AssociatedLame(2, 1, M), BETA), -1.0),
        lambda: pot.SusyPartner(pot.Shifted(pot.PTTransform(pot.Lame(3, M), BETA),
                                            spc.ground_energy("lame", 3, 0, M, pt=True))),
    ])
    def test_periodicity(self, build):
        spec = build()
        f = pot.compiled_value_fn(spec)
        L = spec.period
        for x in _grid(spec, 25):
            assert abs(f(float(x) + L) - f(float(x))) < 1e-10

    def test_periods(self):
        assert abs(pot.Lame(1, 0.25).period - 3.3715) < 5e-5
        assert abs(pot.PTTransform(pot.Lame(1, 0.25), BETA).period
                   - 2.0 * ell.modulus(0.75).K) < 1e-12

    def test_pt_condition(self):
        spec = pot.PTTransform(pot.Lame(2, 0.5), 0.5)
        f = pot.compiled_value_fn(spec)
        for x in np.linspace(-3.0, 3.0, 61):
            assert abs(np.conj(f(-float(x))) - f(float(x))) < 1e-10

    def test_real_even_imag_odd(self):
        spec = pot.PTTransform(pot.Lame(2, 0.5), 0.5)
        f = pot.compiled_value_fn(spec)
        for x in np.linspace(0.0, 3.0, 31):
            v, w = f(float(x)), f(-float(x))
            assert abs(v.real - w.real) < 1e-10
            assert abs(v.imag + w.imag) < 1e-10

    def test_compiled_matches_mpmath(self):
        # independent oracle: mpmath's Jacobi functions at the complex
        # argument; a SUSY partner is the potential under it minus
        # 2 (ln psi)'' of its written-out ground state, differentiated by mpmath
        import mpmath as mp

        with mp.workdps(30):
            m = mp.mpf(M)
            d1 = mp.sqrt(1 - m + 4 * m**2)

            def sn(u):
                return mp.ellipfun("sn", u, m=m)

            def cn(u):
                return mp.ellipfun("cn", u, m=m)

            def dn(u):
                return mp.ellipfun("dn", u, m=m)

            def line(x):
                return mp.mpc(BETA, x)  # i x + beta

            def partner(v_under, psi, u):
                return v_under(u) - 2 * mp.diff(lambda t: mp.log(psi(t)), u, 2)

            oracles = [
                (pot.Lame(3, M), lambda x: 12 * m * sn(x) ** 2),
                (pot.Shifted(pot.PTTransform(pot.AssociatedLame(2, 1, M), BETA), -2.0),
                 lambda x: -(6 * m * sn(line(x)) ** 2 + 2 * m * (cn(line(x)) / dn(line(x))) ** 2) + 2),
                # a=1 PT ground state sn(i x + beta), at zero energy after the shift
                (pot.SusyPartner(pot.Shifted(pot.PTTransform(pot.Lame(1, M), BETA), -(1 + M))),
                 lambda x: partner(lambda t: -2 * m * sn(line(t)) ** 2 + 1 + m, lambda t: sn(line(t)), x)),
                # real a=3 ground state dn (1 + 2m + delta1 - 5m sn^2), energy
                # 2 + 5m - 2 delta1; the partner is taken in u, then u = i x + beta
                (pot.PTTransform(pot.SusyPartner(pot.Shifted(pot.Lame(3, M),
                                                             spc.ground_energy("lame", 3, 0, M, pt=False))), BETA),
                 lambda x: -partner(lambda u: 12 * m * sn(u) ** 2 - (2 + 5 * m - 2 * d1),
                                    lambda u: dn(u) * (1 + 2 * m + d1 - 5 * m * sn(u) ** 2), line(x))),
            ]
            for spec, oracle in oracles:
                f = pot.compiled_value_fn(spec)
                for x in np.linspace(0.05, 2.7, 17):
                    assert abs(f(float(x)) - complex(oracle(mp.mpf(float(x))))) < 1e-11

    def test_evaluate_grid(self):
        f = pot.compiled_value_fn(pot.Lame(1, M))
        vals = np.array([f(x) for x in np.linspace(0, 1, 5)])
        assert vals.shape == (5,)
        assert abs(vals[0]) < 1e-15

    def test_custom_potential(self):
        spec = pot.CustomPotential(lambda z: 0.0j, math.pi)
        assert spec.period == math.pi
        assert pot.compiled_value_fn(spec)(0.3) == 0

    def test_custom_potential_has_no_parameter(self):
        # a custom potential is no Jacobi-function expression, so it reports
        # no elliptic parameter and takes none
        spec = pot.CustomPotential(math.cos, 2 * math.pi)
        assert spec.m is None and pot.normal_form(spec).poles == ()
        with pytest.raises(TypeError):
            pot.CustomPotential(math.cos, 2 * math.pi, 0.5)
        # the default range adds no a(a+1) m term for it
        assert flq.default_energy_range(spec) == (-1.0, 6.0)

    def test_on_line_moves_only_the_pt_transform(self):
        def build(beta):
            src = pot.Shifted(pot.PTTransform(pot.Lame(3, M), beta), spc.ground_energy("lame", 3, 0, M, pt=True))
            return pot.Shifted(pot.SusyPartner(src), 0.25)

        assert pot.on_line(build(BETA), 1.3) == build(1.3)
        real = pot.Shifted(pot.Lame(3, M), 1.0)
        assert pot.on_line(real, 1.3) == real


class TestArrayEvaluation:
    """compiled_value_fn on a float ndarray: one numpy pass, the scalar values."""

    @pytest.mark.parametrize("m,beta", [(0.05, 0.5), (0.3, 1.2), (0.75, 0.5), (0.95, 0.05), (0.95, 1.5)])
    @pytest.mark.parametrize("fam", spc.ptlame_families)
    def test_array_matches_scalar(self, fam, m, beta):
        # np.arcsin and math.asin differ by an ulp on some arguments, so the
        # two paths agree to rounding, not bit for bit; the worst, 1.8e-11,
        # is partner-then-PT a=1 at (0.95, 0.05), beside a pole line
        for ops in ((), ("pt",), ("partner",), ("pt", "partner"), ("partner", "pt")):
            spec = pot.build(*fam[1:], m, beta, ops)
            f = pot.compiled_value_fn(spec)
            xs = np.linspace(0.0, 2.0 * spec.period, 800, endpoint=False)
            scalar = np.array([f(float(x)) for x in xs])
            vals = f(xs)
            assert vals.dtype == complex and vals.shape == xs.shape
            assert np.max(np.abs(vals - scalar)) <= 1e-10 * np.max(np.abs(scalar)), ops

    @pytest.mark.parametrize("ops", [(), ("pt",), ("pt", "partner"), ("partner", "pt")])
    def test_float_gives_python_complex(self, ops):
        f = pot.compiled_value_fn(pot.build(3, 0, M, BETA, ops, True))
        assert type(f(0.3)) is complex
        assert type(f(np.float64(0.3))) is complex
        assert f(np.float64(0.3)) == f(0.3)

    def test_array_keeps_its_shape(self):
        spec = pot.build(2, 1, M, BETA, ("pt",), True)
        f = pot.compiled_value_fn(spec)
        grid = np.linspace(0.0, spec.period, 12).reshape(3, 4)
        vals = f(grid)
        assert vals.shape == (3, 4)
        assert np.max(np.abs(vals - np.array([[f(float(x)) for x in row] for row in grid]))) < 1e-12

    def test_custom_callable_is_applied_point_by_point(self):
        # user code may take only floats: cmath raises on an array
        def v(x):
            return 1.5 * cmath.cos(2.0 * x - 1.0) + 0.5j * cmath.sin(x)

        spec = pot.CustomPotential(v, math.pi)
        f = pot.compiled_value_fn(spec)
        xs = np.linspace(0.0, math.pi, 129, endpoint=False)
        assert np.array_equal(f(xs), [v(float(x)) for x in xs])
        assert f(xs.reshape(3, 43)).shape == (3, 43)
        # the default range's max Re V is the one of 129 scalar calls
        assert flq.default_energy_range(spec) == (-1.0, max(v(float(x)).real for x in xs) + 5.0)


class TestGroundStateLogDerivative:
    # W = -psi_g'/psi_g of the shifted PT potentials, from ground_state; the
    # registry row closed-superpotential holds the printed closed forms to it
    def test_a1_value_at_origin_is_pure_imaginary(self):
        src = pot.Shifted(pot.PTTransform(pot.Lame(1, M), BETA), -(1 + M))
        builder, energy = pot.ground_state(src)
        jv = ell.jacobi_real(BETA, M)
        j = builder(*ell.jets_from_scd(jv.sn, jv.cn, jv.dn, M))
        got = -1j * j.d1 / j.f  # x = 0 is u = beta, and d/dx = i d/du
        assert abs(energy) < 1e-12
        assert abs(got - (-1j * jv.cn * jv.dn / jv.sn)) < 1e-13
        assert abs(got.real) < 1e-13

    @pytest.mark.parametrize("kind,a,b", [("lame", 1, 0), ("lame", 3, 0), ("assoc", 2, 1)])
    def test_closed_form_matches_log_derivative(self, kind, a, b):
        for m, beta in ((M, BETA), (0.3, 1.2)):
            assert inv._superpotential_defect((kind, a, b), m, beta) < 1e-9


class TestSusyPartner:
    def test_a1_partner_is_translation(self):
        src = pot.Shifted(pot.PTTransform(pot.Lame(1, M), BETA), -(1 + M))
        f = pot.compiled_value_fn(pot.SusyPartner(src))
        kp = ell.modulus(M).Kprime
        for x in np.linspace(0.0, src.period, 48, endpoint=False):
            jv = ell.jacobi_complex(1j * float(x) + BETA + 1j * kp, M)
            assert abs(f(float(x)) - (-2 * M * jv.sn**2 + M + 1)) < 1e-9

    @pytest.mark.parametrize("kind,a,b", [("lame", 1, 0), ("lame", 3, 0), ("assoc", 2, 1)])
    def test_factorization_reconstructs_base(self, kind, a, b):
        # W**2 - W' = psi_g''/psi_g must equal the zero-based potential
        eg = spc.ground_energy(kind, a, b, M, pt=True)
        base = pot.associated_lame(a, b, M)
        src = pot.Shifted(pot.PTTransform(base, BETA), eg)
        fsrc = pot.compiled_value_fn(src)
        builder, energy = pot.ground_state(src)
        assert abs(energy) < 1e-12 and pot.normal_form(src).beta == BETA
        for x in np.linspace(0.0, src.period, 40, endpoint=False):
            jv = ell.jacobi_complex(1j * float(x) + BETA, M)
            j = builder(*ell.jets_from_scd(jv.sn, jv.cn, jv.dn, M))
            assert abs(-j.d2 / j.f - fsrc(float(x))) < 1e-8

    def test_partner_of_partner_returns_original(self):
        src = pot.Shifted(pot.PTTransform(pot.Lame(3, M), BETA),
                          spc.ground_energy("lame", 3, 0, M, pt=True))
        once = pot.SusyPartner(src)
        twice = pot.SusyPartner(once)
        fs, ft = pot.compiled_value_fn(src), pot.compiled_value_fn(twice)
        for x in np.linspace(0.0, src.period, 30, endpoint=False):
            assert abs(ft(float(x)) - fs(float(x))) < 1e-9

    def test_assoc21_real_partner_is_shifted_base(self):
        # the real (2,1) potential is self-isospectral: V_+ equals V_- with
        # the argument advanced by a quarter real period
        src = pot.Shifted(pot.AssociatedLame(2, 1, M), 4 * M)
        fp = pot.compiled_value_fn(pot.SusyPartner(src))
        fs = pot.compiled_value_fn(src)
        K = ell.modulus(M).K
        for x in np.linspace(0.0, src.period, 30, endpoint=False):
            assert abs(fp(float(x)) - fs(float(x) + K)) < 1e-9

    def test_assoc21_partner_then_pt_matches_printed_expression(self):
        src = pot.Shifted(pot.AssociatedLame(2, 1, M), 4 * M)
        comp = pot.PTTransform(pot.SusyPartner(src), BETA)
        f = pot.compiled_value_fn(comp)
        sg = math.sqrt(4 - 3 * M)
        top = 5 - 3 * M + 2 * sg
        for x in np.linspace(0.0, comp.period, 30, endpoint=False):
            jv = ell.jacobi_complex(1j * float(x) + BETA, M)
            printed = -2 * M * jv.sn**2 - 6 * M * (jv.cn / jv.dn) ** 2 + 5 + M + 2 * sg
            assert abs(f(float(x)) + top - printed) < 1e-9


class TestLandenReduction:
    # V_{a,a}(x, m) = a(a+1) m + V_Lame(x/alpha, m~)/alpha**2 with
    # (alpha, m~) = landen_descend(m); the registry row landen-equal-ab
    def test_reduction_values_and_residual(self):
        _, mt = ell.landen_descend(0.75)
        assert abs(mt - 1.0 / 9.0) < 1e-14
        assert inv._landen_equal_ab(0.75, BETA) < 1e-9

    def test_reduction_relation_pointwise(self):
        m = 0.6
        spec = pot.AssociatedLame(2, 2, m)
        alpha, mt = ell.landen_descend(m)
        const = 2 * 3 * m  # a(a+1) m
        fa, fl = pot.compiled_value_fn(spec), pot.compiled_value_fn(pot.Lame(2, mt))
        for x in np.linspace(0.0, spec.period, 100, endpoint=False):
            assert abs(fa(float(x)) - const - fl(float(x) / alpha) / alpha**2) < 1e-9

    def test_requires_equal_indices(self):
        # for a != b no constant closes the relation
        m = 0.5
        spec = pot.AssociatedLame(2, 1, m)
        alpha, mt = ell.landen_descend(m)
        fa, fl = pot.compiled_value_fn(spec), pot.compiled_value_fn(pot.Lame(2, mt))
        resid = [fa(float(x)) - fl(float(x) / alpha) / alpha**2 for x in np.linspace(0.0, spec.period, 100)]
        assert max(abs(r - resid[0]) for r in resid) > 1e-2
