import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from ptlame import elliptic as ell

from conftest import jacobi_ode_complex, jacobi_ode_real, pole_free_complex_grid

PARAMS = (0.1, 0.25, 0.5, 0.75, 0.9)

# frozen against a 25-digit evaluation of the defining ODE system
SN_07_075 = 0.6143632474844943828968274
CN_07_075 = 0.7890233204033363083255085
DN_07_075 = 0.8467103106170548043453953
SN_C = 0.3336060623672866667898544 + 0.3840001417579654499892258j
CN_C = 1.025556543019226048048877 - 0.1249124449669209222209034j
DN_C = 1.017856754074492003287587 - 0.09439302833690734785344901j
K_025 = 1.685750354812596042871204
K_075 = 2.156515647499643235438675


class TestCompleteK:
    def test_small_parameter_limit(self):
        assert abs(ell.complete_K(1e-15) - math.pi / 2) < 1e-12

    def test_reference_values(self):
        assert abs(ell.complete_K(0.25) - K_025) < 1e-14 * K_025
        assert abs(ell.complete_K(0.75) - K_075) < 1e-14 * K_075

    def test_printed_period_value(self):
        # 2 K'(0.75) = 2 K(0.25), quoted as 3.3715
        assert abs(2.0 * ell.modulus(0.75).Kprime - 3.3715) < 5e-5

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_domain_errors(self, bad):
        with pytest.raises(ell.EllipticDomainError):
            ell.complete_K(bad)

    @pytest.mark.parametrize("m", PARAMS)
    def test_agm_vs_scipy(self, m):
        assert abs(ell.complete_K(m) - sp.ellipk(m)) < 1e-14 * sp.ellipk(m)


class TestModulus:
    @pytest.mark.parametrize("m", PARAMS)
    def test_complementary_consistency(self, m):
        a = ell.modulus(m)
        b = ell.modulus(1.0 - m)
        assert abs(a.Kprime - b.K) < 1e-13 * b.K
        assert a.K > 0 and a.Kprime > 0 and 0.0 < a.q < 1.0


class TestJacobiReal:
    def test_origin(self):
        jv = ell.jacobi_real(0.0, 0.5)
        assert (jv.sn, jv.cn, jv.dn) == (0.0, 1.0, 1.0)

    @pytest.mark.parametrize("m", PARAMS)
    def test_quarter_period(self, m):
        jv = ell.jacobi_real(ell.modulus(m).K, m)
        assert abs(jv.sn - 1.0) < 1e-12
        assert abs(jv.cn) < 1e-12
        assert abs(jv.dn - math.sqrt(1.0 - m)) < 1e-12

    def test_frozen_point(self):
        jv = ell.jacobi_real(0.7, 0.75)
        assert abs(jv.sn - SN_07_075) < 1e-12
        assert abs(jv.cn - CN_07_075) < 1e-12
        assert abs(jv.dn - DN_07_075) < 1e-12

    def test_against_ode_oracle(self):
        for u, m in ((0.7, 0.75), (2.3, 0.25), (-1.1, 0.5), (5.7, 0.9)):
            s, c, d = jacobi_ode_real(u, m)
            jv = ell.jacobi_real(u, m)
            assert abs(jv.sn - s) < 1e-12
            assert abs(jv.cn - c) < 1e-12
            assert abs(jv.dn - d) < 1e-12

    @pytest.mark.parametrize("m", PARAMS)
    def test_grid_vs_scipy(self, m):
        us = np.linspace(-7.3, 7.3, 41)
        vals = [ell.jacobi_real(u, m) for u in us]
        sn, cn, dn = (np.array([getattr(v, k) for v in vals]) for k in ("sn", "cn", "dn"))
        ss, cc, dd, _ = sp.ellipj(us, m)
        assert np.max(np.abs(sn - ss)) < 1e-12
        assert np.max(np.abs(cn - cc)) < 1e-12
        assert np.max(np.abs(dn - dd)) < 1e-12


class TestJacobiComplex:
    def test_real_axis_reduction(self):
        for u in (0.4, -1.7, 3.0):
            a = ell.jacobi_complex(complex(u), 0.6)
            b = ell.jacobi_real(u, 0.6)
            assert abs(a.sn - b.sn) < 1e-13
            assert abs(a.cn - b.cn) < 1e-13
            assert abs(a.dn - b.dn) < 1e-13

    def test_frozen_point(self):
        jv = ell.jacobi_complex(0.3 + 0.4j, 0.75)
        assert abs(jv.sn - SN_C) < 1e-10
        assert abs(jv.cn - CN_C) < 1e-10
        assert abs(jv.dn - DN_C) < 1e-10

    def test_against_complex_ode_oracle(self):
        points = [(0.3 + 0.4j, 0.75), (-0.8 + 0.9j, 0.5), (1.4 - 0.6j, 0.25)]
        points += [(z, m) for m in (0.25, 0.75) for z in pole_free_complex_grid(m, 6, seed=23)]
        for z, m in points:
            s, c, d = jacobi_ode_complex(z, m)
            jv = ell.jacobi_complex(z, m)
            assert abs(jv.sn - s) < 1e-10
            assert abs(jv.cn - c) < 1e-10
            assert abs(jv.dn - d) < 1e-10

    @pytest.mark.parametrize("m", PARAMS)
    def test_algebraic_identities_on_grid(self, m):
        for z in pole_free_complex_grid(m, 50):
            jv = ell.jacobi_complex(z, m)
            assert abs(jv.sn**2 + jv.cn**2 - 1.0) < 1e-11
            assert abs(jv.dn**2 + m * jv.sn**2 - 1.0) < 1e-11

    def test_double_periodicity(self):
        m = 0.5
        mod = ell.modulus(m)
        for z in (0.37 + 0.22j, -1.1 + 0.8j):
            base = ell.jacobi_complex(z, m).sn
            assert abs(ell.jacobi_complex(z + 4 * mod.K, m).sn - base) < 1e-10
            assert abs(ell.jacobi_complex(z + 2j * mod.Kprime, m).sn - base) < 1e-10

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0])
    def test_imaginary_shift_identity(self, x):
        # sqrt(m) sn(x, m) = -dn(i x + K'(m) + i K(m), 1 - m), sign as printed
        m = 0.5
        mod = ell.modulus(m)
        lhs = math.sqrt(m) * ell.jacobi_real(x, m).sn
        rhs = ell.jacobi_complex(1j * x + mod.Kprime + 1j * mod.K, 1.0 - m).dn
        assert abs(lhs + rhs) < 1e-10

    def test_imaginary_shift_identity_grid(self):
        for m in (0.25, 0.6, 0.75):
            mod = ell.modulus(m)
            for x in np.linspace(-2.0, 2.0, 50):
                lhs = math.sqrt(m) * ell.jacobi_real(float(x), m).sn
                rhs = ell.jacobi_complex(1j * float(x) + mod.Kprime + 1j * mod.K, 1.0 - m).dn
                assert abs(lhs + rhs) < 1e-10

    def test_derivative_consistency(self):
        h = 1e-5
        for m in (0.25, 0.75):
            for z in (0.3 + 0.2j, -0.9 + 0.5j):
                fd = (ell.jacobi_complex(z + h, m).sn - ell.jacobi_complex(z - h, m).sn) / (2 * h)
                jv = ell.jacobi_complex(z, m)
                assert abs(fd - jv.cn * jv.dn) < 1e-8

    def test_pole_rejection(self):
        m = 0.5
        mod = ell.modulus(m)
        with pytest.raises(ell.PoleProximityError) as exc:
            ell.jacobi_complex(1j * mod.Kprime + 1e-8, m)
        assert abs(exc.value.pole - 1j * mod.Kprime) < 1e-12
        # the line i x + 0 runs through the pole at i K'
        with pytest.raises(ell.PoleProximityError):
            ell.line_jacobi(0.0, m)

    def test_line_evaluator_matches_general(self):
        m, beta = 0.75, 0.5
        at = ell.line_jacobi(beta, m)
        for x in np.linspace(-2.0, 5.0, 23):
            jv = ell.jacobi_complex(1j * float(x) + beta, m)
            s, c, d = at(float(x))
            assert abs(s - jv.sn) < 1e-13
            assert abs(c - jv.cn) < 1e-13
            assert abs(d - jv.dn) < 1e-13


class TestArrayArguments:
    """jacobi_triple / line_jacobi on a float ndarray: the same Landen
    recurrence in numpy's ufuncs, equal to the scalar values to rounding."""

    @pytest.mark.parametrize("m", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("beta", [None, 0.05, 0.7])
    def test_array_matches_scalar(self, m, beta):
        at = ell.jacobi_triple(m, beta)
        xs = np.linspace(-3.0, 5.0, 401)
        arrays = at(xs)
        for k, col in enumerate(zip(*(at(float(x)) for x in xs))):
            assert arrays[k].shape == xs.shape
            assert np.max(np.abs(arrays[k] - np.array(col))) < 1e-12 * max(1.0, np.max(np.abs(col)))

    def test_float_kinds(self):
        # a float (np.float64 too) takes math's functions: real floats on the
        # real axis, Python complex values on a line
        for x in (0.3, np.float64(0.3)):
            assert all(type(v) is float for v in ell.jacobi_triple(0.5)(x))
            assert all(type(v) is complex for v in ell.line_jacobi(0.5, 0.5)(x))
        s, c, d = ell.line_jacobi(0.5, 0.5)(np.zeros((2, 3)))
        assert s.shape == (2, 3) and s.dtype == complex


def _mp_theta(kind, u, m, derivative=0):
    import mpmath as mp

    mod = ell.modulus(m)
    v = mp.pi * mp.mpc(u) / (2 * mod.K)
    val = mp.jtheta(kind, v, mp.mpf(mod.q), derivative)
    return complex(val) * (math.pi / (2 * mod.K)) ** derivative


class TestTheta:
    def test_eta_vanishes_at_origin(self):
        assert ell.theta_jets(0.5, 0.0, True)[0] == 0

    def test_eta_real_period_antisymmetry(self):
        m = 0.5
        mod = ell.modulus(m)
        h0 = ell.theta_jets(m, 0.3, True)[0]
        h1 = ell.theta_jets(m, 0.3 + 2 * mod.K, True)[0]
        assert abs(h1 + h0) < 1e-12

    def test_eta_imaginary_quasi_periodicity(self):
        # H(i[x + 2K'] + beta) = -q**-1 exp(-i pi u / K) H(i x + beta); the
        # nome prefactor and the exponential phase both come straight from
        # the series shifted by one full imaginary period
        for m, x, beta in ((0.75, 0.2, 0.5), (0.5, 0.9, 0.3)):
            mod = ell.modulus(m)
            u = 1j * x + beta
            lhs = ell.theta_jets(m, u + 2j * mod.Kprime, True)[0]
            factor = -cmath.exp(math.pi * mod.Kprime / mod.K - 1j * math.pi * u / mod.K)
            rhs = factor * ell.theta_jets(m, u, True)[0]
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_theta_shares_the_quasi_period_factor(self):
        # the H/Theta ratio in the Bloch solutions is exactly periodic only
        # because both pick up the same factor under u -> u + 2iK'
        m = 0.75
        mod = ell.modulus(m)
        u = 0.31j + 0.5
        h0, t0 = ell.theta_jets(m, u, True)[0], ell.theta_jets(m, u, False)[0]
        h1, t1 = (ell.theta_jets(m, u + 2j * mod.Kprime, odd)[0] for odd in (True, False))
        assert abs(h1 / h0 - t1 / t0) < 1e-11 * abs(t1 / t0)

    @pytest.mark.parametrize("m", (0.25, 0.5, 0.75, 0.9))
    def test_against_mpmath(self, m):
        for u in (0.3, 0.3 + 0.9j, -1.2 + 2.5j, 4.0 + 0.1j):
            h, t = ell.theta_jets(m, u, True)[0], ell.theta_jets(m, u, False)[0]
            assert abs(h - _mp_theta(1, u, m)) < 1e-12 * max(1.0, abs(h))
            assert abs(t - _mp_theta(4, u, m)) < 1e-12 * max(1.0, abs(t))

    def test_truncation_is_adequate(self):
        # the fixed term count is largest for m near 1 (q near 1) and far
        # from the real axis, where the terms peak at j = |Im u| / K'; every
        # jet entry agrees with mpmath there
        for m in (0.01, 0.99):
            mod = ell.modulus(m)
            for y in (0.0, 1.3, 2.5, 4.0):
                u = 0.37 * mod.K + 1j * y * mod.Kprime
                for odd, kind in ((True, 1), (False, 4)):
                    for d, got in enumerate(ell.theta_jets(m, u, odd)):
                        ref = _mp_theta(kind, u, m, d)
                        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


class TestZeta:
    def test_odd_at_origin(self):
        assert ell.zeta_Z(0.5, 0.0) == 0

    def test_periodicity(self):
        m = 0.5
        mod = ell.modulus(m)
        assert abs(ell.zeta_Z(m, 0.4 + 2 * mod.K) - ell.zeta_Z(m, 0.4)) < 1e-11

    def test_zero_at_quarter_period(self):
        m = 0.5
        assert abs(ell.zeta_Z(m, ell.modulus(m).K)) < 1e-11

    def test_against_mpmath_derivative_series(self):
        for m in (0.25, 0.75):
            for u in (0.4, 0.7 + 0.3j):
                ref = _mp_theta(4, u, m, 1) / _mp_theta(4, u, m)
                assert abs(ell.zeta_Z(m, u) - ref) < 1e-12 * max(1.0, abs(ref))

    def test_rejects_theta_zero(self):
        m = 0.5
        with pytest.raises(ell.ThetaZeroError):
            ell.zeta_Z(m, 1j * ell.modulus(m).Kprime)


class TestInverseSn:
    def test_origin(self):
        assert ell.inverse_sn(0.0, 0.5) == 0

    def test_unit_value(self):
        m = 0.5
        assert abs(ell.inverse_sn(1.0, m) - ell.modulus(m).K) < 1e-10

    def test_energy_round_trip(self):
        m = 0.75
        alpha = ell.inverse_sn(math.sqrt(0.3 / m), m)
        assert abs(m * ell.jacobi_complex(alpha, m).sn ** 2 - 0.3) < 1e-10

    @pytest.mark.parametrize("w", [0.3, 0.99, 1.05, 1.154, 2.5, 40.0, -0.4, -2.0])
    def test_round_trips_and_rectangle(self, w):
        m = 0.75
        mod = ell.modulus(m)
        alpha = ell.inverse_sn(w, m)
        assert abs(ell.jacobi_complex(alpha, m).sn - w) < 1e-9 * max(1.0, abs(w))
        assert -mod.K - 1e-9 <= alpha.real <= mod.K + 1e-9
        assert -1e-9 <= alpha.imag <= mod.Kprime + 1e-9

    @pytest.mark.parametrize("m", [0.05, 0.3, 0.5, 0.75, 0.95])
    def test_imaginary_round_trips(self, m):
        # sn(i v | m) = i sc(v | 1-m): the imaginary axis below the pole at i K'
        kp = ell.modulus(m).Kprime
        for t in np.geomspace(0.01, 40.0, 40):
            for w in (1j * t, -1j * t):
                alpha = ell.inverse_sn(w, m)
                assert alpha.real == 0.0
                assert abs(alpha.imag) < kp
                assert abs(ell.jacobi_complex(alpha, m).sn - w) < 1e-9 * max(1.0, abs(w))

    @pytest.mark.parametrize("mu", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_arcsn_against_mpmath(self, mu):
        # t = s R_F(1 - s^2, 1 - mu s^2, 1) against F(arcsin s | mu), up to
        # s -> 1, where t -> K(mu)
        import mpmath as mp

        grid = [float(s) for s in np.linspace(0.0, 1.0, 21)] + [1.0 - 10.0**-k for k in range(2, 16)]
        with mp.workdps(30):
            refs = [float(mp.ellipf(mp.asin(s), mu)) for s in grid]
        for s, ref in zip(grid, refs):
            assert abs(ell._arcsn(s, mu) - ref) <= 1e-14 * ref
        assert abs(ell._arcsn(1.0, mu) - ell.modulus(mu).K) <= 1e-14 * ell.modulus(mu).K

    @pytest.mark.parametrize("w", [0.3 + 0.7j, -0.2 + 1.4j, 1.3 + 0.2j])
    def test_off_axis_w_raises(self, w):
        with pytest.raises(ell.InversionError, match="real or purely imaginary"):
            ell.inverse_sn(w, 0.75)


class TestLanden:
    def test_descend_values(self):
        alpha, mt = ell.landen_descend(0.75)
        assert abs(alpha - 2.0 / 3.0) < 1e-15
        assert abs(mt - 1.0 / 9.0) < 1e-15

    def test_small_parameter_limit(self):
        alpha, mt = ell.landen_descend(1e-9)
        assert abs(alpha - 0.5) < 1e-9
        assert mt < 1e-17

    def test_argument_halving_identity(self):
        m = 0.6
        alpha, mt = ell.landen_descend(m)
        mod = ell.modulus(m)
        for x in [0.37] + list(np.linspace(-1.5, 1.5, 20)):
            lhs = ell.jacobi_real(x, m).dn + ell.jacobi_real(x + mod.K, m).dn
            rhs = ell.jacobi_real(x / alpha, mt).dn / alpha
            assert abs(lhs - rhs) < 1e-11


class TestJets:
    def test_jet_derivatives_match_finite_differences(self):
        m, z, h = 0.6, 0.4 + 0.3j, 1e-5
        jv = ell.jacobi_complex(z, m)
        S, C, D = ell.jets_from_scd(jv.sn, jv.cn, jv.dn, m)
        expr = lambda zz: (lambda jv: jv.sn * jv.cn / jv.dn)(ell.jacobi_complex(zz, m))
        f0 = S.f * C.f / D.f
        jet = S * C / D
        fd1 = (expr(z + h) - expr(z - h)) / (2 * h)
        fd2 = (expr(z + h) - 2 * f0 + expr(z - h)) / h**2
        assert abs(jet.f - f0) < 1e-14
        assert abs(jet.d1 - fd1) < 1e-8
        assert abs(jet.d2 - fd2) < 1e-5

    def test_reciprocal_and_scalar_ops(self):
        j = ell.Jet2(2.0, 3.0, 4.0)
        r = 1.0 / j
        assert abs(r.f - 0.5) < 1e-15
        assert abs(r.d1 + 3.0 / 4.0) < 1e-15
        two = (j + j) - j
        assert (two.f, two.d1, two.d2) == (j.f, j.d1, j.d2)
