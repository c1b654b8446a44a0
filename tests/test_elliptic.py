import cmath
import math
import re

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

    @pytest.mark.parametrize("m", [1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_both_ends_against_mpmath(self, m):
        # K and K' = K(1 - m) at 40 digits: K' takes the complement m
        # exactly, not 1 - (1 - m), which is eps/m off for small m
        import mpmath as mp

        mod = ell.modulus(m)
        with mp.workdps(40):
            K, Kp = mp.ellipk(m), mp.ellipk(1 - mp.mpf(m))
        assert abs(mod.K - K) < 1e-14 * K
        assert abs(mod.Kprime - Kp) < 1e-14 * Kp


class TestModulus:
    @pytest.mark.parametrize("m", PARAMS)
    def test_complementary_consistency(self, m):
        a = ell.modulus(m)
        b = ell.modulus(1.0 - m)
        assert abs(a.Kprime - b.K) < 1e-13 * b.K
        assert a.K > 0 and a.Kprime > 0 and 0.0 < a.q < 1.0

    def test_complement_rounding_to_one_names_the_given_m(self):
        # 1 - 1e-17 rounds to 1, and K(1) diverges: the error names the m
        # given, not the 1.0 that K(1 - m) would see
        with pytest.raises(ell.EllipticDomainError, match=r"^parameter m=1e-17: its complement 1 - m rounds to 1"):
            ell.modulus(1e-17)


class TestJacobiReal:
    """jacobi_triple(m) at a real float u: the Landen pass the integrator runs."""

    def test_origin(self):
        assert ell.jacobi_triple(0.5)(0.0) == (0.0, 1.0, 1.0)

    @pytest.mark.parametrize("m", PARAMS)
    def test_quarter_period(self, m):
        sn, cn, dn = ell.jacobi_triple(m)(ell.modulus(m).K)
        assert abs(sn - 1.0) < 1e-12
        assert abs(cn) < 1e-12
        assert abs(dn - math.sqrt(1.0 - m)) < 1e-12

    def test_frozen_point(self):
        sn, cn, dn = ell.jacobi_triple(0.75)(0.7)
        assert abs(sn - SN_07_075) < 1e-12
        assert abs(cn - CN_07_075) < 1e-12
        assert abs(dn - DN_07_075) < 1e-12

    def test_against_ode_oracle(self):
        for u, m in ((0.7, 0.75), (2.3, 0.25), (-1.1, 0.5), (5.7, 0.9)):
            s, c, d = jacobi_ode_real(u, m)
            sn, cn, dn = ell.jacobi_triple(m)(u)
            assert abs(sn - s) < 1e-12
            assert abs(cn - c) < 1e-12
            assert abs(dn - d) < 1e-12

    @pytest.mark.parametrize("m", PARAMS)
    def test_grid_vs_scipy(self, m):
        us = np.linspace(-7.3, 7.3, 41)
        point = ell.jacobi_triple(m)
        sn, cn, dn = np.array([point(float(u)) for u in us]).T
        ss, cc, dd, _ = sp.ellipj(us, m)
        assert np.max(np.abs(sn - ss)) < 1e-12
        assert np.max(np.abs(cn - cc)) < 1e-12
        assert np.max(np.abs(dn - dd)) < 1e-12


class TestJacobiComplex:
    def test_real_axis_reduction(self):
        for u in (0.4, -1.7, 3.0):
            a = ell.jacobi_complex(complex(u), 0.6)
            sn, cn, dn = ell.jacobi_triple(0.6)(u)
            assert abs(a.sn - sn) < 1e-13
            assert abs(a.cn - cn) < 1e-13
            assert abs(a.dn - dn) < 1e-13

    @pytest.mark.parametrize("m", [1e-6, 0.05, 0.3, 0.5, 0.75, 0.95, 1.0 - 1e-6])
    def test_real_axis_is_the_landen_pass(self, m):
        # on the real axis the addition formulas reduce to the Landen pass
        # bit for bit (the imaginary-direction triple at 0 is (0, 1, 1)), so
        # jacobi_triple is the one real-argument path
        point = ell.jacobi_triple(m)
        for u in np.linspace(-9.7, 9.7, 301):
            jv = ell.jacobi_complex(float(u), m)
            assert (jv.sn, jv.cn, jv.dn) == point(float(u)), u

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
        lhs = math.sqrt(m) * ell.jacobi_triple(m)(x)[0]
        rhs = ell.jacobi_complex(1j * x + mod.Kprime + 1j * mod.K, 1.0 - m).dn
        assert abs(lhs + rhs) < 1e-10

    def test_imaginary_shift_identity_grid(self):
        for m in (0.25, 0.6, 0.75):
            mod = ell.modulus(m)
            for x in np.linspace(-2.0, 2.0, 50):
                lhs = math.sqrt(m) * ell.jacobi_triple(m)(float(x))[0]
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


class TestQuarterShift:
    """line_jacobi on beta == K: (1/dn', -i sqrt(1-m) sn'/dn', sqrt(1-m) cn'/dn')."""

    # at m = 1e-9 the shared Landen pass at m' = 1 - 1e-9 holds cn' and dn'
    # only to ~1e-12 relative where they fall to ~1e-4 (the backward
    # recursion's phi is near pi/2 there); the addition formulas it replaces
    # read from the same pass and err as much
    @pytest.mark.parametrize("m, tol", [(1e-9, 3e-12), (0.05, 1e-14), (0.75, 1e-14), (1.0 - 1e-9, 1e-14)])
    def test_matches_mpmath(self, m, tol):
        import mpmath as mp

        mp.mp.dps = 40
        mod = ell.modulus(m)
        K = mp.ellipk(mp.mpf(m))
        xs = [float(x) for x in np.linspace(0.0, mod.Kprime, 41)]
        ref = np.array([[complex(mp.ellipfun(k, K + 1j * mp.mpf(x), m=mp.mpf(m))) for k in ("sn", "cn", "dn")]
                        for x in xs])
        scale = np.max(np.abs(ref), axis=0)
        quarter, general = ell.line_jacobi(mod.K, m), ell._addition(mod.K, m)
        err = np.max(np.abs(np.array([quarter(x) for x in xs]) - ref), axis=0) / scale
        assert np.all(err <= tol), err
        # no worse than the addition formulas, to rounding
        general_err = np.max(np.abs(np.array([general(x) for x in xs]) - ref), axis=0) / scale
        assert np.all(err <= general_err + 2e-16), (err, general_err)

    def test_sn_and_dn_are_real(self):
        mod = ell.modulus(0.75)
        s, c, d = ell.line_jacobi(mod.K, 0.75)(0.4)
        assert (type(s), type(c), type(d)) == (float, complex, float)
        s, c, d = ell.line_jacobi(mod.K, 0.75)(np.linspace(0.0, 1.0, 5))
        assert (s.dtype, c.dtype, d.dtype) == (float, complex, float)


class TestLandenMemo:
    """_landen_pass(m, mc): one closure per key, which returns its last float
    argument's triple when called again with that same object."""

    def test_one_closure_per_key(self):
        assert ell._landen_pass(0.25, 0.75) is ell._landen_pass(0.25, 0.75)
        assert ell.jacobi_triple(0.25) is ell._landen_pass(0.25, 0.75)

    def test_interleaved_calls_match_a_fresh_closure(self):
        # every answer, bit for bit and with the sign of zero, is the one a
        # new closure gives the same argument
        shared = ell._landen_pass(0.3, 0.7)
        x, y = 0.7, 1.9
        args = [x, y, x, x, -0.0, 0.0, -0.0, y, np.float64(x), x, 0.0, 0.0, y]
        for u in args:
            fresh = ell._landen_pass.__wrapped__(0.3, 0.7)(u)
            assert [float(v).hex() for v in shared(u)] == [float(v).hex() for v in fresh]
        xs = np.array([x, -0.0, y])
        arrays = shared(xs)
        for got, want in zip(arrays, ell._landen_pass.__wrapped__(0.3, 0.7)(xs)):
            assert got.tobytes() == want.tobytes()

    def test_only_a_float_object_is_memoized(self):
        f = ell._landen_pass(0.3, 0.7)
        x = 0.7
        assert f(x) is f(x)
        zero, negative_zero = 0.0, -0.0
        f(zero)
        assert math.copysign(1.0, f(negative_zero)[0]) == -1.0
        assert math.copysign(1.0, f(zero)[0]) == 1.0
        u, xs = np.float64(0.7), np.array([0.7, 1.1])
        assert f(u) is not f(u)
        assert f(xs) is not f(xs)
        assert f(u) == f(0.7)


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


    @pytest.mark.parametrize("m", (0.05, 0.3, 0.75, 0.95))
    def test_bloch_arguments_against_mpmath(self, m):
        # every jet entry at the arguments bloch_solution_jet passes: Theta
        # at u = i x + beta and H at u +- alpha1, for energies in both bands
        # and in the gap, with Im u up to 3 K'
        from ptlame import spectra as spc

        mod, beta = ell.modulus(m), 0.7
        for e in (0.3 * m, 0.5 * (1.0 + m), 2.0):
            alpha = spc.dispersion_analytic(m, beta, e).alpha1
            for x in np.linspace(0.0, 2.0 * mod.Kprime, 5):
                u = 1j * x + beta
                args = [(u, False, 4)] + [(u + sign * alpha, True, 1) for sign in (1, -1)]
                assert max(abs(w.imag) for w, _, _ in args) <= 3.0 * mod.Kprime
                for w, odd, kind in args:
                    for d, got in enumerate(ell.theta_jets(m, w, odd)):
                        ref = _mp_theta(kind, w, m, d)
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

    @pytest.mark.parametrize("m", [1e-9, 1e-6, 0.05, 0.5, 0.95])
    def test_legs_against_mpmath(self, m):
        # alpha on every leg, and mirrored, against F and K at 40 digits: x < 1
        # up to s -> 1 and the imaginary axis up to t = 1e6 to 1e-14, the right
        # edge K + i s and the top edge s + i K' to 1e-12, 1e-6 and more from
        # the corners 1 and 1/sqrt(m), where sn' = 0 and alpha is only
        # sqrt-conditioned.  Each leg is one R_F on scaled arguments; with
        # m rebuilt from 1 - m, the right edge read 4.9e-8 off at m = 1e-9
        # and the imaginary leg raised from t = 1e4 on
        import mpmath as mp

        top = 1.0 / math.sqrt(m)
        real = [float(s) for s in np.linspace(0.05, 0.95, 19)] + [1.0 - 10.0**-k for k in range(2, 13)]
        right = [1.0 + 1e-6, 1.0 + 1e-3 * (top - 1.0), 0.5 * (1.0 + top), top * (1.0 - 1e-6)]
        with mp.workdps(40):
            mu, mc = mp.mpf(m), 1 - mp.mpf(m)

            def f(s, p):
                return mp.ellipf(mp.asin(s), p)

            K = mp.ellipk(mu)
            cases = [(x, f(x, mu), 1e-14) for x in real]
            cases += [(1j * t, 1j * mp.ellipf(mp.atan(t), mc), 1e-14) for t in np.geomspace(1e-8, 1e6, 15)]
            cases += [(x, K + 1j * f(mp.sqrt((1 - 1 / mp.mpf(x) ** 2) / mc), mc), 1e-12) for x in right]
            cases += [(x, f(1 / (mp.sqrt(mu) * x), mu) + 1j * mp.ellipk(mc), 1e-12)
                      for x in (top * (1.0 + 1e-6), 2.0 * top, 1e3 * top)]
            cases = [(complex(w), complex(ref), tol) for w, ref, tol in cases] + [(1.0, complex(K), 1e-14)]
        for w, ref, tol in cases:
            # w -> -w mirrors a real w's alpha to -Re(alpha) and negates an imaginary one
            for w, ref in ((w, ref), (-w, -ref if w.imag else complex(-ref.real, ref.imag))):
                assert abs(ell.inverse_sn(w, m) - ref) <= tol * abs(ref), (w, m)

    @pytest.mark.parametrize("w", [0.3 + 0.7j, -0.2 + 1.4j, 1.3 + 0.2j])
    def test_off_axis_w_raises(self, w):
        with pytest.raises(ell.InversionError, match="real or purely imaginary"):
            ell.inverse_sn(w, 0.75)

    # not finite, overflowing in R_F, or an alpha within the pole tolerance of
    # a pole of sn: each an InversionError naming w, on the real and the
    # imaginary leg, not a ValueError from jacobi_complex
    @pytest.mark.parametrize("w, m", [(1e200, 0.5), (1e200j, 0.5), (math.nan, 0.5), (math.inf, 0.5),
                                      (2e6j, 0.95), (1e7, 0.5)])
    def test_unsolvable_w_raises_inversion_error(self, w, m):
        with pytest.raises(ell.InversionError, match=re.escape(f"w={complex(w)}")):
            ell.inverse_sn(w, m)

    # each leg: the imaginary axis, the real segment, the right and the top edge
    @pytest.mark.parametrize("w", [2j, 0.5, 1.1, 3.0])
    def test_residual_check_raises(self, monkeypatch, w):
        # an alpha whose sn misses w by more than the residual bound, 1e-8
        # here, raises InversionError naming the residual, not a wrong alpha
        jacobi = ell.jacobi_complex
        monkeypatch.setattr(ell, "jacobi_complex", lambda z, m: jacobi(z, m)._replace(sn=jacobi(z, m).sn + 1e-7))
        with pytest.raises(ell.InversionError, match=re.escape(f"residual 1.000e-07 for w={complex(w)}")):
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

    @pytest.mark.parametrize("m", [1e-9, 1e-6, 0.05, 0.75])
    def test_descended_parameter_against_mpmath(self, m):
        # m_tilde = (m alpha**2)**2: the difference 1 - sqrt(1 - m) read
        # 1.6e-7 off (relative) at m = 1e-9
        import mpmath as mp

        with mp.workdps(40):
            r = mp.sqrt(1 - mp.mpf(m))
            ref = float(((1 - r) / (1 + r)) ** 2)
        assert abs(ell.landen_descend(m)[1] - ref) <= 1e-14 * ref

    def test_argument_halving_identity(self):
        m = 0.6
        alpha, mt = ell.landen_descend(m)
        mod = ell.modulus(m)
        point, descended = ell.jacobi_triple(m), ell.jacobi_triple(mt)
        for x in [0.37] + [float(x) for x in np.linspace(-1.5, 1.5, 20)]:
            lhs = point(x)[2] + point(x + mod.K)[2]
            rhs = descended(x / alpha)[2] / alpha
            assert abs(lhs - rhs) < 1e-11


class TestJets:
    def test_jet_derivatives_match_finite_differences(self):
        m, z, h = 0.6, 0.4 + 0.3j, 1e-5
        jv = ell.jacobi_complex(z, m)
        S, C, D, S2, Dinv = ell.jets_from_scd(jv.sn, jv.cn, jv.dn, m)
        assert S2 == ell.jet_mul(S, S) and Dinv == ell.jet_reciprocal(D)
        expr = lambda zz: (lambda jv: jv.sn * jv.cn / jv.dn)(ell.jacobi_complex(zz, m))
        f0 = S[0] * C[0] / D[0]
        jet = ell.jet_mul(ell.jet_mul(S, C), Dinv)
        fd1 = (expr(z + h) - expr(z - h)) / (2 * h)
        fd2 = (expr(z + h) - 2 * f0 + expr(z - h)) / h**2
        assert abs(jet[0] - f0) < 1e-14
        assert abs(jet[1] - fd1) < 1e-8
        assert abs(jet[2] - fd2) < 1e-5

    def test_reciprocal_and_scalar_ops(self):
        j = (2.0, 3.0, 4.0)
        r = ell.jet_reciprocal(j)
        assert abs(r[0] - 0.5) < 1e-15
        assert abs(r[1] + 3.0 / 4.0) < 1e-15
        # a constant is the jet (c, 0, 0)
        assert ell.jet_mul(j, (2.0, 0.0, 0.0)) == (2 * j[0], 2 * j[1], 2 * j[2])
