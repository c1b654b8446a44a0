import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ptlame import elliptic as ell
from ptlame import floquet as flq
from ptlame import invariants as inv
from ptlame import potentials as pot
from ptlame import spectra as spc

M, BETA = 0.75, 0.5

FREE = pot.CustomPotential(lambda z: 0.0j, math.pi)


def _count_batches(monkeypatch):
    """Record the number of energies in each integration flq makes."""
    calls = []
    solve = flq.solve_ivp

    def counted(fun, t_span, y0, **kwargs):
        calls.append(len(y0) // 4)  # (psi, psi') of two solutions per energy
        return solve(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(flq, "solve_ivp", counted)
    return calls


def _half_period(spec, E):
    """A plain DOP853 run over [0, L/2] on the spec's integration line,
    storing its trajectory."""
    f = pot.compiled_value_fn(pot.on_line(spec, flq.integration_beta(spec)))

    def rhs(x, y):
        return np.concatenate([y[2:], (f(x) - E) * y[:2]])

    y0 = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    return solve_ivp(rhs, (0.0, 0.5 * spec.period), y0, method="DOP853", rtol=flq.RTOL, atol=flq.ATOL)


def _real_axis_specs(m=M):
    """Specs integrated on the real axis that are not custom: each family's
    potential, a=2 without closed forms, and each family shifted to its
    ground energy and its SUSY partner (what --shift-zero and --partner
    build)."""
    out = [pot.Lame(2, m)]
    for fam in spc.ptlame_families:
        base = pot.associated_lame(*fam[1:], m)
        shifted = pot.Shifted(base, spc.ground_energy(*fam, m, pt=False))
        out += [base, shifted, pot.SusyPartner(shifted)]
    return out


def _k_line_specs(m=M, beta=BETA):
    """PT specs whose beta* is K, where V is real: plain PT Lame for a = 1, 2,
    3, and the shifted a = 1 and a = 3 PT specs and their SUSY partners."""
    keys = [("lame", 1, 0), ("lame", 1, 0, "partner"), ("lame", 3, 0), ("lame", 3, 0, "partner")]
    return [pot.PTTransform(pot.Lame(a, m), beta) for a in (1, 2, 3)] + [inv.specs(m, beta)[k] for k in keys]


def _complex_line_specs(m=M, beta=BETA):
    """PT specs integrated in complex128: those with poles on Re u = K too."""
    s = inv.specs(m, beta)
    return [s[("assoc", 2, 1)], s[("assoc", 2, 1, "partner")], s["a3-exchanged"]]


def _as_custom(spec):
    """The spec's integration line as a custom potential, integrated over the
    whole period in complex128."""
    return pot.CustomPotential(pot.compiled_value_fn(pot.on_line(spec, flq.integration_beta(spec))), spec.period)


def _a1_spec(m=M, beta=BETA):
    return pot.Shifted(pot.PTTransform(pot.Lame(1, m), beta), -(1.0 + m))


def _a3_spec(m=M, beta=BETA):
    return pot.Shifted(pot.PTTransform(pot.Lame(3, m), beta), spc.ground_energy("lame", 3, 0, m, pt=True))


class TestMonodromy:
    def test_free_particle_discriminant(self):
        r = flq.monodromy(FREE, 1.0)
        assert abs(r.discriminant + 2.0) < 1e-9
        assert r.stats.det_defect < 1e-9

    def test_free_particle_matches_cosine(self):
        for E in (0.25, 2.0, 7.3):
            d = flq.monodromy(FREE, E).discriminant
            assert abs(d - 2.0 * math.cos(math.sqrt(E) * math.pi)) < 1e-9

    def test_wronskian_conservation(self):
        spec = pot.PTTransform(pot.Lame(3, M), BETA)
        r = flq.monodromy(spec, 2.0)
        det = r.M[0, 0] * r.M[1, 1] - r.M[0, 1] * r.M[1, 0]
        assert abs(det - 1.0) < 1e-9

    def test_stats_report_the_det_defect(self):
        # the checked defect is det A's, of the half-period matrix; det M =
        # |det A|^2 would hide a drift of its phase.  The (2,1) PT spec is
        # complex on its line, so A is integrated in complex128 there as here.
        # At E = 8 its defect is 130 times the rounding allowance (14 at E = 2)
        spec = pot.PTTransform(pot.AssociatedLame(2, 1, M), BETA)
        r = flq.monodromy(spec, 8.0)
        a, b, c, d = _half_period(spec, 8.0).y[:, -1]
        recomputed = abs(a * d - b * c - 1.0)
        # equal up to the rounding of the products, ~eps |A|^2
        rounding = 1e-15 * max(1.0, abs(a), abs(b), abs(c), abs(d)) ** 2
        assert recomputed > 100.0 * rounding
        assert r.stats.det_defect == pytest.approx(recomputed, abs=rounding)

    def test_steps_count_the_accepted_steps(self):
        # the engine keeps only the end point, so its step count comes from
        # the solver; a plain DOP853 that stores its trajectory takes as many
        # steps over half the period to the same A, and the period's matrix
        # is sigma conj(A)^-1 sigma A.  The (2,1) potential is complex on its
        # line, so A is too; the plain a=3 one is real on its line
        spec, E = inv.specs(M, BETA)[("assoc", 2, 1)], 2.0
        sol = _half_period(spec, E)
        A = sol.y[:, -1].reshape(2, 2)
        sigma = np.diag([1.0, -1.0])
        r = flq.monodromy(spec, E)
        assert r.stats.steps == len(sol.t) - 1 > 0
        assert np.allclose(r.M, sigma @ np.linalg.inv(A.conj()) @ sigma @ A, rtol=1e-12, atol=0.0)

    def test_discriminants_check_every_batch(self, monkeypatch):
        calls = _count_batches(monkeypatch)
        monkeypatch.setattr(flq, "_CHUNK", 2)
        es = [0.25, 1.0, 2.0, 4.0, 7.3]
        d = flq.discriminants(FREE, es)
        assert calls == [2, 2, 1]
        assert np.max(np.abs(d - 2.0 * np.cos(np.sqrt(es) * math.pi))) < 1e-9
        assert flq.discriminants(FREE, []).size == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("E", (math.nan, math.inf))
    def test_non_finite_energy_raises(self, E):
        # a step that is not finite fails the step floor at once, and is
        # not retried; numpy prints no RuntimeWarning ahead of the error
        start = time.perf_counter()
        with pytest.raises(flq.FloquetIntegrationError, match="below 1e-10 of the period or is not finite"):
            flq.discriminants(pot.Lame(1, 0.5), [E])
        assert time.perf_counter() - start < 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_raises_naming_the_energy(self):
        # far below the spectrum the entries overflow, so det - 1 is NaN,
        # which fails the Wronskian check instead of passing it, with no
        # RuntimeWarning ahead of the error
        start = time.perf_counter()
        with pytest.raises(flq.FloquetIntegrationError, match=r"\|det - 1\| = nan at E=-100000\.0$"):
            flq.discriminants(pot.Lame(1, 0.5), [-1e5])
        assert time.perf_counter() - start < 1.0

    def test_trace_independent_of_start_point(self):
        # V(x + L/3) is not symmetric about 0, so it is integrated over the
        # whole period, from a base point L/3 along the same line
        spec = _a1_spec()
        f = pot.compiled_value_fn(pot.on_line(spec, flq.integration_beta(spec)))
        shifted = pot.CustomPotential(lambda x: f(x + spec.period / 3.0), spec.period)
        a = flq.monodromy(spec, 0.4)
        b = flq.monodromy(shifted, 0.4)
        assert abs(a.discriminant - b.discriminant) < 1e-9

    def test_real_discriminant_for_pt_spec(self):
        spec = pot.Shifted(pot.PTTransform(pot.Lame(3, M), BETA),
                           spc.ground_energy("lame", 3, 0, M, pt=True))
        for E in (0.5, 2.0, 6.0):
            assert abs(flq.monodromy(spec, E).discriminant.imag) < 1e-7


class TestHalfPeriod:
    """A spec with a Jacobi-function form is integrated over [0, L/2] and its
    monodromy built from V(-x) = conj V(x); a custom one over [0, L]."""

    @pytest.mark.parametrize("m,beta", [(M, BETA), (0.3, 1.2)])
    def test_potentials_are_symmetric_on_their_line(self, m, beta):
        real = [pot.Lame(1, m), pot.Lame(2, m), pot.Lame(3, m), pot.AssociatedLame(2, 1, m)]
        for spec in list(inv.specs(m, beta).values()) + real:
            f = pot.compiled_value_fn(pot.on_line(spec, flq.integration_beta(spec)))
            for x in np.linspace(0.0, spec.period, 17):
                v = f(x)
                assert abs(f(-x) - v.conjugate()) <= 1e-13 * abs(v)

    def test_half_period_matches_full_period(self):
        # the same line, integrated by the engine's symmetry and as a custom
        # potential over the whole period
        es = np.linspace(-1.0, 30.0, 800)
        for spec in inv.specs(M, BETA).values():
            half, full = flq.discriminants(spec, es), flq.discriminants(_as_custom(spec), es)
            assert np.max(np.abs(half - full) / np.maximum(1.0, np.abs(full))) <= 1e-9

    def test_custom_potential_keeps_the_full_period(self):
        # cos 2x + 0.5 sin 4x is not even, so half a period does not fix M
        def v(x):
            return math.cos(2.0 * x) + 0.5 * math.sin(4.0 * x)

        spec = pot.CustomPotential(v, math.pi)
        es = [-0.5, 0.7, 1.0, 2.5, 4.2]
        for E, delta in zip(es, flq.discriminants(spec, es)):
            sol = solve_ivp(lambda x, y, E=E: [y[2], y[3], (v(x) - E) * y[0], (v(x) - E) * y[1]],
                            (0.0, math.pi), [1.0, 0.0, 0.0, 1.0], method="DOP853", rtol=1e-13, atol=1e-15)
            assert abs(delta - (sol.y[0, -1] + sol.y[3, -1])) < 1e-9

    @pytest.mark.parametrize("m", [M, 0.3])
    def test_real_axis_potentials_are_real(self, m):
        # V is real on the real axis to the last bit, so the engine can drop
        # its imaginary part there
        for spec in _real_axis_specs(m):
            f = pot.compiled_value_fn(spec)
            assert all(f(x).imag == 0.0 for x in np.linspace(-spec.period, 2.0 * spec.period, 301))

    @pytest.mark.parametrize("m", [0.05, 0.3, 0.75, 0.95])
    def test_k_line_potentials_are_real(self, m):
        # on Re u = K, V is real to rounding, so the engine can drop its
        # imaginary part there too
        for spec in _k_line_specs(m):
            line, beta, real = flq._line(spec)
            assert real and beta == ell.modulus(m).K
            f = pot.compiled_value_fn(line)
            vs = np.array([f(x) for x in np.linspace(-spec.period, 2.0 * spec.period, 301)])
            assert np.max(np.abs(vs.imag)) <= 1e-14 * np.max(np.abs(vs))

    @pytest.mark.parametrize("m", [0.3, 0.75, 0.95])
    def test_k_line_float64_matches_complex(self, m):
        # Delta from float64 states on Re u = K against the same line
        # integrated in complex128 over the whole period, V's rounding included
        for spec in _k_line_specs(m):
            es = np.linspace(*flq.default_energy_range(spec), 500)
            real, full = flq.discriminants(spec, es), flq.discriminants(_as_custom(spec), es)
            assert np.max(np.abs(real - full) / np.maximum(1.0, np.abs(full))) <= 1e-11

    def test_real_axis_integrates_in_float64(self, monkeypatch):
        # real-axis and Re u = K specs integrate real states; other PT lines
        # and custom potentials complex ones
        dtypes = []
        solve = flq.solve_ivp

        def recorded(fun, t_span, y0, **kwargs):
            dtypes.append(y0.dtype)
            return solve(fun, t_span, y0, **kwargs)

        monkeypatch.setattr(flq, "solve_ivp", recorded)
        cases = [(s, np.float64) for s in [*_real_axis_specs(), *_k_line_specs()]]
        cases += [(s, np.complex128) for s in [*_complex_line_specs(), FREE, _as_custom(_a1_spec())]]
        for s, dtype in cases:
            dtypes.clear()
            flq._propagate(s, [0.5, 2.0])
            assert dtypes == [dtype]

    def test_batch_rhs_calls(self):
        # one 800-energy batch on the a=3 anchor: 374 RHS calls over half a
        # period at RTOL 1e-12, against 545 over the whole one at 1e-11
        stats = flq._propagate(_a3_spec(), np.linspace(-0.5, 9.0, flq._CHUNK))[3]
        assert stats.nfev <= 400


class TestStepper:
    """flq.solve_ivp against scipy's DOP853, whose step control it keeps."""

    def test_matches_scipy_dop853(self, monkeypatch):
        # each spec's batch, integrated again by scipy at the same tolerances:
        # the same accepted steps and RHS calls, 3 fewer than scipy's run to
        # t_eval=[end], which builds the dense output of the last step, and
        # the same Delta; the real-axis specs (plain, partner and (2,1)) and
        # the a = 1 and a = 3 PT specs and partners, on Re u = K, integrate
        # real states, which scipy keeps real
        runs = []
        solve = flq.solve_ivp

        def recorded(fun, t_span, y0, **kwargs):
            runs.append((fun, t_span, y0, solve(fun, t_span, y0, **kwargs)))
            return runs[-1][3]

        monkeypatch.setattr(flq, "solve_ivp", recorded)
        es = np.linspace(-1.0, 30.0, flq._CHUNK)
        shifted = pot.Shifted(pot.Lame(3, M), spc.ground_energy("lame", 3, 0, M, pt=False))
        real = [pot.Lame(3, M), pot.SusyPartner(shifted), pot.AssociatedLame(2, 1, M)]
        for spec in [*inv.specs(M, BETA).values(), *real]:
            runs.clear()
            delta = flq.discriminants(spec, es)
            [(fun, t_span, y0, sol)] = runs
            assert t_span == (0.0, 0.5 * spec.period)
            plain = solve_ivp(fun, t_span, y0, method="DOP853", rtol=flq.RTOL, atol=flq.ATOL)
            end = solve_ivp(fun, t_span, y0, method="DOP853", t_eval=[t_span[1]], rtol=flq.RTOL, atol=flq.ATOL)
            assert plain.success and end.success
            assert sol.steps == len(plain.t) - 1
            assert sol.nfev == plain.nfev == end.nfev - 3
            n2 = y0.size // 2
            y = end.y[:, -1]
            a, b, c, d = y[0:n2:2], y[1:n2:2], y[n2::2], y[n2 + 1 :: 2]
            ref = 2.0 * (d.conj() * a + b.conj() * c).real
            assert np.max(np.abs(delta - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12


class TestScan:
    def test_free_particle_columns(self):
        scan = flq.discriminant_scan(FREE, 0.3, 6.0, 40)
        ref = 2.0 * np.cos(np.sqrt(scan.energies) * math.pi)
        assert np.max(np.abs(scan.discriminants.real - ref)) < 1e-8
        assert not scan.im_flags.any()

    def test_pt_spec_imaginary_part_stays_small(self):
        spec = pot.Shifted(pot.PTTransform(pot.AssociatedLame(2, 1, M), BETA),
                           spc.ground_energy("assoc", 2, 1, M, pt=True))
        scan = flq.discriminant_scan(spec, -0.4, 6.0, 80)
        assert not scan.im_flags.any()
        assert np.max(np.abs(scan.discriminants.imag)) < 1e-7

    def test_long_scan_matches_scalar_monodromy(self):
        # DOP853 controls the RMS of its error estimate over all 4 * _CHUNK
        # components of a batch; a full batch must still be as accurate as
        # one energy alone
        spec = _a3_spec()
        scan = flq.discriminant_scan(spec, -0.5, 8.66, 3665)
        for i in np.linspace(0, scan.energies.size - 1, 16).astype(int):
            assert abs(scan.discriminants[i] - flq.monodromy(spec, scan.energies[i]).discriminant) < 1e-8

    def test_batch_keeps_no_trajectory(self):
        # one full batch holds the solver's working arrays, not a copy of
        # the state at each of its ~43 steps
        spec = _a3_spec()
        es = np.linspace(-0.5, 9.0, flq._CHUNK)
        flq._propagate(spec, es[:2])  # the line and the compiled potential are cached
        tracemalloc.start()
        try:
            flq._propagate(spec, es)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = es.size * 4 * 16  # bytes of one complex state vector
        assert peak < 60 * state

    def test_coarse_candidates_present(self):
        kinds = {e.period_class for e in flq.find_band_edges(_a1_spec(), -0.3, 1.5)}
        assert kinds == {"P", "A"}

    def test_scan_checks_every_batch(self, monkeypatch):
        # a Wronskian failure stops the scan at the batch it shows in
        calls = _count_batches(monkeypatch)
        monkeypatch.setattr(flq, "_CHUNK", 2)
        monkeypatch.setattr(flq, "_DET_TOL", 0.0)
        with pytest.raises(flq.FloquetIntegrationError, match="Wronskian drift"):
            flq.discriminant_scan(_a1_spec(), 0.3, 2.2, 5)
        assert calls == [2]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            flq.discriminant_scan(FREE, 2.0, 1.0, 10)
        with pytest.raises(ValueError):
            flq.discriminant_scan(FREE, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            flq.find_band_edges(FREE, 2.0, 1.0)


class TestEdgeFinding:
    def test_a1_pt_edges(self):
        found = flq.find_band_edges(_a1_spec(), -0.5, 1.8)
        assert len(found) == 3
        assert np.allclose([e.energy for e in found], [0.0, M, 1.0], atol=1e-8)
        assert [e.period_class for e in found] == ["P", "A", "A"]

    def test_free_particle_closed_gaps(self):
        found = flq.find_band_edges(FREE, 0.2, 10.0)
        assert [round(e.energy, 6) for e in found] == [1.0, 4.0, 9.0]
        assert all(e.multiplicity == 2 for e in found)
        assert [e.period_class for e in found] == ["A", "P", "A"]

    def test_convergence_under_tolerance_halving(self, monkeypatch):
        a = flq.find_band_edges(_a1_spec(), -0.4, 1.6)
        monkeypatch.setattr(flq, "RTOL", flq.RTOL / 2)
        monkeypatch.setattr(flq, "ATOL", flq.ATOL / 2)
        b = flq.find_band_edges(_a1_spec(), -0.4, 1.6)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert abs(x.energy - y.energy) < 1e-8

    def test_warns_when_range_too_small(self):
        with pytest.warns(UserWarning, match=r"\(closed gaps found: 0\): the energy range is probably too small, "
                                             "or a narrow open gap was reported closed"):
            flq.find_band_edges(_a1_spec(), -0.3, 0.5)

    def test_warns_when_a_narrow_gap_is_reported_closed(self):
        # the a=3 PT top gap is 1.2e-7 wide at m = 0.993 and is reported
        # closed on an ample range; the warning counts that closed gap
        m = 0.993
        ref = spc.closed_form_energies("lame", 3, 0, m, pt=True, shifted=True)
        with pytest.warns(UserWarning, match=r"found 5 simple band edges but the base family has 7 "
                                             r"\(closed gaps found: 1\): the energy range is probably too small, "
                                             "or a narrow open gap was reported closed"):
            found = flq.find_band_edges(_a3_spec(m, BETA), min(ref) - 0.5, max(ref) + 0.5)
        assert [e.multiplicity for e in found] == [1] * 5 + [2]

    def test_real_assoc21_closed_gap_detected(self):
        # the real (2,1) potential has all four simple excited edges
        # antiperiodic; its second band carries a doubly degenerate periodic
        # point where the discriminant touches +2 from below; the classes
        # therefore break the P AA PP order of simple edges
        found = flq.find_band_edges(pot.AssociatedLame(2, 1, M), 2.5, 9.0)
        simple = [e for e in found if e.multiplicity == 1]
        closed = [e for e in found if e.multiplicity == 2]
        ref = spc.closed_form_energies("assoc", 2, 1, M, pt=False)
        assert np.allclose([e.energy for e in simple], ref, atol=1e-7)
        assert [e.period_class for e in simple] == ["P", "A", "A", "A", "A"]
        assert len(closed) == 1 and closed[0].period_class == "P"

    def test_landen_reduced_pt_edges_match(self):
        # a = b associated potential vs its Landen-reduced Lame form: the PT
        # band edges agree after undoing the additive constant and the
        # argument rescaling (energies scale by 1/alpha**2)
        m = 0.75
        spec = pot.AssociatedLame(1, 1, m)
        alpha, mt = ell.landen_descend(m)
        const = 2 * m  # a(a+1) m
        pt_assoc = pot.PTTransform(spec, BETA)
        pt_lame = pot.PTTransform(pot.Lame(1, mt), BETA)
        found = flq.find_band_edges(pt_assoc, -2 * 2 * m - 3.0, 0.5)
        found_l = flq.find_band_edges(pt_lame, -2.5, 0.5)
        # above the top edge every gap is closed; compare the true edges only
        mapped = [-const + e.energy / alpha**2 for e in found_l if e.multiplicity == 1]
        got = [e.energy for e in found if e.multiplicity == 1]
        assert len(got) == len(mapped) == 3
        assert np.allclose(got, mapped, atol=1e-6)

    def test_gap_inside_one_scan_cell_splits(self):
        # 2q cos 2x opens the first gap over [1 - q, 1 + q] (to O(q^2)); the
        # interpolant finds both of its roots, though no sample of a uniform
        # 20-per-unit grid on this range (0.9994, 1.0494, ...) falls inside it
        q = 5e-4
        spec = pot.CustomPotential(lambda z: 2.0 * q * math.cos(2.0 * z.real), math.pi)
        found = flq.find_band_edges(spec, 0.4994, 2.4994)
        assert [(e.period_class, e.multiplicity) for e in found] == [("A", 1), ("A", 1)]
        assert np.allclose([e.energy for e in found], [1.0 - q - q * q / 8.0, 1.0 + q - q * q / 8.0], atol=1e-9)

    @pytest.mark.parametrize("q", (5e-4, 1e-3))
    def test_gap_across_two_crossing_cells_keeps_both_edges(self, q):
        # here the gap [1 - q, 1 + q] holds a point of a uniform grid on the
        # range, and the interpolant finds both of its edges
        spec = pot.CustomPotential(lambda z: 2.0 * q * math.cos(2.0 * z.real), math.pi)
        found = [e for e in flq.find_band_edges(spec, 0.5, 4.5) if abs(e.energy - 1.0) < 0.01]
        assert [(e.period_class, e.multiplicity) for e in found] == [("A", 1), ("A", 1)]
        assert np.allclose([e.energy for e in found], [1.0 - q - q * q / 8.0, 1.0 + q - q * q / 8.0], atol=1e-9)

    def test_narrow_top_gap_keeps_both_edges(self):
        # at m = 0.9 the a=3 PT top gap is 3.9e-4 wide; both of its edges are
        # distinct results
        m, beta = 0.9, 0.4
        spec = pot.Shifted(pot.PTTransform(pot.Lame(3, m), beta), spc.ground_energy("lame", 3, 0, m, pt=True))
        ref = spc.closed_form_energies("lame", 3, 0, m, pt=True, shifted=True)
        found = [e for e in flq.find_band_edges(spec, min(ref) - 0.5, max(ref) + 0.5) if e.multiplicity == 1]
        assert len(found) == 7
        assert np.allclose([e.energy for e in found], ref, atol=1e-6)

    def test_refinement_runs_in_lockstep_batches(self, monkeypatch):
        # every energy is integrated in the batch of its round; on the anchor
        # one piece of 65 Chebyshev points resolves Delta, M12 and M21
        e_g = spc.ground_energy("lame", 3, 0, M, pt=True)
        spec = pot.Shifted(pot.PTTransform(pot.Lame(3, M), BETA), e_g)
        ref = spc.closed_form_energies("lame", 3, 0, M, pt=True, shifted=True)
        e_min, e_max = min(ref) - 0.5, max(ref) + 0.5
        calls = _count_batches(monkeypatch)

        def scalar(*args, **kwargs):
            raise AssertionError("find_band_edges made a scalar monodromy call")

        monkeypatch.setattr(flq, "monodromy", scalar)
        found = flq.find_band_edges(spec, e_min, e_max)
        assert len(calls) == 1 and calls[0] <= 65
        assert np.allclose([e.energy for e in found], ref, atol=1e-8)

    @pytest.mark.parametrize("spec,e_min,e_max,kinds", [
        (FREE, 0.2, 40.0, [("A", 2), ("P", 2)] * 3),
        (pot.AssociatedLame(2, 1, M), 2.5, 9.0, [("P", 1), ("A", 1), ("A", 1), ("P", 2), ("A", 1), ("A", 1)]),
    ], ids=["free", "assoc21"])
    def test_peak_search_runs_in_few_batches(self, monkeypatch, spec, e_min, e_max, kinds):
        # closed gaps come from the same interpolant as simple edges, with no
        # search of their own
        calls = []
        propagate = flq._propagate

        def counted(spec, energies, **kwargs):
            calls.append(len(energies))
            return propagate(spec, energies, **kwargs)

        monkeypatch.setattr(flq, "_propagate", counted)
        found = flq.find_band_edges(spec, e_min, e_max)
        assert len(calls) <= 2
        assert [(e.period_class, e.multiplicity) for e in found] == kinds

    def test_barely_open_gap_keeps_both_edges(self):
        # the top gap is 7.2e-5 wide at (0.9423, 0.5276), and Delta passes -2
        # in it by only 3.7e-10: an open gap, not a closed one
        m, beta = 0.9423, 0.5276
        ref = spc.closed_form_energies("lame", 3, 0, m, pt=True, shifted=True)
        spec = _a3_spec(m, beta)
        for s in (spec, pot.SusyPartner(spec)):
            found = [e for e in flq.find_band_edges(s, min(ref) - 0.5, max(ref) + 0.5) if e.multiplicity == 1]
            assert len(found) == 7
            assert np.allclose([e.energy for e in found], ref, atol=1e-6)

    @pytest.mark.parametrize("m,beta", [(0.9, 0.4), (0.95, 0.5), (0.985, 0.5)])
    def test_narrow_top_gap_is_open_on_a_wide_range(self, m, beta):
        # the top gap is 3.9e-4, 4.6e-5 and 1.2e-6 wide, a small part of the
        # range; in the 1.2e-6 gap M21 is 1.9e-6 at the root of M12, above
        # the closed-gap bound of 1e-6, so the gap is found open
        ref = spc.closed_form_energies("lame", 3, 0, m, pt=True, shifted=True)
        found = [e for e in flq.find_band_edges(_a3_spec(m, beta), -0.5, 40.0) if e.energy < max(ref) + 0.5]
        assert [(e.period_class, e.multiplicity) for e in found[-2:]] == [("A", 1), ("A", 1)]
        assert np.allclose([e.energy for e in found if e.multiplicity == 1], ref, atol=1e-6)

    def test_edges_beside_a_gap_do_not_depend_on_the_range(self):
        # the top two edges sit beside a 7.2e-3 gap, where dDelta/dE = 2.6e-3;
        # at RTOL = 1e-12 the energies sharing their batch move a root of a
        # trace less 2 by up to 2.6e-10, and a root of the finder's Delta -+ 2
        # columns by far less (measured 5.2e-12)
        ref = spc.closed_form_energies("lame", 3, 0, M, pt=True, shifted=True)
        found = [e.energy for e in flq.find_band_edges(_a3_spec(), -0.5, 40.0) if e.multiplicity == 1]
        assert len(found) == 7
        assert np.max(np.abs(np.array(found) - ref)) <= 1e-10

    @pytest.mark.parametrize("q", (3e-3, 1.5e-3, 1e-3, 5e-4, 1e-4, 1e-5))
    def test_narrow_gap_is_two_edges_or_one_closed_gap(self, q):
        # 2q cos 2x opens the gap at E = 4 over [4 - q^2/12, 4 + 5q^2/12],
        # q^2/2 wide; from 1.1e-6 (q = 1.5e-3) up it is found open (measured:
        # edges within 1.7e-10), and below it may be reported closed
        spec = pot.CustomPotential(lambda z: 2.0 * q * math.cos(2.0 * z.real), math.pi)
        found = flq.find_band_edges(spec, 3.0, 5.0)
        kinds = [(e.period_class, e.multiplicity) for e in found]
        assert kinds in ([("P", 1), ("P", 1)], [("P", 2)])
        if q >= 1.5e-3:
            assert kinds == [("P", 1), ("P", 1)]
            assert np.allclose([e.energy for e in found], [4.0 - q * q / 12.0, 4.0 + 5.0 * q * q / 12.0],
                               rtol=0.0, atol=1e-8)

    @pytest.mark.filterwarnings("ignore:found 5 simple band edges")
    @pytest.mark.parametrize("m", (0.97, 0.98, 0.985, 0.99, 0.993, 0.995))
    def test_narrow_top_gap_is_two_edges_or_one_closed_gap(self, m):
        # the a=3 PT top gap narrows from 9.8e-6 (m = 0.97) to 4.4e-8 (0.995);
        # up to 1.2e-6 (m = 0.985) it is found open, with every edge within
        # 1e-8 (measured 4.4e-9), and narrower it may be reported closed
        ref = spc.closed_form_energies("lame", 3, 0, m, pt=True, shifted=True)
        spec = _a3_spec(m, BETA)
        opened = [("P", 1), ("A", 1), ("A", 1), ("P", 1), ("P", 1), ("A", 1), ("A", 1)]
        for s in (spec, pot.SusyPartner(spec)):
            found = flq.find_band_edges(s, min(ref) - 0.5, max(ref) + 0.5)
            kinds = [(e.period_class, e.multiplicity) for e in found]
            simple = [e.energy for e in found if e.multiplicity == 1]
            assert kinds in (opened, opened[:5] + [("A", 2)])
            assert np.allclose(simple[:5], ref[:5], rtol=0.0, atol=1e-8)
            if m <= 0.985:
                assert kinds == opened
                assert np.allclose(simple, ref, rtol=0.0, atol=1e-8)
            elif kinds != opened:
                assert ref[-2] - 1e-6 <= found[-1].energy <= ref[-1] + 1e-6

    @pytest.mark.parametrize("m,beta", [(0.0632, 1.098), (0.0596, 0.5)])
    def test_root_beside_a_large_delta_is_resolved(self, m, beta):
        # on the unshifted a=3 PT potential over [-13, top + 0.5], |Delta|
        # reaches 6e6 below the spectrum, so a series resolved to 1e-13 of
        # its largest coefficient can still misplace a root of Delta -+ 2;
        # the absolute tail bound _TAIL_ATOL halves such a piece (without
        # it, 6 and 5 of the 7 edges are found)
        spec = pot.PTTransform(pot.Lame(3, m), beta)
        ref = spc.closed_form_energies("lame", 3, 0, m, pt=True)
        found = flq.find_band_edges(spec, -13.0, max(ref) + 0.5)
        assert [e.multiplicity for e in found] == [1] * 7
        assert np.allclose([e.energy for e in found], ref, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("m", (0.5, 0.75))
    def test_pt_edges_are_the_dual_modulus_edges(self, m):
        # PT a=6 Lame at m has the edges of the real a=6 potential at 1 - m,
        # lowered by a(a + 1) = 42; far below its spectrum M21 grows like an
        # exponential, so a closed-gap bound scaled by it would close open
        # gaps there (11 simple edges with 2 or 1 closed gaps); measured
        # within 2.5e-7 and 1.6e-7
        pt = flq.find_band_edges(pot.PTTransform(pot.Lame(6, m), BETA), -42.5, 0.5)
        real = flq.find_band_edges(pot.Lame(6, 1.0 - m), -0.5, 42.5)
        assert [e.multiplicity for e in pt] == [e.multiplicity for e in real] == [1] * 13
        assert [e.period_class for e in pt] == [e.period_class for e in real]
        assert np.allclose([e.energy for e in pt], [e.energy - 42.0 for e in real], rtol=0.0, atol=1e-6)

    def test_closed_gap_claims_its_split_pair(self):
        # on (4,1) at m = 0.75 noise splits the P column's double root at the
        # closed gap near 29.0386 into two real roots 2.4e-5 either side of
        # it; the gap claims both.  The references are the roots of the real
        # half-period matrix's entries: P edges of b and c, A edges of a and d
        spec = pot.AssociatedLame(4, 1, 0.75)
        found = flq.find_band_edges(spec, *flq.default_energy_range(spec))
        expected = {
            ("P", 1): [4.8902277714, 10.75, 14.1097722286],
            ("A", 1): [4.8914213943, 10.6754446797, 15.0216926162, 16.0, 23.3245553203, 23.3368859895],
            ("P", 2): [18.7987690514, 29.0386119646, 43.7668579927],
            ("A", 2): [35.8586914178],
        }
        assert len(found) == 13
        for kind, ref in expected.items():
            got = [e.energy for e in found if (e.period_class, e.multiplicity) == kind]
            assert len(got) == len(ref) and np.allclose(got, ref, rtol=0.0, atol=1e-6)

    def test_unresolved_piece_names_its_series(self, monkeypatch):
        # with no tail small enough, the range is halved twice, down to a
        # quarter, below _MIN_PIECE = 0.3 of it
        monkeypatch.setattr(flq, "_TAIL_RTOL", 0.0)
        monkeypatch.setattr(flq, "_MIN_PIECE", 0.3)
        with pytest.raises(flq.FloquetIntegrationError,
                           match=r"not resolved on \[0\.0, 0\.25\]: Delta's last 3 coefficients reach \S+, above 0"):
            flq.find_band_edges(_a1_spec(), 0.0, 1.0)

    def test_sample_on_a_tangency_is_a_closed_gap(self, monkeypatch):
        # the middle Chebyshev point of [0.5, 1.5] is E = 1 exactly, where
        # Delta is -2 to integration noise: one closed gap, not a simple edge
        sampled = []
        propagate = flq._propagate

        def recorded(spec, energies, **kwargs):
            sampled.extend(energies)
            return propagate(spec, energies, **kwargs)

        monkeypatch.setattr(flq, "_propagate", recorded)
        found = flq.find_band_edges(FREE, 0.5, 1.5)
        assert 1.0 in sampled
        assert [(e.period_class, e.multiplicity) for e in found] == [("A", 2)]
        assert abs(found[0].energy - 1.0) < 1e-6
        # these ranges are halved at their midpoint, 1e-9, 1e-7 or 1e-6 below
        # E = 1 or 1e-8 above it, so the closed gap lies just past one piece's
        # end; it still claims that piece's pair of column roots (left there,
        # one made a simple edge 9e-8 to 2.8e-6 from the gap)
        for d, w in ((-1e-9, 31.0), (-1e-7, 25.0), (-1e-6, 31.0), (1e-8, 31.0)):
            found = [e for e in flq.find_band_edges(FREE, 1.0 + d - w, 1.0 + d + w) if abs(e.energy - 1.0) < 1e-3]
            assert [(e.period_class, e.multiplicity) for e in found] == [("A", 2)]

    def test_noise_past_a_tangency_is_a_closed_gap(self, monkeypatch):
        # the free particle's M with Delta = 2 cos(pi sqrt(E)) - 1e-13, which
        # passes -2 by noise alone around E = 1: one closed gap, not two
        # simple edges 4e-7 apart
        def propagate(spec, energies, **kwargs):
            k = np.sqrt(np.asarray(energies, dtype=float))
            ms = np.empty((k.size, 2, 2), dtype=complex)
            ms[:, 0, 0] = ms[:, 1, 1] = np.cos(np.pi * k) - 5e-14
            ms[:, 0, 1], ms[:, 1, 0] = np.sin(np.pi * k) / k, -k * np.sin(np.pi * k)
            delta = ms[:, 0, 0] + ms[:, 1, 1]
            return ms, np.stack([delta - 2.0, delta + 2.0], axis=1), np.zeros(k.size), flq.IntegratorStats(1, 1, 0.0)

        monkeypatch.setattr(flq, "_propagate", propagate)
        found = flq.find_band_edges(FREE, 0.5, 2.5)
        assert [(e.period_class, e.multiplicity) for e in found] == [("A", 2)]
        assert abs(found[0].energy - 1.0) < 1e-6

    @pytest.mark.parametrize("m,beta", [(M, BETA), (0.3, 1.2)])
    def test_no_edge_is_found_twice(self, m, beta):
        # two edges of one class never lie within 4 (1e-10 + sqrt(eps)|E|) of
        # each other, where two reports of one edge would land.  The last two
        # ranges halve onto an edge (E = 0) and a closed gap (E = 1), which
        # the pieces on either side both find
        sets = list(inv._edge_sets(m, beta).values()) + [
            flq.find_band_edges(FREE, 0.2, 40.0), flq.find_band_edges(pot.AssociatedLame(2, 1, m), -1.0, 12.0),
            flq.find_band_edges(_a1_spec(m, beta), -40.0, 40.0), flq.find_band_edges(FREE, -30.0, 32.0)]
        for edges in sets:
            for cls in "PA":
                energies = [e.energy for e in edges if e.period_class == cls]
                for lo, hi in zip(energies, energies[1:]):
                    assert hi - lo >= 4.0 * (1e-10 + math.sqrt(2.2e-16) * abs(hi))

    def test_closed_gaps_are_simple_roots_of_m12(self):
        # a closed gap is a simple root of M12, so its energy is as accurate
        # as a simple edge's (measured: 1.5e-13 relative)
        found = flq.find_band_edges(FREE, 0.2, 99.0)
        assert [(e.period_class, e.multiplicity) for e in found] == [("A", 2), ("P", 2)] * 4 + [("A", 2)]
        for n, e in enumerate(found, start=1):
            assert abs(e.energy - n * n) <= 1e-10 * n * n

    def test_closed_gaps_match_the_partner(self):
        # a SUSY partner is isospectral, so its closed gaps are the spec's
        # (measured: to 2e-14 relative)
        s = inv.specs(M, BETA)
        for fam in spc.ptlame_families:
            e0 = min(spc.closed_form_energies(*fam, M, pt=True, shifted=True))
            spec, partner = ([(e.energy, e.period_class) for e in flq.find_band_edges(s[k], e0 - 0.5, 40.0)
                              if e.multiplicity == 2] for k in (fam, fam + ("partner",)))
            assert spec and [c for _, c in spec] == [c for _, c in partner]
            for (e, _), (f, _) in zip(spec, partner):
                assert abs(e - f) <= 1e-10 * abs(e)

    def test_refinement_checks_every_energy(self, monkeypatch):
        # every integration the finder makes is Wronskian checked
        monkeypatch.setattr(flq, "_DET_TOL", 1e-300)
        with pytest.raises(flq.FloquetIntegrationError, match="Wronskian drift"):
            flq.find_band_edges(_a1_spec(), -0.5, 1.8)


class TestClassification:
    @staticmethod
    def _found_edges():
        # the six registry edge sets and the free particle's closed gaps
        return [e for edges in list(inv._edge_sets(M, BETA).values()) + [flq.find_band_edges(FREE, 0.2, 10.0)]
                for e in edges]

    def test_classes_from_discriminant(self):
        # an edge is periodic (P) where Delta = +2 and antiperiodic (A) where
        # Delta = -2, for simple edges and closed gaps alike
        for e in self._found_edges():
            assert e.period_class == ("P" if e.discriminant.real > 0 else "A")

    def test_edge_discriminants_are_unambiguous(self):
        # no edge is reported whose class is in doubt: Delta lies within 1e-6
        # of +/-2 and is real to 1e-6
        for e in self._found_edges():
            assert abs(abs(e.discriminant.real) - 2.0) < 1e-6 and abs(e.discriminant.imag) < 1e-6

    def test_edge_classes_follow_oscillation_order(self, monkeypatch):
        # simple edges follow P AA PP AA ... on the six registry edge sets
        patterns = {7: "PAAPPAA", 5: "PAAPP", 3: "PAA"}
        for edges in inv._edge_sets(M, BETA).values():
            assert "".join(e.period_class for e in edges) == patterns[len(edges)]
        # the registry row counts the sets that break it, short ones included
        sets = {k: tuple(flq.NumericBandEdge(float(i), c, 0j) for i, c in enumerate(classes))
                for k, classes in enumerate(("", "P", "PA", "PAA", "PAAPPAA", "PAPAPAA", "PAAA"))}
        monkeypatch.setattr(inv, "_edge_sets", lambda m, beta: sets)
        row = next(r for r in inv.REGISTRY if r.name == "edge-class-interleaving")
        assert row.check(M, BETA) == 2


class TestDispersionNumeric:
    def test_edges_snap_to_zone_points(self):
        spec = _a1_spec()
        L = spec.period
        k0, k1 = flq.dispersion_numeric(spec, [0.0, M])
        assert abs(k0 * L) < 1e-7
        assert abs(k1 * L - math.pi) < 1e-7

    def test_gap_has_positive_imaginary_part(self):
        spec = pot.Shifted(pot.PTTransform(pot.Lame(3, M), BETA),
                           spc.ground_energy("lame", 3, 0, M, pt=True))
        k = flq.dispersion_numeric(spec, [1.0])[0]  # inside the first gap
        assert k.imag > 1e-3

    def test_matches_analytic_mid_band(self):
        spec = _a1_spec()
        for E, k in zip((0.3, 2.2), flq.dispersion_numeric(spec, [0.3, 2.2])):
            assert abs(k - spc.dispersion_analytic(M, BETA, E).k) < 1e-6

    def test_one_integration_for_all_energies(self, monkeypatch):
        # 25 energies away from the band edges (0, m, 1) in one batch; each
        # matches its own one-energy integration
        spec = _a1_spec()
        es = np.linspace(0.05, 2.95, 25)
        alone = np.array([flq.dispersion_numeric(spec, [e])[0] for e in es])
        calls = _count_batches(monkeypatch)
        k = flq.dispersion_numeric(spec, es)
        assert calls == [25]
        assert np.max(np.abs(k - alone)) < 1e-9
        assert flq.dispersion_numeric(spec, []).size == 0


class TestIntegrationLine:
    def test_plain_lame_lines(self):
        # sn poles alone: the line midway between them, whatever the user's beta
        K = ell.modulus(M).K
        for beta in (0.05, BETA, 2.0):
            assert flq.integration_beta(pot.PTTransform(pot.Lame(3, M), beta)) == pytest.approx(K, abs=1e-12)
        assert flq.integration_beta(pot.Lame(3, M)) is None
        assert flq.integration_beta(FREE) is None

    @pytest.mark.parametrize("m,beta", [(M, BETA), (0.3, 1.2)])
    def test_line_keeps_clear_of_poles(self, m, beta):
        # V on the chosen line stays within a factor 2 of its smallest
        # max |V| over a grid of lines; a missed pole would put the line
        # near it and blow V up
        def vmax(spec, b):
            try:
                f = pot.compiled_value_fn(pot.on_line(spec, float(b)))
            except pot.PotentialError:  # a line through a pole
                return math.inf
            return max(abs(f(x)) for x in np.linspace(0.0, spec.period, 48, endpoint=False))

        two_k = 2.0 * ell.modulus(m).K
        for spec in inv.specs(m, beta).values():
            best = min(vmax(spec, b) for b in np.linspace(0.0, two_k, 51)[1:-1])
            assert vmax(spec, flq.integration_beta(spec)) < 2.0 * best

    def test_line_costs_no_potential_calls(self, monkeypatch):
        # the line comes from the pole geometry alone, and rebuilding a
        # partner's PT transform on it samples nothing; V is evaluated only
        # inside integrations
        calls = []
        compiled = pot.compiled_value_fn

        def counted(spec):
            f = compiled(spec)
            return lambda x: calls.append(x) or f(x)

        monkeypatch.setattr(pot, "compiled_value_fn", counted)
        flq._line.cache_clear()
        flq.integration_beta(inv.specs(M, BETA)["a3-exchanged"])
        assert calls == []

    def test_line_is_stable_under_rounding(self, monkeypatch):
        # the (2,1) partner's widest pole gap has a mirror twin centred at
        # 2K - beta*; moving one pole line by 2 ulps must not switch to it
        spec = inv.specs(M, BETA)[("assoc", 2, 1, "partner")]
        beta = flq.integration_beta(spec)
        lines = pot.pole_lines
        try:
            for ulps in (-2, 2):
                def moved(poles, m, ulps=ulps):
                    r = list(lines(poles, m))
                    r[-1] += ulps * math.ulp(r[-1])
                    return tuple(r)

                monkeypatch.setattr(pot, "pole_lines", moved)
                flq._line.cache_clear()
                assert flq.integration_beta(spec) == pytest.approx(beta, abs=1e-12)
        finally:
            flq._line.cache_clear()
        assert beta <= ell.modulus(M).K

    def test_monodromy_records_the_line(self):
        # the user's line, integrated as a custom potential, gives the same trace
        spec = inv.specs(M, BETA)[("assoc", 2, 1, "partner")]
        user = pot.CustomPotential(pot.compiled_value_fn(spec), spec.period)
        r, u = flq.monodromy(spec, 1.5), flq.monodromy(user, 1.5)
        assert r.integration_beta == flq.integration_beta(spec) != BETA
        assert u.integration_beta is None
        assert abs(r.discriminant - u.discriminant) < 1e-8
        assert r.stats.steps < u.stats.steps


class TestDefaults:
    def test_default_energy_range_brackets_edges(self):
        spec = _a1_spec()
        lo, hi = flq.default_energy_range(spec)
        assert lo <= 0.0 and hi >= 1.0

    @pytest.mark.parametrize("spec", [
        # the b(b+1) m term: the top edge, 8.8214, lay above the 8.600 that
        # max V + a(a+1) m + 5 gives
        pot.AssociatedLame(2, 1, 0.3),
        # the user's line passes 0.05 from the sn poles, where Re V reaches
        # ~600; on the integration line it stays O(10)
        _a3_spec(0.75, 0.05),
    ], ids=["real-assoc21-m0.3", "a3-pt-beta0.05"])
    def test_default_range_holds_the_closed_form_edges(self, spec):
        lo, hi = flq.default_energy_range(spec)
        es = [e for e, _ in spc.predicted_edges(spec)]
        assert lo <= min(es) and max(es) <= hi and hi - lo < 40.0

    def test_integration_failure_reports(self):
        blower = pot.CustomPotential(lambda z: 1.0 / (z.real - 0.5 if abs(z.real - 0.5) > 1e-14 else 1e-14) ** 2, 1.0)
        with pytest.raises(flq.FloquetIntegrationError):
            flq.monodromy(blower, 1.0)

    def test_step_budget_reports(self, monkeypatch):
        monkeypatch.setattr(flq, "_MAX_STEPS", 10)
        with pytest.raises(flq.FloquetIntegrationError, match="step budget of 10"):
            flq.monodromy(_a1_spec(), 0.4)
