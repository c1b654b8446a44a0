"""Numerical Floquet oracle for complex periodic Schrodinger operators.

Integrates -psi'' + V(x) psi = E psi with an adaptive embedded Runge-Kutta
scheme (DOP853 at ``RTOL`` / ``ATOL``, :func:`solve_ivp`), builds the 2x2
transfer matrix M over one period, and derives everything band-structural
from it: the discriminant Delta(E) = tr M, band-edge locations (Delta = +/-2,
roots of det(M -+ I)) with their periodicity classes, and the numeric
dispersion arccos(Delta/2)/L.  The engine is deliberately independent of
every closed form in the package so it can serve as the cross-check oracle.

Every spec with a Jacobi-function form has V(-x) = conj V(x) on its
integration line, so it is integrated over half a period and the period's
matrix is built from that symmetry (Magnus & Winkler, *Hill's Equation*,
1966, for even V); its Delta is real by construction.  Delta is real at
real E for every PT-symmetric periodic V, PT symmetry broken or not (Bender,
Dunne & Meisinger, Phys. Lett. A 252 (1999) 272), so |Im Delta| only ever
measures integration error; it can be nonzero only for a custom potential,
which declares no symmetry and is integrated over the whole period.

A PT spec is integrated on the line i x + beta* that lies farthest from the
poles of V (:func:`integration_beta`), not on the user's line.  Every
solution of the integer-a Lame equation is meromorphic (the Picard property,
which SUSY partners keep), so the monodromy along any vertical line one
period long is conjugate to the one on the user's line and Delta(E) does
not depend on beta; away from the poles the integrator takes fewer steps
and keeps det M = 1 to more digits.  The line depends only on where V has
poles; no closed-form energy enters the engine.  V is real on the real axis
and on Re u = K, the line of plain PT Lame and its a = 1 and a = 3 partners;
there the batches integrate float64 states, elsewhere complex128 ones.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import elliptic as ell
from . import potentials

__all__ = [
    "RTOL",
    "ATOL",
    "FloquetIntegrationError",
    "IntegratorStats",
    "MonodromyResult",
    "ScanResult",
    "NumericBandEdge",
    "integration_beta",
    "monodromy",
    "discriminants",
    "discriminant_scan",
    "find_band_edges",
    "simple_edge_count",
    "dispersion_numeric",
    "default_energy_range",
]

# integrator tolerances of every integration, find_band_edges' included
RTOL = 1e-12
ATOL = 1e-14
_DET_TOL = 1e-9
_IM_FLAG_TOL = 1e-6
# Limits of one integration, over half a period or a whole one.  On the
# benchmark's edges and scan draws (m in [0.05, 0.95], beta in [0.05, 1.5])
# an integration takes at most 57 steps, none shorter than 1.4e-4 of the
# period; in the test suite, at most 312 steps, none shorter than 1.6e-5 of
# it (a custom potential on a user's line 1e-3 from the poles).  A pole on
# the line collapses the step size within a few hundred steps, but DOP853
# itself gives up only ~1e5 steps later, when the step reaches the spacing
# of floating-point numbers.
_MAX_STEPS = 20000
_MIN_STEP = 1e-10  # fraction of the period
# find_band_edges: Chebyshev points per energy piece, and the tolerances of
# its interpolant: the last 3 coefficients of Re Delta, Re M12 and M21 within
# _TAIL_RTOL of the largest, and within _TAIL_ATOL wherever Delta -+ 2 has a
# root near the piece; no piece narrower than _MIN_PIECE of the range.  A
# real root of Re M12 is a closed gap where |Delta -+ 2| and |M21| are within
# _CLOSED_TOL, as M = +/-I there (see NumericBandEdge); it claims the two
# roots of its Delta -+ 2 column nearest it, the pair of a double root.
_CHEB = 65
_TAIL_RTOL = 1e-13
_TAIL_ATOL = 1e-10
_MIN_PIECE = 1e-6
_CLOSED_TOL = 1e-6
# energies per integration batch.  A batch takes about as many steps as one
# energy, so its cost is mostly per-step overhead; 1800 would save little
# more per energy and hold several MB more of solver state.
_CHUNK = 800


class FloquetIntegrationError(RuntimeError):
    """Integrator failure; usually signals a pole on the integration line."""


@dataclass(frozen=True)
class IntegratorStats:
    steps: int
    nfev: int
    det_defect: float


@dataclass(frozen=True)
class MonodromyResult:
    """Transfer matrix over one period at energy E.

    ``M`` maps (psi, psi') at 0 to (psi, psi') at L in the canonical basis
    on the line the spec was integrated on, i x + ``integration_beta`` (the
    real axis when None); det M = 1 up to integration error and
    ``discriminant`` is its trace.  ``stats.det_defect`` is the defect that
    was checked: |det A - 1| of the half-period matrix A for a spec with a
    Jacobi-function form, whose trace is then real by construction, and
    |det M - 1| for a custom potential, whose trace carries integration
    error in its imaginary part.
    """

    E: float
    M: np.ndarray
    discriminant: complex
    stats: IntegratorStats
    integration_beta: float | None


@dataclass(frozen=True)
class NumericBandEdge:
    """Band edge located by the discriminant root finder.

    ``multiplicity`` 2 marks a tangential root (closed gap): the discriminant
    touches +/-2 without crossing, so the point is a doubly degenerate
    periodic/antiperiodic eigenvalue rather than the border of an open gap.
    There M = +/-I, so a closed gap is a simple root of M12, and its energy
    is as accurate as a simple edge's: about 1e-11, and to a few 1e-9
    beside the narrowest open gaps, where Delta is flat.  "Closed" means
    that, at that root, Delta is +/-2 and M21 is 0, each to 1e-6; at the 142
    closed gaps of the free particle, the registry specs and the real (2,1)
    potential up to E = 40, |M21| is at most 3.5e-11 there.  It claims the
    double root of Delta -+ 2 that noise splits, up to 2.4e-5 apart on (4,1)
    at m = 0.75, into a real or complex pair.  M21 there
    tracks the gap's width, so an open gap 1.1e-6 wide or wider is found
    open, and a narrower one may be reported closed.  Beyond a = 3 an open
    gap up to 1.0e-5 wide may also be missed, and edges beside a gap up to
    2.5e-4 wide were found up to 3.1e-6 off.
    """

    energy: float
    period_class: str
    discriminant: complex
    multiplicity: int = 1


@dataclass(frozen=True)
class ScanResult:
    """Delta on an energy grid.  ``det_defects`` are the checked Wronskian
    defects (see :class:`MonodromyResult`); ``im_flags`` marks |Im Delta| >
    1e-6, which is integration error on a custom potential and never set
    for the others, whose Delta is real by construction."""

    energies: np.ndarray
    discriminants: np.ndarray
    det_defects: np.ndarray
    im_flags: np.ndarray


# DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*, 2nd ed., 1993, Sec.
# II.10, the coefficients of their dop853.f): stage nodes _C, stage weights
# _A (row s combines stages 0..s-1), 8th-order weights _B, and the weights of
# the 5th- and 3rd-order error estimates _E5 and _E3 over stages 0..12
# (stage 12 is the derivative at the new point).
_C = (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0)
_A = [np.array(row) for row in (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)]
_B = np.array((5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
               1.89151789931450038304281599044, -5.8012039600105847814672114227,
               3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
               2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2))
_E5 = np.array((0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
                -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
                -0.3503288487499736816886487290, 0.3341791187130174790297318841,
                0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0))
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1)
# step control: the error is O(h^8), so factors are error_norm^(-1/8)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0


@dataclass(frozen=True)
class _Solution:
    """One :func:`solve_ivp` run: ``y`` is the state at the end point,
    ``nfev`` its RHS calls and ``steps`` its accepted steps."""

    y: np.ndarray
    nfev: int
    steps: int


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def solve_ivp(fun, t_span, y0, *, period) -> _Solution:
    """Integrate y' = fun(t, y) from t0 to t1 > t0 (``t_span``) by DOP853 at
    rtol = ``RTOL`` and atol = ``ATOL``, keeping only the end point.

    ``fun(t, y, out=None)`` returns y', written into ``out`` when one is
    given: each stage writes straight into the solver's stage array, which
    ``fun`` must not keep.  Called with two arguments it returns a new
    array, so scipy can drive the same function.  The state has ``y0``'s
    dtype throughout, float64 or complex128.

    Step control is that of scipy's ``solve_ivp(method="DOP853")``: the
    initial step of Hairer et al. Sec. II.4, an RMS error norm that combines
    the 5th- and 3rd-order estimates (Sec. II.10), new steps 0.9 norm^(-1/8)
    times the last, kept in [0.2, 10] and at most 1 after a rejection.  So
    the steps and the end point are scipy's bit for bit.  There is no dense
    output.  Raises :class:`FloquetIntegrationError` after ``_MAX_STEPS``
    steps, or once a step, tried or proposed, is not finite or falls below
    ``_MIN_STEP`` of ``period``, whether the span is the whole period or half
    of it; that floor lies far above scipy's own, 10 spacings of
    floating-point numbers.
    """
    t, t1 = map(float, t_span)
    y = np.asarray(y0)
    # K[0] holds the derivative at the current point; K[12] the one at the
    # step's end, copied into K[0] when the step is accepted
    K = np.empty((13, y.size), dtype=y.dtype)
    z = np.empty_like(y)
    f = fun(t, y, K[0])
    # initial step
    scale = ATOL + np.abs(y) * RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, t1 - t)
    nfev = 2

    h_floor = _MIN_STEP * period
    span = "half a" if t1 - t < period else "one"
    steps = 0
    while t != t1:
        steps += 1
        rejected = False
        while True:
            if steps > _MAX_STEPS or not h_abs >= h_floor:
                reason = (f"step budget of {_MAX_STEPS} exhausted" if steps > _MAX_STEPS
                          else f"step size fell below {_MIN_STEP:g} of the period or is not finite")
                raise FloquetIntegrationError(
                    f"integration failed over {span} period ({reason}); a pole on or near the integration line?"
                )
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            for s in range(1, 12):
                np.dot(_A[s], K[:s], out=z)
                z *= h
                z += y
                fun(t + _C[s] * h, z, K[s])
            y_new = y + h * np.dot(K[:12].T, _B)
            fun(t_new, y_new, K[12])
            nfev += 12
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            err5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
            err = 0.0 if err5 == 0 and err3 == 0 else h * err5 / np.sqrt((err5 + 0.01 * err3) * scale.size)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_EXPONENT)
            rejected = True
        t, y = t_new, y_new
        K[0] = K[12]
    return _Solution(y, nfev, steps)


def integration_beta(spec) -> float | None:
    """The beta* of the line i x + beta* a PT spec is integrated on, None for
    a spec integrated on the real axis (a real or custom one).

    beta* is the real part in (0, 2K) farthest, mod 2K, from the real parts
    of the poles of V (:func:`potentials.pole_lines`), so the whole line keeps
    that distance from every pole.  Computed once per spec, on first use.
    """
    return _line(spec)[1]


@functools.lru_cache(maxsize=256)
def _line(spec):
    """(spec to integrate, its beta*, whether V is real on that line), once
    per spec.  V, even and 2K-periodic in its Jacobi argument u with real
    coefficients, has V(K + i x) = V(K - i x) = conj V(K + i x), so it is
    real on Re u = K; beta* is K exactly when every pole lies on Re u = 0."""
    form = potentials.normal_form(spec)
    if form.beta is None:
        return spec, None, form.kind != "custom"
    two_k = 2.0 * ell.modulus(form.m).K
    ends = sorted({x % two_k for r in potentials.pole_lines(form.poles, form.m) for x in (r, -r)})
    gaps = [(hi - lo, 0.5 * (lo + hi) % two_k) for lo, hi in zip(ends, ends[1:] + [ends[0] + two_k])]
    # x -> -x maps the gaps onto themselves, so each has a mirror twin as wide
    # up to rounding; of the two, the one centred in [0, K] is chosen
    slack = 1e-12 * two_k
    beta = max(g for g in gaps if (g[1] + slack) % two_k <= 0.5 * two_k + 2.0 * slack)[1]
    return potentials.on_line(spec, beta), beta, beta == 0.5 * two_k


def _propagate(spec, energies):
    """Transfer matrices over one period, based at x = 0, and Delta -+ 2 at
    any number of energies, on the spec's integration line
    (:func:`integration_beta`), integrated in batches of ``_CHUNK``.

    The ODE is linear and the potential is shared across a batch, so the
    right-hand side evaluates V once per stage regardless of batch size,
    writing y' into the stage array :func:`solve_ivp` hands it.
    A spec with a Jacobi-function form has V(-x) = conj V(x) on its line
    (real and even on the real axis, PT-invariant on i x + beta), so at real
    E conj psi(-x) solves the equation whenever psi(x) does.  It is
    integrated over [0, L/2] alone: with A = [[a, b], [c, d]] there and
    sigma = diag(1, -1), M = S^-1 A with S = sigma conj(A) sigma, so M =
    [[conj d, conj b], [conj c, conj a]] A.  Where :func:`_line` finds V real
    (the real axis, where its imaginary part is exactly 0.0, and the PT line
    Re u = K, where it is rounding) the batch integrates V.real, and the
    state, and A, is float64; on any other PT line it is complex128.  A custom
    potential is integrated over [0, L] in complex128, with A = M and S = I;
    M is complex either way.  As det M = 1, Delta -+ 2 = -+det(A -+ S) / det S.
    The columns returned drop 1 / det S, which moves no root; on half a
    period they are 4 (Im a Im d + Re b Re c) and 4 (Re a Re d + Im b Im c)
    (4 b c and 4 a d where A is real), with no trace less 2 to limit them
    beside a narrow gap.  Each batch is Wronskian checked (det = 1) on the
    matrix integrated, as soon as it finishes; det M = |det A|^2 would miss a
    drift of det A's phase.  det - 1 is a difference of products of the
    entries, so far below the spectrum (entries ~ exp(sqrt(V-E) L)) it
    carries an unavoidable cancellation error ~ |entries|^2 eps; the test
    scales with that.  Raises :class:`FloquetIntegrationError` naming the
    first energy that fails.  Returns the matrices, the columns (Delta - 2,
    Delta + 2), the checked defects |det - 1| and the integrator stats:
    steps and RHS calls summed over the batches, the largest defect.
    """
    line, _, real = _line(spec)
    f = potentials.compiled_value_fn(line)
    L = line.period
    half = potentials.normal_form(spec).kind != "custom"
    dtype = float if real else complex
    end = 0.5 * L if half else L
    energies = np.asarray(energies, dtype=float)
    ms = np.empty((energies.size, 2, 2), dtype=complex)
    gaps = np.empty((energies.size, 2), dtype=complex)
    defects = np.empty(energies.size)
    steps = nfev = 0
    for lo in range(0, energies.size, _CHUNK):
        EE = np.repeat(energies[lo : lo + _CHUNK].astype(dtype), 2)
        n2 = EE.size
        y0 = np.zeros(2 * n2, dtype=dtype)
        y0[0:n2:2] = 1.0  # psi_a(0) = 1
        y0[n2 + 1 :: 2] = 1.0  # psi_b'(0) = 1

        def rhs(x, y, out=None):
            v = f(x)
            out = np.empty_like(y) if out is None else out
            out[:n2] = y[n2:]
            np.multiply((v.real if real else v) - EE, y[:n2], out=out[n2:])
            return out

        # an overflowing or non-finite batch fails the NaN-safe checks below,
        # which name the energy; numpy's warnings would only precede them
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(rhs, (0.0, end), y0, period=L)
            y = sol.y
            a, b, c, d = y[0:n2:2], y[1:n2:2], y[n2::2], y[n2 + 1 :: 2]
            det = np.abs(a * d - b * c - 1.0)
            scale = np.maximum(1.0, np.max(np.abs([a, b, c, d]), axis=0))
            bad = np.flatnonzero(~(det <= _DET_TOL * scale**2))
        steps += sol.steps
        nfev += sol.nfev
        defects[lo : lo + _CHUNK] = det
        if bad.size:
            i = bad[0]
            raise FloquetIntegrationError(f"Wronskian drift |det - 1| = {det[i]:.3e} at E={float(energies[lo + i])}")
        sa, sb, sc, sd = (a.conj(), -b.conj(), -c.conj(), d.conj()) if half else (1.0, 0.0, 0.0, 1.0)
        gaps[lo : lo + _CHUNK, 0] = (b - sb) * (c - sc) - (a - sa) * (d - sd)
        gaps[lo : lo + _CHUNK, 1] = (a + sa) * (d + sd) - (b + sb) * (c + sc)
        if half:
            # the product's diagonal entries are conjugates and its off-diagonal
            # ones real; written so, the trace is real to the last bit
            p = d.conj() * a + b.conj() * c
            a, b, c, d = p, 2.0 * (b * d.conj()).real, 2.0 * (a * c.conj()).real, p.conj()
        batch = ms[lo : lo + _CHUNK]
        batch[:, 0, 0], batch[:, 0, 1], batch[:, 1, 0], batch[:, 1, 1] = a, b, c, d
    return ms, gaps, defects, IntegratorStats(steps=steps, nfev=nfev, det_defect=float(defects.max(initial=0.0)))


def monodromy(spec, E: float) -> MonodromyResult:
    """Monodromy matrix of the spec at one energy.

    Raises :class:`FloquetIntegrationError` when Wronskian conservation (det
    = 1 of the integrated matrix) is violated beyond 1e-9 (scaled by the
    square of its largest entry), which would poison every downstream
    tolerance.
    """
    ms, _, _, stats = _propagate(spec, [E])
    M = ms[0]
    return MonodromyResult(float(E), M, M[0, 0] + M[1, 1], stats, integration_beta(spec))


def discriminants(spec, energies) -> np.ndarray:
    """Delta at each of ``energies``, integrated in batches of ``_CHUNK``.

    Every batch is Wronskian checked as :func:`monodromy` is; raises
    :class:`FloquetIntegrationError` naming the first energy that fails.
    """
    return np.trace(_propagate(spec, energies)[0], axis1=1, axis2=2)


def discriminant_scan(spec, e_min: float, e_max: float, n: int) -> ScanResult:
    """Discriminant over a uniform energy grid, Wronskian checked as
    :func:`discriminants` is.

    Samples with |Im Delta| beyond 1e-6 are flagged.  Delta is real at real
    E for any PT-symmetric periodic V, PT symmetry broken or not, so a flag
    measures integration error.  A spec with a Jacobi-function form is
    integrated by its symmetry and its Delta is real by construction, so its
    flags are zero; only a custom potential, integrated over the whole
    period, can raise one.
    """
    if not e_min < e_max:
        raise ValueError("e_min must be below e_max")
    if n < 2:
        raise ValueError("need at least two samples")
    grid = np.linspace(e_min, e_max, n)
    ms, _, defects, _ = _propagate(spec, grid)
    deltas = ms[:, 0, 0] + ms[:, 1, 1]
    return ScanResult(grid, deltas, defects, np.abs(deltas.imag) > _IM_FLAG_TOL)


def _coefficients(values):
    """Chebyshev coefficients, along axis 0, of the polynomials through
    ``values`` at the points cos(pi j / (n - 1)), j = 0..n-1: a DCT, done as
    the FFT of the even extension."""
    n = values.shape[0]
    c = np.fft.fft(np.concatenate([values, values[-2:0:-1]]), axis=0)[:n] / (n - 1)
    c[[0, -1]] /= 2.0
    return c


def _near(r):
    """Which roots r of a Chebyshev series lie near [-1, 1]: inside the
    Bernstein ellipse of parameter 1.25, well inside the ellipse where the
    roots of rounding and integration noise lie.  A real root is inside it
    where |r| < (1.25 + 1/1.25)/2 = 1.025."""
    return np.abs(r + np.sqrt(r - 1.0 + 0j) * np.sqrt(r + 1.0 + 0j)) < 1.25


def find_band_edges(spec, e_min: float, e_max: float) -> list[NumericBandEdge]:
    """Locate all discriminant roots Delta = +/-2 in [e_min, e_max] from a
    Chebyshev interpolant of the monodromy.

    Delta, M12 and M21 are entire in E, so on an energy piece a short
    Chebyshev series resolves them (Trefethen, *Approximation Theory and
    Approximation Practice*, 2013).  Each round samples every pending piece
    at ``_CHEB`` Chebyshev points, all in one batched, Wronskian-checked
    integration, and halves each piece whose series is not resolved (see
    the constants); a piece narrower than ``_MIN_PIECE`` of the range raises
    :class:`FloquetIntegrationError`, naming the series and its tail.  Simple
    edges are the real roots of :func:`_propagate`'s Delta -+ 2 columns,
    found as the eigenvalues of a colleague matrix (Boyd, SIAM J. Numer.
    Anal. 40 (2002) 1666), each reported with the interpolant's Delta.  A
    closed gap is M = +/-I: a real root of Re M12 where Delta is +/-2 and
    M21 is 0, both to ``_CLOSED_TOL``; it takes the two roots of its class's
    column nearest it, real or complex, before the real roots left become
    simple edges, also where it lies just past the piece (:func:`_near`).
    V is sampled only inside the integrations.  A warning is issued when
    fewer than the 2a+1 simple edges of a recognized base family are found:
    the range is too small, or a narrow open gap was reported closed.
    """
    if not e_min < e_max:
        raise ValueError("e_min must be below e_max")
    cheb = np.polynomial.chebyshev
    x = np.cos(np.pi * np.arange(_CHEB) / (_CHEB - 1))
    pending, edges = [(e_min, e_max)], []
    while pending:
        es = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * x for a, b in pending])
        ms, gaps = _propagate(spec, es)[:2]
        cols = np.column_stack([ms[:, 0, 0] + ms[:, 1, 1], ms[:, 0, 1], ms[:, 1, 0], gaps])
        cs = _coefficients(cols.reshape(len(pending), _CHEB, 5).transpose(1, 0, 2))
        split = []
        for (a, b), (cd, c12, c21, cm, cp) in zip(pending, cs.transpose(1, 2, 0)):
            roots = {"P": cheb.chebroots(cm.real), "A": cheb.chebroots(cp.real)}
            atol = _TAIL_ATOL if any(_near(r).any() for r in roots.values()) else math.inf
            missed = []
            for name, c in (("Delta", cd.real), ("M12", c12.real), ("M21", c21)):
                tail, bound = np.abs(c[-3:]).max(), min(_TAIL_RTOL * np.abs(c).max(), atol)
                if not tail <= bound:
                    missed.append(f"{name}'s last 3 coefficients reach {tail:.2g}, above {bound:.2g}")
            if missed:
                if b - a < _MIN_PIECE * (e_max - e_min):
                    raise FloquetIntegrationError(f"series not resolved on [{a}, {b}]: {'; '.join(missed)}")
                split += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
                continue
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            # a closed gap claims its double root, split by noise, also from a
            # piece it lies just past the end of; only a piece it lies on reports it
            r12 = cheb.chebroots(c12.real)
            for r in r12.real[_near(r12) & (r12.imag == 0.0)]:
                d = complex(cheb.chebval(r, cd))
                if abs(abs(d.real) - 2.0) <= _CLOSED_TOL and abs(cheb.chebval(r, c21)) <= _CLOSED_TOL:
                    cls = "P" if d.real > 0 else "A"
                    roots[cls] = np.delete(roots[cls], np.argsort(np.abs(roots[cls] - r))[:2])
                    if abs(r) <= 1.0 + 1e-10:
                        edges.append(NumericBandEdge(float(mid + half * r), cls, d, 2))
            edges += [NumericBandEdge(float(mid + half * r), cls, complex(cheb.chebval(r, cd)))
                      for cls, rs in roots.items()
                      for r in rs.real[(rs.imag == 0.0) & (np.abs(rs.real) <= 1.0 + 1e-10)]]
        pending = split

    # a root on the end two pieces share is found in both
    found = []
    for e in edges:
        if not any(f.period_class == e.period_class and abs(f.energy - e.energy) <= 1e-9 * max(1.0, abs(e.energy))
                   for f in found):
            found.append(e)
    found.sort(key=lambda e: e.energy)
    expected = simple_edge_count(spec)
    simple = sum(1 for e in found if e.multiplicity == 1)
    if expected is not None and simple < expected:
        warnings.warn(
            f"found {simple} simple band edges but the base family has {expected} "
            f"(closed gaps found: {len(found) - simple}): the energy range is probably too small, "
            "or a narrow open gap was reported closed",
            stacklevel=2,
        )
    return found


def simple_edge_count(spec) -> int | None:
    """2a + 1, the simple band edges of a spec whose base family has a >= 1:
    the (a, b) associated Lame potential is finite-gap, with a open gaps
    (closed gaps are the other edges); None for a = 0 and a custom potential."""
    a = potentials.normal_form(spec).a  # 0 for a custom potential
    return 2 * a + 1 if a >= 1 else None


def dispersion_numeric(spec, energies) -> np.ndarray:
    """Bloch wavenumbers k = arccos(Delta/2)/L at each of ``energies``, from
    one :func:`discriminants` call.

    Inside bands k is real in [0, pi/L]; inside gaps the imaginary part
    arccosh(|Delta|/2)/L gives the evanescent attenuation (Im k > 0 by
    convention).  Where the discriminant sits within 1e-9 of +/-2 the
    energy is a band edge to integration accuracy and k is snapped to the
    exact zone center/boundary; arccos would otherwise amplify the
    discriminant error by a square root.
    """
    L = spec.period
    delta = discriminants(spec, energies)
    k = np.arccos(delta / 2.0) / L  # Re arccos lies in [0, pi]
    k.imag = np.abs(k.imag)
    real = np.abs(delta.imag) < 1e-9
    k[real & (np.abs(delta.real - 2.0) < 1e-9)] = 0.0
    k[real & (np.abs(delta.real + 2.0) < 1e-9)] = math.pi / L
    return k


def default_energy_range(spec) -> tuple[float, float]:
    """Heuristic edge-bracketing range: [-1, max Re V + (a(a+1) + b(b+1)) m
    + ((a+b) pi/L)^2 + 5], with max Re V sampled on the integration line
    (:func:`integration_beta`; Delta, and so every edge, is the same on every
    line, but V near a pole of the user's line is not) and a = b = 0 for a
    custom potential."""
    f = potentials.compiled_value_fn(_line(spec)[0])
    vmax = float(np.max(f(np.linspace(0.0, spec.period, 129, endpoint=False)).real))
    form = potentials.normal_form(spec)
    if form.m is None:
        return (-1.0, vmax + 5.0)
    a, b = form.a, form.b
    return (-1.0, vmax + (a * (a + 1) + b * (b + 1)) * form.m + ((a + b) * math.pi / spec.period) ** 2 + 5.0)
