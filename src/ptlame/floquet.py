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
which declares no symmetry and is integrated over the whole period.  The
half period is integrated from both ends to its midpoint in one batch, in
about half the steps of one pass: V at the far end, L/2 - x, comes from the
Landen pass of V at x by the quarter-period reflection (DLMF §22.4(iii)),
one evaluator call a stage.

A PT spec is integrated on the line i x + beta* that lies farthest from the
poles of V (:func:`integration_beta`), not on the user's line.  Every
solution of the integer-a Lame equation is meromorphic (the Picard property,
which SUSY partners keep), so the monodromy along any vertical line one
period long is conjugate to the one on the user's line and Delta(E) does
not depend on beta; away from the poles the integrator takes fewer steps
and keeps det M = 1 to more digits.  The line depends only on where V has
poles; no closed-form energy enters the engine.  V is real on the real axis
and on Re u = K, exactly so as evaluated (:func:`elliptic.line_jacobi` takes
Re u = K by the quarter-period shift, whose sn is real), the line of plain PT
Lame and its a = 1 and a = 3 partners, whose widest pole gap is the one about
K; there the batches integrate float64 states, elsewhere complex128 ones.  A
paired scan's PT Lame(a, m) there and its modulus dual Lame(a, 1 - m) on the
real axis read one shared Landen pass a stage, for both ends, whenever
1 - fl(1 - m) == m.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import NamedTuple

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
    "discriminant_scans",
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
# Limits of one integration, from both ends of half a period or from 0 over
# a whole one.  On the benchmark's edges and scan draws (m in [0.05, 0.95],
# beta in [0.05, 1.5]) an integration that passes its Wronskian check takes
# at most 34 steps, none shorter than 2.1e-4 of the period; in the test
# suite, at most 225 steps (a custom potential over a whole period), none
# shorter than 2.3e-5 of it (one on a user's line 1e-3 from the poles).  A
# pole on the line collapses the step size within a few hundred steps, but
# DOP853 itself gives up only ~1e5 steps later, when the step reaches the
# spacing of floating-point numbers.
_MAX_STEPS = 20000
_MIN_STEP = 1e-10  # fraction of the period
# points per Chebyshev series (a find_band_edges piece, a scan range) and the
# nodes cos(pi j / 64); find_band_edges' absolute tail bound (_unresolved) on
# a piece with an edge; narrowest piece, of the range; R's bound where M = +/-I.
_CHEB = 65
_NODES = np.cos(np.pi * np.arange(_CHEB) / (_CHEB - 1))
_TAIL_ATOL = 1e-10
_MIN_PIECE = 1e-6
_CLOSED_TOL = 1e-8
# energies per integration batch.  A batch takes about as many steps as one
# energy, so its cost is mostly per-step overhead; 1800 would save little
# more per energy and hold several MB more of solver state.
_CHUNK = 800


class FloquetIntegrationError(RuntimeError):
    """Integrator failure, naming the spec; a pole on or near the integration
    line, or an energy too high for the step budget, is the usual cause."""


class IntegratorStats(NamedTuple):
    steps: int
    nfev: int
    det_defect: float


class MonodromyResult(NamedTuple):
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


class NumericBandEdge(NamedTuple):
    """Band edge located by :func:`find_band_edges`.

    ``multiplicity`` 2 marks a closed gap: Delta touches +/-2 without
    crossing, a doubly degenerate periodic or antiperiodic eigenvalue.
    There M = +/-I, so R = 0 (see :func:`_propagate`), a double eigenvalue of
    R(E), as accurate as a simple edge.  "Closed" means every entry of R
    within 1e-8 of 0 between the pair; at the 78 closed gaps of the free
    particle, the registry specs and the real (2,1) potential up to E = 40,
    max |R| is at most 2.2e-10.  Open gaps 1.2e-7 wide or wider were found
    open wherever measured; a narrower one may be reported closed (a 2.1e-8
    P gap of PT a=6 at m = 0.9 is).
    """

    energy: float
    period_class: str
    discriminant: complex
    multiplicity: int = 1


class ScanResult(NamedTuple):
    """Delta on an energy grid.  ``det_defects`` are the checked Wronskian
    defects (see :class:`MonodromyResult`) of the energies integrated for
    this grid, in the order :func:`discriminant_scans` integrates them, not
    one per grid energy.  ``im_flags`` marks |Im Delta| > 1e-6 on the grid,
    which is integration error on a custom potential and never set for the
    others, whose Delta is real by construction."""

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


class _Solution(NamedTuple):
    """One :func:`solve_ivp` run: ``y`` is the state at the end point,
    ``nfev`` its RHS calls and ``steps`` its accepted steps."""

    y: np.ndarray
    nfev: int
    steps: int


def _norm(x):
    """``np.linalg.norm(x)`` of a 1-D float64 or complex128 array, computed as
    numpy computes it, the root of a dot product (of the real and imaginary
    parts apart for complex x), without its Python layer.  A numpy float, so
    that its square overflows to inf, as in numpy, not to an error."""
    if x.dtype == complex:
        re, im = x.real, x.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(x.dot(x))


def _rms(x):
    return float(_norm(x)) / x.size**0.5


def solve_ivp(v, t_span, y0, *, energies, period) -> _Solution:
    """Integrate the batch psi'' = (V(x) - E) psi from t0 to t1 > t0
    (``t_span``) by DOP853 at rtol = ``RTOL`` and atol = ``ATOL``, keeping
    only the end point; a two-ended batch integrates a span s from both ends
    to its midpoint, t1 - t0 = s/2.

    ``y0`` holds (psi, psi') of every solution of the batch: n values of psi,
    then their n derivatives, float64 or complex128, a dtype the state keeps
    throughout.  The n rows come in blocks: the forward block of every spec,
    in order, and in a two-ended batch then their backward blocks in the same
    order.  ``energies`` holds each spec's E, one per row of one of its
    blocks, so their sizes add up to n, or n/2 in a two-ended batch.  ``v``
    holds one evaluator per spec: x -> V(x) at a float, or x -> (V(x), V(s -
    x)) in a two-ended batch, where a forward block integrates psi on V(x)
    and a backward block phi(t) = psi(s - t) on V(s - t).  Each evaluator is
    called once per right-hand side, so ``nfev`` times; a float64 state takes
    its real parts.  Each stage writes V - E block by block, then psi' and
    (V - E) psi straight into its row of the stage array, through views
    built once per call.

    Every floating-point operation is that of scipy's
    ``solve_ivp(method="DOP853")`` on the same right-hand side, in the same
    order: the initial step of Hairer et al. Sec. II.4, the stage states and
    the 8th-order update, an RMS error norm that combines the 5th- and
    3rd-order estimates (Sec. II.10), each norm taken as ``np.linalg.norm``
    takes it, and new steps 0.9 norm^(-1/8) times the last, kept in [0.2, 10]
    and at most 1 after a rejection.  So the steps and the end point are
    scipy's bit for bit, the blocks sharing them.  There is no dense output.
    Raises :class:`FloquetIntegrationError` after ``_MAX_STEPS`` steps, or
    once a step, tried or proposed, is not finite or falls below
    ``_MIN_STEP`` of ``period``, whether the span is the whole period or half
    of it; that floor lies far above scipy's own, 10 spacings of
    floating-point numbers.
    """
    t, t1 = map(float, t_span)
    y = np.array(y0)
    n, dtype = y.size // 2, y.dtype
    real = dtype != complex
    bounds = [0, *itertools.accumulate(e.size for e in energies)]
    rows = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # K[0] holds the derivative at the current point; K[12] the one at the
    # step's end, copied into K[0] when the step is accepted.  The weights
    # are cast to the state's dtype once, as np.dot would on every call
    K = np.empty((13, y.size), dtype=dtype)
    a, b, e5, e3 = [row.astype(dtype) for row in _A], _B.astype(dtype), _E5.astype(dtype), _E3.astype(dtype)
    stages, KT, K12T = [K[:s] for s in range(13)], K.T, K[:12].T
    dpsi, ddpsi = [row[:n] for row in K], [row[n:] for row in K]
    z, y_new, est = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    # the (psi, psi') halves of the three state buffers, swapped with them
    y_h, y_new_h, z_h = [(u[:n], u[n:]) for u in (y, y_new, z)]
    # V - E, written block by block: each spec's evaluator, E and the rows of
    # its forward block and of its backward block, None in a one-ended batch
    ve = np.empty(n, dtype=dtype)
    back = ve[bounds[-1] :]
    blocks = [(f, e, ve[r], back[r] if back.size else None) for f, e, r in zip(v, energies, rows)]
    # numpy's scalar operands (the step, V at a stage, RTOL and ATOL) as
    # reused 0-d arrays of the dtype numpy would convert them to, so every
    # product is the same, without a conversion per call
    h_op, v_op = np.empty((), dtype=dtype), np.empty((), dtype=dtype)
    rtol, atol = np.array(RTOL), np.array(ATOL)

    def deriv(x, halves, s):
        # row s of K: (psi', (V - E) psi) at x and the state of these halves,
        # each block's rows on its own end's potential
        psi, dpsi_state = halves
        for f, e, near, far in blocks:
            w = f(x)
            if far is not None:
                w, w_far = w
                v_op[()] = w_far.real if real else w_far
                np.subtract(v_op, e, far)
            v_op[()] = w.real if real else w
            np.subtract(v_op, e, near)
        dpsi[s][...] = dpsi_state
        np.multiply(ve, psi, ddpsi[s])

    deriv(t, y_h, 0)
    f = K[0]
    # initial step
    scale = ATOL + np.abs(y) * RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t)
    np.multiply(f, h0, out=z)
    z += y
    deriv(t + h0, z_h, 1)
    d2 = _rms((K[1] - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, t1 - t)
    nfev = 2

    # |y| is carried over from the accepted step
    abs_y, abs_new = np.abs(y), np.empty(y.size)
    h_floor = _MIN_STEP * period
    # the span integrated: t1 - t0 from each of the batch's one or two ends
    span = "half a" if n // bounds[-1] * (t1 - t) < period else "one"
    steps = 0
    while t != t1:
        steps += 1
        rejected = False
        while True:
            if steps > _MAX_STEPS or not h_abs >= h_floor:
                reason = (f"step budget of {_MAX_STEPS} exhausted" if steps > _MAX_STEPS
                          else f"step size fell below {_MIN_STEP:g} of the period or is not finite")
                hint = "an energy too high for the budget or a pole near" if steps > _MAX_STEPS else "a pole on or near"
                raise FloquetIntegrationError(
                    f"integration failed over {span} period ({reason}); {hint} the integration line?")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            h_op[()] = h
            for s in range(1, 12):
                np.dot(a[s], stages[s], out=z)
                z *= h_op
                z += y
                deriv(t + _C[s] * h, z_h, s)
            np.dot(K12T, b, out=y_new)
            y_new *= h_op
            y_new += y
            deriv(t_new, y_new_h, 12)
            nfev += 12
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            np.dot(KT, e5, out=est)
            est /= scale
            err5 = float(_norm(est) ** 2)
            np.dot(KT, e3, out=est)
            est /= scale
            err3 = float(_norm(est) ** 2)
            # Python floats from here on, so that t and h, and the x that V
            # takes, stay Python floats, with the same IEEE arithmetic; numpy's
            # root, so that 0/0 after an underflow is nan, as in scipy
            err = 0.0 if err5 == 0 and err3 == 0 else float(h * err5 / np.sqrt((err5 + 0.01 * err3) * scale.size))
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_EXPONENT)
            rejected = True
        t = t_new
        y, y_new, y_h, y_new_h, abs_y, abs_new = y_new, y, y_new_h, y_h, abs_new, abs_y
        K[0] = K[12]
    return _Solution(y, nfev, steps)


def integration_beta(spec) -> float | None:
    """The beta* of the line i x + beta* a PT spec is integrated on, None for
    a spec integrated on the real axis (a real or custom one).

    beta* is the real part in (0, K] farthest from the real parts r and 2K - r
    of the poles of V (:func:`potentials.pole_lines`), so the whole line keeps
    that distance from every pole.  Computed once per spec, on first use.
    """
    return _line(spec)[0]


@functools.lru_cache(maxsize=256)
def _line(spec):
    """(beta*, whether V is real on that line), once per spec; beta* is None
    on the real axis.  V, even and 2K-periodic in its Jacobi argument u with
    real coefficients, has V(K + i x) = V(K - i x) = conj V(K + i x), so it
    is real on Re u = K, and exactly so as evaluated there, from the real
    sn = 1/dn' of :func:`elliptic.line_jacobi`'s quarter-period shift.
    beta* is the centre of the widest gap between neighbouring pole lines r
    in [0, K], or K itself when the gap about K, 2(K - max r) wide, is widest."""
    if spec.beta is None:
        return None, spec.kind != "custom"
    k = ell.modulus(spec.m).K
    rs = sorted(potentials.pole_lines(spec.poles, spec.m))
    gaps = [(hi - lo, 0.5 * (lo + hi)) for lo, hi in zip(rs, rs[1:])] + [(2.0 * (k - rs[-1]), k)]
    beta = max(gaps)[1]
    return beta, beta == k


def _name(spec):
    """The spec as an error names it: its base family, its PT transform (with
    beta) and SUSY partner maps in the order they were applied, and the shift
    that lowers V."""
    base = "custom potential" if spec.kind == "custom" else f"{spec.kind}(a={spec.a}, b={spec.b}, m={spec.m})"
    name = base
    for op in spec.maps:
        if op == "partner":
            name = f"{name} with a SUSY partner map"
        else:
            name = f"PT {name if name == base else f'({name})'} at beta={spec.beta}"
    return name if spec.shift == 0.0 else f"{name}, {'lowered' if spec.shift > 0 else 'raised'} by {abs(spec.shift)}"


def _shared(specs):
    """Whether the specs can share :func:`_propagate`'s batches: the same
    float64 or complex128 state, half or whole period, and span to 1e-15
    relative."""
    s0 = specs[0]
    return all((s.kind != "custom") == (s0.kind != "custom") and _line(s)[1] == _line(s0)[1]
               and abs(s.period - s0.period) <= 1e-15 * s0.period for s in specs[1:])


def _propagate(spec, energies):
    """Transfer matrices over one period, based at x = 0, and R_P and R_A at
    any number of energies, on the spec's integration line
    (:func:`integration_beta`), integrated in batches of ``_CHUNK``.

    ``spec`` may be a list of specs, ``energies`` then one array per spec:
    the concatenated energies are integrated in shared batches, and the
    results concatenated.  The specs must share the dtype, the half or whole
    period and the span (to 1e-15 relative; the first spec's is taken), or
    :class:`ValueError` is raised.  The ODE is linear, so :func:`solve_ivp`
    takes a batch's energies and one evaluator per spec in it
    (``potentials.compiled_value_fn`` of the spec on beta*), each evaluated
    once per stage regardless of batch size.
    A spec with a Jacobi-function form has V(-x) = conj V(x) on its line
    (real and even on the real axis, PT-invariant on i x + beta), so at real
    E conj psi(-x) solves the equation whenever psi(x) does.  It is
    integrated over [0, s], s = L/2, alone: with A = [[a, b], [c, d]] there
    and sigma = diag(1, -1), M = S^-1 A with S = sigma conj(A) sigma, so M =
    [[conj d, conj b], [conj c, conj a]] A.  That span is integrated from
    both ends to s/2 in one batch, in about half the steps of one pass: T1
    maps (psi, psi')(0) to (psi, psi')(s/2), and T2, of phi(t) = psi(s - t),
    maps (psi, -psi')(s) to (psi, -psi')(s/2); as det T2 = 1, A = [[d2,
    b2], [c2, a2]] T1.  A stage's one evaluator call (``ends``) gives both
    ends' V, V(s - t) from the Landen pass of V(t) (see
    :func:`elliptic.jacobi_triple`).  Where :func:`_line` finds V real (the
    real axis and the PT line Re u = K, where its imaginary part is exactly
    0.0) the batch integrates V.real, and the state, and A, is float64; on
    any other PT line it is complex128.  A custom potential is integrated
    over [0, L] from 0 alone, in complex128, with A = M and S = I; M is
    complex either way.  Its transfer matrices may grow large near a pole
    while tr M stays O(1), and tr M composed from two ends' matrices then
    cancels: on the user's line of the a=3 PT partner at (0.05, 1.2), with
    entries up to 3e7, two ends doubled its error to 1e-6.  The real R_P =
    [[Im a, Re b], [-Re c, Im d]] and R_A = [[Re a, Im b], [-Im c, Re d]]
    have Delta - 2 = 4 det R_P and Delta + 2 = 4 det R_A, and R_P = 0 exactly
    where M = I, R_A = 0 where M = -I ([[0, b], [-c, 0]] and diag(a, d) on a
    real line); a custom potential takes R = M -+ I.  Each batch is
    Wronskian checked on A as soon as it finishes; det M = |det A|^2 would
    miss a drift of det A's phase.  det - 1 is a difference of products of
    the entries, so far below the spectrum (entries ~ exp(sqrt(V-E) L)) it
    carries an unavoidable cancellation error ~ |entries|^2 eps; the test
    scales with that.  Raises
    :class:`FloquetIntegrationError` naming the spec and the first energy
    that fails the check, or the batch's specs and energy range when
    :func:`solve_ivp` fails.  Returns the matrices, R (R_P, R_A) stacked on
    axis 1, the checked defects |det - 1| and the integrator stats: steps
    and RHS calls summed over the batches, the largest defect.
    """
    specs, groups = (spec, energies) if isinstance(spec, list) else ([spec], [energies])
    if not _shared(specs):
        raise ValueError(f"{' and '.join(map(_name, specs))}: the dtype, the half period or the span differs")
    L = specs[0].period
    half = specs[0].kind != "custom"
    fs = [potentials.compiled_value_fn(s, _line(s)[0], ends=half) for s in specs]
    dtype = float if _line(specs[0])[1] else complex
    end = 0.25 * L if half else L
    energies = np.concatenate([np.asarray(g, dtype=float) for g in groups])
    bounds = [0, *itertools.accumulate(len(g) for g in groups)]
    ms = np.empty((energies.size, 2, 2), dtype=complex)
    rs = np.empty((energies.size, 2, 2, 2))
    defects = np.empty(energies.size)
    steps = nfev = 0
    for lo in range(0, energies.size, _CHUNK):
        hi = min(lo + _CHUNK, energies.size)
        # the specs' blocks of this batch: (spec, evaluator, its energies, twice each)
        blocks = [(sp, f, np.repeat(energies[max(lo, s) : min(hi, e)].astype(dtype), 2))
                  for sp, f, s, e in zip(specs, fs, bounds, bounds[1:]) if max(lo, s) < min(hi, e)]
        n = (4 if half else 2) * (hi - lo)  # rows: two solutions per energy at each end
        y0 = np.zeros(2 * n, dtype=dtype)
        y0[0:n:2] = 1.0  # psi_a(0) = 1
        y0[n + 1 :: 2] = 1.0  # psi_b'(0) = 1

        # an overflowing or non-finite batch fails the NaN-safe checks below,
        # which name the energy; numpy's warnings would only precede them
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                sol = solve_ivp([f for _, f, _ in blocks], (0.0, end), y0, energies=[e for _, _, e in blocks], period=L)
            except FloquetIntegrationError as exc:
                raise FloquetIntegrationError(f"{' and '.join(_name(sp) for sp, _, _ in blocks)} at E in"
                                              f" [{energies[lo:hi].min()}, {energies[lo:hi].max()}]: {exc}") from exc
            y = sol.y
            a, b, c, d = y[0:n:2], y[1:n:2], y[n::2], y[n + 1 :: 2]
            if half:
                # T1's entries from the forward rows, T2's from the backward ones
                (a1, a2), (b1, b2), (c1, c2), (d1, d2) = (u.reshape(2, -1) for u in (a, b, c, d))
                a, b, c, d = d2 * a1 + b2 * c1, d2 * b1 + b2 * d1, c2 * a1 + a2 * c1, c2 * b1 + a2 * d1
            det = np.abs(a * d - b * c - 1.0)
            scale = np.maximum(1.0, np.max(np.abs([a, b, c, d]), axis=0))
            bad = np.flatnonzero(~(det <= _DET_TOL * scale**2))
        steps += sol.steps
        nfev += sol.nfev
        defects[lo:hi] = det
        if bad.size:
            i = lo + bad[0]
            raise FloquetIntegrationError(f"Wronskian drift of {_name(specs[bisect.bisect(bounds, i) - 1])}:"
                                          f" |det - 1| = {det[bad[0]]:.3e} at E={float(energies[i])}")
        if half:
            r = [[a.imag, b.real], [-c.real, d.imag]], [[a.real, b.imag], [-c.imag, d.real]]
            rs[lo:hi] = np.moveaxis(np.array(r), -1, 0)
            # the product's diagonal entries are conjugates and its off-diagonal
            # ones real; written so, the trace is real to the last bit
            p = d.conj() * a + b.conj() * c
            a, b, c, d = p, 2.0 * (b * d.conj()).real, 2.0 * (a * c.conj()).real, p.conj()
        batch = ms[lo:hi]
        batch[:, 0, 0], batch[:, 0, 1], batch[:, 1, 0], batch[:, 1, 1] = a, b, c, d
    if not half:
        rs = ms[:, None] + np.array([-1.0, 1.0])[:, None, None] * np.eye(2)
    return ms, rs, defects, IntegratorStats(steps=steps, nfev=nfev, det_defect=float(defects.max(initial=0.0)))


def monodromy(spec, E: float) -> MonodromyResult:
    """Monodromy matrix of the spec at one energy; raises
    :class:`FloquetIntegrationError` when det = 1 of the integrated matrix
    fails by more than 1e-9 times the square of its largest entry."""
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
    """Discriminant over a uniform grid of n energies in [e_min, e_max]: the
    one-range case of :func:`discriminant_scans`."""
    return discriminant_scans([(spec, e_min, e_max)], n)[0]


def discriminant_scans(ranges, n: int) -> list[ScanResult]:
    """Delta over a uniform grid of n energies of each (spec, e_min, e_max)
    of ``ranges``, one :class:`ScanResult` per range, Wronskian checked as
    :func:`discriminants` is, with |Im Delta| beyond 1e-6 flagged: only
    integration error on a custom potential can raise a flag.

    One shared :func:`_propagate` call integrates each range's samples: its
    grid for n <= ``_CHEB``, else the ``_CHEB`` Chebyshev points of [e_min,
    e_max].  Then each range in turn: for n <= ``_CHEB`` the samples are its
    Delta.  Otherwise Delta, entire in E (see :func:`find_band_edges`), is
    resolved by the points' series when its last 3 coefficients are within
    ``RTOL`` max(1, min |Delta| at the points): about ``RTOL`` absolute on a
    range that holds a band, relative far below the spectrum.  A resolved
    series is evaluated on the grid; samples with Im Delta all 0.0 (every
    spec but a custom one) give a real series, so Im Delta stays 0.0.  A
    range not resolved integrates its grid in a call of its own, and its
    defects are the points' and then the grid's.

    The specs must share an integration (see :func:`_propagate`), as PT
    Lame(a, m) and its modulus dual Lame(a, 1 - m) do, both over K(1 - m) in
    float64, or each range is scanned alone: below m ~ 0.01 the complement
    of fl(1 - m) is m only to ~1e-16/m, and the two periods may differ by
    more than 1e-15.  A batch of 65-point blocks costs about its steps, not
    its energies, so the shared points cost little more than one side's, and
    each side's Delta moves from its own scan's only by the shared step
    sequence.  A batch of 500-energy grids costs about its energies, so
    those are not shared: a shared one was no faster and moved Delta.
    """
    for _, e_min, e_max in ranges:
        if not -math.inf < e_min < e_max < math.inf:
            raise ValueError("e_min must be below e_max, both finite")
    if n < 2:
        raise ValueError("need at least two samples")
    if not ranges:
        return []
    specs = [spec for spec, _, _ in ranges]
    if not _shared(specs):
        return [discriminant_scan(*r, n) for r in ranges]
    grids = [np.linspace(e_min, e_max, n) for _, e_min, e_max in ranges]
    samples = grids if n <= _CHEB else [0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES for _, lo, hi in ranges]
    ms, _, d, _ = _propagate(specs, samples)
    traces, results = (ms[:, 0, 0] + ms[:, 1, 1]).reshape(len(ranges), -1), []
    for spec, grid, delta, defects in zip(specs, grids, traces, d.reshape(len(ranges), -1)):
        if n > _CHEB:
            values = delta if delta.imag.any() else delta.real
            c = _coefficients(values)
            if np.abs(c[-3:]).max() <= RTOL * max(1.0, np.abs(values).min()):
                delta = _clenshaw(np.linspace(-1.0, 1.0, n), c).astype(complex)
            else:
                mg, _, dg, _ = _propagate(spec, grid)
                delta, defects = mg[:, 0, 0] + mg[:, 1, 1], np.concatenate([defects, dg])
        results.append(ScanResult(grid, delta, defects, np.abs(delta.imag) > _IM_FLAG_TOL))
    return results


def _coefficients(values):
    """Chebyshev coefficients, along axis 0, of the polynomials through
    ``values`` at the points cos(pi j / (n - 1)), j = 0..n-1: a DCT, done as
    the FFT of the even extension; real for real ``values``."""
    n = values.shape[0]
    c = np.fft.fft(np.concatenate([values, values[-2:0:-1]]), axis=0)[:n] / (n - 1)
    c[[0, -1]] /= 2.0
    return c if np.iscomplexobj(values) else c.real


def _clenshaw(x, c):
    """sum_k c[k] T_k(x) at each of the real x (1-D) for 1-D coefficients
    ``c``, by Clenshaw's recurrence; real for real ``c``.  The scan's
    evaluator: :func:`_chebval`'s (n, k) complex table of T_k takes 1.2 ms
    for 500 energies and 65 terms, against 0.1 ms here."""
    b1 = b2 = np.zeros(x.size, dtype=c.dtype)
    x2 = 2.0 * x
    for ck in c[:0:-1]:
        b1, b2 = ck + x2 * b1 - b2, b1
    return c[0] + x * b1 - b2


def _unresolved(c, atol):
    """The entries of R whose series (axis 0 of ``c``) are not resolved: by
    the last 3 coefficients within ``RTOL`` of the largest and ``atol``,
    or a flat noise floor (max <= 30 median) from the 9th, <= 1e-10 of it."""
    mag = np.abs(c)
    tail, big, flat = mag[-3:].max(axis=0), mag.max(axis=0), np.sort(mag[8:], axis=0)
    bound = np.minimum(RTOL * big, atol)
    # the median of the 57 from the 9th on; np.median would import numpy.ma
    plateau = (flat[-1] <= 30.0 * flat[flat.shape[0] // 2]) & (flat[-1] <= 1e-10 * big)
    return [f"R_{'PA'[k]}[{i}, {j}]'s last 3 coefficients reach {tail[k, i, j]:.2g}, above {bound[k, i, j]:.2g}"
            for k, i, j in zip(*np.nonzero(~((tail <= bound) | plateau)))]


def _chebval(x, c):
    """sum_k c[k] T_k(x) at each of the real or complex x (1-D), as T_k(x) =
    cos(k arccos x): array expressions, not a Clenshaw loop over k."""
    t = np.cos(np.arccos(np.asarray(x, dtype=complex))[:, None] * np.arange(len(c)))
    return np.einsum("xk,k...->x...", t, c)


def _eigenvalues(c):
    """Eigenvalues x within 1e-6 of [-1, 1] of R(x) = sum_k c[k] T_k(x), 2x2,
    from its block colleague pencil (Amiraslani, Corless & Lancaster, IMA J.
    Numer. Anal. 29 (2009) 141): rows, then columns, scaled to largest
    coefficient 1, blocks below 1e-14 at the end dropped, and an exactly
    singular last block with them; then one secant step on det R, whose
    error does not grow with the largest coefficient."""
    b = c / np.abs(c).max(axis=(0, 2))[:, None]
    b /= np.abs(b).max(axis=(0, 1))
    n = np.flatnonzero(np.abs(b).max(axis=(1, 2)) > 1e-14)[-1]
    if n == 0:
        return np.empty(0)
    # x T_0 = T_1 and x T_k = (T_(k-1) + T_(k+1)) / 2: 1 in the first block
    # row and 0.5 on the block sub- and superdiagonals, with the last block
    # row closed by c[n] T_n = -sum c[k] T_k and multiplied through by c[n]^-1
    # (c[n] times that row is 0.5 c[n] in block n - 2, added elementwise: a
    # matrix product there allocates OpenBLAS's buffer, +0.3 MB of peak RSS)
    pencil = np.zeros((2 * n, 2 * n), dtype=b.dtype)
    i = np.arange(2 * n - 2)
    pencil[i, i + 2] = pencil[i + 2, i] = 0.5
    pencil[i[:2], i[:2] + 2] = 1.0
    last = -(1.0 if n == 1 else 0.5) * np.hstack(b[:n])
    if n > 1:
        last[:, -4:-2] += 0.5 * b[n]
    try:
        pencil[-2:] = np.linalg.solve(b[n], last)
    except np.linalg.LinAlgError:
        # a noise entry of the last block rounded to 0.0 and left it singular
        # (R_P's diagonal is 0.0 on a real line); the block is noise: drop it
        return _eigenvalues(c[:n])
    x = np.linalg.eigvals(pencil)
    x = x[(np.abs(x.imag) <= 1e-6) & (np.abs(x.real) <= 1.0 + 1e-6)]
    v = _chebval(np.concatenate([x, x + 1e-8]), c)
    d = v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0]
    return x - 1e-8 * d[: x.size] / (d[x.size :] - d[: x.size])


def find_band_edges(spec, e_min: float, e_max: float) -> list[NumericBandEdge]:
    """Band edges, Delta = +/-2, in [e_min, e_max]: the eigenvalues of
    Chebyshev interpolants of :func:`_propagate`'s R_P(E) (P edges) and R_A(E)
    (A edges), entire in E (Effenberger & Kressner, BIT 52 (2012) 933).

    Each round samples every pending piece at ``_CHEB`` Chebyshev points in
    one batched, Wronskian-checked integration, and halves each piece not
    resolved (:func:`_unresolved`); one narrower than ``_MIN_PIECE`` of the
    range raises :class:`FloquetIntegrationError`.  Noise splits a closed
    gap's double eigenvalue into two adjacent ones, real or a conjugate
    pair, with R within ``_CLOSED_TOL`` of 0 at their midpoint; every other
    one is a simple edge.  A piece reports what lies on it, and within
    1e-10 half-widths past a range end; a row within 1e-6 half-widths of an
    end two pieces share is reported by one of them alone, the one whose R
    has the smaller largest coefficient, and so the smaller error in its
    pencil.  Rows carry the interpolant's Delta.
    """
    if not -math.inf < e_min < e_max < math.inf:
        raise ValueError("e_min must be below e_max, both finite")
    pending, pieces = [(e_min, e_max)], []
    while pending:
        es = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * _NODES for a, b in pending])
        ms, rs = _propagate(spec, es)[:2]
        cds = _coefficients(np.trace(ms, axis1=1, axis2=2).reshape(-1, _CHEB).T)
        cs = _coefficients(rs.reshape(-1, _CHEB, 2, 2, 2).swapaxes(0, 1))
        split = []
        for (a, b), cd, cr in zip(pending, cds.T, cs.swapaxes(0, 1)):
            missed = _unresolved(cr, math.inf)
            if not missed:
                xs = [np.sort_complex(_eigenvalues(cr[:, k])) for k in range(2)]
                if any(r.size for r in xs):
                    missed = _unresolved(cr, _TAIL_ATOL)
            if missed:
                if b - a < _MIN_PIECE * (e_max - e_min):
                    raise FloquetIntegrationError(f"{_name(spec)}: series not resolved on [{a}, {b}]: {'; '.join(missed)}")
                split += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
                continue
            rows = []
            for k in range(2):
                r, j = xs[k], 0
                mids = 0.5 * (r[1:] + r[:-1]).real
                closed = np.abs(_chebval(mids, cr[:, k])).max(axis=(1, 2)) <= _CLOSED_TOL
                while j < r.size:
                    at, mult = (mids[j], 2) if j < mids.size and closed[j] else (r[j], 1)
                    if abs(at.imag) <= 1e-10:
                        rows.append((at.real, k, mult))
                    j += mult
            pieces.append((a, b, cd, np.abs(cr).max(axis=(0, 2, 3)), rows))
        pending = split

    # the pieces tile [e_min, e_max].  A large coefficient splits a closed
    # gap wide in the pencil, so of two pieces that share an end, the one
    # whose R has the smaller largest coefficient reports the rows within
    # 1e-6 half-widths (of the narrower piece) of it, on either side
    pieces.sort(key=lambda p: p[0])
    found = []
    for i, (a, b, cd, big, rows) in enumerate(pieces):
        # at the lower and the upper end: (reach in half-widths, whether this
        # piece reports the rows within it, per class)
        lo = hi = 1e-10, (True, True)
        if i > 0:
            p = pieces[i - 1]
            lo = 1e-6 * min(1.0, (p[1] - p[0]) / (b - a)), big < p[3]
        if i + 1 < len(pieces):
            p = pieces[i + 1]
            hi = 1e-6 * min(1.0, (p[1] - p[0]) / (b - a)), big <= p[3]
        kept = []
        for at, k, mult in rows:
            w, owned = hi if at > 0.0 else lo
            if abs(at) <= 1.0 + w and (owned[k] or abs(at) <= 1.0 - w):
                kept.append((at, k, mult))
        for (at, k, mult), delta in zip(kept, _chebval([at for at, _, _ in kept], cd)):
            e = 0.5 * (a + b) + 0.5 * (b - a) * at
            found.append(NumericBandEdge(float(e), "PA"[k], complex(delta), mult))

    found.sort(key=lambda e: e.energy)
    return found


def simple_edge_count(spec) -> int | None:
    """2a + 1, the simple band edges of a spec whose base family has a >= 1:
    the (a, b) associated Lame potential is finite-gap, with a open gaps
    (closed gaps are the other edges); None for a = 0 and a custom potential."""
    return 2 * spec.a + 1 if spec.a >= 1 else None  # a = 0 for a custom potential


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
    f = potentials.compiled_value_fn(spec, _line(spec)[0])
    vmax = float(np.max(f(np.linspace(0.0, spec.period, 129, endpoint=False)).real))
    if spec.m is None:
        return (-1.0, vmax + 5.0)
    a, b = spec.a, spec.b
    return (-1.0, vmax + (a * (a + 1) + b * (b + 1)) * spec.m + ((a + b) * math.pi / spec.period) ** 2 + 5.0)
