"""Jacobi elliptic functions, complete integrals, and theta functions.

Everything uses the *parameter* convention: the second argument ``m`` equals
k**2 and is restricted to the open interval (0, 1).  Complete integrals come
from the arithmetic-geometric mean, real-argument Jacobi functions from the
descending-Landen backward recursion (one closure per parameter, which
reuses its last float argument's pass), and complex arguments from the
real/imaginary addition decomposition, which is stable everywhere away from
the pole lattice of sn, or on the line Re z = K from the quarter-period
shift.  ``inverse_sn`` solves for real or purely imaginary
values, each by one incomplete integral of the first kind along an edge of
the fundamental rectangle: one Carlson R_F on arguments scaled so that none
forms m again from its complement 1 - m.  Theta functions are nome
series with term-wise derivatives, so logarithmic derivatives never touch
numerical differencing.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "EllipticDomainError",
    "PoleProximityError",
    "ThetaZeroError",
    "InversionError",
    "Modulus",
    "JacobiValues",
    "complete_K",
    "modulus",
    "jacobi_complex",
    "line_jacobi",
    "jacobi_triple",
    "sn_pole_lattice_point",
    "theta_jets",
    "zeta_Z",
    "inverse_sn",
    "landen_descend",
    "jet_mul",
    "jet_reciprocal",
    "jets_from_scd",
]

_AGM_EPS = 4e-16
# distance to the sn pole lattice below which an argument is rejected
# (1e-6), and to the theta zeros, which coincide with it (1e-8)
_POLE_TOL = 1e-6
_THETA_ZERO_TOL = 1e-8
# theta series: the last term kept is about e^-60 (2^-87) of the peak term;
# the margin past 2^-53 covers the j**2 of the second derivative and the
# cancellation where a jet entry is small
_THETA_TAIL = 60.0
# inverse_sn: scale of the residual its final check accepts
_INVERSE_TOL = 1e-10
# Carlson's R_F: (3 r)^(-1/6) for a relative truncation error r = 2^-53
_RF_SCALE = (3.0 * 2.0**-53) ** (-1.0 / 6.0)


class EllipticDomainError(ValueError):
    """Parameter m outside the supported open interval (0, 1)."""


class PoleProximityError(ValueError):
    """Argument too close to the pole lattice of the Jacobi functions."""

    def __init__(self, z: complex, pole: complex, tol: float):
        super().__init__(
            f"argument {z} lies within {tol} of the pole at {pole}"
        )
        self.z = z
        self.pole = pole
        self.tol = tol


class ThetaZeroError(ValueError):
    """Argument too close to a zero of the Jacobi theta function."""


class InversionError(RuntimeError):
    """An inverse elliptic function was asked for a value it does not
    solve for, or its solution failed the residual check."""


def _check_parameter(m: float) -> float:
    m = float(m)
    if not 0.0 < m < 1.0:
        raise EllipticDomainError(f"parameter m={m!r} outside the open interval (0, 1)")
    return m


def complete_K(m: float, mc: float | None = None) -> float:
    """Complete elliptic integral of the first kind, K(m) = pi/(2 AGM(1, k')).

    k' = sqrt(mc), with the complementary parameter mc = 1 - m formed here
    unless the caller has it exactly: :func:`modulus` takes K' = K(1 - m)
    with mc = m, as 1 - (1 - m) carries a relative error of about eps/m.
    The mean is the one :func:`_landen_schedule` iterates to, which keeps it
    as scale = AGM * 2**N after N steps.  It converges quadratically, so the
    result is accurate to a relative error below 1e-14 for any m in (0, 1).
    The endpoints are rejected: K(1) diverges logarithmically.
    """
    scale, ratios = _landen_schedule(m, 1.0 - m if mc is None else mc)
    return math.pi * 2.0 ** len(ratios) / (2.0 * scale)


class Modulus(NamedTuple):
    """Elliptic parameter with its cached quarter periods and nome.

    Attributes
    ----------
    m : parameter in (0, 1)
    K : complete integral K(m)
    Kprime : complementary integral K(1 - m)
    q : nome exp(-pi * Kprime / K), always in (0, 1)
    """

    m: float
    K: float
    Kprime: float
    q: float


@lru_cache(maxsize=512)
def modulus(m: float) -> Modulus:
    """Cached :class:`Modulus` for the parameter m; an m whose complement
    1 - m rounds to 1 raises :class:`EllipticDomainError`, naming m."""
    K = complete_K(m)
    if 1.0 - m == 1.0:
        raise EllipticDomainError(
            f"parameter m={float(m)!r}: its complement 1 - m rounds to 1, so K(1 - m) diverges")
    Kp = complete_K(1.0 - m, m)
    return Modulus(m, K, Kp, math.exp(-math.pi * Kp / K))


class JacobiValues(NamedTuple):
    """The triple (sn, cn, dn) at one complex point."""

    sn: complex
    cn: complex
    dn: complex


def _landen_schedule(m: float, mc: float) -> tuple[float, tuple[float, ...]]:
    # Descending-Landen coefficients c_n / a_n, last first, the order the
    # backward recursion reads them; they depend only on m and its
    # complement mc = 1 - m, given exactly (Bulirsch's sncndn takes mc as
    # its input), so the per-argument work reduces to one sin/asin pass.
    _check_parameter(m)
    a, b = 1.0, math.sqrt(mc)
    ratios = []
    while True:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
        if abs(c) <= _AGM_EPS * a:
            break
    return a * 2.0 ** len(ratios), tuple(reversed(ratios))


_MATH = (math.sin, math.asin, math.cos, math.sqrt)
_UFUNCS = (np.sin, np.arcsin, np.cos, np.sqrt)


@lru_cache(maxsize=64)
def _landen_pass(m: float, mc: float):
    # u -> (sn, cn, dn)(u | m) at real u by the backward recursion, for a
    # float (math's functions) or a float ndarray (numpy's ufuncs, chosen
    # once per call); the schedule is read once, here, not per point.
    # dn = sqrt(mc + m cn**2), not sqrt(1 - m sn**2), which cancels down to
    # sqrt(mc) near u = K when m is close to 1.  The one closure per (m, mc)
    # keeps its last float argument and that argument's triple as one tuple,
    # and returns the triple to a call with that same float object; the
    # integrator hands one object to every block of a stage, so PT Lame(a, m)
    # on Re u = K and its dual Lame(a, 1 - m) on the real axis, both at
    # (1 - m, m) when 1 - fl(1 - m) == m, share one pass a stage
    scale, ratios = _landen_schedule(m, mc)
    last = (None, None)

    def triple(u):
        nonlocal last
        seen, values = last
        if u is seen:
            return values
        sin, asin, cos, sqrt = _UFUNCS if isinstance(u, np.ndarray) else _MATH
        phi = scale * u
        for r in ratios:
            phi = 0.5 * (phi + asin(r * sin(phi)))
        cn = cos(phi)
        values = sin(phi), cn, sqrt(mc + m * cn * cn)
        if type(u) is float:
            last = u, values
        return values

    return triple


def sn_pole_lattice_point(z: complex, m: float) -> complex:
    """Nearest point of the pole lattice i*K' + 2K*Z + 2i*K'*Z to z."""
    mod = modulus(m)
    w = complex(z) - 1j * mod.Kprime
    nx = round(w.real / (2.0 * mod.K))
    ny = round(w.imag / (2.0 * mod.Kprime))
    return 2.0 * mod.K * nx + 2j * mod.Kprime * ny + 1j * mod.Kprime


def jacobi_complex(z: complex, m: float) -> JacobiValues:
    """Jacobi sn, cn, dn for complex argument.

    The argument is split as z = x + i*y and the real-argument values at
    (x, m) and (y, 1-m) are recombined with the addition formulas of
    :func:`line_jacobi`.  Arguments closer than ``_POLE_TOL`` to the common
    pole lattice are rejected, since every downstream tolerance dies near a
    pole.
    """
    m = _check_parameter(m)
    z = complex(z)
    pole = sn_pole_lattice_point(z, m)
    if abs(z - pole) < _POLE_TOL:
        raise PoleProximityError(z, pole, _POLE_TOL)
    return JacobiValues(*_addition(z.real, m)(z.imag))


def line_jacobi(beta: float, m: float, ends: bool = False):
    """Fast evaluator for (sn, cn, dn) along the vertical line z = i*x + beta.

    The real-argument triple at (beta, m) is fixed along the line, so each
    call costs a single real Landen pass (sn', cn', dn') at (x, 1-m) plus the
    recombination.  Returns a callable x -> (sn, cn, dn): complex values for
    a float x, complex arrays for a float ndarray, from the same recurrence
    (numpy's ufuncs in place of math's, so the two agree to rounding, not bit
    for bit).  At beta == K the addition formulas reduce to the quarter-period
    shift (1/dn', -i sqrt(1-m) sn'/dn', sqrt(1-m) cn'/dn') (DLMF §22.4(iii),
    §22.6(iv)), whose sn and dn are real by construction: floats, or float
    arrays.  Arrays pay off on a grid; the Floquet integrator evaluates the
    potential with floats, once per DOP853 stage, as a step's 12 stage nodes
    cost more as one array than as 12 float calls.

    With ``ends`` the callable returns the triples at x and at K' - x, the
    second from the same pass by the quarter-period reflection (sn', cn',
    dn')(K' - x) = (cn'/dn', sqrt(m) sn'/dn', sqrt(m)/dn') (DLMF §22.4(iii));
    on Re u = K it is (dn'/sqrt(m), -i sqrt(1-m) cn'/sqrt(m), sqrt(1-m) sn').
    """
    m = _check_parameter(m)
    beta = float(beta)
    mod = modulus(m)
    # Pole lattice sits on Re z = 0 (mod 2K); keep the whole line clear.
    dist = abs(beta - 2.0 * mod.K * round(beta / (2.0 * mod.K)))
    if dist < _POLE_TOL:
        raise PoleProximityError(complex(beta), sn_pole_lattice_point(complex(beta, mod.Kprime), m), _POLE_TOL)
    if beta != mod.K:
        return _addition(beta, m, ends)
    real, rc, rk = _landen_pass(1.0 - m, m), math.sqrt(1.0 - m), math.sqrt(m)

    def quarter(x):
        s1, c1, d1 = real(x)
        return 1.0 / d1, -1j * (rc * s1 / d1), rc * c1 / d1

    def both(x):
        s1, c1, d1 = real(x)
        return (1.0 / d1, -1j * (rc * s1 / d1), rc * c1 / d1), (d1 / rk, -1j * (rc * c1 / rk), rc * s1)

    return both if ends else quarter


def _addition(beta: float, m: float, ends: bool = False):
    # x -> (sn, cn, dn)(i*x + beta) by the addition formulas, unchecked, or
    # with ``ends`` the triples at x and K' - x (see line_jacobi); the
    # potential evaluator runs the closure once per integrator stage
    s, c, d = _landen_pass(m, 1.0 - m)(beta)
    real = _landen_pass(1.0 - m, m)  # the complement of 1 - m is m, exactly
    ss = m * s * s
    cd = c * d
    msc = m * s * c
    rk = math.sqrt(m)

    def combine(s1, c1, d1):
        den = c1 * c1 + ss * s1 * s1
        return (
            (s * d1 + 1j * (cd * s1 * c1)) / den,
            (c * c1 - 1j * (s * d * s1 * d1)) / den,
            (d * c1 * d1 - 1j * (msc * s1)) / den,
        )

    def values(x):
        return combine(*real(x))

    def both(x):
        s1, c1, d1 = real(x)
        return combine(s1, c1, d1), combine(c1 / d1, rk * s1 / d1, rk / d1)

    return both if ends else values


def jacobi_triple(m: float, beta: float | None = None, ends: bool = False):
    """Evaluator x -> (sn, cn, dn) at real x, or on the line i*x + beta
    (:func:`line_jacobi`) when ``beta`` is given.  x is a float or a float
    ndarray, evaluated elementwise in one pass (see :func:`line_jacobi`).
    With ``ends`` it returns the triples at x and at s - x, s = K on the
    real axis (the reflection (sn, cn, dn)(K - x) = (cn/dn, sqrt(1-m)
    sn/dn, sqrt(1-m)/dn), DLMF §22.4(iii)) and K' on a line, both from the
    one Landen pass at x."""
    if beta is not None:
        return line_jacobi(beta, m, ends)
    m = _check_parameter(m)
    triple = _landen_pass(m, 1.0 - m)
    if not ends:
        return triple
    kc = math.sqrt(1.0 - m)

    def both(x):
        s, c, d = triple(x)
        return (s, c, d), (c / d, kc * s / d, kc / d)

    return both


# ---------------------------------------------------------------------------
# theta functions


@lru_cache(maxsize=8)
def _theta_constants(m: float) -> tuple[float, float, float, float]:
    """(q, pi/(2K), ln(1/q), the tail's reach in j) at m: everything in
    :func:`theta_jets` that does not depend on u."""
    mod = modulus(m)
    decay = math.pi * mod.Kprime / mod.K
    return mod.q, math.pi / (2.0 * mod.K), decay, 2.0 * math.sqrt(_THETA_TAIL / decay)


def theta_jets(m: float, u: complex, odd: bool) -> tuple[complex, complex, complex]:
    """Value and first two derivatives of H (eta, ``odd``) or Theta at u.

    One nome series, sum_j (-1)**(j//2) q**(j**2/4) {sin, cos}(j v) over odd
    or even j (the j = 0 term counted once, every other twice), with
    v = pi*u/(2K) and term-wise derivatives.  |term j| is about
    exp(-j**2 ln(1/q)/4 + j |Im v|), a Gaussian in j; the sum stops where
    it has fallen by exp(-``_THETA_TAIL``) from its peak, so the term count
    is fixed before the loop.  From one term to the next (j -> j + 2) the
    trig pair turns by the angle 2v and the coefficient is multiplied by
    -q**(j + 1), so the loop calls no trig function and no power.  Theta's
    zeros are the sn pole lattice; arguments within ``_THETA_ZERO_TOL`` of
    it raise :class:`ThetaZeroError`.
    """
    u = complex(u)
    if not odd:
        zero = sn_pole_lattice_point(u, m)
        if abs(u - zero) < _THETA_ZERO_TOL:
            raise ThetaZeroError(f"argument {u} lies within {_THETA_ZERO_TOL} of the theta zero at {zero}")
    q, w, decay, reach = _theta_constants(m)
    v = w * u
    stop = 2.0 * abs(v.imag) / decay + reach
    s2, c2 = cmath.sin(2.0 * v), cmath.cos(2.0 * v)
    # the first term, j = 1 or 2: its trig pair, its coefficient and the ratio q**(j + 1) to the next
    first = 1 if odd else 2
    s, co = (cmath.sin(v), cmath.cos(v)) if odd else (s2, c2)
    c, ratio, qq = (2.0 if odd else -2.0) * q ** (0.25 * first * first), q ** (first + 1), q * q
    f, d1, d2 = (0j, 0j, 0j) if odd else (1.0 + 0j, 0j, 0j)
    for j in range(first, int(stop) + 1, 2):
        k = j * w
        t, dt = (s, co) if odd else (co, -s)  # the term's trig factor and its derivative
        f += c * t
        d1 += c * k * dt
        d2 -= c * k * k * t
        c, ratio = -c * ratio, ratio * qq
        s, co = s * c2 + co * s2, co * c2 - s * s2
    return f, d1, d2


def zeta_Z(m: float, u: complex) -> complex:
    """Jacobi zeta Z(u) = Theta'(u)/Theta(u), via the differentiated series;
    raises :class:`ThetaZeroError` near a zero of Theta."""
    f, d1, _ = theta_jets(m, u, False)
    return d1 / f


# ---------------------------------------------------------------------------
# inversion


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F(x, y, z), for x, y, z >= 0 with at
    most one of them zero.

    Duplication (DLMF 19.26.18) until the arguments agree to
    ``_RF_SCALE``, then the fifth-order series about their mean (DLMF
    19.36.1; Carlson, Numer. Algorithms 10 (1995) 13).
    """
    a0 = a = (x + y + z) / 3.0
    dx, dy = a0 - x, a0 - y
    q = _RF_SCALE * max(abs(dx), abs(dy), abs(a0 - z))
    f = 1.0  # 4^-n after n duplications
    while f * q >= a:
        rx, ry, rz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = rx * ry + ry * rz + rz * rx
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        f *= 0.25
    X, Y = f * dx / a, f * dy / a
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)


def inverse_sn(w: complex, m: float) -> complex:
    """Solve sn(alpha, m) = w for real or purely imaginary w.

    Real w lands on the boundary 0 -> K -> K + i*K' -> i*K' of the
    fundamental rectangle, mirrored to Re(alpha) <= 0 for w < 0.  Imaginary
    w = i*t lands on the imaginary axis with |Im(alpha)| < K', through
    Jacobi's imaginary transformation sn(i*v, m) = i*sc(v, 1-m).  Each case
    is one incomplete integral of the first kind, one call of Carlson's R_F
    with no root find.  R_F is homogeneous of degree -1/2 (DLMF 19.25.5),
    so each edge's arguments are scaled until none is 1 minus a complement:
    1 - m is formed from m, never m from 1 - m.  Any other w raises
    :class:`InversionError` naming w, as do a w that is not finite, one
    whose R_F overflows and one whose alpha lies within the pole tolerance
    of :func:`jacobi_complex` of a pole of sn (|w| of order 1e6 and beyond).
    """
    m = _check_parameter(m)
    mod = modulus(m)
    rm = math.sqrt(m)
    w = complex(w)
    if not cmath.isfinite(w):
        raise InversionError(f"inverse_sn solves only for finite w, not w={w}")
    x = abs(w.real)
    sgn = 1.0 if w.real >= 0.0 else -1.0
    if abs(w.imag) >= 1e-14:
        if x >= 1e-14:
            raise InversionError(f"inverse_sn solves only for real or purely imaginary w, not w={w}")
        t = abs(w.imag)
        alpha = complex(0.0, math.copysign(t * _carlson_rf(1.0, 1.0 + m * t * t, 1.0 + t * t), w.imag))
    elif abs(x - 1.0) < 1e-13:
        alpha = complex(sgn * mod.K, 0.0)
    elif abs(x - 1.0 / rm) < 1e-13:
        alpha = complex(sgn * mod.K, mod.Kprime)
    elif x < 1.0:
        c2 = (1.0 - x) * (1.0 + x)
        alpha = complex(sgn * x * _carlson_rf(c2, (1.0 - m) + m * c2, 1.0), 0.0)
    elif x < 1.0 / rm:
        # right edge: sn(K + i s) = 1/dn(s, 1-m); the sign flip moves to -K
        mc = 1.0 - m
        s = math.sqrt((x - 1.0) * (x + 1.0) / mc)
        alpha = complex(sgn * mod.K, s * _carlson_rf((1.0 - m * x * x) / mc, 1.0, x * x))
    else:
        # top edge: sn(t + i K') = 1/(sqrt(m) sn(t))
        alpha = complex(sgn * _carlson_rf(m * x * x - 1.0, m * (x - 1.0) * (x + 1.0), m * x * x), mod.Kprime)
    if not cmath.isfinite(alpha):
        raise InversionError(f"inverse_sn overflows in float64 for w={w}, m={m}")
    try:
        residual = abs(jacobi_complex(alpha, m).sn - w)
    except PoleProximityError as exc:
        raise InversionError(f"inverse_sn: alpha={alpha} for w={w}, m={m} lies within {exc.tol} of a pole of sn") from None
    if residual > 100.0 * _INVERSE_TOL * max(1.0, abs(w)):
        raise InversionError(f"inverse_sn residual {residual:.3e} for w={w}, m={m}")
    return alpha


def landen_descend(m: float) -> tuple[float, float]:
    """Descending Landen step: returns (alpha, m_tilde) with m_tilde < m.

    alpha = 1/(1 + sqrt(1-m)) rescales the argument, m_tilde is the reduced
    parameter ((1 - sqrt(1-m))/(1 + sqrt(1-m)))**2 = (m alpha**2)**2, the
    form that does not cancel as m -> 0.
    """
    m = _check_parameter(m)
    alpha = 1.0 / (1.0 + math.sqrt(1.0 - m))
    return alpha, (m * alpha * alpha) ** 2


# ---------------------------------------------------------------------------
# second-order jets: a jet is the tuple (f, f', f'') in one variable; the
# product and reciprocal rules below keep every derived quantity (edge-state
# derivatives, ground states of partners) analytic, not finite-differenced


def jet_mul(a, b):
    """Product rule: the jet of f g from the jets of f and g."""
    (f, f1, f2), (g, g1, g2) = a, b
    return f * g, f1 * g + f * g1, f2 * g + 2.0 * f1 * g1 + f * g2


def jet_reciprocal(a):
    """The jet of 1/g from the jet of g."""
    g, g1, g2 = a
    inv = 1.0 / g
    return inv, -g1 * inv * inv, (2.0 * g1 * g1 - g * g2) * inv * inv * inv


def jets_from_scd(s, c, d, m: float):
    """Jets of sn, cn, dn given their values at a point, then those of sn**2
    and 1/dn, the two products edge states share.

    The derivative rules sn' = cn dn, cn' = -sn dn, dn' = -m sn cn close on
    the triple itself, so the jet of any rational expression in (sn, cn, dn)
    follows by :func:`jet_mul` and :func:`jet_reciprocal`.
    """
    S, C, D = ((s, c * d, -s * (d * d) - m * s * (c * c)),
               (c, -s * d, -c * (d * d) + m * (s * s) * c),
               (d, -m * s * c, -m * (c * c) * d + m * (s * s) * d))
    return S, C, D, jet_mul(S, S), jet_reciprocal(D)
