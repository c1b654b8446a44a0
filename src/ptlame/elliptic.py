"""Jacobi elliptic functions, complete integrals, and theta functions.

Everything uses the *parameter* convention: the second argument ``m`` equals
k**2 and is restricted to the open interval (0, 1).  Complete integrals come
from the arithmetic-geometric mean, real-argument Jacobi functions from the
descending-Landen backward recursion, and complex arguments from the
real/imaginary addition decomposition, which is stable everywhere away from
the pole lattice of sn.  ``inverse_sn`` solves for real or purely imaginary
values, each by one incomplete integral of the first kind along an edge of
the fundamental rectangle, in Carlson's form.  Theta functions are nome
series with term-wise derivatives, so logarithmic derivatives never touch
numerical differencing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EllipticDomainError",
    "PoleProximityError",
    "ThetaZeroError",
    "InversionError",
    "Modulus",
    "JacobiValues",
    "Jet2",
    "complete_K",
    "modulus",
    "jacobi_real",
    "jacobi_complex",
    "line_jacobi",
    "jacobi_triple",
    "sn_pole_lattice_point",
    "theta_jets",
    "zeta_Z",
    "inverse_sn",
    "landen_descend",
    "jets_from_scd",
]

_AGM_EPS = 4e-16
# distance to the sn pole lattice below which an argument is rejected, the
# same for the theta zeros (which coincide with it)
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


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) = pi/(2 AGM(1, k')).

    The mean is the one :func:`_landen_schedule` iterates to, which keeps it
    as scale = AGM * 2**N after N steps.  It converges quadratically, so the
    result is accurate to a relative error below 1e-14 for any m in (0, 1).
    The endpoints are rejected: K(1) diverges logarithmically.
    """
    scale, ratios = _landen_schedule(m)
    return math.pi * 2.0 ** len(ratios) / (2.0 * scale)


@dataclass(frozen=True)
class Modulus:
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
    """Cached :class:`Modulus` for the parameter m."""
    K = complete_K(m)
    Kp = complete_K(1.0 - m)
    return Modulus(m, K, Kp, math.exp(-math.pi * Kp / K))


@dataclass(frozen=True)
class JacobiValues:
    """The triple (sn, cn, dn) at one complex point."""

    sn: complex
    cn: complex
    dn: complex


@lru_cache(maxsize=512)
def _landen_schedule(m: float) -> tuple[float, tuple[float, ...]]:
    # Descending-Landen coefficients c_n / a_n, last first, the order the
    # backward recursion reads them; they depend only on m, so the
    # per-argument work reduces to one sin/asin pass.
    _check_parameter(m)
    a, b = 1.0, math.sqrt(1.0 - m)
    ratios = []
    while True:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
        if abs(c) <= _AGM_EPS * a:
            break
    return a * 2.0 ** len(ratios), tuple(reversed(ratios))


def _landen_pass(m: float):
    # u -> (sn, cn, dn)(u | m) at real u by the backward recursion, for a
    # float (math's functions) or a float ndarray (numpy's ufuncs, chosen
    # once per call); the schedule is read once, here, not per point
    scale, ratios = _landen_schedule(m)

    def triple(u):
        sin, asin, cos, sqrt = ((np.sin, np.arcsin, np.cos, np.sqrt) if isinstance(u, np.ndarray)
                                else (math.sin, math.asin, math.cos, math.sqrt))
        phi = scale * u
        for r in ratios:
            phi = 0.5 * (phi + asin(r * sin(phi)))
        sn = sin(phi)
        return sn, cos(phi), sqrt(1.0 - m * sn * sn)

    return triple


def jacobi_real(u: float, m: float) -> JacobiValues:
    """Jacobi sn, cn, dn for real argument via the Landen backward recursion."""
    sn, cn, dn = _landen_pass(_check_parameter(m))(float(u))
    return JacobiValues(complex(sn), complex(cn), complex(dn))


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


def line_jacobi(beta: float, m: float):
    """Fast evaluator for (sn, cn, dn) along the vertical line z = i*x + beta.

    The real-argument triple at (beta, m) is fixed along the line, so each
    call costs a single real Landen pass at (x, 1-m) plus the recombination.
    Returns a callable x -> (sn, cn, dn): complex values for a float x,
    complex arrays for a float ndarray, from the same recurrence (numpy's
    ufuncs in place of math's, so the two agree to rounding, not bit for
    bit).  Arrays pay off on a grid; the integrator calls with floats, once
    per stage, as a step's 12 stage nodes cost more as one array than as 12
    float calls.
    """
    m = _check_parameter(m)
    beta = float(beta)
    mod = modulus(m)
    # Pole lattice sits on Re z = 0 (mod 2K); keep the whole line clear.
    dist = abs(beta - 2.0 * mod.K * round(beta / (2.0 * mod.K)))
    if dist < _POLE_TOL:
        raise PoleProximityError(complex(beta), sn_pole_lattice_point(complex(beta, mod.Kprime), m), _POLE_TOL)
    return _addition(beta, m)


def _addition(beta: float, m: float):
    # x -> (sn, cn, dn)(i*x + beta) by the addition formulas, unchecked; the
    # potential evaluator runs the closure inside the integrator's RHS
    s, c, d = _landen_pass(m)(beta)
    real = _landen_pass(1.0 - m)
    ss = m * s * s
    cd = c * d
    msc = m * s * c

    def values(x):
        s1, c1, d1 = real(x)
        den = c1 * c1 + ss * s1 * s1
        return (
            (s * d1 + 1j * (cd * s1 * c1)) / den,
            (c * c1 - 1j * (s * d * s1 * d1)) / den,
            (d * c1 * d1 - 1j * (msc * s1)) / den,
        )

    return values


def jacobi_triple(m: float, beta: float | None = None):
    """Evaluator x -> (sn, cn, dn) at real x, or on the line i*x + beta
    (:func:`line_jacobi`) when ``beta`` is given.  x is a float or a float
    ndarray, evaluated elementwise in one pass (see :func:`line_jacobi`)."""
    if beta is not None:
        return line_jacobi(beta, m)
    return _landen_pass(_check_parameter(m))


# ---------------------------------------------------------------------------
# theta functions


def theta_jets(m: float, u: complex, odd: bool) -> tuple[complex, complex, complex]:
    """Value and first two derivatives of H (eta, ``odd``) or Theta at u.

    One nome series, sum_j (-1)**(j//2) q**(j**2/4) {sin, cos}(j v) over odd
    or even j (the j = 0 term counted once, every other twice), with
    v = pi*u/(2K) and term-wise derivatives.  |term j| is about
    exp(-j**2 ln(1/q)/4 + j |Im v|), a Gaussian in j; the sum stops where
    it has fallen by exp(-``_THETA_TAIL``) from its peak, so the term count
    is fixed before the loop.  Theta's zeros are the sn pole lattice;
    arguments within ``_THETA_ZERO_TOL`` of it raise
    :class:`ThetaZeroError`.
    """
    mod = modulus(m)
    u = complex(u)
    if not odd:
        zero = sn_pole_lattice_point(u, m)
        if abs(u - zero) < _THETA_ZERO_TOL:
            raise ThetaZeroError(f"argument {u} lies within {_THETA_ZERO_TOL} of the theta zero at {zero}")
    q = mod.q
    w = math.pi / (2.0 * mod.K)
    v = w * u
    decay = math.pi * mod.Kprime / mod.K  # ln(1/q)
    stop = 2.0 * abs(v.imag) / decay + 2.0 * math.sqrt(_THETA_TAIL / decay)
    f, d1, d2 = (0j, 0j, 0j) if odd else (1.0 + 0j, 0j, 0j)
    for j in range(1 if odd else 2, int(stop) + 1, 2):
        c = (-2.0 if j & 2 else 2.0) * q ** ((0.5 * j) ** 2)
        k = j * w
        s, co = cmath.sin(j * v), cmath.cos(j * v)
        t, dt = (s, co) if odd else (co, -s)  # the term's trig factor and its derivative
        f += c * t
        d1 += c * k * dt
        d2 -= c * k * k * t
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


def _arcsn(s: float, mu: float) -> float:
    """t in [0, K(mu)] with sn(t | mu) = s, for s in [0, 1]: the incomplete
    integral F(arcsin s | mu) = s R_F(1 - s^2, 1 - mu s^2, 1) (DLMF 19.25.5),
    with 1 - mu s^2 = (1 - mu) + mu (1 - s^2) accurate as s -> 1."""
    c2 = (1.0 - s) * (1.0 + s)
    return s * _carlson_rf(c2, (1.0 - mu) + mu * c2, 1.0)


def inverse_sn(w: complex, m: float) -> complex:
    """Solve sn(alpha, m) = w for real or purely imaginary w.

    Real w lands on the boundary 0 -> K -> K + i*K' -> i*K' of the
    fundamental rectangle, mirrored to Re(alpha) <= 0 for w < 0.  Imaginary
    w = i*t lands on the imaginary axis with |Im(alpha)| < K', through
    Jacobi's imaginary transformation sn(i*v, m) = i*sc(v, 1-m).  Each case
    is one incomplete integral of the first kind, in closed form through
    Carlson's R_F, with no root find; any other w raises
    :class:`InversionError`.
    """
    m = _check_parameter(m)
    mod = modulus(m)
    rm = math.sqrt(m)
    w = complex(w)
    x = abs(w.real)
    sgn = 1.0 if w.real >= 0.0 else -1.0
    if abs(w.imag) >= 1e-14:
        if x >= 1e-14:
            raise InversionError(f"inverse_sn solves only for real or purely imaginary w, not w={w}")
        t = abs(w.imag)
        alpha = complex(0.0, math.copysign(_arcsn(t / math.hypot(1.0, t), 1.0 - m), w.imag))
    elif abs(x - 1.0) < 1e-13:
        alpha = complex(sgn * mod.K, 0.0)
    elif abs(x - 1.0 / rm) < 1e-13:
        alpha = complex(sgn * mod.K, mod.Kprime)
    elif x < 1.0:
        alpha = complex(sgn * _arcsn(x, m), 0.0)
    elif x < 1.0 / rm:
        # right edge: sn(K + i s) = 1/dn(s, 1-m), so sn(s, 1-m)**2 = (1 - 1/x**2)/(1-m);
        # the sign flip moves to -K.
        alpha = complex(sgn * mod.K, _arcsn(math.sqrt((1.0 - 1.0 / (x * x)) / (1.0 - m)), 1.0 - m))
    else:
        # top edge: sn(t + i K') = 1/(sqrt(m) sn(t))
        alpha = complex(sgn * _arcsn(1.0 / (rm * x), m), mod.Kprime)
    residual = abs(jacobi_complex(alpha, m).sn - w)
    if residual > 100.0 * _INVERSE_TOL * max(1.0, abs(w)):
        raise InversionError(f"inverse_sn residual {residual:.3e} for w={w}, m={m}")
    return alpha


def landen_descend(m: float) -> tuple[float, float]:
    """Descending Landen step: returns (alpha, m_tilde) with m_tilde < m.

    alpha = 1/(1 + sqrt(1-m)) rescales the argument, m_tilde is the reduced
    parameter ((1 - sqrt(1-m))/(1 + sqrt(1-m)))**2.
    """
    m = _check_parameter(m)
    s = math.sqrt(1.0 - m)
    alpha = 1.0 / (1.0 + s)
    mt = ((1.0 - s) / (1.0 + s)) ** 2
    return alpha, mt


# ---------------------------------------------------------------------------
# second-order jets


class Jet2:
    """Second-order jet (value, first, second derivative) in one variable.

    Arithmetic on jets applies the product/quotient rules exactly, which keeps
    every derived quantity (eigenfunction derivatives, superpotentials,
    partner potentials) analytic rather than finite-differenced.
    """

    __slots__ = ("f", "d1", "d2")

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f = f
        self.d1 = d1
        self.d2 = d2

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.f + other.f, self.d1 + other.d1, self.d2 + other.d2)
        return Jet2(self.f + other, self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.f, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.f * other.f,
                self.d1 * other.f + self.f * other.d1,
                self.d2 * other.f + 2.0 * self.d1 * other.d1 + self.f * other.d2,
            )
        return Jet2(self.f * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def reciprocal(self):
        g, g1, g2 = self.f, self.d1, self.d2
        inv = 1.0 / g
        return Jet2(inv, -g1 * inv * inv, (2.0 * g1 * g1 - g * g2) * inv * inv * inv)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return Jet2(self.f / other, self.d1 / other, self.d2 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other


def jets_from_scd(s, c, d, m: float) -> tuple[Jet2, Jet2, Jet2]:
    """Jets of sn, cn, dn given their values at a point.

    The derivative rules sn' = cn dn, cn' = -sn dn, dn' = -m sn cn close on
    the triple itself, so jets of any rational expression in (sn, cn, dn)
    follow by jet arithmetic.
    """
    S = Jet2(s, c * d, -s * (d * d) - m * s * (c * c))
    C = Jet2(c, -s * d, -c * (d * d) + m * (s * s) * c)
    D = Jet2(d, -m * s * c, -m * (c * c) * d + m * (s * s) * d)
    return S, C, D
