"""Closed-form band edges, eigenfunctions and the a=1 dispersion.

Three potential families carry complete closed-form edge data: the a=1 and
a=3 Lame potentials and the (a=2, b=1) associated Lame potential, each in
both the real and the PT-transformed version.  Eigenfunctions are built as
second-order jets so that Schrodinger residuals use analytic derivatives; a
SUSY partner reads only the ground state's log-derivative, a rational
expression in the Jacobi triple.  The module imports nothing from the
package but :mod:`ptlame.elliptic`: :mod:`ptlame.potentials` maps composed
specs onto these rows, and the checks of the formulas against the Floquet
engine, the dualities included, are rows of :mod:`ptlame.invariants`.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, NamedTuple

from . import elliptic as ell
from .elliptic import jet_mul, jets_from_scd

__all__ = ["BandEdge", "DispersionPoint", "BranchResolutionError", "real_band_edges", "pt_band_edges",
           "closed_form_energies", "edge_rows", "ground_state_builder", "ground_energy",
           "dispersion_analytic", "bloch_solution_jet", "ptlame_families"]

class BranchResolutionError(RuntimeError):
    """The analytic a=1 dispersion gives |Im k| >= 1e-6 at an energy inside
    one of the open bands (0, m) and (1, inf), where k must be real."""


# A family's table is (absolute PT ground energy, rows).  Each row is
# (energy above that ground energy, eigenfunction type, c0, c1): the edge
# state is the type's Jacobi factor times c0 + c1 sn**2 (the factor alone
# when c1 = 0).
def _lame1(m: float):
    return -(1.0 + m), [(0.0, "sn", 1.0, 0.0), (m, "cn", 1.0, 0.0), (1.0, "dn", 1.0, 0.0)]


def _lame3(m: float):
    d1 = math.sqrt(1.0 - m + 4.0 * m * m)
    d2 = math.sqrt(4.0 - m + m * m)
    d3 = math.sqrt(4.0 - 7.0 * m + 4.0 * m * m)
    c1 = -5.0 * m
    return -(5.0 + 5.0 * m + 2.0 * d3), [
        (0.0, "sn", 2 + 2 * m - d3, c1),
        (3 * m + 2 * d3 - 2 * d2, "cn", 2 + m - d2, c1),
        (3 + 2 * d3 - 2 * d1, "dn", 1 + 2 * m - d1, c1),
        (1 + m + 2 * d3, "sncndn", 1.0, 0.0),
        (4 * d3, "sn", 2 + 2 * m + d3, c1),
        (3 * m + 2 * d3 + 2 * d2, "cn", 2 + m + d2, c1),
        (3 + 2 * d3 + 2 * d1, "dn", 1 + 2 * m + d1, c1),
    ]


def _assoc21(m: float):
    d4 = math.sqrt(4.0 - 5.0 * m + m * m)
    sg = math.sqrt(4.0 - 3.0 * m)
    c1 = 3.0 * m
    return -(5.0 + m + 2.0 * sg), [
        (0.0, "cn/dn", -2 + sg, c1),
        (2 * sg - m - 2 * d4, "sn/dn", -2 - m + d4, c1),
        (2 * sg - m + 2 * d4, "sn/dn", -2 - m - d4, c1),
        (4 * sg, "cn/dn", -2 - sg, c1),
        (5 - 3 * m + 2 * sg, "dn2", 1.0, 0.0),
    ]


# Each edge state's Jacobi factor sn**p cn**q dn**r, as its exponents
# (p, q, r); its jet, its sign under a period, its zeros and its
# log-derivative all follow from them.
_FACTORS = {
    "sn": (1, 0, 0),
    "cn": (0, 1, 0),
    "dn": (0, 0, 1),
    "sncndn": (1, 1, 1),
    "cn/dn": (0, 1, -1),
    "sn/dn": (1, 0, -1),
    "dn2": (0, 0, 2),
}


def _builder(tag: str, c0: float, c1: float):
    """Jet builder (S, C, D, S**2, 1/D) -> jet of the edge state sn**p cn**q dn**r (c0 + c1 sn**2),
    its arguments as :func:`elliptic.jets_from_scd` returns them; dn is the one factor with a
    negative exponent, read as the jet 1/D."""
    p, q, r = _FACTORS[tag]
    first, *more = [0] * p + [1] * q + ([2] * r if r > 0 else [4] * -r)

    def build(*jets):
        jet = jets[first]
        for i in more:
            jet = jet_mul(jet, jets[i])
        if c1 == 0.0:
            return jet
        s, s1, s2 = jets[3]
        return jet_mul(jet, (s * c1 + c0, s1 * c1, s2 * c1))

    return build


def _log_derivative(tag: str, c0: float, c1: float, m: float):
    """(s, c, d) -> psi'/psi of the edge state, in the triple's argument:
    p cd/s - q sd/c - r m sc/d + 2 c1 scd/(c0 + c1 s**2), a term only where
    its exponent or c1 is nonzero, so a point where a factor absent from the
    state vanishes stays finite."""
    p, q, r = _FACTORS[tag]
    rm = r * m

    def w(s, c, d):
        out = 2.0 * c1 * s * c * d / (c0 + c1 * (s * s)) if c1 != 0.0 else 0.0
        if p:
            out = out + p * c * d / s
        if q:
            out = out - q * s * d / c
        if r:
            out = out - rm * s * c / d
        return out

    return w


def _zeros(tag: str, c0: float, c1: float, m: float) -> tuple:
    """sn**2 at the zeros of a row's edge state: those of its Jacobi factor
    (sn = 0, cn = 0, dn = 0 at sn**2 = 0, 1, 1/m, where its exponent is
    positive) and the root of its polynomial."""
    own = tuple(w for k, w in zip(_FACTORS[tag], (0.0, 1.0, 1.0 / m)) if k > 0)
    return own + ((-c0 / c1,) if c1 != 0.0 else ())


_TABLES = {("lame", 1, 0): _lame1, ("lame", 3, 0): _lame3, ("assoc", 2, 1): _assoc21}
ptlame_families = tuple(_TABLES)


def ground_energy(kind: str, a: int, b: int, m: float, pt: bool) -> float:
    """Absolute energy of the lowest band edge for the family."""
    e_g, rows = _TABLES[(kind, a, b)](m)
    return e_g if pt else -(rows[-1][0] + e_g)


@functools.lru_cache(maxsize=8)
def edge_rows(kind: str, a: int, b: int, m: float, pt: bool):
    """Ascending (energy, period class, (type, c0, c1)) rows of a family's
    edges, as a tuple, cached; an unknown family raises KeyError.

    PT energies are relative to the PT ground state, real ones absolute.
    The PT energy map E_j -> -E_{2a-j} reverses the level order, so real
    edge j carries PT row 2a - j.  The class is the sign of the row's Jacobi
    factor under one period of the potential: (sn, cn, dn) -> (-sn, -cn, dn)
    under u -> u + 2K on the real line, (sn, -cn, -dn) under u -> u + 2iK'
    on the PT line; c0 + c1 sn**2 keeps its sign under both.
    """
    e_g, rows = _TABLES[(kind, a, b)](m)
    signs = (1.0, -1.0, -1.0) if pt else (-1.0, -1.0, 1.0)
    rows = tuple((e if pt else -(e + e_g), "P" if math.prod(x**k for x, k in zip(signs, _FACTORS[tag])) > 0 else "A",
                  (tag, c0, c1)) for e, tag, c0, c1 in rows)
    return rows if pt else rows[::-1]


def ground_state_builder(kind: str, a: int, b: int, m: float, pt: bool):
    """(jet builder, sn**2 at its zeros, log-derivative) of a family's ground
    state (energy: :func:`ground_energy`).

    The builder maps the jets :func:`elliptic.jets_from_scd` returns, in the
    natural argument u (real for the plain potential, u = i x + beta for the
    PT version), to the ground-state jet, each an (f, f', f'') tuple in u,
    and the log-derivative maps (sn, cn, dn) values at u to psi'/psi in u, a
    rational expression with no jet.  Both are those of the lowest edge,
    which for the plain potential is the top PT row through the level
    reversal, so they differ between the two versions.  The zeros are where
    a SUSY partner built on it has poles; a spec's ``ground`` keeps only
    them and the log-derivative.
    """
    state = edge_rows(kind, a, b, m, pt)[0][2]
    return _builder(*state), _zeros(*state, m), _log_derivative(*state, m)


class BandEdge(NamedTuple):
    """One closed-form band edge.

    For the PT families ``energy`` is relative to the zero ground state of the
    shifted potential; for the real families it is the plain eigenvalue.
    ``period_class`` is 'P' (period L) or 'A' (antiperiod 2L); ``jet``
    returns (psi, psi', psi'') of the edge state at real x as its table row
    prints it, the type's Jacobi factor times c0 + c1 sn**2, unnormalized,
    with analytic derivatives in x.
    """

    energy: float
    period_class: str
    jet: Callable[[float], tuple[complex, complex, complex]]


# the Jacobi triple's evaluator on a line, built once per line, not once per point
_line_triple = functools.lru_cache(maxsize=4)(ell.jacobi_triple)


@functools.lru_cache(maxsize=256)
def _line_jets(m: float, beta: float | None, x: float):
    """(S, C, D, S**2, 1/D) jets in x (:func:`elliptic.jets_from_scd`) of the potential's Jacobi triple
    at x on the line u = i x + beta (beta given) or the real axis; on the line d/dx = i d/du, applied
    here once per point.  Cached, as every edge table on one line reads the same points, often one
    shared grid."""
    jets = jets_from_scd(*_line_triple(m, beta)(x), m)
    return jets if beta is None else tuple((f, 1j * f1, -f2) for f, f1, f2 in jets)


def _make_edges(kind: str, a: int, b: int, m: float, beta: float | None) -> list[BandEdge]:
    return [BandEdge(energy, cls, lambda x, build=_builder(*state): build(*_line_jets(m, beta, x)))
            for energy, cls, state in edge_rows(kind, a, b, m, beta is not None)]


def pt_band_edges(kind: str, a: int, b: int, m: float, beta: float) -> list[BandEdge]:
    """Closed-form edges of the shifted PT family member, energies relative to its ground edge."""
    return _make_edges(kind, a, b, m, beta)


def real_band_edges(kind: str, a: int, b: int, m: float) -> list[BandEdge]:
    """Closed-form edges of the plain (real) family member, absolute energies."""
    return _make_edges(kind, a, b, m, None)


def closed_form_energies(kind: str, a: int, b: int, m: float, pt: bool, shifted: bool = False) -> list[float]:
    """Edge energies only.  PT energies are absolute unless ``shifted``."""
    offset = ground_energy(kind, a, b, m, pt=True) if pt and not shifted else 0.0
    return [e + offset for e, _, _ in edge_rows(kind, a, b, m, pt)]


# ---------------------------------------------------------------------------
# dispersion for the a=1 PT potential


class DispersionPoint(NamedTuple):
    """Bloch point of the shifted a=1 PT potential at one energy E.

    ``alpha1`` solves m sn(alpha1)**2 = E on the fundamental rectangle.
    ``k`` is reduced to the first Brillouin zone with Re k in [0, pi/L] and
    Im k >= 0; Im k is 0 inside a band.
    """

    alpha1: complex
    k: complex


# distance from a band edge, and |Im k|, below which k counts as real
_BRANCH_TOL = 1e-6


@functools.lru_cache(maxsize=256)
def _alpha_zeta(m: float, E: float) -> tuple[complex, complex]:
    """alpha1 with m sn(alpha1)**2 = E, and Z(alpha1); cached, as the
    dispersion and both Bloch solutions at one energy all read them."""
    alpha1 = ell.inverse_sn(cmath.sqrt(complex(E) / m), m)
    return alpha1, ell.zeta_Z(m, alpha1)


def dispersion_analytic(m: float, beta: float, E: float) -> DispersionPoint:
    """Analytic Bloch wavenumber k(E) for the shifted a=1 PT potential.

    The energy fixes alpha1 through m*sn(alpha1)**2 = E on the fundamental
    rectangle, and the quasi-momentum Z(alpha1) + pi*alpha1/(2KK'), reduced
    to the first zone, fixes k up to its sign.  Both signs give the same
    |Re k| and |Im k|, so k = |Re| + i|Im|, with Im k below 1e-6 set to 0.
    Inside the open bands (0, m) and (1, inf) a larger Im k raises
    :class:`BranchResolutionError` rather than being silently patched.
    beta does not enter k: Delta, and so k, is the same on every line
    i x + beta; it stays an argument because its callers pass it.
    """
    mod = ell.modulus(m)
    g = 2.0 * math.pi / (2.0 * mod.Kprime)  # reciprocal lattice vector 2 pi / L
    alpha1, z1 = _alpha_zeta(m, E)
    kappa = z1 + math.pi * alpha1 / (2.0 * mod.K * mod.Kprime)
    k = kappa - g * round(kappa.real / g)
    k = complex(abs(k.real), abs(k.imag))
    if k.imag < _BRANCH_TOL:
        k = complex(k.real, 0.0)
    elif (_BRANCH_TOL < E < m - _BRANCH_TOL) or E > 1.0 + _BRANCH_TOL:
        raise BranchResolutionError(f"Im k = {k.imag:.3g} at E={E}, inside a band, where k must be real")
    return DispersionPoint(alpha1, k)


@functools.lru_cache(maxsize=256)
def _theta(m: float, u: complex) -> tuple[complex, complex, complex]:
    """Theta(u) with two derivatives; cached, as the Bloch jets at one point, whatever E and sign, read it."""
    return ell.theta_jets(m, u, False)


def bloch_solution_jet(m: float, beta: float, E: float, sign: int, x: float):
    """(psi, psi', psi'') of the closed-form Bloch solution at real x.

    psi(x) = H(i x + beta + sign*alpha1) exp(-sign*(i x + beta) Z(alpha1))
             / Theta(i x + beta),
    with all derivatives taken term-wise through the theta series.  Raises
    :class:`elliptic.ThetaZeroError` where Theta(i x + beta) vanishes.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    alpha1, z1 = _alpha_zeta(m, E)
    u = 1j * x + beta
    h, dh, d2h = ell.theta_jets(m, u + sign * alpha1, True)
    t, dt, d2t = _theta(m, u)
    # product rule on H e^(-sign u Z) / Theta, never dividing by H, so the
    # jet keeps its digits next to a zero of H
    sz = sign * z1
    n1, n2 = dh - sz * h, d2h - 2 * sz * dh + sz * sz * h
    r, r2 = dt / t, d2t / t
    ex = cmath.exp(-sz * u)
    e = ex / t
    return h * ex / t, 1j * e * (n1 - h * r), -e * (n2 - 2 * n1 * r + h * (2 * r * r - r2))
