"""Closed-form band edges, eigenfunctions, duality maps, and dispersion.

Three potential families carry complete closed-form edge data: the a=1 and
a=3 Lame potentials and the (a=2, b=1) associated Lame potential, each in
both the real and the PT-transformed version.  Eigenfunctions are built as
second-order jets so that Schrodinger residuals and partner potentials use
analytic derivatives.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import elliptic as ell
from . import floquet
from . import potentials
from .elliptic import Jet2, jets_from_scd

__all__ = [
    "EdgeConstants",
    "edge_constants",
    "BandEdge",
    "DispersionPoint",
    "BranchResolutionError",
    "real_band_edges",
    "pt_band_edges",
    "closed_form_energies",
    "predicted_edges",
    "ground_state_builder",
    "ground_energy",
    "lame_edge_energies",
    "modulus_duality_check",
    "pt_duality_check",
    "dispersion_analytic",
    "bloch_solution_jet",
    "ptlame_families",
]

# period class of each eigenfunction type under one real period of the
# potential: u -> u + 2K for the real family, u -> u + 2iK' for the PT one
_REAL_CLASS = {"sn": "A", "cn": "A", "dn": "P", "sncndn": "P", "cn/dn": "A", "sn/dn": "A", "dn2": "P"}
_PT_CLASS = {"sn": "P", "cn": "A", "dn": "A", "sncndn": "P", "cn/dn": "P", "sn/dn": "A", "dn2": "P"}

ptlame_families = (("lame", 1, 0), ("lame", 3, 0), ("assoc", 2, 1))


class BranchResolutionError(RuntimeError):
    """No sign branch of the analytic dispersion gives a real in-band k."""


@dataclass(frozen=True)
class EdgeConstants:
    """The four square-root combinations entering the closed-form edges."""

    delta1: float
    delta2: float
    delta3: float
    delta4: float


def edge_constants(m: float) -> EdgeConstants:
    return EdgeConstants(
        delta1=math.sqrt(1.0 - m + 4.0 * m * m),
        delta2=math.sqrt(4.0 - m + m * m),
        delta3=math.sqrt(4.0 - 7.0 * m + 4.0 * m * m),
        delta4=math.sqrt(4.0 - 5.0 * m + m * m),
    )


def _sigma(m: float) -> float:
    return math.sqrt(4.0 - 3.0 * m)


# Each row is (energy, eigenfunction type, c0, c1): the edge state is the
# type's Jacobi factor times c0 + c1 sn**2 (the factor alone when c1 = 0).
def _rows_lame1(m: float):
    return [(0.0, "sn", 1.0, 0.0), (m, "cn", 1.0, 0.0), (1.0, "dn", 1.0, 0.0)]


def _rows_lame3(m: float):
    d = edge_constants(m)
    c1 = -5.0 * m
    return [
        (0.0, "sn", 2 + 2 * m - d.delta3, c1),
        (3 * m + 2 * d.delta3 - 2 * d.delta2, "cn", 2 + m - d.delta2, c1),
        (3 + 2 * d.delta3 - 2 * d.delta1, "dn", 1 + 2 * m - d.delta1, c1),
        (1 + m + 2 * d.delta3, "sncndn", 1.0, 0.0),
        (4 * d.delta3, "sn", 2 + 2 * m + d.delta3, c1),
        (3 * m + 2 * d.delta3 + 2 * d.delta2, "cn", 2 + m + d.delta2, c1),
        (3 + 2 * d.delta3 + 2 * d.delta1, "dn", 1 + 2 * m + d.delta1, c1),
    ]


def _rows_assoc21(m: float):
    d4 = edge_constants(m).delta4
    sg = _sigma(m)
    c1 = 3.0 * m
    return [
        (0.0, "cn/dn", -2 + sg, c1),
        (2 * sg - m - 2 * d4, "sn/dn", -2 - m + d4, c1),
        (2 * sg - m + 2 * d4, "sn/dn", -2 - m - d4, c1),
        (4 * sg, "cn/dn", -2 - sg, c1),
        (5 - 3 * m + 2 * sg, "dn2", 1.0, 0.0),
    ]


_FACTORS = {
    "sn": lambda S, C, D: S,
    "cn": lambda S, C, D: C,
    "dn": lambda S, C, D: D,
    "sncndn": lambda S, C, D: S * C * D,
    "cn/dn": lambda S, C, D: C / D,
    "sn/dn": lambda S, C, D: S / D,
    "dn2": lambda S, C, D: D * D,
}


def _builder(tag: str, c0: float, c1: float):
    factor = _FACTORS[tag]
    if c1 == 0.0:
        return factor
    return lambda S, C, D: factor(S, C, D) * (c0 + c1 * (S * S))


def _zeros(tag: str, c0: float, c1: float, m: float) -> tuple:
    """sn**2 at the zeros of a row's edge state: those of its Jacobi factor
    (sn = 0, cn = 0, dn = 0 at sn**2 = 0, 1, 1/m) and the root of its
    polynomial."""
    numerator = tag.split("/")[0]
    own = tuple(w for name, w in (("sn", 0.0), ("cn", 1.0), ("dn", 1.0 / m)) if name in numerator)
    return own + ((-c0 / c1,) if c1 != 0.0 else ())


_FAMILY_ROWS = {
    ("lame", 1, 0): _rows_lame1,
    ("lame", 3, 0): _rows_lame3,
    ("assoc", 2, 1): _rows_assoc21,
}


def ground_energy(kind: str, a: int, b: int, m: float, pt: bool) -> float:
    """Absolute energy of the lowest band edge for the family."""
    if (kind, a, b) not in _FAMILY_ROWS:
        raise potentials.MissingGroundStateError(f"no closed forms for family {(kind, a, b)!r}")
    if not pt:
        return _edge_rows(kind, a, b, m, False)[0][0]
    if kind == "lame" and a == 1:
        return -(1.0 + m)
    if kind == "lame" and a == 3:
        return -(5.0 + 5.0 * m + 2.0 * edge_constants(m).delta3)
    return -(5.0 + m + 2.0 * _sigma(m))


def _edge_rows(kind: str, a: int, b: int, m: float, pt: bool):
    """Ascending (energy, period class, (type, c0, c1)) rows of a family's edges.

    PT energies are relative to the PT ground state, real ones absolute.
    The PT energy map E_j -> -E_{2a-j} reverses the level order, so real
    edge j carries PT row 2a - j.  The class is the eigenfunction type's
    behavior under the real or the imaginary period.
    """
    e_g = ground_energy(kind, a, b, m, pt=True)  # raises for a family without closed forms
    rows = _FAMILY_ROWS[(kind, a, b)](m)
    if pt:
        return [(e, _PT_CLASS[tag], (tag, c0, c1)) for e, tag, c0, c1 in rows]
    return [(-(e + e_g), _REAL_CLASS[tag], (tag, c0, c1)) for e, tag, c0, c1 in reversed(rows)]


def ground_state_builder(kind: str, a: int, b: int, m: float, pt: bool):
    """(jet builder, absolute ground energy, sn**2 at its zeros) for a family.

    The builder maps (S, C, D) jets in the natural argument u (real for the
    plain potential, u = i x + beta for the PT version) to the ground-state
    jet.  It is the builder of the lowest edge, which for the plain potential
    is the top PT row through the level reversal, so it differs between the
    two versions.  The zeros are where a SUSY partner built on it has poles.
    """
    state = _edge_rows(kind, a, b, m, pt)[0][2]
    return _builder(*state), ground_energy(kind, a, b, m, pt), _zeros(*state, m)


@dataclass(frozen=True)
class BandEdge:
    """One closed-form band edge.

    For the PT families ``energy`` is relative to the zero ground state of the
    shifted potential; for the real families it is the plain eigenvalue.
    ``period_class`` is 'P' (period L) or 'A' (antiperiod 2L); ``jet``
    returns (psi, psi', psi'') of the edge state, normalized to max|psi| = 1
    over one period, with analytic derivatives.
    """

    index: int
    energy: float
    period_class: str
    jet: Callable[[float], tuple[complex, complex, complex]]


def _make_edges(kind: str, a: int, b: int, m: float, beta: float | None, pt: bool) -> list[BandEdge]:
    mod = ell.modulus(m)
    length = 2.0 * (mod.Kprime if pt else mod.K)
    # the potential's own Jacobi triple: on the line u = i x + beta for the
    # PT version, where d/dx = i d/du, else on the real axis
    point = ell.jacobi_triple(m, beta if pt else None)
    dfac = 1j if pt else 1.0

    edges = []
    for idx, (energy, cls, state) in enumerate(_edge_rows(kind, a, b, m, pt)):
        def raw(x: float, build=_builder(*state)) -> Jet2:
            return build(*jets_from_scd(*point(x), m))

        norm = max(abs(raw(x).f) for x in np.linspace(0.0, length, 256, endpoint=False))

        def jet(x: float, raw=raw, norm=norm) -> tuple[complex, complex, complex]:
            j = raw(x)
            return j.f / norm, dfac * j.d1 / norm, dfac * dfac * j.d2 / norm

        edges.append(BandEdge(idx, energy, cls, jet))
    return edges


def pt_band_edges(kind: str, a: int, b: int, m: float, beta: float) -> list[BandEdge]:
    """Closed-form edges of the shifted PT family member, energies relative to its ground edge."""
    return _make_edges(kind, a, b, m, beta, pt=True)


def real_band_edges(kind: str, a: int, b: int, m: float) -> list[BandEdge]:
    """Closed-form edges of the plain (real) family member, absolute energies."""
    return _make_edges(kind, a, b, m, None, pt=False)


def closed_form_energies(kind: str, a: int, b: int, m: float, pt: bool, shifted: bool = False) -> list[float]:
    """Edge energies only.  PT energies are absolute unless ``shifted``."""
    offset = ground_energy(kind, a, b, m, pt=True) if pt and not shifted else 0.0
    return [e + offset for e, _, _ in _edge_rows(kind, a, b, m, pt)]


def predicted_edges(spec) -> list[tuple[float, str]] | None:
    """Closed-form (energy, period class) of every edge of a composed spec,
    ascending; None when its base family has no closed forms.

    The rows are the family's, moved by the offset of its
    :func:`potentials.normal_form`; the PT rows apply under a PT transform.
    """
    f = potentials.normal_form(spec)
    if f.offset is None:
        return None
    return [(e + f.offset, cls) for e, cls, _ in _edge_rows(f.kind, f.a, f.b, f.m, f.beta is not None)]


# ---------------------------------------------------------------------------
# dualities


@functools.lru_cache(maxsize=8)
def lame_edge_energies(a: int, m: float) -> tuple[float, ...]:
    """Simple edge energies of the plain Lame potential, ascending: the closed
    forms for a in {1, 3}, else the Floquet edges in [-0.5, a(a+1) + 0.5].
    Cached, so a check that needs one Floquet edge set twice searches once."""
    if a in (1, 3):
        return tuple(closed_form_energies("lame", a, 0, m, pt=False))
    found = floquet.find_band_edges(potentials.Lame(a, m), -0.5, a * (a + 1) + 0.5)
    return tuple(e.energy for e in found if e.multiplicity == 1)


def modulus_duality_check(a: int, m: float) -> float:
    """Largest violation of E_j(m) = a(a+1) - E_{2a-j}(1-m) on the Lame family.

    Closed forms for a in {1, 3}; the Floquet engine supplies a=2 (both
    parameters).  At m = 1/2 this is exactly the sum rule
    E_j + E_{2a-j} = a(a+1).
    """
    if a not in (1, 2, 3):
        raise ValueError("the modulus duality check supports a in {1, 2, 3}")
    lhs = lame_edge_energies(a, m)
    rhs = [a * (a + 1) - e for e in reversed(lame_edge_energies(a, 1.0 - m))]
    return max(abs(x - y) for x, y in zip(lhs, rhs))


def pt_duality_check(a: int, m: float) -> float:
    """Largest violation of E^PT_j(m) = E_j(1-m) - a(a+1) between the closed-form
    PT and plain spectra."""
    if a not in (1, 3):
        raise ValueError("the PT duality check supports a in {1, 3}")
    lhs = closed_form_energies("lame", a, 0, m, pt=True)
    rhs = [e - a * (a + 1) for e in closed_form_energies("lame", a, 0, 1.0 - m, pt=False)]
    return max(abs(x - y) for x, y in zip(lhs, rhs))


# ---------------------------------------------------------------------------
# dispersion for the a=1 PT potential


@dataclass(frozen=True)
class DispersionPoint:
    """Bloch point of the shifted a=1 PT potential.

    ``k`` is reduced to the first Brillouin zone with Re k in [0, pi/L] and
    Im k >= 0; ``branch`` records which sign of the raw quasi-momentum was
    selected by the reality criterion.
    """

    E: float
    alpha1: complex
    k: complex
    branch: int


# distance from a band edge, and |Im k|, below which k counts as real
_BRANCH_TOL = 1e-6


def _alpha_kappa(m: float, E: float) -> tuple[complex, complex]:
    mod = ell.modulus(m)
    w = cmath.sqrt(complex(E) / m)
    alpha1 = ell.inverse_sn(w, m)
    z1 = ell.zeta_Z(ell.theta_bundle(m), alpha1)
    kappa = z1 + math.pi * alpha1 / (2.0 * mod.K * mod.Kprime)
    return alpha1, kappa


def _fold_bz(k: complex, L: float) -> complex:
    g = 2.0 * math.pi / L
    return k - g * round(k.real / g)


def dispersion_analytic(m: float, beta: float, E: float) -> DispersionPoint:
    """Analytic Bloch wavenumber k(E) for the shifted a=1 PT potential.

    The energy fixes alpha1 through m*sn(alpha1)**2 = E on the fundamental
    rectangle; the quasi-momentum is Z(alpha1) + pi*alpha1/(2KK'), with the
    sign branch resolved by requiring Im k = 0 inside the open bands
    (0, m) and (1, inf).  A failure of that requirement raises
    :class:`BranchResolutionError` rather than being silently patched.
    """
    mod = ell.modulus(m)
    L = 2.0 * mod.Kprime
    alpha1, kappa = _alpha_kappa(m, E)
    in_band = (_BRANCH_TOL < E < m - _BRANCH_TOL) or (E > 1.0 + _BRANCH_TOL)
    candidates = [(-1, _fold_bz(-kappa, L)), (+1, _fold_bz(kappa, L))]
    if in_band:
        real_ones = [(b, k) for b, k in candidates if abs(k.imag) < _BRANCH_TOL]
        if not real_ones:
            raise BranchResolutionError(
                f"no sign branch gives a real Bloch wavenumber at E={E} (candidates {candidates})"
            )
        branch, k = max(real_ones, key=lambda bk: bk[1].real)
        k = complex(abs(k.real), 0.0)
    else:
        branch, k = max(candidates, key=lambda bk: bk[1].imag)
        k = complex(abs(k.real), k.imag)
        if abs(k.imag) < _BRANCH_TOL:
            k = complex(k.real, 0.0)
    return DispersionPoint(E, alpha1, k, branch)


def bloch_solution_jet(m: float, beta: float, E: float, sign: int, x: float):
    """(psi, psi', psi'') of the closed-form Bloch solution at real x.

    psi(x) = H(i x + beta + sign*alpha1) exp(-sign*(i x + beta) Z(alpha1))
             / Theta(i x + beta),
    with all derivatives taken term-wise through the theta series.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    bundle = ell.theta_bundle(m)
    alpha1, _ = _alpha_kappa(m, E)
    z1 = ell.zeta_Z(bundle, alpha1)
    u = 1j * x + beta
    (h, dh, d2h), _ = ell.theta_jets(bundle, u + sign * alpha1)
    (_, _, _), (t, dt, d2t) = ell.theta_jets(bundle, u)
    if abs(t) < 1e-12:
        raise ell.ThetaZeroError(f"Theta vanishes near x={x}")
    val = h * cmath.exp(-sign * u * z1) / t
    g = dh / h - sign * z1 - dt / t
    gp = (d2h / h - (dh / h) ** 2) - (d2t / t - (dt / t) ** 2)
    return val, 1j * val * g, -val * (g * g + gp)
