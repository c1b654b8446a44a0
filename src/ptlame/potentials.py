"""Composable Lame-family potentials and their PT / SUSY constructions.

A potential spec is an immutable tree: a base potential (``AssociatedLame``,
of which ``Lame`` is the b = 0 case) wrapped by any of ``Shifted`` (constant
subtraction), ``PTTransform`` (x -> i x + beta together with an overall sign
flip), and ``SusyPartner`` (W**2 + W' built from the zero-energy ground state
of the wrapped spec); ``build`` composes the paper's constructions.
``normal_form`` reduces a tree to its base family, the
Jacobi-function expression of V and the closed-form data that survive the
wrappers; every structural question reads it.  ``compiled_value_fn``
evaluates a spec to complex values at real x, a float or a whole float
ndarray in one numpy pass; specs are analytic in x, which the Floquet engine
and the closed-form machinery both rely on.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import elliptic as ell
from .elliptic import jets_from_scd

__all__ = [
    "PotentialError",
    "MissingGroundStateError",
    "PotentialSpec",
    "Lame",
    "AssociatedLame",
    "associated_lame",
    "PTTransform",
    "Shifted",
    "SusyPartner",
    "CustomPotential",
    "build",
    "compiled_value_fn",
    "Form",
    "normal_form",
    "ground_state",
    "on_line",
    "pole_lines",
]

_BETA_POLE_MARGIN = 1e-4


class PotentialError(ValueError):
    """Invalid potential construction or evaluation request."""


class MissingGroundStateError(PotentialError):
    """No closed-form zero-energy ground state is registered for the spec."""


class PotentialSpec:
    """Base class; concrete specs are frozen dataclasses and hashable, so
    their :func:`normal_form` is computed once."""

    @property
    def m(self) -> float | None:
        return normal_form(self).m

    @property
    def period(self) -> float:
        return normal_form(self).period


@dataclass(frozen=True)
class AssociatedLame(PotentialSpec):
    """V(x) = a(a+1) m sn**2 + b(b+1) m cn**2/dn**2 with integers a >= b >= 0,
    real period 2K(m); b = 0 is the Lame potential.

    a = 0 gives the free particle and is allowed; it is occasionally useful
    as a monodromy sanity case.
    """

    a: int
    b: int
    m_: float

    def __post_init__(self):
        if not (self.a == int(self.a) and self.b == int(self.b) and self.a >= self.b >= 0):
            raise PotentialError(f"associated Lame indices must be integers a >= b >= 0; got a={self.a!r},"
                                 f" b={self.b!r}")
        if not 0.0 < self.m_ < 1.0:
            raise PotentialError(f"parameter m={self.m_!r} outside (0, 1)")


associated_lame = AssociatedLame


def Lame(a: int, m: float) -> AssociatedLame:
    """V(x) = a(a+1) m sn(x, m)**2: the associated Lame potential with b = 0."""
    return AssociatedLame(a, 0, m)


@dataclass(frozen=True)
class Shifted(PotentialSpec):
    """inner(x) - c."""

    inner: PotentialSpec
    c: float


@dataclass(frozen=True)
class PTTransform(PotentialSpec):
    """-inner(i x + beta): complex PT-invariant potential, real period 2K'(m)."""

    inner: PotentialSpec
    beta: float

    def __post_init__(self):
        inner = normal_form(self.inner)
        if inner.kind == "custom":
            raise PotentialError("cannot PT-transform a custom potential: it has no Jacobi-function"
                                 " expression to continue onto the line i x + beta")
        if inner.beta is not None:
            raise PotentialError("nested PT transforms are not supported")
        mod = ell.modulus(inner.m)
        if not 0.0 < self.beta < 2.0 * mod.K:
            raise PotentialError(f"beta={self.beta!r} outside (0, 2K) = (0, {2 * mod.K:.6g})")
        names = ("sn pole line", "dn zero line")[: 1 + (inner.b >= 1)]
        for k, r in enumerate(pole_lines(inner.poles, inner.m)):
            if min(abs(self.beta - r), abs(2.0 * mod.K - r - self.beta)) < _BETA_POLE_MARGIN:
                line = names[k] if k < len(names) else "zero line of the partner's ground state"
                raise PotentialError(f"beta={self.beta!r} within {_BETA_POLE_MARGIN} of the {line}")


@dataclass(frozen=True)
class SusyPartner(PotentialSpec):
    """W**2 + W' with W = -psi_g'/psi_g from the inner spec's ground state.

    The inner spec must have its lowest band edge at zero energy (wrap it in
    ``Shifted`` by the closed-form ground energy first).
    """

    inner: PotentialSpec

    def __post_init__(self):
        _, energy = ground_state(self.inner)
        if abs(energy) > 1e-9:
            raise MissingGroundStateError(
                f"inner spec has ground energy {energy:.6g}; shift it to zero before taking a partner"
            )


@dataclass(frozen=True)
class CustomPotential(PotentialSpec):
    """Arbitrary analytic potential given by a callable and an explicit
    period; it has no elliptic parameter, so its ``m`` is None."""

    fn: object
    period_: float


def build(a: int, b: int, m: float, beta: float, ops=(), shift_zero: bool = False) -> PotentialSpec:
    """The (a, b) associated Lame potential at m with ``ops`` applied in order
    ("pt": the PT transform onto the line i x + beta; "partner": the SUSY
    partner, after a shift to the closed-form ground energy), then, with
    ``shift_zero``, shifted so its lowest closed-form edge sits at zero.
    Raises PotentialError for an invalid construction or an unknown op."""
    from . import spectra

    def ground(spec):
        rows = spectra.predicted_edges(spec)
        if rows is None:
            raise MissingGroundStateError(f"a partner or a shift to zero needs closed-form edges;"
                                          f" none for (a={a}, b={b})")
        return rows[0][0]

    spec = AssociatedLame(a, b, m)
    for op in ops:
        if op not in ("pt", "partner"):
            raise PotentialError(f"unknown op {op!r}")
        spec = PTTransform(spec, beta) if op == "pt" else SusyPartner(Shifted(spec, ground(spec)))
    if shift_zero and abs(e0 := ground(spec)) > 1e-12:
        spec = Shifted(spec, e0)
    return spec


# ---------------------------------------------------------------------------
# normal form


class Form(NamedTuple):
    """A spec reduced by :func:`normal_form`.

    ``kind``, ``a``, ``b``, ``m`` name the base family ("lame", "assoc" or
    "custom", whose ``m`` is None); V(x) = sign * g(sn, cn, dn) - shift with
    the Jacobi triple at real x, or on the line i x + beta when ``beta`` is
    set (a custom potential's ``g`` is its own function of x).  ``offset``
    moves the family's closed-form edge rows (PT rows when ``beta`` is set)
    onto the spec's energies, ``ground`` is the closed-form ground state as
    (jet builder in the triple's argument, energy, sn**2 at its zeros); both
    are None without closed forms.  ``partner`` marks a SUSY partner anywhere
    in the tree.  ``poles`` holds sn**2 at the poles of g in the triple's
    argument (inf at the poles of sn), and may hold a few more points, never
    fewer; the Floquet engine keeps its integration line away from them.
    """

    kind: str
    a: int
    b: int
    m: float | None
    period: float
    g: Callable
    sign: float
    shift: float
    beta: float | None
    offset: float | None
    ground: tuple | None
    partner: bool
    poles: tuple


@functools.lru_cache(maxsize=256)
def normal_form(spec: PotentialSpec) -> Form:
    """The :class:`Form` of a spec: one walk of its wrapper tree, cached.

    A shift lowers V, its edges and its ground energy.  A PT transform flips
    the sign, moves the argument onto its line and maps E to -E, so the PT
    rows apply and a shift under it moves the edges up; only the bare family
    keeps a closed-form ground state under it.  A SUSY partner keeps the
    edges, depends only on the ground state (it absorbs every shift under
    it), and has the zero-energy ground state 1/psi_g; its poles are those
    of V and the zeros of psi_g (the zeros of 1/psi_g are poles of psi_g,
    which lie among those of V).  The closed-form tables live in spectra
    (lazy import).
    """
    from . import spectra

    if isinstance(spec, AssociatedLame):
        kind, b = "assoc" if spec.b else "lame", spec.b
        ca, cb = spec.a * (spec.a + 1) * spec.m_, b * (b + 1) * spec.m_
        g = (lambda s, c, d: ca * s * s) if b == 0 else (lambda s, c, d: ca * s * s + cb * (c / d) ** 2)
        closed = (kind, spec.a, b) in spectra.ptlame_families
        ground = spectra.ground_state_builder(kind, spec.a, b, spec.m_, pt=False) if closed else None
        poles = (math.inf,) if b == 0 else (math.inf, 1.0 / spec.m_)  # sn poles, dn zeros
        return Form(kind, spec.a, b, spec.m_, 2.0 * ell.modulus(spec.m_).K, g, 1.0, 0.0, None,
                    0.0 if closed else None, ground, False, poles)
    if isinstance(spec, CustomPotential):
        return Form("custom", 0, 0, None, spec.period_, spec.fn, 1.0, 0.0, None, None, None, False, ())
    if not isinstance(spec, (Shifted, PTTransform, SusyPartner)):
        raise PotentialError(f"unrecognized spec {spec!r}")
    f = normal_form(spec.inner)
    if isinstance(spec, Shifted):
        ground = None if f.ground is None else (f.ground[0], f.ground[1] - spec.c, f.ground[2])
        return f._replace(shift=f.shift + spec.c, offset=None if f.offset is None else f.offset - spec.c,
                          ground=ground)
    if isinstance(spec, PTTransform):
        closed = f.offset is not None
        bare = closed and f.shift == 0.0 and not f.partner
        return f._replace(
            period=2.0 * ell.modulus(f.m).Kprime, sign=-f.sign, shift=-f.shift, beta=spec.beta,
            offset=spectra.ground_energy(f.kind, f.a, f.b, f.m, pt=True) - f.offset if closed else None,
            ground=spectra.ground_state_builder(f.kind, f.a, f.b, f.m, pt=True) if bare else None)
    (builder, _, zeros), m = f.ground, f.m  # a SusyPartner, validated to have it

    def partner(s, c, d):
        # W**2 + W' = 2 (psi'/psi)**2 - psi''/psi in the ground state's own
        # argument u; on the line u = i x + beta, d/dx = i d/du flips its sign
        j = builder(*jets_from_scd(s, c, d, m))
        r = j.d1 / j.f
        return 2.0 * r * r - j.d2 / j.f

    return f._replace(g=partner, sign=1.0 if f.beta is None else -1.0, shift=0.0,
                      ground=(lambda S, C, D: builder(S, C, D).reciprocal(), 0.0, ()), partner=True,
                      poles=f.poles + zeros)


@functools.lru_cache(maxsize=256)
def pole_lines(poles: tuple, m: float) -> tuple[float, ...]:
    """r in [0, K] for each sn**2 value in ``poles`` (a :class:`Form`'s): the
    poles of V lie on the lines Re u = +-r (mod 2K) of its Jacobi argument u."""
    return tuple(0.0 if math.isinf(w) else abs(ell.inverse_sn(cmath.sqrt(w), m).real) for w in poles)


def ground_state(spec: PotentialSpec):
    """(jet builder, energy) of the spec's closed-form ground state.

    The builder maps (S, C, D) jets at the spec's Jacobi argument (real x,
    or i x + beta under a PT transform) to the ground-state jet.
    """
    f = normal_form(spec)
    if f.offset is None:
        raise MissingGroundStateError(f"no closed forms for family {(f.kind, f.a, f.b)!r}")
    if f.ground is None:
        raise MissingGroundStateError("a shift or SUSY partner under a PT transform has no closed-form ground state")
    return f.ground[:2]


def on_line(spec: PotentialSpec, beta: float) -> PotentialSpec:
    """The spec with its PT transform moved onto the line i x + beta; a spec
    without one comes back equal to itself."""
    if isinstance(spec, PTTransform):
        return PTTransform(spec.inner, beta)
    if isinstance(spec, (Shifted, SusyPartner)):
        return dataclasses.replace(spec, inner=on_line(spec.inner, beta))
    return spec


def compiled_value_fn(spec: PotentialSpec):
    """Evaluator x -> V(x) at real x; the one way to evaluate a spec.

    x is a float, giving a Python complex, or a float ndarray, giving a
    complex array of its shape.  A Lame-family spec costs one real Landen
    pass per call, on the real axis or on the line of its PT transform, and
    an array takes that pass elementwise in numpy, so a grid is one call.
    The Floquet integrator calls it with a float inside its right-hand side,
    once per stage: a step's 12 stage nodes cost more as one array.  A custom
    potential's callable is user code that may take only floats, so an array
    is fed to it point by point.
    """
    f = normal_form(spec)
    g, shift = f.g, f.shift
    if f.kind == "custom":
        pointwise = np.frompyfunc(g, 1, 1)  # hands g each element as a Python float
        return lambda x: (pointwise(x).astype(complex) if isinstance(x, np.ndarray) else complex(g(x))) - shift
    point = ell.jacobi_triple(f.m, f.beta)
    if f.sign < 0.0:
        return lambda x: -g(*point(x)) - shift
    return lambda x: g(*point(x)) + 0j - shift
