"""Composable Lame-family potentials and their PT / SUSY constructions.

A potential spec is an immutable tree: a base potential (``Lame`` or
``AssociatedLame``) wrapped by any of ``Shifted`` (constant subtraction),
``PTTransform`` (x -> i x + beta together with an overall sign flip), and
``SusyPartner`` (W**2 + W' built from the zero-energy ground state of the
wrapped spec).  ``compiled_value_fn`` evaluates a spec to complex values at
real x; specs are analytic in x, which the Floquet engine and the
closed-form machinery both rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "Superpotential",
    "superpotential_eval",
    "landen_reduce_equal_ab",
    "compiled_value_fn",
    "wrapper_chain",
    "base_family",
    "has_pt",
    "total_shift",
]

_BETA_POLE_MARGIN = 1e-4


class PotentialError(ValueError):
    """Invalid potential construction or evaluation request."""


class MissingGroundStateError(PotentialError):
    """No closed-form zero-energy ground state is registered for the spec."""


class PotentialSpec:
    """Base class; concrete specs are frozen dataclasses and hashable."""

    @property
    def m(self) -> float:
        raise NotImplementedError

    @property
    def period(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Lame(PotentialSpec):
    """V(x) = a(a+1) m sn(x, m)**2, real period 2K(m).

    a = 0 gives the free particle and is allowed; it is occasionally useful
    as a monodromy sanity case.
    """

    a: int
    m_: float

    def __post_init__(self):
        if self.a < 0 or self.a != int(self.a):
            raise PotentialError(f"Lame index a={self.a!r} must be a nonnegative integer")
        if not 0.0 < self.m_ < 1.0:
            raise PotentialError(f"parameter m={self.m_!r} outside (0, 1)")

    @property
    def m(self) -> float:
        return self.m_

    @property
    def period(self) -> float:
        return 2.0 * ell.modulus(self.m_).K


@dataclass(frozen=True)
class AssociatedLame(PotentialSpec):
    """V(x) = a(a+1) m sn**2 + b(b+1) m cn**2/dn**2, real period 2K(m)."""

    a: int
    b: int
    m_: float

    def __post_init__(self):
        if not (self.a >= self.b >= 1):
            raise PotentialError(
                f"AssociatedLame requires a >= b >= 1; got a={self.a}, b={self.b}"
                " (use associated_lame() to normalize b=0 to Lame)"
            )
        if not 0.0 < self.m_ < 1.0:
            raise PotentialError(f"parameter m={self.m_!r} outside (0, 1)")

    @property
    def m(self) -> float:
        return self.m_

    @property
    def period(self) -> float:
        return 2.0 * ell.modulus(self.m_).K


def associated_lame(a: int, b: int, m: float) -> PotentialSpec:
    """Factory normalizing b = 0 to the plain Lame potential."""
    if b == 0:
        return Lame(a, m)
    return AssociatedLame(a, b, m)


@dataclass(frozen=True)
class Shifted(PotentialSpec):
    """inner(x) - c."""

    inner: PotentialSpec
    c: float

    @property
    def m(self) -> float:
        return self.inner.m

    @property
    def period(self) -> float:
        return self.inner.period


@dataclass(frozen=True)
class PTTransform(PotentialSpec):
    """-inner(i x + beta): complex PT-invariant potential, real period 2K'(m)."""

    inner: PotentialSpec
    beta: float

    def __post_init__(self):
        if has_pt(self.inner):
            raise PotentialError("nested PT transforms are not supported")
        if self.beta == 0.0:
            raise PotentialError("beta must be nonzero (it keeps the pole lattice off the line)")
        mod = ell.modulus(self.inner.m)
        if not 0.0 < self.beta < 2.0 * mod.K:
            raise PotentialError(f"beta={self.beta!r} outside (0, 2K) = (0, {2 * mod.K:.6g})")
        kind, a, b, _ = base_family(self.inner)
        if min(self.beta, 2.0 * mod.K - self.beta) < _BETA_POLE_MARGIN:
            raise PotentialError(f"beta={self.beta!r} within {_BETA_POLE_MARGIN} of the sn pole line")
        if b >= 1 and abs(self.beta - mod.K) < _BETA_POLE_MARGIN:
            raise PotentialError(f"beta={self.beta!r} within {_BETA_POLE_MARGIN} of the dn zero line")
        # Partner ground states can vanish on the line for unlucky beta;
        # validate over one period by direct sampling.
        if _contains_partner(self.inner):
            f = compiled_value_fn(self)
            vals = np.array([f(x) for x in np.linspace(0.0, self.period, 65)])
            if not np.all(np.isfinite(vals)) or np.max(np.abs(vals)) > 1e8:
                raise PotentialError("PT transform hits a singular point on the real line; move beta")

    @property
    def m(self) -> float:
        return self.inner.m

    @property
    def period(self) -> float:
        return 2.0 * ell.modulus(self.inner.m).Kprime


@dataclass(frozen=True)
class SusyPartner(PotentialSpec):
    """W**2 + W' with W = -psi_g'/psi_g from the inner spec's ground state.

    The inner spec must have its lowest band edge at zero energy (wrap it in
    ``Shifted`` by the closed-form ground energy first).
    """

    inner: PotentialSpec

    def __post_init__(self):
        builder, energy, uses_line, _ = _resolve_ground(self.inner)
        if abs(energy) > 1e-9:
            raise MissingGroundStateError(
                f"inner spec has ground energy {energy:.6g}; shift it to zero before taking a partner"
            )

    @property
    def m(self) -> float:
        return self.inner.m

    @property
    def period(self) -> float:
        return self.inner.period


@dataclass(frozen=True)
class CustomPotential(PotentialSpec):
    """Arbitrary analytic potential given by a callable and an explicit period."""

    fn: object
    period_: float
    m_: float = 0.5

    @property
    def m(self) -> float:
        return self.m_

    @property
    def period(self) -> float:
        return self.period_


# ---------------------------------------------------------------------------
# structure helpers


def wrapper_chain(spec: PotentialSpec) -> list[PotentialSpec]:
    """``spec`` and every spec it wraps, outermost first, ending at the base potential."""
    chain = [spec]
    while getattr(chain[-1], "inner", None) is not None:
        chain.append(chain[-1].inner)
    return chain


def has_pt(spec: PotentialSpec) -> bool:
    return any(isinstance(s, PTTransform) for s in wrapper_chain(spec))


def _contains_partner(spec: PotentialSpec) -> bool:
    return any(isinstance(s, SusyPartner) for s in wrapper_chain(spec))


def total_shift(spec: PotentialSpec) -> float:
    """Sum of all Shifted constants along the wrapper chain."""
    return sum((s.c for s in wrapper_chain(spec) if isinstance(s, Shifted)), 0.0)


def base_family(spec: PotentialSpec) -> tuple[str, int, int, float]:
    """(kind, a, b, m) of the base potential under all wrappers."""
    base = wrapper_chain(spec)[-1]
    if isinstance(base, Lame):
        return "lame", base.a, 0, base.m_
    if isinstance(base, AssociatedLame):
        return "assoc", base.a, base.b, base.m_
    if isinstance(base, CustomPotential):
        return "custom", 0, 0, base.m
    raise PotentialError(f"unrecognized spec {spec!r}")


def _resolve_ground(spec: PotentialSpec):
    """(jet builder, ground energy, uses_line, beta) for the spec's ground state.

    The builder maps (S, C, D) jets at the natural argument u to the ground
    state jet; ``uses_line`` marks ground states living on u = i x + beta.
    Lazy import keeps the closed-form tables in one place (spectra).
    """
    from . import spectra

    if isinstance(spec, Shifted):
        builder, energy, uses_line, beta = _resolve_ground(spec.inner)
        return builder, energy - spec.c, uses_line, beta
    if isinstance(spec, SusyPartner):
        builder, energy, uses_line, beta = _resolve_ground(spec.inner)
        # The partner's own zero-energy ground state is 1/psi_g.
        return (lambda S, C, D: builder(S, C, D).reciprocal()), 0.0, uses_line, beta
    if isinstance(spec, PTTransform):
        kind, a, b, m = base_family(spec.inner)
        if total_shift(spec.inner) != 0.0:
            raise MissingGroundStateError("shift the PT transform itself, not the potential under it")
        builder, energy = spectra.ground_state_builder(kind, a, b, m, pt=True)
        return builder, energy, True, spec.beta
    if isinstance(spec, (Lame, AssociatedLame)):
        kind, a, b, m = base_family(spec)
        builder, energy = spectra.ground_state_builder(kind, a, b, m, pt=False)
        return builder, energy, False, 0.0
    raise MissingGroundStateError(f"no registered ground state for {spec!r}")


# ---------------------------------------------------------------------------
# evaluation


def _jacobi_expression(spec: PotentialSpec):
    """(g, sign, shift, beta) with V(x) = sign * g(sn, cn, dn) - shift.

    The Jacobi functions are taken at real x, or on the line i x + beta when
    ``beta`` is not None.  A PT transform flips the sign and moves the
    argument onto its line; a SUSY partner's formula absorbs every shift
    under it, since it depends only on the ground state.
    """
    if isinstance(spec, Lame):
        coef = spec.a * (spec.a + 1) * spec.m_
        return (lambda s, c, d: coef * s * s), 1.0, 0.0, None
    if isinstance(spec, AssociatedLame):
        ca = spec.a * (spec.a + 1) * spec.m_
        cb = spec.b * (spec.b + 1) * spec.m_
        return (lambda s, c, d: ca * s * s + cb * (c / d) ** 2), 1.0, 0.0, None
    if isinstance(spec, Shifted):
        g, sign, shift, beta = _jacobi_expression(spec.inner)
        return g, sign, shift + spec.c, beta
    if isinstance(spec, PTTransform):
        g, sign, shift, _ = _jacobi_expression(spec.inner)
        return g, -sign, -shift, spec.beta
    if isinstance(spec, SusyPartner):
        builder, _, uses_line, beta = _resolve_ground(spec.inner)
        m = spec.m

        def partner(s, c, d):
            # W**2 + W' = 2 (psi'/psi)**2 - psi''/psi in the ground state's
            # own argument u; on the line u = i x + beta, d/dx = i d/du
            # flips its sign
            j = builder(*jets_from_scd(s, c, d, m))
            r = j.d1 / j.f
            return 2.0 * r * r - j.d2 / j.f

        return (partner, -1.0, 0.0, beta) if uses_line else (partner, 1.0, 0.0, None)
    raise PotentialError(f"no Jacobi-function expression for {spec!r}")


def compiled_value_fn(spec: PotentialSpec):
    """Scalar evaluator x -> V(x) for real x; the one way to evaluate a spec.

    A Lame-family spec costs one real Landen pass per call, on the real axis
    or on the line of its PT transform; the Floquet integrator drives this
    inside its right-hand side, so it is kept allocation-free.
    """
    core, shift = spec, 0.0
    while isinstance(core, Shifted):
        core, shift = core.inner, shift + core.c
    if isinstance(core, CustomPotential):
        fn = core.fn
        return lambda x: complex(fn(x)) - shift

    g, sign, shift, beta = _jacobi_expression(spec)
    point = ell.jacobi_triple(spec.m, beta)
    if sign < 0.0:
        return lambda x: -g(*point(x)) - shift
    return lambda x: complex(g(*point(x))) - shift


# ---------------------------------------------------------------------------
# superpotentials


@dataclass(frozen=True)
class Superpotential:
    """W = -psi_g'/psi_g for a zero-ground-energy source spec.

    ``form`` selects between the hard-coded closed-form expressions
    ("closed", available for the PT-transformed a=1, a=3 Lame and (2,1)
    associated Lame cases) and the generic analytic log-derivative of the
    registered ground state ("log-derivative").  Both are exact; they cross
    check each other.
    """

    source: PotentialSpec
    form: str = "log-derivative"

    def __post_init__(self):
        if self.form not in ("closed", "log-derivative"):
            raise PotentialError(f"unknown superpotential form {self.form!r}")
        _resolve_ground(self.source)  # raises if unusable
        if self.form == "closed" and self._closed_key() is None:
            raise PotentialError("no closed-form superpotential for this source")

    def _closed_key(self):
        if not has_pt(self.source):
            return None
        kind, a, b, m = base_family(self.source)
        if (kind, a, b) in (("lame", 1, 0), ("lame", 3, 0), ("assoc", 2, 1)):
            return kind, a, b
        return None


def _closed_superpotential(kind: str, a: int, m: float, s, c, d) -> complex:
    if kind == "lame" and a == 1:
        return -1j * c * d / s
    if kind == "lame" and a == 3:
        d3 = math.sqrt(4.0 - 7.0 * m + 4.0 * m * m)
        p = 2.0 + 2.0 * m - d3 - 5.0 * m * s * s
        return -1j * c * d / s + 10j * m * c * s * d / p
    # (2, 1) associated
    sig = math.sqrt(4.0 - 3.0 * m)
    q = 3.0 * m * s * s - 2.0 + sig
    return 1j * s * d / c - 1j * m * c * s / d - 6j * m * s * d * c / q


def superpotential_eval(w: Superpotential, x: float, tol_zero: float = 1e-10) -> complex:
    """Evaluate W(x); rejects points where the ground state (or a closed-form
    denominator) has effectively vanished."""
    builder, _, uses_line, beta = _resolve_ground(w.source)
    m = w.source.m
    s, c, d = ell.jacobi_triple(m, beta if uses_line else None)(x)
    if w.form == "closed":
        kind, a, b = w._closed_key()
        return _closed_superpotential(kind, a, m, s, c, d)
    j = builder(*jets_from_scd(s, c, d, m))
    if abs(j.f) < tol_zero:
        raise PotentialError(f"ground state vanishes near x={x}; superpotential undefined")
    dfactor = 1j if uses_line else 1.0
    return complex(-dfactor * j.d1 / j.f)


# ---------------------------------------------------------------------------
# Landen reduction of the a = b associated potentials


def landen_reduce_equal_ab(spec: AssociatedLame, grid_points: int = 100) -> tuple[Lame, float]:
    """Rewrite an a = b associated Lame potential as a rescaled Lame potential.

    Returns ``(lame, const)`` such that

        V_assoc(x) = const + V_lame(x / alpha) / alpha**2

    with ``alpha, m_tilde = landen_descend(m)`` and ``lame = Lame(a, m_tilde)``.
    The additive constant is fitted at one grid point and the residual is
    asserted to be constant (< 1e-9) across a full period, which turns the
    otherwise free constant into a checked property.
    """
    if not isinstance(spec, AssociatedLame) or spec.a != spec.b:
        raise PotentialError("landen_reduce_equal_ab requires an AssociatedLame spec with a == b")
    alpha, mt = ell.landen_descend(spec.m_)
    lame = Lame(spec.a, mt)
    f_assoc = compiled_value_fn(spec)
    f_lame = compiled_value_fn(lame)
    xs = np.linspace(0.0, spec.period, grid_points, endpoint=False) + 0.0137
    resid = np.array([f_assoc(x) - f_lame(x / alpha) / alpha**2 for x in xs])
    const = complex(resid[0]).real
    spread = float(np.max(np.abs(resid - resid[0])))
    if spread > 1e-9:
        raise PotentialError(f"Landen reduction residual varies by {spread:.3e}; reduction invalid")
    return lame, const
