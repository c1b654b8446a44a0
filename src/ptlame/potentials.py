"""Composable Lame-family potentials and their PT / SUSY constructions.

A potential spec is a record, :class:`PotentialSpec`: the base family, the
Jacobi-function expression of V and the closed-form data that survive the
maps applied to it.  ``AssociatedLame`` (of which ``Lame`` is the b = 0
case) and ``CustomPotential`` build one; ``Shifted`` (constant
subtraction), ``PTTransform`` (x -> i x + beta together with an overall sign
flip) and ``SusyPartner`` (W**2 + W' built from the zero-energy ground state
of its argument) each map a spec to a new one, and ``build`` composes the
paper's constructions.  A spec records the order of its PT and partner
maps, not its shifts, and ``==`` is not structural: V and the ground state
are closures made anew by each construction, so two constructions of one
potential differ.
``compiled_value_fn`` evaluates a spec to complex values at real x, a float
or a whole float ndarray in one numpy pass, on its own line or, for a PT
spec, on any other; specs are analytic in x, which the Floquet engine and
the closed forms use.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import elliptic as ell
from . import spectra

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
    "predicted_edges",
    "pole_lines",
]

_BETA_POLE_MARGIN = 1e-4


class PotentialError(ValueError):
    """Invalid potential construction or evaluation request."""


class MissingGroundStateError(PotentialError):
    """No closed-form zero-energy ground state is registered for the spec."""


class PotentialSpec(NamedTuple):
    """A potential, as the constructors of this module build it.

    ``kind``, ``a``, ``b``, ``m`` name the base family ("lame", "assoc" or
    "custom", whose ``m`` is None); V(x) = sign * g(sn, cn, dn) - shift with
    the Jacobi triple at real x, or on the line i x + beta when ``beta`` is
    set (a custom potential's ``g`` is its own function of x).  ``offset``
    moves the family's closed-form edge rows (PT rows when ``beta`` is set)
    onto the spec's energies, ``ground`` is the closed-form ground state as
    (sn**2 at its zeros, its log-derivative psi'/psi in the triple's
    argument as a function of the triple's values), all a SUSY partner
    reads of it, its energy the first edge row; both are None without
    closed forms (its jet is :func:`spectra.ground_state_builder`'s).
    ``maps`` names the PT transform ("pt") and SUSY partner maps ("partner")
    applied, in order, and ``partner`` is whether one is a partner map.
    ``poles`` holds sn**2 at the poles of g in the triple's argument (inf at
    the poles of sn), and may hold a few more points, never fewer; the
    Floquet engine keeps its integration line away from them.

    ``g`` and the ground state's log-derivative are closures made by each
    construction, so two separate constructions of one potential do not
    compare equal; compare their fields and values instead.  A spec hashes,
    so it can key a cache.
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
    maps: tuple
    poles: tuple

    @property
    def partner(self) -> bool:
        return "partner" in self.maps


def AssociatedLame(a: int, b: int, m: float) -> PotentialSpec:
    """V(x) = a(a+1) m sn**2 + b(b+1) m cn**2/dn**2 with integers a >= b >= 0,
    real period 2K(m); b = 0 is the Lame potential.

    a = 0 gives the free particle and is allowed; it is occasionally useful
    as a monodromy sanity case.
    """
    if not (a == int(a) and b == int(b) and a >= b >= 0):
        raise PotentialError(f"associated Lame indices must be integers a >= b >= 0; got a={a!r}, b={b!r}")
    if not 0.0 < m < 1.0:
        raise PotentialError(f"parameter m={m!r} outside (0, 1)")
    kind = "assoc" if b else "lame"
    ca, cb = a * (a + 1) * m, b * (b + 1) * m
    g = (lambda s, c, d: ca * s * s) if b == 0 else (lambda s, c, d: ca * s * s + cb * (c / d) ** 2)
    closed = (kind, a, b) in spectra.ptlame_families
    ground = spectra.ground_state_builder(kind, a, b, m, pt=False)[1:] if closed else None
    poles = (math.inf,) if b == 0 else (math.inf, 1.0 / m)  # sn poles, dn zeros
    return PotentialSpec(kind, a, b, m, 2.0 * ell.modulus(m).K, g, 1.0, 0.0, None,
                         0.0 if closed else None, ground, (), poles)


associated_lame = AssociatedLame


def Lame(a: int, m: float) -> PotentialSpec:
    """V(x) = a(a+1) m sn(x, m)**2: the associated Lame potential with b = 0."""
    return AssociatedLame(a, 0, m)


def Shifted(spec: PotentialSpec, c: float) -> PotentialSpec:
    """spec(x) - c: the shift lowers V, its edges and its ground energy."""
    return spec._replace(shift=spec.shift + c, offset=None if spec.offset is None else spec.offset - c)


def PTTransform(spec: PotentialSpec, beta: float) -> PotentialSpec:
    """-spec(i x + beta): complex PT-invariant potential, real period 2K'(m).

    The sign flips, the argument moves onto the line and E maps to -E, so
    the PT rows apply and a shift under the transform moves the edges up;
    only the bare family keeps a closed-form ground state under it.
    """
    if spec.kind == "custom":
        raise PotentialError("cannot PT-transform a custom potential: it has no Jacobi-function"
                             " expression to continue onto the line i x + beta")
    if spec.beta is not None:
        raise PotentialError("nested PT transforms are not supported")
    _check_line(spec, beta)
    closed = spec.offset is not None
    bare = closed and spec.shift == 0.0 and not spec.partner
    return spec._replace(
        period=2.0 * ell.modulus(spec.m).Kprime, sign=-spec.sign, shift=-spec.shift, beta=beta,
        maps=spec.maps + ("pt",),
        offset=spectra.ground_energy(spec.kind, spec.a, spec.b, spec.m, pt=True) - spec.offset if closed else None,
        ground=spectra.ground_state_builder(spec.kind, spec.a, spec.b, spec.m, pt=True)[1:] if bare else None)


def SusyPartner(spec: PotentialSpec) -> PotentialSpec:
    """W**2 + W' with W = -psi_g'/psi_g from the spec's ground state.

    The spec must have a closed-form ground state at zero energy (apply
    ``Shifted`` by the closed-form ground energy first), else
    :class:`MissingGroundStateError`.  psi_g solves psi'' = V psi, so the
    partner is 2 W**2 - V: it reads V and the ground state's log-derivative,
    no second derivative.  It keeps the edges, absorbs every shift before
    it, and has the zero-energy ground state 1/psi_g: minus psi_g's
    log-derivative, and no zeros (they are poles of psi_g, among those of
    V).  Its poles are those of V and the zeros of psi_g.
    """
    if spec.offset is None:
        raise MissingGroundStateError(f"no closed forms for family {(spec.kind, spec.a, spec.b)!r}")
    if spec.ground is None:
        raise MissingGroundStateError("a shift or SUSY partner under a PT transform has no closed-form ground state")
    if abs(energy := predicted_edges(spec)[0][0]) > 1e-9:
        raise MissingGroundStateError(
            f"inner spec has ground energy {energy:.6g}; shift it to zero before taking a partner"
        )
    (zeros, log_d), (g, sign, shift) = spec.ground, (spec.g, spec.sign, spec.shift)
    # in the ground state's own argument u, with w = psi_g'/psi_g there; on
    # the line u = i x + beta, d/dx = i d/du flips the sign of w**2 (tau)
    tau = 1.0 if spec.beta is None else -1.0

    def partner(s, c, d):
        w = log_d(s, c, d)
        return 2.0 * w * w - tau * (sign * g(s, c, d) - shift)

    return spec._replace(g=partner, sign=tau, shift=0.0, maps=spec.maps + ("partner",),
                         poles=spec.poles + zeros, ground=((), lambda s, c, d: -log_d(s, c, d)))


def CustomPotential(fn: Callable, period: float) -> PotentialSpec:
    """Arbitrary analytic potential given by a callable and a period in (0, inf), else
    :class:`PotentialError`; it has no elliptic parameter, so its ``m`` is None."""
    if not 0.0 < period < math.inf:
        raise PotentialError(f"period={period!r} outside (0, inf)")
    return PotentialSpec("custom", 0, 0, None, period, fn, 1.0, 0.0, None, None, None, (), ())


def build(a: int, b: int, m: float, beta: float, ops=(), shift_zero: bool = False) -> PotentialSpec:
    """The (a, b) associated Lame potential at m with ``ops`` applied in order
    ("pt": the PT transform onto the line i x + beta; "partner": the SUSY
    partner, after a shift to the closed-form ground energy), then, with
    ``shift_zero``, shifted so its lowest closed-form edge sits at zero.
    Raises PotentialError for an invalid construction or an unknown op."""
    def ground(spec):
        rows = predicted_edges(spec)
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


def predicted_edges(spec: PotentialSpec) -> list[tuple[float, str]] | None:
    """Closed-form (energy, period class) of every edge of a composed spec,
    ascending; None when its base family has no closed forms.

    The rows are the family's :func:`spectra.edge_rows`, moved by the
    spec's offset; the PT rows apply under a PT transform.
    """
    if spec.offset is None:
        return None
    return [(e + spec.offset, cls)
            for e, cls, _ in spectra.edge_rows(spec.kind, spec.a, spec.b, spec.m, spec.beta is not None)]


@functools.lru_cache(maxsize=256)
def pole_lines(poles: tuple, m: float) -> tuple[float, ...]:
    """r in [0, K] for each sn**2 value in ``poles`` (a spec's): the
    poles of V lie on the lines Re u = +-r (mod 2K) of its Jacobi argument u; sn**2 in {0, inf}
    (r = 0) and {1, 1/m} (r = K) are set, as inverting sn is ill-conditioned at those corners."""
    return tuple(0.0 if w in (0.0, math.inf) else ell.modulus(m).K if w in (1.0, 1.0 / m)
                 else abs(ell.inverse_sn(cmath.sqrt(w), m).real) for w in poles)


def _check_line(spec: PotentialSpec, beta: float) -> None:
    """Raise PotentialError unless 0 < beta < 2K and the line i x + beta keeps
    ``_BETA_POLE_MARGIN`` from each pole line of ``spec``, a partner's among them."""
    two_k = 2.0 * ell.modulus(spec.m).K
    if not 0.0 < beta < two_k:
        raise PotentialError(f"beta={beta!r} outside (0, 2K) = (0, {two_k:.6g})")
    names = ("sn pole line", "dn zero line")[: 1 + (spec.b >= 1)]
    for k, r in enumerate(pole_lines(spec.poles, spec.m)):
        if min(abs(beta - r), abs(two_k - r - beta)) < _BETA_POLE_MARGIN:
            line = names[k] if k < len(names) else "zero line of the partner's ground state"
            raise PotentialError(f"beta={beta!r} within {_BETA_POLE_MARGIN} of the {line}")


def compiled_value_fn(spec: PotentialSpec, beta: float | None = None):
    """Evaluator x -> V(x) at real x; the one way to evaluate a spec.

    x is a float, giving a Python complex, or a float ndarray, giving a
    complex array of its shape.  A Lame-family spec costs one real Landen
    pass per call, on the real axis or on the line of its PT transform, and
    an array takes that pass elementwise in numpy, so a grid is one call;
    a SUSY partner adds only rational arithmetic on the same triple (its
    ground state's log-derivative and the inner V), no jet.  On Re u = K
    the triple is the quarter-period shift of :func:`elliptic.line_jacobi`,
    so V of plain PT Lame is real there, its imaginary part 0.0 exactly, and
    its pass at (1 - m, m) is the one the modulus dual Lame(a, 1 - m) reads
    on the real axis: called with the same float, the second evaluator reuses
    the first's pass.
    ``beta`` moves a PT spec's V onto the line i x + beta; a beta that
    :func:`_check_line` rejects, or one given any other spec, raises
    :class:`PotentialError`.
    The Floquet integrator calls it with a float once per DOP853 stage, as
    a step's 12 stage nodes cost more as one array.  A custom
    potential's callable is user code that may take only floats, so an array
    is fed to it point by point.
    """
    if beta is not None:
        if spec.beta is None:
            raise PotentialError("only a spec with a PT transform has a line i x + beta to move onto")
        _check_line(spec, beta)
    g, shift = spec.g, spec.shift
    if spec.kind == "custom":
        pointwise = np.frompyfunc(g, 1, 1)  # hands g each element as a Python float
        return lambda x: (pointwise(x).astype(complex) if isinstance(x, np.ndarray) else complex(g(x))) - shift
    point = ell.jacobi_triple(spec.m, spec.beta if beta is None else beta)
    if spec.sign < 0.0:
        # g is real on Re u = K (elliptic.line_jacobi); subtracting 0j
        # makes it complex and leaves a complex g's bits as they are
        return lambda x: -g(*point(x)) - 0j - shift
    return lambda x: g(*point(x)) + 0j - shift
