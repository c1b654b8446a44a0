"""Shared independent oracles for the test suite.

The Jacobi functions are the unique solution of the first-order system
s' = c d, c' = -s d, d' = -m s c from (0, 1, 1); integrating that system at
tight tolerance gives values that never touch the Landen/AGM code paths under
test.  For complex arguments the same system is integrated along the straight
ray from the origin.
"""

import numpy as np
from scipy.integrate import solve_ivp


def jacobi_ode_real(u: float, m: float):
    if u == 0.0:
        return 0.0, 1.0, 1.0
    sol = solve_ivp(
        lambda t, y: [y[1] * y[2], -y[0] * y[2], -m * y[0] * y[1]],
        (0.0, u),
        [0.0, 1.0, 1.0],
        rtol=1e-13,
        atol=1e-15,
        method="DOP853",
    )
    assert sol.success
    return tuple(sol.y[:, -1])


def jacobi_ode_complex(z: complex, m: float):
    z = complex(z)
    if z == 0:
        return 0j, 1 + 0j, 1 + 0j

    def rhs(t, y):
        s, c, d = y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5]
        ds, dc, dd = z * c * d, -z * s * d, -m * z * s * c
        return [ds.real, ds.imag, dc.real, dc.imag, dd.real, dd.imag]

    sol = solve_ivp(rhs, (0.0, 1.0), [0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
                    rtol=1e-13, atol=1e-15, method="DOP853")
    assert sol.success
    y = sol.y[:, -1]
    return y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5]


def pole_free_complex_grid(m: float, n: int, seed: int = 11):
    """n complex points inside one period cell, away from the pole lattice."""
    from ptlame import elliptic as ell

    rng = np.random.default_rng(seed + int(1000 * m))
    mod = ell.modulus(m)
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-2 * mod.K, 2 * mod.K),
                    rng.uniform(-0.9 * mod.Kprime, 0.9 * mod.Kprime))
        if abs(z - ell.sn_pole_lattice_point(z, m)) > 0.15:
            pts.append(z)
    return pts


def same_spec(s, t) -> bool:
    """Whether two potential specs are one potential.

    A spec's V and ground state are closures made by each construction, so
    two constructions never compare ==.  Here every other field must be
    equal, V bit-equal on 64 points over two periods and, with a ground
    state, its zeros equal and its log-derivative equal at 8 of those
    points.
    """
    from ptlame import elliptic as ell
    from ptlame import potentials as pot

    if s._replace(g=None, ground=None) != t._replace(g=None, ground=None) or (s.ground is None) != (t.ground is None):
        return False
    xs = np.linspace(0.0, 2.0 * s.period, 64, endpoint=False)
    if not np.array_equal(pot.compiled_value_fn(s)(xs), pot.compiled_value_fn(t)(xs)):
        return False
    if s.ground is None:
        return True
    point = ell.jacobi_triple(s.m, s.beta)
    scd = [point(float(x)) for x in xs[::8]]
    return s.ground[0] == t.ground[0] and [s.ground[1](*p) for p in scd] == [t.ground[1](*p) for p in scd]


def count_batches(monkeypatch):
    """Record the number of energies in each integration floquet makes, all
    of its blocks together."""
    from ptlame import floquet as flq

    calls = []
    solve = flq.solve_ivp

    def counted(fun, t_span, y0, *, energies, **kwargs):
        calls.append(sum(e.size for e in energies) // 2)  # two solutions per energy
        return solve(fun, t_span, y0, energies=energies, **kwargs)

    monkeypatch.setattr(flq, "solve_ivp", counted)
    return calls
