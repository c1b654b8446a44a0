"""Acceptance suite: every row of the invariant registry (``ptlame.invariants``)
at (m, beta) = (0.75, 0.5).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``acceptance NN [name]: PASS/FAIL`` line per row.  The registry computes the
Floquet edge sets once per (m, beta), so the rows that read them share them;
the two literal edge-table tests below read the same cached sets.
"""

import pytest

from ptlame import elliptic as ell
from ptlame import floquet as flq
from ptlame import invariants as inv
from ptlame import potentials as pot
from ptlame import spectra as spc

M, BETA = 0.75, 0.5


@pytest.mark.parametrize("num,row", enumerate(inv.REGISTRY, 1), ids=[r.name for r in inv.REGISTRY])
def test_invariant(num, row):
    [(_, value, tol, ok, _)] = inv.run([row], M, BETA)
    print(f"\nacceptance {num:02d} [{row.name}]: {value:.3e} (tol {tol:.1e}) {'PASS' if ok else 'FAIL'}")
    assert ok


def _check_edge_table(family, count, classes):
    ref = spc.pt_band_edges(*family, M, BETA)
    found = inv._edge_sets(M, BETA)[family]
    assert len(found) == count
    assert max(abs(f.energy - r.energy) for f, r in zip(found, ref)) < 1e-6
    assert tuple(e.period_class for e in found) == classes


def test_criterion_03_a3_band_edges():
    _check_edge_table(("lame", 3, 0), 7, ("P", "A", "A", "P", "P", "A", "A"))


def test_criterion_04_assoc21_band_edges():
    _check_edge_table(("assoc", 2, 1), 5, ("P", "A", "A", "P", "P"))


def test_beta_independence_fails_where_the_user_line_cannot_be_integrated():
    # beta = 1e-3 passes construction, but the user's line runs 1e-3 from
    # the sn poles: the row reports inf and fails instead of raising
    row = next(r for r in inv.REGISTRY if r.name == "beta-independence")
    [(_, value, _, ok, _)] = inv.run([row], M, 1e-3)
    assert value == float("inf") and not ok


@pytest.mark.parametrize("m", [0.01, 0.05])
def test_discriminant_relation_holds_at_small_m(m):
    # inside the gaps of the spectral span |Delta| reaches 3e6 at m = 0.01 and
    # 9.5e6 at m = 0.05; the row scales by max(1, |Delta|), where an absolute
    # difference read 9.8e-6 at m = 0.05 and failed a 1e-6 bound
    row = next(r for r in inv.REGISTRY if r.name == "discriminant-relation")
    [(_, value, _, ok, _)] = inv.run([row], m, BETA)
    assert ok, value


def test_discriminant_relation_fails_on_a_wrong_dual(monkeypatch):
    # the modulus dual's discriminants (the real-axis spec, beta None) scaled
    # by 1 + 1e-8, in the batch both sides share, fail the row
    row = next(r for r in inv.REGISTRY if r.name == "discriminant-relation")
    scans = flq.discriminant_scans

    def scaled(ranges, n):
        return [s._replace(discriminants=s.discriminants * (1.0 + (1e-8 if spec.beta is None else 0.0)))
                for (spec, _, _), s in zip(ranges, scans(ranges, n))]

    monkeypatch.setattr(flq, "discriminant_scans", scaled)
    [(_, value, _, ok, _)] = inv.run([row], M, BETA)
    assert value > 1e-9 and not ok


def test_edge_tables_read_the_printed_rows(monkeypatch):
    # band-edge-tables compares the Floquet edges with the rows `ptlame
    # edges` prints, predicted_edges of the registry's specs: those rows
    # moved by 1e-3, once the specs and edge sets are built, fail it
    inv._edge_sets(M, BETA)
    predicted = pot.predicted_edges
    monkeypatch.setattr(pot, "predicted_edges", lambda spec: [(e + 1e-3, c) for e, c in predicted(spec)])
    row = next(r for r in inv.REGISTRY if r.name == "band-edge-tables")
    [(_, value, _, ok, _)] = inv.run([row], M, BETA)
    assert value > 9e-4 and not ok


def test_a3_exchanged_row_makes_no_search(monkeypatch):
    # the a3-exchanged spec's edges are one of the registry's edge sets,
    # searched once with the rest: the row reads them and searches nothing
    inv._edge_sets(M, BETA)
    monkeypatch.setattr(flq, "find_band_edges", lambda *args: pytest.fail("a search of its own"))
    row = next(r for r in inv.REGISTRY if r.name == "a3-exchanged-order-edges")
    [(_, _, _, ok, _)] = inv.run([row], M, BETA)
    assert ok


def test_closed_superpotential_fails_on_a_wrong_w(monkeypatch):
    # the row compares the printed W with the log-derivative a spec carries,
    # the one its partner is built from: that W scaled by 1 + 1e-8 fails it
    row = next(r for r in inv.REGISTRY if r.name == "closed-superpotential")
    log_derivative = spc._log_derivative

    def scaled(*args):
        w = log_derivative(*args)
        return lambda s, c, d: w(s, c, d) * (1.0 + 1e-8)

    monkeypatch.setattr(spc, "_log_derivative", scaled)
    inv.specs.cache_clear()
    try:
        [(_, value, _, ok, _)] = inv.run([row], M, BETA)
    finally:
        monkeypatch.undo()
        inv.specs.cache_clear()
    assert value > 1e-9 and not ok


def test_kprime_row_fails_on_a_wrong_agm(monkeypatch):
    # K'(m) from the AGM is checked against Carlson's R_F(0, m, 1), an
    # independent algorithm: a 1e-12 relative error in complete_K fails it
    row = next(r for r in inv.REGISTRY if r.name == "kprime-complementary-k")
    complete_k = ell.complete_K
    monkeypatch.setattr(ell, "complete_K", lambda m, mc=None: complete_k(m, mc) * (1.0 + 1e-12))
    ell.modulus.cache_clear()
    try:
        [(_, value, _, ok, _)] = inv.run([row], M, BETA)
    finally:
        monkeypatch.undo()
        ell.modulus.cache_clear()
    assert value > 5e-13 and not ok


@pytest.mark.parametrize("nu,count", [(3.0, 0), (3.001, 6)])
def test_finite_gap_count_fails_off_the_integer(nu, count):
    # nu(nu + 1) m sn^2 has finitely many gaps only at integer nu: at
    # nu = 3.001 three narrow gaps open above the a=3 top edge, in the
    # window the finite-gap row searches
    sn = ell.jacobi_triple(M)
    spec = pot.CustomPotential(lambda x: nu * (nu + 1) * M * sn(x)[0] ** 2, 2.0 * ell.modulus(M).K)
    top = pot.predicted_edges(pot.Lame(3, M))[-1][0]
    found = inv._simple_edges_above(spec, top)
    assert len(found) == count
    assert count == 0 or abs(found[0].energy - 14.0526) < 1e-3
