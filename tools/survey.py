#!/usr/bin/env python3
"""Edge survey: `floquet.find_band_edges` over 110 (potential, m) sets.

Run from the repository root:

    python tools/survey.py

The sets are the Lame and PT Lame (beta = 0.5) potentials with a = 4..8 on
[-0.5, a(a+1) + 0.5] and that range negated, and the associated (2,1),
(3,1), (3,2), (4,1), (4,2) and (4,3) potentials over `default_energy_range`
and their PT versions (beta = 0.5) over that range negated, each at
m = 0.05, 0.3, 0.5, 0.75 and 0.9.  A PT spec's edges are the real spec's
negated, so each negated range holds them all.

One line per set: the simple-edge count against `simple_edge_count`
(2a + 1), the integration rounds (one batched integration of every pending
piece each) and RHS calls `find_band_edges` spent, so that a change in
either shows in the log, the closed rows, and every row (energy, class,
and "=" for a closed gap); a line near the end adds up the rounds and RHS
calls.  A set is short when it finds fewer simple edges, usually a narrow
open gap reported closed.  `SHORT` records the sets known to be
short; the script exits 1 when a set raises or a set outside it comes up
short, and names any listed set that now finds all its edges.
"""

from __future__ import annotations

import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptlame import floquet as flq  # noqa: E402
from ptlame import potentials as pot  # noqa: E402

MS = (0.05, 0.3, 0.5, 0.75, 0.9)
LAME_A = range(4, 9)
ASSOCIATED = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
BETA = 0.5
# (pt, a, b, m) of the sets that find fewer than 2a + 1 simple edges
SHORT = frozenset(
    [(False, a, 0, 0.05) for a in (5, 6, 7, 8)]
    + [(True, a, 0, 0.9) for a in (6, 7, 8)]
    + [(False, a, b, 0.05) for a, b in ((3, 2), (4, 1), (4, 2), (4, 3))]
    + [(False, 4, 3, 0.3)]
)


def sets():
    """(key, spec, e_min, e_max) of every set, key = (pt, a, b, m)."""
    for a in LAME_A:
        for m in MS:
            top = a * (a + 1) + 0.5
            yield (False, a, 0, m), pot.Lame(a, m), -0.5, top
            yield (True, a, 0, m), pot.PTTransform(pot.Lame(a, m), BETA), -top, 0.5
    for a, b in ASSOCIATED:
        for m in MS:
            real = pot.AssociatedLame(a, b, m)
            lo, hi = flq.default_energy_range(real)
            yield (False, a, b, m), real, lo, hi
            yield (True, a, b, m), pot.PTTransform(real, BETA), -hi, -lo


def label(key) -> str:
    pt, a, b, m = key
    return f"{'PT ' if pt else ''}{'Lame' if b == 0 else 'assoc'}({a}{f',{b}' if b else ''}) m={m}"


def main() -> int:
    t0 = time.perf_counter()
    raised, short, recovered = [], [], []
    count = 0
    # (rounds, RHS calls) of the set being searched, from each _propagate call
    cost = [0, 0]
    propagate = flq._propagate

    def counted(spec, energies):
        out = propagate(spec, energies)
        cost[0] += 1
        cost[1] += out[3].nfev
        return out

    flq._propagate = counted
    rounds = nfev = 0
    for key, spec, lo, hi in sets():
        count += 1
        name = label(key)
        cost[:] = [0, 0]
        try:
            rows = flq.find_band_edges(spec, lo, hi)
        except Exception as exc:  # noqa: BLE001 - a set that raises is reported and the survey goes on
            raised.append(name)
            print(f"{name:<22} RAISES {type(exc).__name__}: {exc}")
            traceback.print_exc()
            continue
        simple = sum(1 for r in rows if r.multiplicity == 1)
        expected = flq.simple_edge_count(spec)
        if simple < expected:
            short.append(key)
            status = "short" if key in SHORT else "SHORT, not listed"
        else:
            status = "ok"
            if key in SHORT:
                recovered.append(name)
                status = "ok, listed as short"
        closed = " ".join(f"{r.energy:.10g}{r.period_class}" for r in rows if r.multiplicity == 2)
        cells = " ".join(f"{r.energy:.10g}{r.period_class}{'=' if r.multiplicity == 2 else ''}" for r in rows)
        rounds, nfev = rounds + cost[0], nfev + cost[1]
        print(f"{name:<22} [{lo:.6g}, {hi:.6g}] simple {simple}/{expected} {status}; rounds {cost[0]},"
              f" RHS calls {cost[1]}; closed [{closed}]; rows [{cells}]")

    unlisted = [label(k) for k in short if k not in SHORT]
    print(f"{count} sets, {rounds} integration rounds, {nfev} RHS calls")
    print(f"{count} sets, {len(raised)} raise, {len(short)} short: {', '.join(map(label, short))}")
    if recovered:
        print(f"listed as short but complete now: {', '.join(recovered)}")
    if unlisted:
        print(f"short and not listed: {', '.join(unlisted)}")
    print(f"survey took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 1 if raised or unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
