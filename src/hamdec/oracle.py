"""Exhaustive ground-truth enumeration for small instances.

Assigns union edges to the two factors by backtracking with degree
propagation, keeps complete assignments whose factors are both single
Hamiltonian cycles, and deduplicates under factor swap (and, for
undirected inputs, traversal orientation, since factors are compared
as edge multisets).  Intended as an independent reference: it shares
no machinery with the solvers.
"""

from __future__ import annotations

from .multigraph import (
    W,
    Z,
    HamCycle,
    TwoFactorPair,
    UnionMultigraph,
    components,
    cycle_from_factor,
)

MAX_ORACLE_N = 14

UNSET = -1


def enumerate_decompositions(
    g: UnionMultigraph,
) -> list[tuple[HamCycle, HamCycle]]:
    """All decompositions of the union into two Hamiltonian cycles."""
    if g.n > MAX_ORACLE_N:
        raise ValueError(
            f"exhaustive enumeration capped at n <= {MAX_ORACLE_N}"
        )
    n = g.n
    m = 2 * n
    side = [UNSET] * m
    # each factor takes `cap` edges of every slot of the union's slot
    # table: counts[s][slot] is how many factor s holds so far
    slots, slot_a, slot_b, cap = g.slots, g.slot_a, g.slot_b, g.cap
    counts = {s: [0] * len(slots) for s in (Z, W)}
    trail: list[int] = []

    def place(edge_id, s) -> bool:
        """Assign with propagation; False on contradiction."""
        stack = [(edge_id, s)]
        while stack:
            eid, want = stack.pop()
            if side[eid] != UNSET:
                if side[eid] != want:
                    return False
                continue
            mate = g.partner[eid]
            if mate is not None and side[mate] == want:
                return False
            side[eid] = want
            trail.append(eid)
            other = W if want == Z else Z
            a, b, c = slot_a[eid], slot_b[eid], counts[want]
            c[a] += 1  # both ends before any check: undo takes back both
            c[b] += 1
            for slot in (a, b):
                if c[slot] > cap:
                    return False
                if c[slot] == cap:
                    # saturated: the slot's other edges go the other way
                    for oid in slots[slot]:
                        if side[oid] == UNSET:
                            stack.append((oid, other))
            if mate is not None and side[mate] == UNSET:
                stack.append((mate, other))
        return True

    def undo(mark):
        while len(trail) > mark:
            eid = trail.pop()
            c = counts[side[eid]]
            c[slot_a[eid]] -= 1
            c[slot_b[eid]] -= 1
            side[eid] = UNSET

    found: dict = {}

    def record():
        # no slot holds more than `cap` edges of a factor, so every
        # complete assignment meets the degree contract: components()
        # raises if one does not
        pair = TwoFactorPair(g, side)
        report = components(pair)
        if report.total != 2:
            return
        z = cycle_from_factor(pair, Z)
        w = cycle_from_factor(pair, W)
        key = frozenset((z.edge_multiset(), w.edge_multiset()))
        if key not in found:
            found[key] = (z, w)

    def search(from_edge):
        eid = from_edge
        while eid < m and side[eid] != UNSET:
            eid += 1
        if eid == m:
            record()
            return
        for s in (Z, W):
            mark = len(trail)
            if place(eid, s):
                search(eid + 1)
            undo(mark)

    # factor labels are interchangeable: pin the first edge to Z
    mark = len(trail)
    if place(0, Z):
        search(1)
    undo(mark)

    return [found[k] for k in sorted(found, key=sorted)]


def other_decomposition(
    decs: list[tuple[HamCycle, HamCycle]], x: HamCycle, y: HamCycle
) -> tuple[HamCycle, HamCycle] | None:
    """The first of `decs` that is not {x, y}, or None."""
    original = frozenset((x.edge_multiset(), y.edge_multiset()))
    for z, w in decs:
        if frozenset((z.edge_multiset(), w.edge_multiset())) != original:
            return z, w
    return None


def has_second_decomposition(
    g: UnionMultigraph, x: HamCycle, y: HamCycle
) -> tuple[bool, tuple[HamCycle, HamCycle] | None]:
    """Ground-truth answer plus a witness different from {x, y}."""
    witness = other_decomposition(enumerate_decompositions(g), x, y)
    return witness is not None, witness
