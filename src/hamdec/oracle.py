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
    # a port lists a factor's candidate edges at a vertex: out- and
    # in-arcs when directed (cap 1 each), all four edges otherwise (cap 2)
    ports = [g.out_arcs, g.in_arcs] if g.directed else [g.inc]
    cap = 1 if g.directed else 2
    counts = {s: [[0] * (n + 1) for _ in ports] for s in (Z, W)}

    def ends(eid):
        """The (port, vertex) pair at each end of an edge."""
        return ((0, g.tail[eid]), (len(ports) - 1, g.head[eid]))

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
            for port, v in ends(eid):
                c = counts[want][port]
                c[v] += 1
                if c[v] > cap:
                    return False
                if c[v] == cap:
                    # saturated: remaining incident edges go the other way
                    for oid in ports[port][v]:
                        if side[oid] == UNSET:
                            stack.append((oid, other))
            if mate is not None and side[mate] == UNSET:
                stack.append((mate, other))
        return True

    def undo(mark):
        while len(trail) > mark:
            eid = trail.pop()
            for port, v in ends(eid):
                counts[side[eid]][port][v] -= 1
            side[eid] = UNSET

    found: dict = {}

    def record():
        pair = TwoFactorPair(g, side)
        if pair.broken:
            return
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
