"""Hamiltonian cycles, union multigraphs and two-factor assignments.

Vertices are labelled 1..n.  The union of two Hamiltonian cycles on the
same vertex set is a 4-regular multigraph (2-in/2-out when directed).
Parallel copies of an edge stay distinct objects linked through their
``partner`` field, so a factor can hold one copy and not the other.

A directed union splits into alternating cycles: link the two arcs of
every out-port and of every in-port.  A 2-factor pair takes, in each
cycle, either all its x-arcs or all its y-arcs into Z, so flipping a
whole cycle maps one valid pair to another.  Parallel pairs are cycles
of two arcs.
"""

from __future__ import annotations

from dataclasses import dataclass

Z = 0
W = 1

ORIGIN_X = 0
ORIGIN_Y = 1


@dataclass(frozen=True)
class HamCycle:
    """A Hamiltonian cycle stored as a vertex order starting at 1."""

    n: int
    directed: bool
    order: tuple[int, ...]

    @staticmethod
    def from_order(seq, directed: bool) -> "HamCycle":
        order = tuple(int(v) for v in seq)
        n = len(order)
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError("order must be a permutation of 1..n")
        i = order.index(1)
        return HamCycle(n, directed, order[i:] + order[:i])

    def edge_pairs(self) -> list[tuple[int, int]]:
        o = self.order
        return [(o[i], o[(i + 1) % self.n]) for i in range(self.n)]

    def edge_multiset(self) -> tuple:
        return normalize_pairs(self.edge_pairs(), self.directed)

    def same_cycle(self, other: "HamCycle") -> bool:
        """Equality as a cycle: same traversed edge multiset."""
        return (
            self.n == other.n
            and self.directed == other.directed
            and self.edge_multiset() == other.edge_multiset()
        )


def normalize_pairs(pairs, directed: bool) -> tuple:
    """Canonical sorted signature of an edge multiset."""
    if directed:
        return tuple(sorted(pairs))
    return tuple(sorted((u, v) if u < v else (v, u) for (u, v) in pairs))


def peaks(cycle: HamCycle) -> set[int]:
    """Vertices whose both cycle neighbours carry smaller labels."""
    o = cycle.order
    n = cycle.n
    out = set()
    for i, v in enumerate(o):
        if o[i - 1] < v and o[(i + 1) % n] < v:
            out.add(v)
    return out


@dataclass(slots=True)
class Edge:
    """One edge of the union multigraph.

    ``tail``/``head`` record the traversal direction of the originating
    cycle; for undirected graphs they are just the two endpoints.
    ``partner`` is the id of the parallel copy, if any.
    """

    id: int
    tail: int
    head: int
    origin: int
    partner: int | None = None


@dataclass
class UnionMultigraph:
    n: int
    directed: bool
    edges: list[Edge]
    inc: list[list[int]]          # incident edge ids per vertex (degree 4)
    out_arcs: list[list[int]]     # directed only: out-arc ids per vertex
    in_arcs: list[list[int]]      # directed only: in-arc ids per vertex
    tail: list[int]               # tail[e.id] == e.tail, for hot loops
    head: list[int]               # head[e.id] == e.head
    cycle_of: list[int]           # directed only: alternating cycle per arc

    def multi_edge_count(self) -> int:
        """Number of edges that have a parallel copy (both copies count)."""
        return sum(1 for e in self.edges if e.partner is not None)

    def unique_edge_ids(self, cycle_origin: int) -> list[int]:
        """Edges of one originating cycle that the other cycle lacks."""
        return [
            e.id
            for e in self.edges
            if e.origin == cycle_origin and e.partner is None
        ]


def build_union(x: HamCycle, y: HamCycle) -> UnionMultigraph:
    """Union multigraph of two Hamiltonian cycles on the same vertex set."""
    if x.n != y.n:
        raise ValueError("cycles must share the vertex count")
    if x.directed != y.directed:
        raise ValueError("cycles must agree on directedness")
    n, directed = x.n, x.directed

    edges: list[Edge] = []
    for cycle, origin in ((x, ORIGIN_X), (y, ORIGIN_Y)):
        for u, v in cycle.edge_pairs():
            edges.append(Edge(id=len(edges), tail=u, head=v, origin=origin))

    # Parallel copies: linked when the y-cycle repeats an x-edge.  Directed
    # copies are linked only when tail and head both coincide.
    by_key: dict = {}
    for e in edges[:n]:
        key = (e.tail, e.head) if directed else frozenset((e.tail, e.head))
        by_key[key] = e.id
    for e in edges[n:]:
        key = (e.tail, e.head) if directed else frozenset((e.tail, e.head))
        mate = by_key.get(key)
        if mate is not None:
            e.partner = mate
            edges[mate].partner = e.id

    inc: list[list[int]] = [[] for _ in range(n + 1)]
    out_arcs: list[list[int]] = [[] for _ in range(n + 1)]
    in_arcs: list[list[int]] = [[] for _ in range(n + 1)]
    for e in edges:
        inc[e.tail].append(e.id)
        inc[e.head].append(e.id)
        if directed:
            out_arcs[e.tail].append(e.id)
            in_arcs[e.head].append(e.id)

    return UnionMultigraph(
        n,
        directed,
        edges,
        inc,
        out_arcs,
        in_arcs,
        [e.tail for e in edges],
        [e.head for e in edges],
        _alternating_cycles(edges, out_arcs, in_arcs) if directed else [],
    )


def _alternating_cycles(edges, out_arcs, in_arcs) -> list[int]:
    """Alternating cycle id of every arc, numbered by their first arc.

    Every arc has one sibling in its tail's out-port and one in its
    head's in-port; the walk alternates between the two links.
    """
    cycle_of = [-1] * len(edges)
    label = 0
    for start in range(len(edges)):
        if cycle_of[start] >= 0:
            continue
        a = start
        while cycle_of[a] < 0:
            cycle_of[a] = label
            port = out_arcs[edges[a].tail]
            a = port[1] if port[0] == a else port[0]
            cycle_of[a] = label
            port = in_arcs[edges[a].head]
            a = port[1] if port[0] == a else port[0]
        label += 1
    return cycle_of


class TwoFactorPair:
    """Mutable assignment of every union edge to factor Z or factor W.

    Tracks per-vertex factor degrees and the set of broken vertices:
    those whose Z-degree breaks the 2-factor contract (2 undirected,
    1-in/1-out directed).  W degrees are complements, so a vertex is
    broken in Z exactly when it is broken in W.
    """

    def __init__(self, graph: UnionMultigraph, sides):
        if len(sides) != len(graph.edges):
            raise ValueError("one side per edge required")
        self.graph = graph
        self.side = [int(s) for s in sides]
        self.fixed = [False] * len(self.side)
        n = graph.n
        if graph.directed:
            self.out_z = [0] * (n + 1)
            self.in_z = [0] * (n + 1)
            for e in graph.edges:
                if self.side[e.id] == Z:
                    self.out_z[e.tail] += 1
                    self.in_z[e.head] += 1
        else:
            self.deg_z = [0] * (n + 1)
            for e in graph.edges:
                if self.side[e.id] == Z:
                    self.deg_z[e.tail] += 1
                    self.deg_z[e.head] += 1
        self.broken = {v for v in range(1, n + 1) if not self.vertex_ok(v)}

    def vertex_ok(self, v: int) -> bool:
        if self.graph.directed:
            return self.out_z[v] == 1 and self.in_z[v] == 1
        return self.deg_z[v] == 2

    def move(self, edge_id: int) -> None:
        """Flip one edge to the other factor, updating degrees and broken."""
        g = self.graph
        u = g.tail[edge_id]
        v = g.head[edge_id]
        side = self.side
        broken = self.broken
        if side[edge_id] == Z:
            side[edge_id] = W
            delta = -1
        else:
            side[edge_id] = Z
            delta = 1
        if g.directed:
            out_z = self.out_z
            in_z = self.in_z
            out_z[u] += delta
            in_z[v] += delta
            if out_z[u] == 1 and in_z[u] == 1:
                broken.discard(u)
            else:
                broken.add(u)
            if out_z[v] == 1 and in_z[v] == 1:
                broken.discard(v)
            else:
                broken.add(v)
        else:
            deg_z = self.deg_z
            deg_z[u] += delta
            deg_z[v] += delta
            if deg_z[u] == 2:
                broken.discard(u)
            else:
                broken.add(u)
            if deg_z[v] == 2:
                broken.discard(v)
            else:
                broken.add(v)

    def factor_multiset(self, side: int) -> tuple:
        pairs = [
            (e.tail, e.head)
            for e in self.graph.edges
            if self.side[e.id] == side
        ]
        return normalize_pairs(pairs, self.graph.directed)


@dataclass
class ComponentReport:
    """Connected components (cycles) of each factor of a valid pair."""

    z_cycles: list[list[int]]
    w_cycles: list[list[int]]

    @property
    def total(self) -> int:
        return len(self.z_cycles) + len(self.w_cycles)

    def subtours(self, n: int) -> list[list[int]]:
        """Components that are proper subtours (do not span all vertices)."""
        return [c for c in self.z_cycles + self.w_cycles if len(c) < n]


def components(pair: TwoFactorPair) -> ComponentReport:
    """Cycle decomposition of both factors.

    Only defined when every vertex meets the factor-degree contract.
    """
    return ComponentReport(
        _factor_cycles(pair, Z), _factor_cycles(pair, W)
    )


def _factor_cycles(pair: TwoFactorPair, side: int) -> list[list[int]]:
    """Cycles of one factor, walked through the incidence lists.

    The walk takes at each vertex the first factor edge it did not come
    in by, so it needs the degree contract to hold everywhere.
    """
    if pair.broken:
        raise ValueError(
            f"degree contract violated at vertices {sorted(pair.broken)}"
        )
    g = pair.graph
    n = g.n
    sides, tail, head = pair.side, g.tail, g.head
    seen = [False] * (n + 1)
    cycles = []
    if g.directed:
        out_arcs = g.out_arcs
        for s in range(1, n + 1):
            if seen[s]:
                continue
            comp = []
            v = s
            while not seen[v]:
                seen[v] = True
                comp.append(v)
                for e in out_arcs[v]:
                    if sides[e] == side:
                        break
                v = head[e]
            cycles.append(comp)
    else:
        inc = g.inc
        for s in range(1, n + 1):
            if seen[s]:
                continue
            comp = []
            v, entered = s, -1
            while True:
                seen[v] = True
                comp.append(v)
                for e in inc[v]:
                    if e != entered and sides[e] == side:
                        break
                # the far end of e, without an Edge lookup
                v = tail[e] + head[e] - v
                entered = e
                if v == s:
                    break
            cycles.append(comp)
    return cycles


def cycle_from_factor(pair: TwoFactorPair, side: int) -> HamCycle:
    """Extract one factor as a Hamiltonian cycle; fails if it is split."""
    cycles = _factor_cycles(pair, side)
    if len(cycles) != 1 or len(cycles[0]) != pair.graph.n:
        raise ValueError("factor is not a single Hamiltonian cycle")
    return HamCycle.from_order(cycles[0], pair.graph.directed)


def is_second_decomposition(
    pair: TwoFactorPair, x: HamCycle, y: HamCycle
) -> bool:
    """True when the pair is a decomposition different from {x, y}."""
    if pair.broken:
        return False
    report = components(pair)
    if report.total != 2:
        return False
    got = sorted((pair.factor_multiset(Z), pair.factor_multiset(W)))
    given = sorted((x.edge_multiset(), y.edge_multiset()))
    return got != given
