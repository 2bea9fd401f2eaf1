"""Hamiltonian cycles, union multigraphs and two-factor assignments.

Vertices are labelled 1..n.  The union of two Hamiltonian cycles on the
same vertex set is a 4-regular multigraph (2-in/2-out when directed).
The union keeps one list per edge fact, indexed by edge id.  Ids
0..n-1 are x's edges in x's order and n..2n-1 are y's, so edge e comes
from cycle `e // n` (`ORIGIN_X` or `ORIGIN_Y`).  Parallel copies of an
edge keep distinct ids linked through `partner`, so a factor can hold
one copy and not the other; the lower copy is always x's, the higher
y's.

A directed union splits into alternating cycles: link the two arcs of
every out-port and of every in-port.  A 2-factor pair takes, in each
cycle, either all its x-arcs or all its y-arcs into Z, so flipping a
whole cycle maps one valid pair to another.  Parallel pairs are cycles
of two arcs.

The union's one adjacency is its slot table, so the models, the local
search and the oracle run one code path for both directednesses.  A
slot is a group of edges of which each factor takes exactly `cap`.
Undirected, slot v is v's incidence list, with cap 2.  Directed, slot v
is v's out-port and slot n+1+v its in-port, with cap 1.  Slot 0, and
slot n+1 when directed, is empty, and each slot lists its edges in id
order.  Every edge has two slot ends, and every vertex one or two
slots.  `TwoFactorPair` keeps per slot its Z-edge count and, per
factor, the count of its pinned edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index

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
        seq = tuple(seq)
        try:  # not int(): that would truncate 2.9 to 2 and read "3"
            if bool in set(map(type, seq)):  # index(True) is 1
                raise TypeError
            order = tuple(map(index, seq))
        except TypeError:
            raise ValueError("order must list integer vertices") from None
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


def _edge_keys(pairs, directed: bool) -> list:
    """Each edge as a key that its parallel copies share: the arc when
    directed, the endpoints in ascending order when undirected."""
    if directed:
        return list(pairs)
    return [(u, v) if u < v else (v, u) for (u, v) in pairs]


def normalize_pairs(pairs, directed: bool) -> tuple:
    """Canonical sorted signature of an edge multiset."""
    return tuple(sorted(_edge_keys(pairs, directed)))


def peaks(cycle: HamCycle) -> set[int]:
    """Vertices whose both cycle neighbours carry smaller labels."""
    o = cycle.order
    n = cycle.n
    out = set()
    for i, v in enumerate(o):
        if o[i - 1] < v and o[(i + 1) % n] < v:
            out.add(v)
    return out


@dataclass
class UnionMultigraph:
    n: int
    directed: bool
    slots: list[list[int]]        # edge ids per slot (module docstring)
    tail: list[int]               # per edge id, its ends in the order
    head: list[int]               # its cycle traverses them
    partner: list[int | None]     # per edge id, its parallel copy or None
    cycle_of: list[int]           # directed only: alternating cycle per arc
    # where each edge and slot sits in the slot table
    slot_a: list[int] = field(init=False)        # slot at each edge's tail
    slot_b: list[int] = field(init=False)        # slot at each edge's head
    slot_vertex: list[int] = field(init=False)   # the vertex of each slot
    slot_mate: list[int] = field(init=False)     # its vertex's other slot
    cap: int = field(init=False)                 # a factor's edges per slot

    def __post_init__(self):
        n, ids = self.n, list(range(self.n + 1))
        self.slot_a, self.cap = self.tail, 1 if self.directed else 2
        if self.directed:
            self.slot_b = [n + 1 + v for v in self.head]
            self.slot_vertex = ids + ids
            self.slot_mate = [n + 1 + v for v in ids] + ids
        else:  # one slot per vertex, which is its own mate
            self.slot_b = self.head
            self.slot_vertex = self.slot_mate = ids

    def multi_edge_count(self) -> int:
        """Number of edges that have a parallel copy (both copies count)."""
        return len(self.partner) - self.partner.count(None)

    def unique_edge_ids(self, cycle_origin: int) -> list[int]:
        """Edges of one generating cycle that the other cycle lacks."""
        first, partner = cycle_origin * self.n, self.partner
        return [e for e in range(first, first + self.n) if partner[e] is None]


def build_union(x: HamCycle, y: HamCycle) -> UnionMultigraph:
    """Union multigraph of two Hamiltonian cycles on the same vertex set."""
    if x.n != y.n:
        raise ValueError("cycles must share the vertex count")
    if x.directed != y.directed:
        raise ValueError("cycles must agree on directedness")
    n, directed = x.n, x.directed
    xo, yo = x.order, y.order
    tail = [*xo, *yo]
    head = [*xo[1:], xo[0], *yo[1:], yo[0]]

    # Parallel copies: linked when the y-cycle repeats an x-edge.  Directed
    # copies are linked only when tail and head both coincide.
    keys = _edge_keys(zip(tail, head), directed)
    x_edge = {key: e for e, key in enumerate(keys[:n])}
    partner: list[int | None] = [None] * (2 * n)
    for e in range(n, 2 * n):
        mate = x_edge.get(keys[e])
        if mate is not None:
            partner[e], partner[mate] = mate, e

    # a directed arc enters its head through the head's in-port
    shift = n + 1 if directed else 0
    slots: list[list[int]] = [[] for _ in range(n + 1 + shift)]
    for e, (u, v) in enumerate(zip(tail, head)):
        slots[u].append(e)
        slots[shift + v].append(e)

    return UnionMultigraph(
        n,
        directed,
        slots,
        tail,
        head,
        partner,
        _alternating_cycles(slots, tail, head) if directed else [],
    )


def _alternating_cycles(slots, tail, head) -> list[int]:
    """Alternating cycle id of every arc, numbered by their first arc.

    Every arc has one sibling in its tail's out-port (slot tail) and one
    in its head's in-port (slot n+1+head); the walk alternates between
    the two links.
    """
    shift = len(slots) // 2  # n + 1
    cycle_of = [-1] * len(tail)
    label = 0
    for start in range(len(tail)):
        if cycle_of[start] >= 0:
            continue
        a = start
        while cycle_of[a] < 0:
            cycle_of[a] = label
            port = slots[tail[a]]
            a = port[1] if port[0] == a else port[0]
            cycle_of[a] = label
            port = slots[shift + head[a]]
            a = port[1] if port[0] == a else port[0]
        label += 1
    return cycle_of


class TwoFactorPair:
    """Mutable assignment of every union edge to factor Z or factor W.

    Per slot of the union's slot table it counts the Z-edges (`deg_z`)
    and, per factor, the pinned edges (`pinned[Z]`, `pinned[W]`: those
    whose `fixed` flag is set).  A vertex is broken when one of its
    slots holds other than `cap` Z-edges: the 2-factor contract is 2
    undirected, 1-in/1-out directed.  W counts are complements, so a
    vertex is broken in Z exactly when it is broken in W.

    `snapshot()` copies this state and `restore(state)` writes a copy
    back in place, as often as needed: the search undoes a failed move
    that way.
    """

    def __init__(self, graph: UnionMultigraph, sides):
        if len(sides) != 2 * graph.n:
            raise ValueError("one side per edge required")
        self.graph = graph
        self.side = [int(s) for s in sides]
        self.fixed = [False] * len(self.side)
        deg = self.deg_z = [0] * len(graph.slots)
        for a, b, s in zip(graph.slot_a, graph.slot_b, self.side):
            if s == Z:
                deg[a] += 1
                deg[b] += 1
        self.pinned = ([0] * len(deg), [0] * len(deg))
        cap, mate, n = graph.cap, graph.slot_mate, graph.n
        self.broken = {
            v for v in range(1, n + 1) if not deg[v] == cap == deg[mate[v]]
        }

    def pin(self, edge_id: int, on: bool) -> None:
        """Set one edge's fixed flag, keeping the pinned counts in step."""
        if self.fixed[edge_id] != on:
            self.fixed[edge_id] = on
            g, d = self.graph, 1 if on else -1
            pins = self.pinned[self.side[edge_id]]
            pins[g.slot_a[edge_id]] += d
            pins[g.slot_b[edge_id]] += d

    def snapshot(self) -> tuple:
        pin_z, pin_w = self.pinned
        return (self.side[:], self.fixed[:], self.deg_z[:], pin_z[:],
                pin_w[:], set(self.broken))

    def restore(self, state: tuple) -> None:
        side, fixed, deg_z, pin_z, pin_w, broken = state
        self.side[:], self.fixed[:], self.deg_z[:] = side, fixed, deg_z
        self.pinned[Z][:], self.pinned[W][:] = pin_z, pin_w
        self.broken.clear()
        self.broken.update(broken)


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


def components(
    pair: TwoFactorPair, below: int | None = None
) -> ComponentReport | None:
    """Cycle decomposition of both factors.

    Only defined when every vertex meets the factor-degree contract.
    With `below`, the walk gives None as soon as the total cannot fall
    under it: its count is the cycles closed so far, plus one for the
    factor being walked while it has vertices left, plus one for W
    while Z is walked.  So the answer is None exactly when the total is
    at least `below`, and otherwise the full report.
    """
    if below is None:
        below = pair.graph.n + 1  # above any total: each cycle has 2+ vertices
    z = _factor_cycles(pair, Z, below - 1)  # W holds at least one cycle
    w = None if z is None else _factor_cycles(pair, W, below - len(z))
    return None if w is None else ComponentReport(z, w)


def _factor_cycles(
    pair: TwoFactorPair, side: int, below: int | None = None
) -> list[list[int]] | None:
    """Cycles of one factor, walked through slot v (incidence list or
    out-port).

    The walk takes at each vertex the first factor edge it did not come
    in by, so it needs the degree contract to hold everywhere.  With
    `below`, it gives None instead of starting a cycle that would bring
    its count to `below`.
    """
    if pair.broken:
        raise ValueError(
            f"degree contract violated at vertices {sorted(pair.broken)}"
        )
    g = pair.graph
    slots, sides, tail, head = g.slots, pair.side, g.tail, g.head
    seen = [False] * (g.n + 1)
    cycles = []
    last = g.n if below is None else below - 1  # n: fewer precede any start
    for s in range(1, g.n + 1):
        if seen[s]:
            continue
        if len(cycles) >= last:
            return None
        comp = []
        v, entered = s, -1
        while not seen[v]:
            seen[v] = True
            comp.append(v)
            for e in slots[v]:
                if e != entered and sides[e] == side:
                    break
            # the far end of e
            v = tail[e] + head[e] - v
            entered = e
        cycles.append(comp)
    return cycles


def cycle_from_factor(pair: TwoFactorPair, side: int) -> HamCycle:
    """Extract one factor as a Hamiltonian cycle; fails if it is split."""
    cycles = _factor_cycles(pair, side)
    if len(cycles) != 1 or len(cycles[0]) != pair.graph.n:
        raise ValueError("factor is not a single Hamiltonian cycle")
    return HamCycle.from_order(cycles[0], pair.graph.directed)


def is_second_decomposition(pair: TwoFactorPair) -> bool:
    """True when the pair is a decomposition different from {x, y}, the
    generating pair of `pair.graph = build_union(x, y)`.

    The union's edge ids carry the pair: edge e is x's when e < n and
    y's otherwise, and only `partner` is read besides.  A Hamiltonian Z
    takes one copy of every parallel pair, so the copies never tell
    {Z, W} from {x, y}.  The pair is {x, y} exactly when every unshared
    edge sits on its origin's side (Z = x), or every one sits on the
    other (Z = y), so one pass over the unshared edges answers it.
    """
    if pair.broken or components(pair, below=3) is None:
        return False
    sides, n = pair.side, pair.graph.n  # Z = ORIGIN_X and W = ORIGIN_Y
    at_home = {sides[e] == e // n
               for e, mate in enumerate(pair.graph.partner) if mate is None}
    return len(at_home) == 2
