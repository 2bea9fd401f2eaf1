from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from hamdec.multigraph import W, Z, HamCycle, build_union, normalize_pairs


def make_cycle(order, directed=False):
    return HamCycle.from_order(order, directed)


def random_cycle(n, rng, directed=False):
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    return HamCycle.from_order([1] + rest, directed)


def random_instance(n, seed, directed=False):
    rng = np.random.default_rng(seed)
    x = random_cycle(n, rng, directed)
    y = random_cycle(n, rng, directed)
    return x, y, build_union(x, y)


@pytest.fixture
def ring6():
    """n=6 instance with one repeated edge and four decompositions."""
    x = make_cycle([1, 2, 3, 4, 5, 6])
    y = make_cycle([1, 4, 6, 2, 3, 5])
    return x, y


# One of the three decompositions of ring6 different from {x, y}.
RING6_Z = [1, 4, 5, 3, 2, 6]
RING6_W = [1, 2, 3, 4, 6, 5]


@pytest.fixture
def twin_triangles():
    """n=6 instance whose natural split leaves four triangle components."""
    x = make_cycle([1, 2, 6, 4, 5, 3])
    y = make_cycle([1, 2, 3, 4, 5, 6])
    return x, y


@pytest.fixture
def double_squares():
    """n=8 instance whose union splits into two pairs of 4-cycles."""
    x = make_cycle([1, 2, 3, 6, 7, 8, 4, 5])
    y = make_cycle([1, 4, 3, 7, 2, 6, 5, 8])
    return x, y


def find_edge(g, u, v, *, used=None):
    """Edge id in g with endpoints {u, v}, skipping ids in `used`."""
    used = used or set()
    for e in range(len(g.tail)):
        if e in used:
            continue
        if {g.tail[e], g.head[e]} == {u, v}:
            return e
    raise KeyError((u, v))


class Adjacency(NamedTuple):
    inc: list       # incident edge ids per vertex
    out_arcs: list  # ids of the edges each vertex is the tail of
    in_arcs: list   # ids of the edges each vertex is the head of


def adjacency(g):
    """Per-vertex edge lists in edge-id order, rebuilt from `g.tail` and
    `g.head` alone: a reference independent of the union's slot table."""
    inc, out_arcs, in_arcs = ([[] for _ in range(g.n + 1)] for _ in range(3))
    for e, (u, v) in enumerate(zip(g.tail, g.head)):
        inc[u].append(e)
        inc[v].append(e)
        out_arcs[u].append(e)
        in_arcs[v].append(e)
    return Adjacency(inc, out_arcs, in_arcs)


def sides_for_cycles(g, cycle_vertex_lists):
    """Side vector putting the listed cycles in Z and the rest in W."""
    sides = [W] * len(g.tail)
    used = set()
    for cyc in cycle_vertex_lists:
        for i in range(len(cyc)):
            e = find_edge(g, cyc[i], cyc[(i + 1) % len(cyc)], used=used)
            sides[e] = Z
            used.add(e)
    return sides


def factor_multiset(pair, side):
    """Sorted edge multiset of one factor, comparable with
    `HamCycle.edge_multiset`."""
    g = pair.graph
    pairs = [
        (g.tail[e], g.head[e])
        for e in range(len(g.tail))
        if pair.side[e] == side
    ]
    return normalize_pairs(pairs, pair.graph.directed)


def witness_sides(g, z):
    """Side vector whose Z factor realizes cycle z, first copies first,
    or AssertionError."""
    want = Counter(z.edge_multiset())
    sides = [W] * len(g.tail)
    for e in range(len(g.tail)):
        if g.directed:
            key = (g.tail[e], g.head[e])
        else:
            key = tuple(sorted((g.tail[e], g.head[e])))
        if want[key] > 0:
            want[key] -= 1
            sides[e] = Z
    assert sum(want.values()) == 0
    return sides


def move(pair, edge_id):
    """Flip one edge of `pair` to the other factor; a pinned edge stays
    pinned.  The reference for the move `heuristics._chain` makes inline.
    """
    g, pinned = pair.graph, pair.fixed[edge_id]
    pair.pin(edge_id, False)
    pair.side[edge_id] = now = W if pair.side[edge_id] == Z else Z
    d = 1 if now == Z else -1
    deg, cap, mate, owner = pair.deg_z, g.cap, g.slot_mate, g.slot_vertex
    for s in (g.slot_a[edge_id], g.slot_b[edge_id]):
        deg[s] += d
        if deg[s] == cap == deg[mate[s]]:
            pair.broken.discard(owner[s])
        else:
            pair.broken.add(owner[s])
    pair.pin(edge_id, pinned)
