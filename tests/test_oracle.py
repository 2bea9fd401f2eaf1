import hashlib
import itertools
from collections import Counter

import pytest

import hamdec.oracle as oracle
from hamdec.instances import InstanceKind, InstanceSpec, generate_instance
from hamdec.multigraph import HamCycle, build_union, normalize_pairs
from hamdec.oracle import enumerate_decompositions, has_second_decomposition

from conftest import make_cycle, random_instance


# ------------------------------------------------- reference enumerator

def cycle_pair_decompositions(g):
    """Second opinion: scan all vertex orders instead of edge choices."""
    n = g.n
    avail = Counter(
        normalize_pairs([(t, h)], g.directed)[0]
        for t, h in zip(g.tail, g.head)
    )
    keys = set()
    for rest in itertools.permutations(range(2, n + 1)):
        if not g.directed and rest[0] > rest[-1]:
            continue
        cyc = HamCycle.from_order((1,) + rest, g.directed)
        need = Counter(cyc.edge_multiset())
        if any(avail[k] < c for k, c in need.items()):
            continue
        rem = avail - need
        if _is_single_cycle(rem, n, g.directed):
            rest_ms = tuple(sorted(rem.elements()))
            keys.add(frozenset((cyc.edge_multiset(), rest_ms)))
    return keys


def _is_single_cycle(edge_counter, n, directed):
    pairs = list(edge_counter.elements())
    if len(pairs) != n:
        return False
    if directed:
        succ = {}
        for u, v in pairs:
            if u in succ:
                return False
            succ[u] = v
        if set(succ) != set(range(1, n + 1)):
            return False
        seen, v = set(), 1
        while v not in seen:
            seen.add(v)
            v = succ[v]
        return len(seen) == n and v == 1
    nbrs = {v: [] for v in range(1, n + 1)}
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    if any(len(ns) != 2 for ns in nbrs.values()):
        return False
    seen, prev, v = {1}, None, 1
    for _ in range(n):
        a, b = nbrs[v]
        nxt = b if a == prev else a
        prev, v = v, nxt
        seen.add(v)
    return v == 1 and len(seen) == n


def keys_of(decompositions):
    return {
        frozenset((z.edge_multiset(), w.edge_multiset()))
        for z, w in decompositions
    }


# ---------------------------------------------------------------- tests

def test_ring6_decompositions_enumerated_exactly(ring6):
    x, y = ring6
    g = build_union(x, y)
    decs = enumerate_decompositions(g)
    # the original pair, the known witness pair, and two more; confirmed
    # by the independent vertex-order enumeration below
    assert len(decs) == 4
    assert keys_of(decs) == cycle_pair_decompositions(g)
    known = frozenset(
        (
            make_cycle([1, 4, 5, 3, 2, 6]).edge_multiset(),
            make_cycle([1, 2, 3, 4, 6, 5]).edge_multiset(),
        )
    )
    assert known in keys_of(decs)
    ok, witness = has_second_decomposition(g, x, y)
    assert ok
    z, w = witness
    assert frozenset((z.edge_multiset(), w.edge_multiset())) != frozenset(
        (x.edge_multiset(), y.edge_multiset())
    )


def test_identical_cycles_only_decompose_trivially():
    x = make_cycle([1, 2, 3])
    g = build_union(x, make_cycle([1, 2, 3]))
    assert len(enumerate_decompositions(g)) == 1
    ok, witness = has_second_decomposition(g, x, x)
    assert not ok and witness is None


def test_directed_triangle_union_has_no_second():
    x = make_cycle([1, 2, 3], directed=True)
    y = make_cycle([1, 3, 2], directed=True)
    g = build_union(x, y)
    assert len(enumerate_decompositions(g)) == 1
    assert has_second_decomposition(g, x, y) == (False, None)


def test_double_squares_count(double_squares):
    x, y = double_squares
    g = build_union(x, y)
    decs = enumerate_decompositions(g)
    assert len(decs) == 12
    assert has_second_decomposition(g, x, y)[0]


def test_every_result_is_a_decomposition(double_squares):
    x, y = double_squares
    g = build_union(x, y)
    union_ms = Counter(
        normalize_pairs([(t, h)], g.directed)[0]
        for t, h in zip(g.tail, g.head)
    )
    for z, w in enumerate_decompositions(g):
        assert Counter(z.edge_multiset()) + Counter(w.edge_multiset()) == (
            union_ms
        )


def test_agrees_with_vertex_order_enumeration():
    for seed in range(20):
        for directed in (False, True):
            n = 5 + seed % 4
            x, y, g = random_instance(n, seed=seed, directed=directed)
            assert keys_of(enumerate_decompositions(g)) == (
                cycle_pair_decompositions(g)
            ), f"n={n} seed={seed} directed={directed}"


def test_every_complete_assignment_meets_the_degree_contract(monkeypatch):
    # each slot has 2 cap edges and the propagation lets neither factor
    # take more than cap of them, so no leaf of the search is broken;
    # counts left off by one after a failed placement let broken leaves in
    leaves = []

    class Leaf(oracle.TwoFactorPair):
        def __init__(self, graph, sides):
            super().__init__(graph, sides)
            leaves.append(not self.broken)

    monkeypatch.setattr(oracle, "TwoFactorPair", Leaf)
    for kind in InstanceKind:
        for directed in (False, True):
            for seed in range(4):
                spec = InstanceSpec(kind, 10, directed, seed)
                enumerate_decompositions(generate_instance(spec)[2])
    assert len(leaves) > 100 and all(leaves)


def test_large_inputs_are_rejected():
    x, y, g = random_instance(15, seed=0)
    with pytest.raises(ValueError):
        enumerate_decompositions(g)


# SHA-256 of the repr of every instance's decomposition orders, in the
# order `enumerate_decompositions` lists them, and of the answer of
# `has_second_decomposition` with its witness orders: 3 kinds, both
# directednesses, n = 8..12, seeds 0..11.  A rewrite of the oracle must
# keep it byte for byte.
PINNED_ORACLE_SHA256 = (
    "bac6fdd1acf26abb3a729e6ca3fc4bd5f4ce673b8b8aaebb64df37dcfeb0b175"
)


def test_oracle_output_matches_pinned_digest():
    digest = hashlib.sha256()
    answers = set()
    for kind in InstanceKind:
        for directed in (False, True):
            for n in range(8, 13):
                for seed in range(12):
                    spec = InstanceSpec(kind, n, directed, seed)
                    x, y, g = generate_instance(spec)
                    decs = enumerate_decompositions(g)
                    ok, witness = has_second_decomposition(g, x, y)
                    answers.add((directed, ok))
                    digest.update(repr((
                        [(z.order, w.order) for z, w in decs],
                        ok, witness and [c.order for c in witness],
                    )).encode())
    # both answers occur on both directednesses
    assert len(answers) == 4, answers
    assert digest.hexdigest() == PINNED_ORACLE_SHA256
