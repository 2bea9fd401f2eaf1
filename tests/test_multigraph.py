import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdec.instances import InstanceKind, InstanceSpec, generate_instance
from hamdec.multigraph import (
    ORIGIN_X,
    W,
    Z,
    HamCycle,
    TwoFactorPair,
    build_union,
    components,
    cycle_from_factor,
    is_second_decomposition,
    normalize_pairs,
    peaks,
)
from hamdec.oracle import enumerate_decompositions

from conftest import (
    RING6_W,
    RING6_Z,
    adjacency,
    factor_multiset,
    make_cycle,
    move,
    random_cycle,
    random_instance,
    sides_for_cycles,
    witness_sides,
)


# ---------------------------------------------------------------- oracles

def uf_component_count(n, vertex_pairs):
    """Union-find count of connected components over vertices 1..n."""
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in vertex_pairs:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(1, n + 1)})


def factor_pairs(pair, side):
    g = pair.graph
    return [
        (g.tail[e], g.head[e])
        for e in range(len(g.tail))
        if pair.side[e] == side
    ]


def euler_sides(g, rng):
    """Sides alternating along a random Euler circuit of an undirected
    union, so each pass through a vertex takes one edge of each factor."""
    inc, used = adjacency(g).inc, [False] * len(g.tail)
    stack, circuit = [(1, None)], []
    while stack:
        v, entered = stack[-1]
        live = [e for e in inc[v] if not used[e]]
        if live:
            e = live[rng.integers(len(live))]
            used[e] = True
            stack.append((g.tail[e] + g.head[e] - v, e))
        else:
            stack.pop()
            if entered is not None:
                circuit.append(entered)
    sides = [Z] * len(g.tail)
    for i, e in enumerate(circuit):
        sides[e] = i % 2
    return sides


def random_valid_sides(g, rng):
    """A random valid side vector: a random set of alternating cycles
    flipped away from Z = x when directed, else `euler_sides`."""
    if not g.directed:
        return euler_sides(g, rng)
    flip = rng.integers(0, 2, max(g.cycle_of) + 1)
    return [e // g.n ^ int(flip[g.cycle_of[e]]) for e in range(len(g.tail))]


def assert_bounded_counts_match(pair):
    """`components(pair, below=k)` for k = 1..total+1 against the
    union-find total: None iff total >= k, else the full report."""
    n = pair.graph.n
    total = sum(
        uf_component_count(n, factor_pairs(pair, side)) for side in (Z, W)
    )
    full = components(pair)
    assert full.total == total
    for below in range(1, total + 2):
        got = components(pair, below=below)
        if total >= below:
            assert got is None, (total, below)
        else:
            assert got == full, (total, below)
    return total


def peak_scan(cycle):
    """Peak set recomputed from the raw edge list, not the order index."""
    nbrs = {v: [] for v in range(1, cycle.n + 1)}
    for u, v in cycle.edge_pairs():
        nbrs[u].append(v)
        nbrs[v].append(u)
    return {v for v, ns in nbrs.items() if all(w < v for w in ns)}


# ---------------------------------------------------------------- cycles

def test_cycle_rotates_to_start_at_one():
    c = make_cycle([3, 4, 1, 2])
    assert c.order == (1, 2, 3, 4)


def test_cycle_rejects_bad_input():
    with pytest.raises(ValueError):
        make_cycle([1, 2])
    with pytest.raises(ValueError):
        make_cycle([1, 2, 2, 4])
    with pytest.raises(ValueError):
        make_cycle([2, 3, 4])


def test_cycle_rejects_non_integer_vertices():
    # int() would truncate 2.9 to 2 and read "3" as 3; index(True) is 1
    for order in ([1, 2.9, 3.2], ["1", "3", "2"], [True, 2, 3]):
        with pytest.raises(ValueError, match="integer vertices"):
            make_cycle(order)
    c = HamCycle.from_order(np.array([3, 1, 2], dtype=np.int64), True)
    assert c.order == (1, 2, 3)
    assert all(type(v) is int for v in c.order)


def test_edge_multiset_ignores_orientation_only_when_undirected():
    fwd = make_cycle([1, 2, 3, 4, 5])
    rev = make_cycle([1, 5, 4, 3, 2])
    assert fwd.edge_multiset() == rev.edge_multiset()
    dfwd = make_cycle([1, 2, 3, 4, 5], directed=True)
    drev = make_cycle([1, 5, 4, 3, 2], directed=True)
    assert dfwd.edge_multiset() != drev.edge_multiset()


def test_peaks_identity_cycle_is_n():
    for n in (3, 5, 8, 17):
        assert peaks(make_cycle(range(1, n + 1))) == {n}


def test_peaks_two_run_example():
    assert peaks(make_cycle([1, 2, 4, 5, 7, 8, 6, 3])) == {8}


def test_peaks_matches_scan_on_all_cycles_n5():
    seen = set()
    for rest in itertools.permutations(range(2, 6)):
        c = make_cycle((1,) + rest)
        seen.add(c.edge_multiset())
        assert peaks(c) == peak_scan(c)
    # 12 distinct undirected cycles on 5 vertices
    assert len(seen) == 12


# ---------------------------------------------------------------- union

def test_union_links_single_shared_edge(ring6):
    x, y = ring6
    g = build_union(x, y)
    assert len(g.tail) == 12
    linked = [e for e, mate in enumerate(g.partner) if mate is not None]
    assert len(linked) == 2
    assert {frozenset((g.tail[e], g.head[e])) for e in linked} == {
        frozenset((2, 3))}
    for e in linked:
        assert g.partner[g.partner[e]] == e
    assert g.multi_edge_count() == 2
    inc = adjacency(g).inc
    assert sorted(len(inc[v]) for v in range(1, 7)) == [4] * 6


def test_union_identical_cycles_every_edge_doubled():
    x = make_cycle([1, 2, 3])
    g = build_union(x, make_cycle([1, 2, 3]))
    assert all(mate is not None for mate in g.partner)
    assert g.multi_edge_count() == 6


def test_union_directed_links_need_matching_direction():
    x = make_cycle([1, 2, 3, 4], directed=True)
    y = make_cycle([1, 4, 3, 2], directed=True)  # reverse traversal
    g = build_union(x, y)
    # arc (u,v) vs (v,u) never pair up
    assert all(mate is None for mate in g.partner)
    adj = adjacency(g)
    assert all(len(adj.out_arcs[v]) == 2 for v in range(1, 5))
    assert all(len(adj.in_arcs[v]) == 2 for v in range(1, 5))


def test_union_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        build_union(make_cycle([1, 2, 3]), make_cycle([1, 2, 3, 4]))
    with pytest.raises(ValueError):
        build_union(make_cycle([1, 2, 3]), make_cycle([1, 2, 3], directed=True))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 12),
    directed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_union_degree_invariants_hold_for_random_cycles(n, directed, seed):
    rng = np.random.default_rng(seed)
    x = random_cycle(n, rng, directed)
    y = random_cycle(n, rng, directed)
    g = build_union(x, y)
    assert len(g.tail) == 2 * n
    adj = adjacency(g)
    for v in range(1, n + 1):
        assert len(adj.inc[v]) == 4
        if directed:
            assert len(adj.out_arcs[v]) == 2
            assert len(adj.in_arcs[v]) == 2
    # the slot table is that layout, in edge-id order: slot v holds v's
    # incidence list, or its out-arcs when directed, and slot n+1+v its
    # in-arcs; slots 0 and n+1 are empty
    assert g.slots == (adj.out_arcs + adj.in_arcs if directed else adj.inc)
    assert g.slots[0] == []
    if directed:
        assert g.slots[n + 1] == []
    # partner linking is an involution and preserves endpoints
    for e, mate in enumerate(g.partner):
        if mate is not None:
            assert g.partner[mate] == e
            if directed:
                assert (g.tail[mate], g.head[mate]) == (g.tail[e], g.head[e])
            else:
                assert {g.tail[mate], g.head[mate]} == {g.tail[e], g.head[e]}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
def test_alternating_cycle_labels_split_the_ports(n, seed):
    rng = np.random.default_rng(seed)
    x = random_cycle(n, rng, True)
    y = random_cycle(n, rng, True)
    g = build_union(x, y)
    undirected = build_union(
        HamCycle.from_order(x.order, False), HamCycle.from_order(y.order, False)
    )
    assert undirected.cycle_of == []
    labels, adj = g.cycle_of, adjacency(g)
    assert len(labels) == len(g.tail)
    for v in range(1, n + 1):
        for a, b in (adj.out_arcs[v], adj.in_arcs[v]):
            assert labels[a] == labels[b]
    members = {}
    for e in range(len(g.tail)):
        members.setdefault(labels[e], []).append(e)
    for e, mate in enumerate(g.partner):
        if mate is not None:
            assert sorted(members[labels[e]]) == sorted((e, mate))
    origin = [Z if e // g.n == ORIGIN_X else W for e in range(len(g.tail))]
    for arcs in members.values():
        pair = TwoFactorPair(g, origin)
        for a in arcs:
            move(pair, a)
        assert not pair.broken


def test_alternating_cycle_counts_of_random_permutation_n64():
    counts = []
    for seed in range(100, 110):
        spec = InstanceSpec(InstanceKind.RANDOM_PERMUTATION, 64, True, seed)
        _, _, g = generate_instance(spec)
        counts.append(
            len({g.cycle_of[e] for e, mate in enumerate(g.partner)
                 if mate is None})
        )
    assert counts == [4, 4, 4, 4, 1, 3, 4, 3, 2, 4]


def assert_union_layout(g, x, y):
    """The union's edge lists against a reference built from x and y.

    Edge e < n runs from x.order[e] to the next vertex of x, and edge
    e >= n likewise along y.  `partner` links, both ways, exactly the
    x/y edge pairs with equal endpoints (the equal arc when directed),
    so the lower copy of every pair is x's.
    """
    n = x.n
    ends = [(c.order[i], c.order[(i + 1) % n]) for c in (x, y)
            for i in range(n)]
    assert g.tail == [t for t, _ in ends]
    assert g.head == [h for _, h in ends]

    def same(a, b):
        if x.directed:
            return ends[a] == ends[b]
        return sorted(ends[a]) == sorted(ends[b])

    want = [None] * (2 * n)
    for a in range(n):
        for b in range(n, 2 * n):
            if same(a, b):
                assert want[a] is None and want[b] is None
                want[a], want[b] = b, a
    assert g.partner == want
    for e, mate in enumerate(g.partner):
        if mate is not None:
            assert g.partner[mate] == e
            assert min(e, mate) < n <= max(e, mate)  # x's copy is the lower


@pytest.mark.parametrize("kind", list(InstanceKind))
@pytest.mark.parametrize("directed", [False, True])
def test_union_layout_follows_the_generated_orders(kind, directed):
    for seed in range(3):
        x, y, g = generate_instance(InstanceSpec(kind, 12, directed, seed))
        assert_union_layout(g, x, y)


@pytest.mark.parametrize("x_order, y_order, directed, linked", [
    ([1, 2, 3], [1, 2, 3], False, 6),  # identical: every edge doubled
    ([1, 2, 3], [1, 3, 2], False, 6),  # the same edges, walked backwards
    ([1, 2, 3], [1, 2, 3], True, 6),
    ([1, 2, 3, 4], [1, 4, 3, 2], True, 0),  # reversed arcs never pair up
    ([1, 2, 3, 4, 5, 6], [1, 3, 2, 4, 6, 5], False, 4),
])
def test_union_layout_of_hand_made_cycles(x_order, y_order, directed, linked):
    x = make_cycle(x_order, directed)
    y = make_cycle(y_order, directed)
    g = build_union(x, y)
    assert_union_layout(g, x, y)
    assert g.multi_edge_count() == linked


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 12),
    directed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_union_layout_of_random_cycles(n, directed, seed):
    rng = np.random.default_rng(seed)
    x = random_cycle(n, rng, directed)
    y = random_cycle(n, rng, directed)
    assert_union_layout(build_union(x, y), x, y)


# ---------------------------------------------------------------- factors

def test_components_of_origin_split_is_two(ring6):
    x, y = ring6
    g = build_union(x, y)
    pair = TwoFactorPair(g, [Z] * 6 + [W] * 6)
    rep = components(pair)
    assert rep.total == 2
    assert [len(c) for c in rep.z_cycles] == [6]


def test_components_triangle_split_totals_four(twin_triangles):
    x, y = twin_triangles
    g = build_union(x, y)
    sides = sides_for_cycles(g, [[1, 2, 6], [3, 4, 5]])
    rep = components(pair := TwoFactorPair(g, sides))
    assert not pair.broken
    assert rep.total == 4
    z_sets = {frozenset(c) for c in rep.z_cycles}
    w_sets = {frozenset(c) for c in rep.w_cycles}
    assert z_sets == {frozenset({1, 2, 6}), frozenset({3, 4, 5})}
    assert w_sets == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}
    assert rep.subtours(6) == rep.z_cycles + rep.w_cycles


def test_components_double_squares_totals_four(double_squares):
    x, y = double_squares
    g = build_union(x, y)
    sides = sides_for_cycles(g, [[1, 5, 8, 4], [2, 3, 7, 6]])
    rep = components(TwoFactorPair(g, sides))
    assert rep.total == 4
    assert {frozenset(c) for c in rep.w_cycles} == {
        frozenset({1, 2, 7, 8}),
        frozenset({3, 6, 5, 4}),
    }


def test_components_rejects_broken_state(ring6):
    x, y = ring6
    g = build_union(x, y)
    pair = TwoFactorPair(g, [Z] * 6 + [W] * 6)
    move(pair, 0)
    assert pair.broken == {1, 2}
    for below in (None, 1, 3, 13):
        with pytest.raises(ValueError):
            components(pair, below=below)


def test_components_match_union_find_on_exhaustive_n6(ring6):
    x, y = ring6
    g = build_union(x, y)
    checked = 0
    for bits in range(4096):
        sides = [(bits >> i) & 1 for i in range(12)]
        pair = TwoFactorPair(g, sides)
        if pair.broken:
            continue
        checked += 1
        rep = components(pair)
        for side, cycles in ((Z, rep.z_cycles), (W, rep.w_cycles)):
            pairs = factor_pairs(pair, side)
            assert uf_component_count(6, pairs) == len(cycles)
        assert sorted(v for c in rep.z_cycles for v in c) == list(range(1, 7))
        assert_bounded_counts_match(pair)
    assert checked > 0


@pytest.mark.parametrize("kind", list(InstanceKind))
@pytest.mark.parametrize("directed", [False, True])
def test_bounded_components_match_union_find_on_random_pairs(kind, directed):
    rng = np.random.default_rng(47)
    totals = set()
    for n in (8, 13, 24, 40):
        for seed in range(3):
            _, _, g = generate_instance(InstanceSpec(kind, n, directed, seed))
            for _ in range(6):
                pair = TwoFactorPair(g, random_valid_sides(g, rng))
                assert not pair.broken
                totals.add(assert_bounded_counts_match(pair))
    assert len(totals) >= 3, totals


def test_move_bookkeeping_matches_recount(ring6):
    x, y = ring6
    g = build_union(x, y)
    pair = TwoFactorPair(g, [Z] * 6 + [W] * 6)
    rng = np.random.default_rng(7)
    for _ in range(200):
        move(pair, int(rng.integers(0, 12)))
        recount = [0] * 7
        for e in range(len(g.tail)):
            if pair.side[e] == Z:
                recount[g.tail[e]] += 1
                recount[g.head[e]] += 1
        assert recount[1:] == pair.deg_z[1:]
        assert pair.broken == {v for v in range(1, 7) if recount[v] != 2}


def test_directed_move_bookkeeping():
    x, y, g = random_instance(7, seed=3, directed=True)
    pair = TwoFactorPair(g, [Z] * 7 + [W] * 7)
    rng = np.random.default_rng(11)
    for _ in range(200):
        move(pair, int(rng.integers(0, 14)))
        out = [0] * 8
        inn = [0] * 8
        for e in range(len(g.tail)):
            if pair.side[e] == Z:
                out[g.tail[e]] += 1
                inn[g.head[e]] += 1
        # deg_z holds the out-port slots 0..7, then the in-port slots
        assert out[1:] == pair.deg_z[1:8]
        assert inn[1:] == pair.deg_z[9:]
        assert pair.broken == {
            v for v in range(1, 8) if out[v] != 1 or inn[v] != 1
        }


# ------------------------------------------------- second decomposition

def test_known_witness_is_second_decomposition(ring6):
    x, y = ring6
    g = build_union(x, y)
    sides = sides_for_cycles(g, [RING6_Z])
    pair = TwoFactorPair(g, sides)
    assert components(pair).total == 2
    assert is_second_decomposition(pair)
    z = cycle_from_factor(pair, Z)
    w = cycle_from_factor(pair, W)
    assert z.edge_multiset() == make_cycle(RING6_Z).edge_multiset()
    assert w.edge_multiset() == make_cycle(RING6_W).edge_multiset()


def test_original_split_is_not_second_decomposition(ring6):
    x, y = ring6
    g = build_union(x, y)
    pair = TwoFactorPair(g, [Z] * 6 + [W] * 6)
    assert components(pair).total == 2
    assert not is_second_decomposition(pair)
    # swapping which copy of the repeated edge sits where changes nothing
    e = next(e for e, mate in enumerate(g.partner) if mate is not None)
    move(pair, e)
    move(pair, g.partner[e])
    assert not is_second_decomposition(pair)


def test_split_factor_is_not_second_decomposition(twin_triangles):
    x, y = twin_triangles
    g = build_union(x, y)
    sides = sides_for_cycles(g, [[1, 2, 6], [3, 4, 5]])
    assert not is_second_decomposition(TwoFactorPair(g, sides))


def reference_is_second(pair, x, y):
    """The sorted edge multiset comparison of both factors with x and y."""
    if pair.broken or components(pair).total != 2:
        return False
    got = sorted((factor_multiset(pair, Z), factor_multiset(pair, W)))
    return got != sorted((x.edge_multiset(), y.edge_multiset()))


def second_decomposition_cases(g, rng):
    """Side vectors over g: every decomposition in both factor orders,
    with its parallel copies swapped too, plus broken and split states
    (every vector when g has at most 12 edges, else random ones)."""
    for z, w in enumerate_decompositions(g):
        for cycle in (z, w):
            sides = witness_sides(g, cycle)
            yield sides
            swapped = list(sides)
            for e, mate in enumerate(g.partner):
                if mate is not None:
                    swapped[e] = sides[mate]
            yield swapped
    m = len(g.tail)
    if m <= 12:
        for bits in range(1 << m):
            yield [(bits >> i) & 1 for i in range(m)]
    else:
        for _ in range(300):
            yield [int(b) for b in rng.integers(0, 2, m)]


def test_second_decomposition_test_matches_multiset_reference():
    rng = np.random.default_rng(23)
    answers = set()
    for directed in (False, True):
        for kind in InstanceKind:
            for n in range(5, 11):
                if kind is InstanceKind.FOUR_PEAK and n < 8:
                    continue
                x, y, _ = generate_instance(
                    InstanceSpec(kind, n, directed, 40 + n)
                )
                for a, b in ((x, y), (x, x)):
                    g = build_union(a, b)
                    for sides in second_decomposition_cases(g, rng):
                        pair = TwoFactorPair(g, sides)
                        want = reference_is_second(pair, a, b)
                        assert is_second_decomposition(pair) is want
                        split = not pair.broken and components(pair).total > 2
                        answers.add((want, pair.broken != set(), split))
    # a second decomposition, {x, y} itself, a broken and a split state
    assert answers >= {
        (True, False, False), (False, False, False),
        (False, True, False), (False, False, True),
    }, answers


def test_cycle_from_factor_rejects_split_factor(twin_triangles):
    x, y = twin_triangles
    g = build_union(x, y)
    sides = sides_for_cycles(g, [[1, 2, 6], [3, 4, 5]])
    with pytest.raises(ValueError):
        cycle_from_factor(TwoFactorPair(g, sides), Z)


def test_normalize_pairs_orders_undirected_endpoints():
    assert normalize_pairs([(3, 1), (2, 3)], directed=False) == (
        (1, 3),
        (2, 3),
    )
    assert normalize_pairs([(3, 1), (2, 3)], directed=True) == (
        (2, 3),
        (3, 1),
    )
