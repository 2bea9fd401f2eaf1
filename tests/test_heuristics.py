import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

import hamdec.heuristics as heur
from hamdec.heuristics import (
    HeuristicParams,
    TraceRecorder,
    fix_edge,
    fix_parallel_copies,
    local_search_directed,
    unfix_non_parallel,
    vnd_undirected,
)
from hamdec.instances import InstanceKind, InstanceSpec, generate_instance
from hamdec.multigraph import (
    ORIGIN_X,
    W,
    Z,
    TwoFactorPair,
    build_union,
    components,
)

from conftest import (
    RING6_Z,
    adjacency,
    find_edge,
    move,
    random_instance,
    sides_for_cycles,
)


def origin_pair(g):
    return TwoFactorPair(
        g, [Z if e // g.n == ORIGIN_X else W for e in range(len(g.tail))]
    )


def observed(pair):
    """Sides, fixed flags, degree counts and broken set, as one value."""
    return (
        tuple(pair.side),
        tuple(pair.fixed),
        tuple(pair.deg_z),
        frozenset(pair.broken),
    )


def recount_broken(pair):
    """Broken set recomputed from nothing but the side vector."""
    g = pair.graph
    adj = adjacency(g)
    bad = set()
    for v in range(1, g.n + 1):
        if g.directed:
            outd = sum(
                1 for eid in adj.out_arcs[v] if pair.side[eid] == Z
            )
            ind = sum(1 for eid in adj.in_arcs[v] if pair.side[eid] == Z)
            if outd != 1 or ind != 1:
                bad.add(v)
        else:
            d = sum(1 for eid in adj.inc[v] if pair.side[eid] == Z)
            if d != 2:
                bad.add(v)
    return bad


def scrambled_state(g, seed, flips=3):
    """A valid factor assignment a few random chain moves away from
    the origin split.  Repairs keep it a 2-factor but usually leave
    subtours, which makes it a useful search starting point."""
    pair = origin_pair(g)
    fix_parallel_copies(pair)
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        start = pair.snapshot()
        for eid in heur._unfixed_z_edges(pair, rng):
            if fix_edge(pair, eid, W) and heur._repair_all(pair, rng, True):
                break
            pair.restore(start)
        unfix_non_parallel(pair)
    assert not pair.broken
    return pair


@pytest.fixture
def dsq_state(double_squares):
    """The two-pairs-of-squares assignment of the n=8 fixture."""
    x, y = double_squares
    g = build_union(x, y)
    sides = sides_for_cycles(g, [[1, 5, 8, 4], [2, 3, 7, 6]])
    return g, TwoFactorPair(g, sides)


@pytest.fixture
def twin_state(twin_triangles):
    x, y = twin_triangles
    g = build_union(x, y)
    sides = sides_for_cycles(g, [[1, 2, 6], [3, 4, 5]])
    return g, TwoFactorPair(g, sides)


# --------------------------------------------------------- chain fixing

def test_directed_fix_pins_sibling_arcs_opposite():
    x, y, g = random_instance(9, 71, directed=True)
    pair = origin_pair(g)
    e = 3
    assert pair.side[e] == Z and not pair.fixed[e]
    assert fix_edge(pair, e, Z)
    adj = adjacency(g)
    out_sib = [a for a in adj.out_arcs[g.tail[e]] if a != e]
    in_sib = [a for a in adj.in_arcs[g.head[e]] if a != e]
    assert len(out_sib) == 1 and len(in_sib) == 1
    for sib in out_sib + in_sib:
        assert pair.fixed[sib]
        assert pair.side[sib] == W


def test_refix_same_side_is_noop():
    x, y, g = random_instance(8, 5, directed=True)
    pair = origin_pair(g)
    assert fix_edge(pair, 2, Z)
    state = pair.snapshot()
    assert fix_edge(pair, 2, Z)
    assert pair.snapshot() == state


def test_fix_against_existing_pin_reports_conflict():
    x, y, g = random_instance(8, 5, directed=True)
    pair = origin_pair(g)
    assert fix_edge(pair, 2, Z)
    state = pair.snapshot()
    assert not fix_edge(pair, 2, W)
    assert pair.snapshot() == state


def test_directed_cascade_keeps_fixed_degrees_within_bound():
    # among pinned arcs no vertex may exceed the factor degree contract
    for seed in range(12):
        x, y, g = random_instance(10, seed, directed=True)
        pair = origin_pair(g)
        fix_parallel_copies(pair)
        rng = np.random.default_rng(seed)
        eids = heur._unfixed_z_edges(pair, rng)
        if not fix_edge(pair, eids[0], W):
            continue
        adj = adjacency(g)
        for side in (Z, W):
            for v in range(1, g.n + 1):
                outd = sum(
                    1
                    for a in adj.out_arcs[v]
                    if pair.fixed[a] and pair.side[a] == side
                )
                ind = sum(
                    1
                    for a in adj.in_arcs[v]
                    if pair.fixed[a] and pair.side[a] == side
                )
                assert outd <= 1 and ind <= 1


def test_directed_successful_move_restores_validity():
    hit = 0
    for seed in range(15):
        x, y, g = random_instance(11, seed, directed=True)
        pair = origin_pair(g)
        fix_parallel_copies(pair)
        rng = np.random.default_rng(seed)
        start = pair.snapshot()
        for eid in heur._unfixed_z_edges(pair, rng):
            if fix_edge(pair, eid, W):
                hit += 1
                assert not pair.broken
                assert recount_broken(pair) == set()
                break
            pair.restore(start)
    assert hit >= 10


def test_every_successful_directed_chain_leaves_no_broken_vertex():
    # the directed search gives each candidate a single attempt and no
    # repair, which is sound only because a chain that does not conflict
    # always ends in a valid pair
    hit = 0
    for inst_seed in range(8):
        _, _, g = random_instance(11, inst_seed, directed=True)
        for g, start in ((g, origin_pair(g)), directed_scrambled(inst_seed)):
            pair = TwoFactorPair(g, list(start.side))
            fix_parallel_copies(pair)
            assert not pair.broken
            pinned = pair.snapshot()
            for eid in range(len(g.tail)):
                if pair.fixed[eid] or pair.side[eid] != Z:
                    continue
                if fix_edge(pair, eid, W):
                    hit += 1
                    assert not pair.broken
                    assert recount_broken(pair) == set()
                pair.restore(pinned)
    assert hit >= 100


def test_initial_square_move_breaks_both_endpoints(dsq_state):
    g, pair = dsq_state
    eid = find_edge(g, 5, 8)
    assert pair.side[eid] == Z
    assert fix_edge(pair, eid, W)
    assert pair.broken == {5, 8}
    assert recount_broken(pair) == {5, 8}


def test_broken_vertex_has_exactly_two_repair_edges(dsq_state):
    g, pair = dsq_state
    fix_edge(pair, find_edge(g, 5, 8), W)
    assert pair.deg_z[5] == 1
    want, pool = heur._repair_pool(pair, 5)
    assert want == Z
    ends = {frozenset((g.tail[i], g.head[i])) for i in pool}
    assert ends == {frozenset((5, 4)), frozenset((5, 6))}
    # either choice restores vertex 5 and shifts the damage elsewhere
    moved = pair.snapshot()
    for eid in pool:
        assert fix_edge(pair, eid, Z)
        other = ({g.tail[eid], g.head[eid]} - {5}).pop()
        assert 5 not in pair.broken
        assert pair.broken == {other, 8}
        pair.restore(moved)


def test_move_then_rollback_restores_empty_broken(dsq_state):
    g, pair = dsq_state
    before = observed(pair)
    start = pair.snapshot()
    fix_edge(pair, find_edge(g, 5, 8), W)
    assert pair.broken
    pair.restore(start)
    assert pair.broken == set()
    assert observed(pair) == before


def test_undirected_third_pin_in_one_factor_conflicts(twin_state):
    g, pair = twin_state
    at_3 = adjacency(g).inc[3]
    z_at_3 = [eid for eid in at_3 if pair.side[eid] == Z]
    assert len(z_at_3) == 2
    for eid in z_at_3:
        assert fix_edge(pair, eid, Z, recursive=False)
    w_at_3 = [eid for eid in at_3 if pair.side[eid] == W]
    state = pair.snapshot()
    assert not fix_edge(pair, w_at_3[0], Z)
    pair.restore(state)
    assert recount_broken(pair) == pair.broken


def test_broken_set_equals_full_recount_after_random_cascades():
    for seed in range(20):
        directed = seed % 2 == 0
        x, y, g = random_instance(9, seed, directed=directed)
        pair = origin_pair(g)
        rng = np.random.default_rng(seed ^ 0xBEEF)
        for _ in range(6):
            eid = int(rng.integers(0, len(g.tail)))
            side = Z if rng.integers(0, 2) else W
            naive = bool(rng.integers(0, 2))
            state = pair.snapshot()
            if not fix_edge(pair, eid, side, recursive=not naive):
                pair.restore(state)
            assert pair.broken == recount_broken(pair)


def test_restore_is_bit_exact_and_repeatable():
    def parts(pair):
        return [pair.side, pair.fixed, pair.deg_z, *pair.pinned, pair.broken]

    for seed in range(20):
        directed = seed % 2 == 1
        x, y, g = random_instance(10, seed, directed=directed)
        pair = origin_pair(g)
        fix_parallel_copies(pair)
        before = observed(pair), tuple(map(tuple, pair.pinned))
        start, held = pair.snapshot(), parts(pair)
        rng = np.random.default_rng(seed * 13 + 1)
        # one snapshot restored after each of two walks, as the repairs
        # of one move restore it
        for _ in range(2):
            for _ in range(8):
                eid = int(rng.integers(0, len(g.tail)))
                side = Z if rng.integers(0, 2) else W
                fix_edge(pair, eid, side)
            assert pair.snapshot() != start
            pair.restore(start)
            assert (observed(pair), tuple(map(tuple, pair.pinned))) == before
            assert pair.snapshot() == start
        # written back in place: references held across a restore stay live
        assert all(a is b for a, b in zip(held, parts(pair)))


def test_naive_mode_moves_exactly_one_edge():
    x, y, g = random_instance(9, 3, directed=False)
    pair = origin_pair(g)
    eid = next(e for e in range(len(g.tail)) if pair.side[e] == Z)
    before = pair.snapshot()
    assert fix_edge(pair, eid, W, recursive=False)
    after = pair.snapshot()
    # sides and fixed flags change at `eid` alone
    for old, new in zip(before[:2], after[:2]):
        assert [i for i, (a, b) in enumerate(zip(old, new)) if a != b] == [eid]
    assert pair.side[eid] == W and pair.fixed[eid]
    assert not fix_edge(pair, eid, Z, recursive=False)


def test_parallel_pinning_requires_split_copies(ring6):
    x, y = ring6
    g = build_union(x, y)
    pair = origin_pair(g)
    dup = next(e for e, mate in enumerate(g.partner) if mate is not None)
    move(pair, dup)  # both copies now in one factor
    with pytest.raises(ValueError):
        fix_parallel_copies(pair)


def test_parallel_pinning_marks_both_copies(ring6):
    x, y = ring6
    g = build_union(x, y)
    pair = origin_pair(g)
    fix_parallel_copies(pair)
    for e, mate in enumerate(g.partner):
        assert pair.fixed[e] == (mate is not None)


# ------------------------------------------------------ directed search

def directed_scrambled(inst_seed, n=12, flips=3):
    spec = InstanceSpec(InstanceKind.RANDOM_PERMUTATION, n, True, inst_seed)
    _, _, g = generate_instance(spec)
    pair = origin_pair(g)
    fix_parallel_copies(pair)
    rng = np.random.default_rng(inst_seed + 100)
    for _ in range(flips):
        start = pair.snapshot()
        for eid in heur._unfixed_z_edges(pair, rng):
            if fix_edge(pair, eid, W):
                break
            pair.restore(start)
        unfix_non_parallel(pair)
    return g, pair


def test_directed_search_rejects_undirected_input(ring6):
    x, y = ring6
    pair = origin_pair(build_union(x, y))
    with pytest.raises(ValueError):
        local_search_directed(pair, np.random.default_rng(0))


def test_directed_search_leaves_decomposition_alone():
    x, y, g = random_instance(10, 4, directed=True)
    pair = origin_pair(g)
    before = tuple(pair.side)
    out = local_search_directed(pair, np.random.default_rng(0))
    assert out is pair
    assert tuple(pair.side) == before


def test_directed_search_descends_and_reports():
    checked = 0
    for inst_seed in (0, 2, 4, 5, 6):
        g, start = directed_scrambled(inst_seed)
        base = components(start).total
        if base == 2:
            continue
        checked += 1
        trace = TraceRecorder()
        reports = []
        pair = TwoFactorPair(g, list(start.side))

        def sink(report, pair=pair, g=g, reports=reports):
            fresh = TwoFactorPair(g, list(pair.side))
            again = components(fresh)
            assert report.total == again.total
            assert not fresh.broken
            reports.append(report)

        local_search_directed(
            pair, np.random.default_rng(7), cut_sink=sink, trace=trace
        )
        end = components(pair).total
        assert end <= base
        for seq in trace.sequences:
            assert all(a > b for a, b in zip(seq, seq[1:]))
        assert len(reports) == sum(len(s) - 1 for s in trace.sequences)
        totals = [r.total for r in reports]
        assert totals == sorted(totals, reverse=True)
    assert checked >= 4


def test_directed_search_is_seed_deterministic():
    g, start = directed_scrambled(0)
    outs = []
    for _ in range(2):
        pair = TwoFactorPair(g, list(start.side))
        reports = []
        local_search_directed(
            pair, np.random.default_rng(42), cut_sink=reports.append
        )
        outs.append(
            (tuple(pair.side), [sorted(map(tuple, r.subtours(g.n))) for r in reports])
        )
    assert outs[0] == outs[1]


def alternating_labels(g):
    """Alternating cycle of every arc: union-find over the ports."""
    parent = list(range(len(g.tail)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for ports in adjacency(g)[1:]:  # out-arcs, then in-arcs
        for a, b in ports[1:]:
            parent[find(a)] = find(b)
    return [find(e) for e in range(len(g.tail))]


def random_cycle_choice(g, seed):
    """A valid pair taking, per alternating cycle, x or y at random."""
    labels = alternating_labels(g)
    rng = np.random.default_rng(seed)
    to_z = {label: int(rng.integers(2)) for label in sorted(set(labels))}
    sides = [Z if e // g.n == to_z[labels[e]] else W
             for e in range(len(g.tail))]
    return TwoFactorPair(g, sides)


@pytest.mark.parametrize(
    "kind", [InstanceKind.RANDOM_PERMUTATION, InstanceKind.FOUR_PEAK]
)
def test_directed_sweep_tries_each_alternating_cycle_once(kind, monkeypatch):
    sweeps = []
    real_sweep, real_fix = heur._sweep, heur.fix_edge

    def sweep(*args, **kwargs):
        sweeps.append([])
        return real_sweep(*args, **kwargs)

    def fix(pair, eid, *args, **kwargs):
        # a directed chain never leaves a broken vertex, so every call
        # from a sweep is one of its candidates
        sweeps[-1].append(labels[eid])
        return real_fix(pair, eid, *args, **kwargs)

    monkeypatch.setattr(heur, "_sweep", sweep)
    monkeypatch.setattr(heur, "fix_edge", fix)
    tried = stuck = 0
    for n, seed in ((48, 0), (48, 1), (56, 2), (64, 3), (64, 4)):
        _, _, g = generate_instance(InstanceSpec(kind, n, True, seed))
        labels = alternating_labels(g)
        free = {labels[e] for e, mate in enumerate(g.partner) if mate is None}
        for start_seed in range(3):
            pair = random_cycle_choice(g, start_seed)
            if components(pair).total == 2:
                continue
            sweeps.clear()
            local_search_directed(pair, random.Random(start_seed))
            for candidates in sweeps:
                assert len(candidates) == len(set(candidates))
                tried += len(candidates)
            if components(pair).total > 2:
                # the last sweep found no improvement: it tried every cycle
                assert set(sweeps[-1]) == free
                stuck += 1
    assert tried >= 30
    assert stuck >= 1


# ---------------------------------------------------- first neighbourhood

def one_sweep(pair, params, rng, complete, trace=None):
    """One sweep of the neighbourhood `complete` through the real
    `_sweep`, as the descent runs it: the accepted report, or None."""
    fix_parallel_copies(pair)
    base = components(pair).total
    if trace:
        trace.open_run(base)
    return heur._sweep(
        pair, rng, True, None, trace, None,
        lambda: complete(pair, params, rng, True, base),
    )


def test_first_neighbourhood_returns_on_first_improvement(dsq_state):
    g, base_pair = dsq_state
    seen = set()
    for seed in range(6):
        pair = TwoFactorPair(g, list(base_pair.side))
        trace = TraceRecorder()
        one_sweep(pair, HeuristicParams(), np.random.default_rng(seed),
                  heur._replays, trace)
        assert len(trace.sequences) == 1
        seq = trace.sequences[0]
        assert seq[0] == 4
        assert len(seq) <= 2
        seen.add(components(pair).total)
        if len(seq) == 2:
            assert seq[1] == components(pair).total
            assert seq[1] < 4
    assert seen & {2, 3}


def test_first_neighbourhood_accepted_states_are_clean():
    for inst_seed in range(6):
        spec = InstanceSpec(
            InstanceKind.RANDOM_PERMUTATION, 10, False, inst_seed
        )
        _, _, g = generate_instance(spec)
        start = scrambled_state(g, inst_seed)
        if components(start).total == 2:
            continue
        for seed in range(3):
            pair = TwoFactorPair(g, list(start.side))
            trace = TraceRecorder()
            # the trace raises on an accepted state that is not clean
            one_sweep(pair, HeuristicParams(), np.random.default_rng(seed),
                      heur._replays, trace)
            assert not pair.broken
            assert pair.broken == recount_broken(pair)


def test_trace_raises_on_accepting_a_state_that_is_not_clean(ring6):
    g = build_union(*ring6)
    trace = TraceRecorder()
    trace.open_run(4)
    trace.accept(TwoFactorPair(g, sides_for_cycles(g, [RING6_Z])), 2)
    broken = TwoFactorPair(g, [Z] * len(g.tail))
    with pytest.raises(RuntimeError, match="breaks"):
        trace.accept(broken, 3)
    # both copies of the parallel edge {2, 3} in Z: every degree is right
    doubled = TwoFactorPair(g, sides_for_cycles(g, [[2, 3], [1, 5, 4, 6]]))
    assert not doubled.broken
    with pytest.raises(RuntimeError, match="parallel copies"):
        trace.accept(doubled, 3)
    assert trace.sequences == [[4, 2]]


def test_attempt_limit_one_gives_single_rollout_per_edge(twin_state,
                                                         monkeypatch):
    g, pair = twin_state
    calls = []
    orig = heur._repair_all

    def counting(p, rng, recursive):
        calls.append(1)
        return orig(p, rng, recursive)

    monkeypatch.setattr(heur, "_repair_all", counting)
    start_unfixed = sum(
        1
        for e, mate in enumerate(g.partner)
        if pair.side[e] == Z and mate is None
    )
    one_sweep(pair, HeuristicParams(attempt_limit=1),
              np.random.default_rng(0), heur._replays)
    assert len(calls) <= start_unfixed


# --------------------------------------------------- second neighbourhood


def test_depth_zero_admits_only_self_completing_cascades(twin_state):
    g, base_pair = twin_state
    for seed in range(8):
        pair = TwoFactorPair(g, list(base_pair.side))
        before = tuple(pair.side)
        one_sweep(pair, HeuristicParams(depth_limit=0),
                  np.random.default_rng(seed), heur._dive)
        # every candidate move here strands a broken vertex, and with no
        # repair budget each one is rolled straight back
        assert tuple(pair.side) == before


def test_bounded_backtracking_respects_depth_and_branch_budget(
    dsq_state, monkeypatch
):
    g, base_pair = dsq_state
    limit = 5
    depths = []
    pools = []
    orig_dive = heur._dive
    orig_pool = heur._repair_pool

    def watched_dive(pair, params, rng, recursive, base, depth=1):
        depths.append(depth)
        return orig_dive(pair, params, rng, recursive, base, depth)

    def watched_pool(pair, v):
        want, pool = orig_pool(pair, v)
        pools.append(len(pool))
        return want, pool

    monkeypatch.setattr(heur, "_dive", watched_dive)
    monkeypatch.setattr(heur, "_repair_pool", watched_pool)
    for seed in range(4):
        depths.clear()
        pools.clear()
        pair = TwoFactorPair(g, list(base_pair.side))
        one_sweep(pair, HeuristicParams(depth_limit=limit),
                  np.random.default_rng(seed), heur._dive)
        assert max(pools) <= 2
        assert max(depths) <= limit + 1
        per_start = []
        for d in depths:
            if d == 1:
                per_start.append(0)
            per_start[-1] += 1
        # binary repair choices: the explored tree per start edge stays
        # inside the 2^depth envelope
        assert max(per_start) <= 2 ** (limit + 1)
        assert components(pair).total == 2


def test_exhaustive_repairs_improve_whenever_sampling_does():
    # with the depth bound covering any repair sequence, the
    # backtracking neighbourhood finds an improvement on every start
    # where the sampled one does; the attained objectives may differ
    # since both stop at their first improvement
    wins = 0
    for inst_seed in range(10):
        spec = InstanceSpec(
            InstanceKind.RANDOM_PERMUTATION, 10, False, inst_seed
        )
        _, _, g = generate_instance(spec)
        start = scrambled_state(g, inst_seed)
        base = components(start).total
        if base == 2:
            continue
        for seed in range(6):
            p1 = TwoFactorPair(g, list(start.side))
            one_sweep(p1, HeuristicParams(attempt_limit=10),
                      np.random.default_rng(seed), heur._replays)
            t1 = components(p1).total
            p2 = TwoFactorPair(g, list(start.side))
            one_sweep(p2, HeuristicParams(depth_limit=2 * g.n + 2),
                      np.random.default_rng(seed), heur._dive)
            t2 = components(p2).total
            assert t2 <= base
            if t1 < base:
                wins += 1
                assert t2 < base
    assert wins >= 20


def assert_state_equals(pair, state):
    names = ("side", "fixed", "deg_z", "pinned[Z]", "pinned[W]", "broken")
    for name, now, then in zip(names, pair.snapshot(), state):
        assert now == then, name


@pytest.mark.parametrize(
    "fixture, depth_limit",
    [("twin_state", 0), ("dsq_state", 0), ("dsq_state", 1), ("dsq_state", 2)],
)
def test_failed_dive_leaves_no_trace(fixture, depth_limit, request,
                                     monkeypatch):
    # no measured run reaches the second neighbourhood, so its nested
    # restores are pinned here: on these starts every dive fails
    g, start = request.getfixturevalue(fixture)
    params = HeuristicParams(depth_limit=depth_limit)
    depths = []
    real_dive = heur._dive

    def dive(pair, params, rng, recursive, base, depth=1):
        depths.append(depth)
        return real_dive(pair, params, rng, recursive, base, depth)

    monkeypatch.setattr(heur, "_dive", dive)
    fix_parallel_copies(start)
    base = components(start).total
    dives = 0
    for seed in range(4):
        for eid in range(len(g.tail)):
            if start.fixed[eid] or start.side[eid] != Z:
                continue
            pair = pinned_copy(start)
            assert fix_edge(pair, eid, W)
            moved = pair.snapshot()
            assert heur._dive(pair, params, random.Random(seed), True,
                              base) is None
            assert_state_equals(pair, moved)
            dives += 1
        pair, rng = pinned_copy(start), random.Random(seed)
        before = pair.snapshot()
        assert heur._sweep(
            pair, rng, True, None, None, None,
            lambda: heur._dive(pair, params, rng, True, base),
        ) is None
        assert_state_equals(pair, before)
    assert dives >= 16
    assert max(depths) == depth_limit + 1


# ------------------------------------------------------------------- VND

def refuses_directed_before(neighbourhood, params, monkeypatch):
    """vnd_undirected refuses a directed union before `neighbourhood`
    runs, and leaves the pair as it was."""
    calls = []
    monkeypatch.setattr(heur, neighbourhood,
                        lambda *args: calls.append(args))
    x, y, g = random_instance(8, 1, directed=True)
    pair = origin_pair(g)
    before = tuple(pair.side)
    with pytest.raises(ValueError):
        vnd_undirected(pair, params, np.random.default_rng(0))
    assert calls == []
    assert tuple(pair.side) == before


def test_first_neighbourhood_rejects_directed_input(monkeypatch):
    refuses_directed_before("_replays", HeuristicParams(), monkeypatch)


def test_second_neighbourhood_rejects_directed_input(monkeypatch):
    refuses_directed_before(
        "_dive", HeuristicParams(depth_limit=18), monkeypatch
    )


def scripted_neighbourhood(name, improves_at, calls):
    """A completion that improves by one cycle iff the base is listed."""
    def complete(pair, params, rng, recursive, base):
        if not calls or calls[-1] != (name, base):
            calls.append((name, base))
        return SimpleNamespace(total=base - 1) if base in improves_at else None
    return complete


def test_descent_goes_back_to_the_first_neighbourhood_on_improvement():
    _, _, g = random_instance(16, 0)
    calls = []
    heur._descend(
        origin_pair(g), HeuristicParams(), random.Random(0), False,
        (scripted_neighbourhood("first", {10, 8}, calls),
         scripted_neighbourhood("second", {9, 7}, calls)),
        None, None, None, SimpleNamespace(total=10),
    )
    assert calls == [
        ("first", 10), ("first", 9), ("second", 9), ("first", 8),
        ("first", 7), ("second", 7), ("first", 6), ("second", 6),
    ]


def test_passed_deadline_ends_the_descent_at_its_first_failed_sweep(
    dsq_state, monkeypatch
):
    g, pair = dsq_state
    sweeps = []
    real_sweep = heur._sweep

    def sweep(*args):
        sweeps.append(1)
        return real_sweep(*args)

    monkeypatch.setattr(heur, "_sweep", sweep)
    before = tuple(pair.side)
    vnd_undirected(pair, HeuristicParams(), random.Random(0),
                   deadline=time.monotonic() - 1.0)
    assert len(sweeps) == 1
    assert tuple(pair.side) == before


def test_vnd_leaves_decomposition_alone(ring6):
    x, y = ring6
    pair = origin_pair(build_union(x, y))
    before = observed(pair)
    vnd_undirected(pair, HeuristicParams(), np.random.default_rng(0))
    assert observed(pair) == before


def test_vnd_descends_monotonically(twin_state, dsq_state):
    for g, base_pair in (twin_state, dsq_state):
        for seed in range(10):
            pair = TwoFactorPair(g, list(base_pair.side))
            trace = TraceRecorder()
            reports = []
            vnd_undirected(
                pair,
                HeuristicParams(),
                np.random.default_rng(seed),
                cut_sink=reports.append,
                trace=trace,
            )
            for seq in trace.sequences:
                assert all(a > b for a, b in zip(seq, seq[1:]))
            assert components(pair).total == 2
            assert not pair.broken
            for r in reports:
                assert r.total < 4


def test_vnd_never_worsens_on_random_states():
    for inst_seed in range(8):
        spec = InstanceSpec(
            InstanceKind.RANDOM_PERMUTATION, 12, False, inst_seed
        )
        _, _, g = generate_instance(spec)
        start = scrambled_state(g, inst_seed, flips=4)
        base = components(start).total
        for seed in (1, 9):
            pair = TwoFactorPair(g, list(start.side))
            vnd_undirected(
                pair, HeuristicParams(), np.random.default_rng(seed)
            )
            assert components(pair).total <= base
            assert pair.broken == set()
            for e, mate in enumerate(g.partner):
                if mate is not None:
                    assert pair.side[e] != pair.side[mate]


def test_vnd_is_seed_deterministic(dsq_state):
    g, base_pair = dsq_state
    outs = []
    for _ in range(2):
        pair = TwoFactorPair(g, list(base_pair.side))
        reports = []
        vnd_undirected(
            pair,
            HeuristicParams(),
            np.random.default_rng(5),
            cut_sink=reports.append,
        )
        outs.append(
            (
                tuple(pair.side),
                [sorted(map(tuple, r.subtours(g.n))) for r in reports],
            )
        )
    assert outs[0] == outs[1]


def test_vnd_single_move_variant_still_descends(twin_state):
    g, base_pair = twin_state
    improved = 0
    for seed in range(8):
        pair = TwoFactorPair(g, list(base_pair.side))
        vnd_undirected(
            pair,
            HeuristicParams(),
            np.random.default_rng(seed),
            recursive=False,
        )
        total = components(pair).total
        assert total <= 4
        assert pair.broken == set()
        if total == 2:
            improved += 1
    assert improved >= 1


def test_params_validate_limits():
    with pytest.raises(ValueError):
        HeuristicParams(attempt_limit=0)
    with pytest.raises(ValueError):
        HeuristicParams(depth_limit=-1)
    with pytest.raises(ValueError):
        HeuristicParams(seed=-7)
    # int() would truncate: a non-integer is rejected by name
    # and so is a bool, although index(True) is 1, as the CLI rejects it
    for field in ("attempt_limit", "depth_limit", "seed"):
        for value in (2.5, 1.0, "3", None, True, False, np.bool_(True)):
            with pytest.raises(ValueError, match=field):
                HeuristicParams(**{field: value})
    params = HeuristicParams(attempt_limit=np.int64(3), seed=np.int64(4))
    assert (type(params.attempt_limit), type(params.seed)) == (int, int)


# ------------------------------------------- chain loop against a reference

def reference_fix_edge(pair, edge_id, side, recursive=True):
    """Chain fixing that rescans each slot, one `fix_edge` call at a time."""
    g = pair.graph
    adj = adjacency(g)
    if g.directed:
        at_tail, at_head, cap = adj.out_arcs, adj.in_arcs, 1
    else:
        at_tail, at_head, cap = adj.inc, adj.inc, 2
    sides, fixed = pair.side, pair.fixed
    stack = [(edge_id, side)]
    while stack:
        eid, want = stack.pop()
        if fixed[eid]:
            if sides[eid] != want:
                return False
            continue
        if sides[eid] != want:
            move(pair, eid)
        fixed[eid] = True
        if not recursive:
            return True
        other = W if want == Z else Z
        for slot in (at_tail[g.tail[eid]], at_head[g.head[eid]]):
            pinned = sum(1 for o in slot if fixed[o] and sides[o] == want)
            if pinned > cap:
                return False
            if pinned == cap:
                stack.extend((o, other) for o in slot if not fixed[o])
    return True


def reference_repair_all(pair, rng, recursive):
    """Random repair picks, each handed to `reference_fix_edge`.

    A pick mends the drawn vertex's incidence list, or when directed its
    out-port, or its in-port if the out-port is whole.
    """
    g = pair.graph
    adj = adjacency(g)
    guard = 4 * len(g.tail)
    while pair.broken:
        guard -= 1
        if guard < 0:
            return False
        broken = sorted(pair.broken)
        v = broken[int(rng.random() * len(broken))]
        port, cap = (adj.out_arcs[v], 1) if g.directed else (adj.inc[v], 2)
        if g.directed and sum(pair.side[o] == Z for o in port) == 1:
            port = adj.in_arcs[v]
        want = Z if sum(pair.side[o] == Z for o in port) < cap else W
        pool = [o for o in port if not pair.fixed[o] and pair.side[o] != want]
        if not pool:
            return False
        eid = pool[int(rng.random() * len(pool))]
        if not reference_fix_edge(pair, eid, want, recursive):
            return False
    return True


def pinned_copy(pair):
    """A second pair with the same sides and pins."""
    twin = TwoFactorPair(pair.graph, list(pair.side))
    for eid, on in enumerate(pair.fixed):
        twin.pin(eid, on)
    return twin


def recount_pins(pair):
    return tuple(
        [
            sum(1 for o in slot if pair.fixed[o] and pair.side[o] == f)
            for slot in pair.graph.slots
        ]
        for f in (Z, W)
    )


def random_start(g, rng):
    """A pair a few unchained pins away from a random valid split."""
    pair = random_cycle_choice(g, rng.randrange(99)) if g.directed else (
        scrambled_state(g, rng.randrange(99), flips=1)
    )
    pair = pinned_copy(pair)
    fix_parallel_copies(pair)
    for _ in range(rng.randrange(4)):
        eid = rng.randrange(len(g.tail))
        fix_edge(pair, eid, rng.choice((Z, W)), recursive=False)
    return pair


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("recursive", [True, False])
def test_chain_loop_matches_per_pick_reference(directed, recursive):
    rng = random.Random(11)
    repaired = 0
    # 60 small unions, then 12 at the size of the bench workload of this
    # directedness: rp-und-heur has n=96, rp-dir-exact n=64
    sizes = [None] * 60 + [64 if directed else 96] * 12
    for seed, n in enumerate(sizes):
        _, _, g = random_instance(n or rng.choice((9, 12, 16)), seed, directed)
        mine = random_start(g, rng)
        ref = pinned_copy(mine)
        eid, side = rng.randrange(len(g.tail)), rng.choice((Z, W))
        rng_mine, rng_ref = random.Random(seed), random.Random(seed)
        ok_mine = fix_edge(mine, eid, side, recursive)
        ok_ref = reference_fix_edge(ref, eid, side, recursive)
        if ok_ref:
            repaired += bool(ref.broken)
            ok_mine = heur._repair_all(mine, rng_mine, recursive)
            ok_ref = reference_repair_all(ref, rng_ref, recursive)
        assert ok_mine == ok_ref
        assert observed(mine) == observed(ref)
        assert rng_mine.random() == rng_ref.random()
        assert mine.pinned == recount_pins(mine)
    assert repaired >= 3


def test_pinned_counts_follow_every_change_of_fixed():
    rng = random.Random(5)
    for seed in range(30):
        directed = seed % 2 == 1
        _, _, g = random_instance(rng.choice((8, 11, 14)), seed, directed)
        pair = origin_pair(g)
        states = [pair.snapshot()]
        for _ in range(25):
            step = rng.randrange(5)
            if step == 0:
                pair.restore(states[rng.randrange(len(states))])
            elif step == 1:
                unfix_non_parallel(pair)
            elif step == 2:
                try:
                    fix_parallel_copies(pair)
                except ValueError:  # a chain put both copies in one factor
                    pass
            elif step == 3:
                move(pair, rng.randrange(len(g.tail)))
            else:
                eid, side = rng.randrange(len(g.tail)), rng.choice((Z, W))
                fix_edge(pair, eid, side, rng.random() < 0.7)
            states.append(pair.snapshot())
            assert pair.pinned == recount_pins(pair)
            assert pair.broken == recount_broken(pair)
