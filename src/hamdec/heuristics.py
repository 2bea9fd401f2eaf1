"""Local search over factor assignments of the union multigraph.

The objective is the total number of connected components over both
factors; 2 means each factor is a single Hamiltonian cycle.  Every
search is one variable neighbourhood descent over a tuple of
neighbourhoods: a sweep moves each candidate edge to the other factor
and completes the move in the current neighbourhood; an improvement
goes back to the first neighbourhood, a sweep without one moves on.
A completion's cycle count stops once it cannot beat the current one.
The undirected searches use randomized repairs, then backtracking over
the repairs; the directed one (`ls`) has the first alone.

Chain fixing propagates a forced move through the degree contract with
one rule over the union's slot table (see `multigraph`): once a slot
holds cap pinned edges of one factor, its unfixed edges are forced into
the other; more than cap is a contradiction.  The pair keeps its pinned
count per factor and slot, so the rule reads one count per slot end.
One chain loop, over slots and so the same for both directednesses,
serves a fix, its cascade and the randomized repair: when the forced
edges run out and a vertex is still broken, the repair step draws the
next edge to move.  A failed candidate is undone by restoring a
snapshot of the pair taken before it (`TwoFactorPair.snapshot`).

On a valid directed pair a chain flips the whole alternating cycle of
its first edge (see `multigraph`), so every candidate of one cycle
reaches the same state; a sweep tries each cycle once.

One copy of every parallel edge pair is pinned in each factor up
front: splitting them is necessary for Hamiltonicity, so the search
never needs to consider moving them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import index

from .multigraph import W, Z, ComponentReport, TwoFactorPair, components


@dataclass
class HeuristicParams:
    attempt_limit: int = 10
    depth_limit: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("attempt_limit", "depth_limit", "seed"):
            value = getattr(self, name)
            try:  # not int(): that would truncate 1.5 to 1
                if isinstance(value, bool):  # index(True) is 1
                    raise TypeError
                setattr(self, name, index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.attempt_limit < 1:
            raise ValueError("attempt_limit must be positive")
        if self.depth_limit < 0:
            raise ValueError("depth_limit must be non-negative")
        if self.seed < 0:  # random.Random would use |seed|
            raise ValueError("seed must be at least 0")


@dataclass
class TraceRecorder:
    """Cycle counts, one sequence per search pass: the start state's
    count, then the count of each state the pass accepted."""

    sequences: list = field(default_factory=list)

    def open_run(self, start_total: int) -> None:
        self.sequences.append([start_total])

    def accept(self, pair: TwoFactorPair, total: int) -> None:
        """Record an accepted state; RuntimeError unless it is a clean
        2-factor pair with the copies of each parallel pair apart."""
        fresh = TwoFactorPair(pair.graph, pair.side)  # revalidate from scratch
        if fresh.broken:
            raise RuntimeError(f"accepted state breaks {sorted(fresh.broken)}")
        side = pair.side
        if any(mate is not None and side[e] == side[mate]
               for e, mate in enumerate(pair.graph.partner)):
            raise RuntimeError("accepted state joins parallel copies")
        self.sequences[-1].append(total)


def fix_parallel_copies(pair: TwoFactorPair) -> None:
    """Pin both copies of every parallel pair, one per factor."""
    g = pair.graph
    for e, mate in enumerate(g.partner[:g.n]):  # x's copy is the lower id
        if mate is None:
            continue
        if pair.side[e] == pair.side[mate]:
            raise ValueError("parallel copies must start in different factors")
        pair.pin(e, True)
        pair.pin(mate, True)


def unfix_non_parallel(pair: TwoFactorPair) -> None:
    for e, mate in enumerate(pair.graph.partner):
        if mate is None:
            pair.pin(e, False)


def fix_edge(
    pair: TwoFactorPair,
    edge_id: int,
    side: int,
    recursive: bool = True,
) -> bool:
    """Move an edge to `side` and pin it; False reports a contradiction.

    With `recursive` the move cascades through every edge the slot rule
    of the module docstring then forces; without it only the one edge
    is touched and its slots go unchecked.  A contradiction leaves the
    pair part way through the chain: the caller restores a snapshot.
    """
    return _chain(pair, [(edge_id, side)], recursive, None)


def _repair_all(pair, rng, recursive) -> bool:
    """Move edges at random broken vertices until none remain."""
    return _chain(pair, [], recursive, rng)


def _chain(pair, stack, recursive, rng) -> bool:
    """The chain loop behind `fix_edge` and `_repair_all`.

    Each step moves an edge to a factor and pins it.  The edge comes off
    the stack; with `recursive`, a slot that now holds `cap` pins of the
    factor stacks its unfixed edges for the other.  When the stack is
    empty, a vertex is broken and `rng` is given, the outer step draws a
    broken vertex in label order, then one of the edges `_repair_pool`
    gives for it; the step works that pool out inline, with the same
    draws.  At most 4|E| such draws are made.
    """
    g = pair.graph
    slots, slot_a, slot_b, cap = g.slots, g.slot_a, g.slot_b, g.cap
    mate, owner = g.slot_mate, g.slot_vertex
    sides, fixed, deg = pair.side, pair.fixed, pair.deg_z
    (pins_z, pins_w), broken = pair.pinned, pair.broken
    add, discard = broken.add, broken.discard
    push, pop = stack.append, stack.pop
    draw = rng.random if rng is not None else None
    guard = 4 * len(sides)
    while True:
        if stack:
            eid, want = pop()
            if fixed[eid]:
                if sides[eid] != want:
                    return False
                continue
        else:
            if draw is None or not broken:
                return True
            guard -= 1
            if guard < 0:
                return False
            # _repair_pool inlined: replayed walks took 17% less time
            # without the call.  Broken sets nearly always hold two, and
            # not sorting those gave 6% more rp-und-heur throughput
            if len(broken) == 2:
                u, v = broken
                if (u < v) == (draw() < 0.5):  # sorted(broken)[int(r * 2)]
                    v = u
            else:
                v = sorted(broken)[int(draw() * len(broken))]
            s = v if deg[v] != cap else mate[v]
            want = Z if deg[s] < cap else W
            # a loop, not a comprehension: before 3.12 (PEP 709) each
            # comprehension runs in a frame of its own.  Every _chain call
            # of one rp-und-heur pass, replayed, took 12% less time (3.11)
            pool = []
            for e in slots[s]:
                if not fixed[e] and sides[e] != want:
                    pool.append(e)
            if not pool:
                return False
            eid = pool[int(draw() * len(pool))]
        a, b = slot_a[eid], slot_b[eid]
        if sides[eid] != want:
            sides[eid] = want
            d = 1 if want == Z else -1
            da = deg[a] = deg[a] + d
            if da == cap == deg[mate[a]]:
                discard(owner[a])
            else:
                add(owner[a])
            db = deg[b] = deg[b] + d
            if db == cap == deg[mate[b]]:
                discard(owner[b])
            else:
                add(owner[b])
        fixed[eid] = True
        if want == Z:
            pins, others, other = pins_z, pins_w, W
        else:
            pins, others, other = pins_w, pins_z, Z
        pa = pins[a] = pins[a] + 1
        pb = pins[b] = pins[b] + 1  # a != b: a union has no loops
        if not recursive:
            continue
        if pa > cap or pb > cap:
            return False
        # of a slot's 2 * cap edges some are unfixed iff others[s] < cap
        if pa == cap and others[a] < cap:
            for oid in slots[a]:
                if not fixed[oid]:
                    push((oid, other))
        if pb == cap and others[b] < cap:
            for oid in slots[b]:
                if not fixed[oid]:
                    push((oid, other))


def _repair_pool(pair, v):
    """The factor broken vertex `v` misses at its first broken slot, and
    that slot's unfixed edges of the other factor, which may move in.
    `_chain` works out the same inline."""
    g, deg, sides, fixed = pair.graph, pair.deg_z, pair.side, pair.fixed
    s = v if deg[v] != g.cap else g.slot_mate[v]
    want = Z if deg[s] < g.cap else W
    return want, [e for e in g.slots[s] if not fixed[e] and sides[e] != want]


def _unfixed_z_edges(pair, rng):
    fixed = pair.fixed
    order = [
        eid
        for eid, side in enumerate(pair.side)
        if side == Z and not fixed[eid]
    ]
    rng.shuffle(order)
    return order


def _expired(deadline):
    return deadline is not None and time.monotonic() > deadline


def _sweep(pair, rng, recursive, cut_sink, trace, deadline, complete):
    """One move-then-complete pass over a fresh shuffle of the candidates.

    Each candidate moves to W; `complete()` then searches on from the
    post-move state and gives the report of an improving state, or None.
    The first improving state is accepted: its report goes to `cut_sink`
    and `trace`, every non-parallel pin is released and the report is
    returned.  A failed candidate restores the sweep's start snapshot, so
    None (no candidate improved in time) leaves the pair unchanged.

    On a directed union a candidate whose alternating cycle this sweep
    already tried is skipped: it would rebuild a rejected state.
    """
    start = pair.snapshot()
    cycle_of = pair.graph.cycle_of  # empty for undirected unions
    tried = set()
    for eid in _unfixed_z_edges(pair, rng):
        if cycle_of:
            if cycle_of[eid] in tried:
                continue
            tried.add(cycle_of[eid])
        if _expired(deadline):
            return None
        found = fix_edge(pair, eid, W, recursive) and complete()
        if found:
            if cut_sink:
                cut_sink(found)
            if trace:
                trace.accept(pair, found.total)
            unfix_non_parallel(pair)
            return found
        pair.restore(start)
    return None


def _replays(pair, params, rng, recursive, base):
    """First neighbourhood: up to `attempt_limit` randomized repairs from
    the post-move state (one if no vertex is broken: the cascade is then
    deterministic); the report of the first with fewer than `base`
    cycles, or None.  Each failed repair restores the post-move state."""
    moved = pair.snapshot()
    for _ in range(params.attempt_limit if pair.broken else 1):
        if _repair_all(pair, rng, recursive):
            found = components(pair, below=base)
            if found:
                return found
        pair.restore(moved)
    return None


def _dive(pair, params, rng, recursive, base, depth=1):
    """Second neighbourhood: backtracking over the repair choices down to
    `depth_limit`; the report of an improving completion, or None.  A
    failed branch restores the snapshot taken before the branches, so
    None leaves the pair as it was."""
    if not pair.broken:
        return components(pair, below=base)
    if depth > params.depth_limit:
        return None
    v = sorted(pair.broken)[int(rng.random() * len(pair.broken))]
    want, pool = _repair_pool(pair, v)
    branch = pair.snapshot()
    for eid in pool:
        if fix_edge(pair, eid, want, recursive):
            found = _dive(pair, params, rng, recursive, base, depth + 1)
            if found:
                return found
        pair.restore(branch)
    return None


def _descend(pair, params, rng, recursive, completions, cut_sink, trace,
             deadline, report):
    """The descent of the module docstring over `completions`; it stops
    at two cycles, when the last neighbourhood fails, or at `deadline`.
    A start that is already a decomposition is left untouched."""
    best = report if report is not None else components(pair)
    if best.total == 2:
        return pair
    fix_parallel_copies(pair)
    if trace:
        trace.open_run(best.total)
    k = 0
    while best.total > 2:
        base, complete = best.total, completions[k]
        found = _sweep(pair, rng, recursive, cut_sink, trace, deadline,
                       lambda: complete(pair, params, rng, recursive, base))
        if found:
            best, k = found, 0
        else:
            k += 1
            if k == len(completions) or _expired(deadline):
                break
    return pair


def local_search_directed(
    pair: TwoFactorPair,
    rng,
    cut_sink=None,
    trace: TraceRecorder | None = None,
    deadline: float | None = None,
    report: ComponentReport | None = None,
) -> TwoFactorPair:
    """Descend by single chain-fixed moves until no move improves.

    A chain that ends without a contradiction leaves no broken vertex,
    so `_replays` makes one attempt and draws no repair.  The keywords
    are as in `vnd_undirected`.
    """
    if not pair.graph.directed:
        raise ValueError("this search works on directed unions")
    return _descend(pair, HeuristicParams(), rng, True, (_replays,),
                    cut_sink, trace, deadline, report)


def vnd_undirected(
    pair: TwoFactorPair,
    params: HeuristicParams,
    rng,
    cut_sink=None,
    trace: TraceRecorder | None = None,
    recursive: bool = True,
    deadline: float | None = None,
    report: ComponentReport | None = None,
) -> TwoFactorPair:
    """Descend through the two neighbourhoods until neither improves.

    Randomized repairs (`_replays`) come first; bounded backtracking
    over the repairs (`_dive`) runs only when they find nothing, and
    any improvement goes back to them.  Every accepted state's subtours
    go to `cut_sink` and its cycle count to `trace`.  `recursive`
    chooses chain fixing or single-edge moves; `report` may give the
    cycle count of the starting state.
    """
    if pair.graph.directed:
        raise ValueError("this search works on undirected unions")
    return _descend(pair, params, rng, recursive, (_replays, _dive),
                    cut_sink, trace, deadline, report)
