"""Local search over factor assignments of the union multigraph.

The objective is the total number of connected components over both
factors; 2 means each factor is a single Hamiltonian cycle.  Moves
flip edges between factors.  Chain fixing propagates a forced move
through the degree contract with one rule.  Every edge has a slot at
each end: its tail's out-arcs and its head's in-arcs when directed,
where a factor takes cap = 1 edge of each slot, and the incidence
lists of both ends when undirected, with cap = 2.  Once a slot holds
cap pinned edges of one factor, its unfixed edges are forced into the
other; more than cap is a contradiction.  All mutation goes through a
trail so failed candidates roll back exactly.

On a valid directed pair a chain flips the whole alternating cycle of
its first edge (see `multigraph`), so every candidate of one cycle
reaches the same state; a sweep tries each cycle once.  The shuffle of
the candidates is drawn as before, so the accepted moves are the same.

One copy of every parallel edge pair is pinned in each factor up
front: splitting them is necessary for Hamiltonicity, so the search
never needs to consider moving them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .multigraph import W, Z, ComponentReport, TwoFactorPair, components

FixTrail = list  # entries: (edge id, prior side, prior fixed flag)


@dataclass
class HeuristicParams:
    attempt_limit: int = 10
    depth_limit: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.attempt_limit < 1:
            raise ValueError("attempt_limit must be positive")
        if self.depth_limit < 0:
            raise ValueError("depth_limit must be non-negative")


@dataclass
class TraceRecorder:
    """Objective values at accepted states, one sequence per search run."""

    sequences: list = field(default_factory=list)
    valid: bool = True

    def open_run(self, start_total: int) -> None:
        self.sequences.append([start_total])

    def accept(self, pair: TwoFactorPair, total: int) -> None:
        self.sequences[-1].append(total)
        # revalidate from scratch: accepted states must be clean 2-factors
        fresh = TwoFactorPair(pair.graph, pair.side)
        if fresh.broken:
            self.valid = False
        for e in pair.graph.edges:
            if e.partner is not None and (
                pair.side[e.id] == pair.side[e.partner]
            ):
                self.valid = False


def rollback(pair: TwoFactorPair, trail: FixTrail, mark: int) -> None:
    """Restore sides and fixed flags to the state at `mark`."""
    side, fixed, move = pair.side, pair.fixed, pair.move
    for edge_id, prior_side, prior_fixed in reversed(trail[mark:]):
        if side[edge_id] != prior_side:
            move(edge_id)
        fixed[edge_id] = prior_fixed
    del trail[mark:]


def fix_parallel_copies(pair: TwoFactorPair) -> None:
    """Pin both copies of every parallel pair, one per factor."""
    for e in pair.graph.edges:
        if e.partner is None or e.partner < e.id:
            continue
        if pair.side[e.id] == pair.side[e.partner]:
            raise ValueError("parallel copies must start in different factors")
        pair.fixed[e.id] = True
        pair.fixed[e.partner] = True


def unfix_non_parallel(pair: TwoFactorPair) -> None:
    for e in pair.graph.edges:
        if e.partner is None:
            pair.fixed[e.id] = False


def fix_edge(
    pair: TwoFactorPair,
    edge_id: int,
    side: int,
    trail: FixTrail,
    recursive: bool = True,
) -> bool:
    """Move an edge to `side` and pin it; False reports a contradiction.

    With `recursive` the move cascades through every edge the slot rule
    of the module docstring then forces; without it only the one edge
    is touched and its slots go unchecked.
    """
    g = pair.graph
    if g.directed:
        at_tail, at_head, cap = g.out_arcs, g.in_arcs, 1
    else:
        at_tail, at_head, cap = g.inc, g.inc, 2
    tail, head = g.tail, g.head
    sides, fixed, move = pair.side, pair.fixed, pair.move
    stack = [(edge_id, side)]
    while stack:
        eid, want = stack.pop()
        if fixed[eid]:
            if sides[eid] != want:
                return False
            continue
        prior = sides[eid]
        trail.append((eid, prior, False))  # it was unfixed until now
        if prior != want:
            move(eid)
        fixed[eid] = True
        if not recursive:
            return True
        other = W if want == Z else Z
        for slot in (at_tail[tail[eid]], at_head[head[eid]]):
            pinned = 0
            for oid in slot:
                if fixed[oid] and sides[oid] == want:
                    pinned += 1
            if pinned > cap:
                return False
            if pinned == cap:
                for oid in slot:
                    if not fixed[oid]:
                        stack.append((oid, other))
    return True


def _pick(seq, rng):
    return seq[int(rng.random() * len(seq))]


def _movable(pair, v, from_side):
    side, fixed = pair.side, pair.fixed
    return [
        oid
        for oid in pair.graph.inc[v]
        if not fixed[oid] and side[oid] == from_side
    ]


def _repair_choice(pair, rng):
    """A random broken vertex's missing factor and the edges to move in."""
    v = _pick(sorted(pair.broken), rng)
    want = Z if pair.deg_z[v] < 2 else W
    return want, _movable(pair, v, W if want == Z else Z)


def _repair_all(pair, rng, trail, recursive) -> bool:
    """Move edges at random broken vertices until none remain."""
    guard = 4 * len(pair.graph.edges)
    while pair.broken:
        guard -= 1
        if guard < 0:
            return False
        want, pool = _repair_choice(pair, rng)
        if not pool:
            return False
        if not fix_edge(pair, _pick(pool, rng), want, trail, recursive):
            return False
    return True


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


def _open(pair, directed, trace, report) -> ComponentReport:
    """Pin parallel copies, count the start state, open a trace run."""
    if pair.graph.directed != directed:
        raise ValueError(
            "this search works on directed unions"
            if directed
            else "this neighbourhood works on undirected unions"
        )
    fix_parallel_copies(pair)
    if report is None:
        report = components(pair)
    if trace:
        trace.open_run(report.total)
    return report


def _sweep(pair, rng, base, attempt_limit, recursive, cut_sink, trace,
           deadline):
    """One move-then-repair pass over a fresh shuffle of the candidates.

    Each candidate move is given `attempt_limit` randomized repair
    replays from the post-move state.  Cascades that leave no broken
    vertex are deterministic, so they get a single attempt.  The first
    state with fewer than `base` cycles is accepted: its report goes to
    `cut_sink` and `trace`, every non-parallel pin is released and the
    report is returned.  None means no candidate improved in time.

    On a directed union a candidate whose alternating cycle this sweep
    already tried is skipped: it would rebuild a rejected state.
    """
    trail: FixTrail = []
    cycle_of = pair.graph.cycle_of  # empty for undirected unions
    tried = set()
    for eid in _unfixed_z_edges(pair, rng):
        if cycle_of:
            if cycle_of[eid] in tried:
                continue
            tried.add(cycle_of[eid])
        if _expired(deadline):
            return None
        if fix_edge(pair, eid, W, trail, recursive):
            checkpoint = len(trail)
            for _ in range(attempt_limit if pair.broken else 1):
                if _repair_all(pair, rng, trail, recursive):
                    found = components(pair)
                    if found.total < base:
                        if cut_sink:
                            cut_sink(found)
                        if trace:
                            trace.accept(pair, found.total)
                        unfix_non_parallel(pair)
                        return found
                rollback(pair, trail, checkpoint)
        rollback(pair, trail, 0)
    return None


def local_search_directed(
    pair: TwoFactorPair,
    rng,
    cut_sink=None,
    trace: TraceRecorder | None = None,
    deadline: float | None = None,
    report: ComponentReport | None = None,
) -> TwoFactorPair:
    """Descend by single chain-fixed moves until no move improves.

    Every accepted state's subtours are reported to `cut_sink`; after
    an acceptance all non-parallel pins are released and the sweep
    restarts over a fresh shuffle.  A chain that ends without a
    contradiction leaves no broken vertex, so no repair is drawn.
    `report` may give the cycle count of the starting state.
    """
    best = _open(pair, True, trace, report)
    while best is not None and best.total > 2:
        best = _sweep(pair, rng, best.total, 1, True, cut_sink, trace,
                      deadline)
    return pair


def ls_first_neighbourhood(
    pair: TwoFactorPair,
    params: HeuristicParams,
    rng,
    cut_sink=None,
    trace: TraceRecorder | None = None,
    recursive: bool = True,
    deadline: float | None = None,
    report: ComponentReport | None = None,
) -> ComponentReport:
    """One sweep of move-then-repair; returns at the first improvement.

    `report`, when given, is the cycle count of the starting state; the
    return value is the one of the state the sweep leaves.
    """
    start = _open(pair, False, trace, report)
    if start.total == 2:
        return start
    found = _sweep(pair, rng, start.total, params.attempt_limit, recursive,
                   cut_sink, trace, deadline)
    return found or start


def ls_second_neighbourhood(
    pair: TwoFactorPair,
    params: HeuristicParams,
    rng,
    trace: TraceRecorder | None = None,
    recursive: bool = True,
    deadline: float | None = None,
    report: ComponentReport | None = None,
) -> ComponentReport:
    """Depth-bounded backtracking over repair choices, first improvement.

    `report` and the return value are as in `ls_first_neighbourhood`.
    """
    start = _open(pair, False, trace, report)
    if start.total == 2:
        return start
    trail: FixTrail = []
    for eid in _unfixed_z_edges(pair, rng):
        if _expired(deadline):
            break
        found = fix_edge(pair, eid, W, trail, recursive) and _dive(
            pair, 1, params.depth_limit, start.total, rng, trail, recursive
        )
        if found:
            if trace:
                trace.accept(pair, found.total)
            unfix_non_parallel(pair)
            return found
        rollback(pair, trail, 0)
    return start


def _dive(pair, depth, limit, base, rng, trail, recursive):
    """The report of an improving completion, or None if none is found."""
    if not pair.broken:
        found = components(pair)
        return found if found.total < base else None
    if depth > limit:
        return None
    want, pool = _repair_choice(pair, rng)
    for eid in pool:
        mark = len(trail)
        if fix_edge(pair, eid, want, trail, recursive):
            found = _dive(pair, depth + 1, limit, base, rng, trail, recursive)
            if found:
                return found
        rollback(pair, trail, mark)
    return None


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
    """Alternate the two neighbourhoods until neither improves.

    The first neighbourhood is drained to a local minimum, then the
    bounded-backtracking one gets a pass; any improvement there loops
    back to the first.  Improvements found by the second neighbourhood
    report their subtours to `cut_sink` here, since that search keeps
    no cut machinery of its own.  Each neighbourhood hands back the
    cycle count of the state it leaves, so no state is counted twice;
    `report` may give the count of the starting state.
    """
    current = report if report is not None else components(pair)
    while current.total > 2:
        while True:
            found = ls_first_neighbourhood(
                pair, params, rng, cut_sink, trace, recursive, deadline,
                current,
            )
            if found.total < current.total:
                current = found
                if current.total == 2:
                    return pair
                continue
            break
        if _expired(deadline):
            return pair
        found = ls_second_neighbourhood(
            pair, params, rng, trace, recursive, deadline, current
        )
        if found.total < current.total:
            current = found
            if cut_sink:
                cut_sink(current)
            continue
        return pair
    return pair
