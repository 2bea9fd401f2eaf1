"""Top-level solve strategies producing verdicts with witnesses.

Every algorithm runs through one loop: build the model, solve, decode
Z through the model's per-edge terms, and count the factors' cycles.
The compact degree model (`dfj`) cuts every subtour it finds and solves
again, with a local search pass after each solve in its `dfj-*`
variants.  Each round only adds rows, so each solve goes on with the
last round's search from the point it returned, not from the root.
The order-variable model (`mtz`) is complete as built, so it settles on
its first solve.  Iteration counts are exact solver-call counts;
heuristic sweeps are free.

The two copies of a parallel edge pair have identical columns, and
their `par` row puts one of them in Z, so each run fixes the higher
copy's Z terms to 0 at the root of its search: y's copy, since x's edges
take the lower ids.  The search returns the greatest feasible point in
declaration order, which already has the lower copy in Z: only `work`
changes, not the verdicts, cuts, traces or witnesses.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .formulations import (
    build_dfj_base,
    build_mtz_directed,
    build_mtz_undirected,
    decode,
    higher_copy_terms,
    sec_for_subtour,
    subtour_form,
)
from .heuristics import (
    HeuristicParams,
    TraceRecorder,
    local_search_directed,
    vnd_undirected,
)
from .ilp import Verdict, solve
from .multigraph import (
    W,
    Z,
    HamCycle,
    UnionMultigraph,
    components,
    cycle_from_factor,
    is_second_decomposition,
)


# Algorithm name -> (local search run between solver calls, directedness
# that search needs); None means no search, or either directedness.
ALGORITHMS = {
    "dfj": (None, None),
    "mtz": (None, None),
    "dfj-ls": ("ls", True),
    "dfj-vnd": ("vnd", False),
    "dfj-vnd-fix": ("vnd-fix", False),
}


def check_directedness(algorithm: str, directed: bool) -> None:
    """Raise ValueError if `algorithm` cannot run on such an instance."""
    needs = ALGORITHMS[algorithm][1]
    if needs is not None and needs != directed:
        kind = "a directed" if needs else "an undirected"
        raise ValueError(f"{algorithm} requires {kind} instance")


@dataclass
class RunResult:
    verdict: Verdict
    algorithm: str
    witness: tuple[HamCycle, HamCycle] | None
    iterations: int
    elapsed: float
    work: int
    emitted_cuts: list = field(default_factory=list)
    trace: TraceRecorder | None = None
    model: object = None  # final model state, for LP export

    @property
    def cuts_added(self) -> int:
        return len(self.emitted_cuts)


class _CutPool:
    """Subtour cuts keyed by vertex set; every set gets both rows.

    The Z row keeps Z from closing a cycle inside the set, the W row
    does the same for W, so any assignment with a short cycle on S
    violates one of the pair while true decompositions satisfy both.
    One walk over the edges at S writes both rows in the same form,
    whichever of inside S, inside its complement, or across the cut
    has the fewest terms (see `formulations`).
    """

    def __init__(self, model, z_terms, g):
        self.model = model
        self.z_terms = z_terms
        self.g = g
        self.seen = set()
        self.emitted = []

    def add_report(self, report) -> int:
        fresh = 0
        for cyc in report.subtours(self.g.n):
            key = frozenset(cyc)
            if key in self.seen:
                continue
            self.seen.add(key)
            tag = len(self.emitted) // 2
            form = subtour_form(self.g, key)
            for side in (Z, W):
                sec_for_subtour(self.model, self.z_terms, form, side,
                                f"sec_{tag}_{'zw'[side]}")
                self.emitted.append((key, side))
                fresh += 1
        return fresh


def _witness(pair):
    return cycle_from_factor(pair, Z), cycle_from_factor(pair, W)


def _cutting_loop(
    g: UnionMultigraph,
    budget_s: float,
    algorithm: str,
    params: HeuristicParams | None = None,
) -> RunResult:
    """Build the model for `algorithm`; solve, decode and cut until settled.

    The generating pair is read from `g`'s edge origins alone.
    """
    started = time.monotonic()
    deadline = started + budget_s
    if algorithm != "mtz":
        model, z_terms = build_dfj_base(g)
    elif g.directed:
        model, z_terms = build_mtz_directed(g)
    else:
        model, z_terms = build_mtz_undirected(g)
    zeros = higher_copy_terms(g, z_terms)
    pool = _CutPool(model, z_terms, g)
    variant = ALGORITHMS[algorithm][0]
    trace = TraceRecorder() if variant is not None else None
    rng = random.Random(params.seed) if variant is not None else None
    iterations = 0
    nodes = 0

    def done(verdict, witness=None):
        # work: solver nodes plus the moves the local search accepted
        moves = sum(len(s) - 1 for s in trace.sequences) if trace else 0
        return RunResult(
            verdict=verdict,
            algorithm=algorithm,
            witness=witness,
            iterations=iterations,
            elapsed=time.monotonic() - started,
            work=nodes + moves,
            emitted_cuts=pool.emitted,
            trace=trace,
            model=model,
        )

    resume = ()  # from the second round on, the last outcome
    while True:
        out = solve(model, deadline - time.monotonic(), zeros, *resume)
        resume = (out,)
        iterations += 1
        nodes += out.nodes
        if out.status is not Verdict.FEASIBLE:  # the search's is the run's
            return done(out.status)
        pair = decode(out.assignment, z_terms, g)
        report = components(pair)
        if report.total == 2:
            # the model's forbid rows keep {x, y} out of its feasible set
            if not is_second_decomposition(pair):
                raise RuntimeError("solver returned the original decomposition")
            return done(Verdict.FEASIBLE, _witness(pair))
        if algorithm == "mtz":
            raise RuntimeError("order model returned split factors")
        # both cut halves are in the model for every known set, so any
        # integer point that came back must expose a new subtour
        if pool.add_report(report) <= 0:
            raise RuntimeError("integer point repeats a cut subtour set")
        if variant is not None:
            search = dict(cut_sink=pool.add_report, trace=trace,
                          deadline=deadline, report=report)
            if variant == "ls":
                local_search_directed(pair, rng, **search)
            else:
                vnd_undirected(pair, params, rng,
                               recursive=variant == "vnd-fix", **search)
            # the search may slide back into {x, y}; only a genuinely
            # different decomposition settles the question
            if is_second_decomposition(pair):
                return done(Verdict.FEASIBLE, _witness(pair))
        if time.monotonic() > deadline:
            return done(Verdict.TIMED_OUT)


def solve_dfj(
    g: UnionMultigraph, x: HamCycle, y: HamCycle, budget_s: float
) -> RunResult:
    """Cutting loop alone: solve, cut every subtour, repeat.

    `g` must be `build_union(x, y)`.
    """
    return _cutting_loop(g, budget_s, "dfj")


def solve_dfj_heuristic(
    g: UnionMultigraph,
    x: HamCycle,
    y: HamCycle,
    params: HeuristicParams,
    budget_s: float,
    variant: str = None,
) -> RunResult:
    """Cutting loop with a local search pass after every solver call.

    `variant` picks the search: "ls" runs the directed descent, "vnd-fix"
    the undirected neighbourhood alternation with chain fixing, "vnd"
    the same with plain single-edge moves.  Defaults by directedness to
    "ls" or "vnd-fix".  Improvements found between solver calls emit
    their subtour cuts into the shared model.  Every search pass of one
    run draws from the same `random.Random(params.seed)`.  `g` must be
    `build_union(x, y)`.
    """
    if variant is None:
        variant = "ls" if g.directed else "vnd-fix"
    algorithm = f"dfj-{variant}"
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown variant {variant!r}")
    check_directedness(algorithm, g.directed)
    return _cutting_loop(g, budget_s, algorithm, params)


def solve_mtz(
    g: UnionMultigraph, x: HamCycle, y: HamCycle, budget_s: float
) -> RunResult:
    """Order-variable model: one solve settles, no cuts are added.

    `g` must be `build_union(x, y)`.
    """
    return _cutting_loop(g, budget_s, "mtz")
