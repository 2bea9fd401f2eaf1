"""Top-level solve strategies producing verdicts with witnesses.

Three entry points share the RunResult contract: a cutting-loop solver
over the compact degree model, a single-shot solve of the order-variable
models, and the cutting loop interleaved with local search.  Iteration
counts are exact solver-call counts; heuristic sweeps are free.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass, field

from .formulations import (
    build_dfj_base,
    build_mtz_directed,
    build_mtz_undirected,
    decode,
    sec_for_subtour,
)
from .heuristics import (
    HeuristicParams,
    TraceRecorder,
    local_search_directed,
    vnd_undirected,
)
from .ilp import Status, solve
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


class Verdict(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timeout"


@dataclass
class RunResult:
    verdict: Verdict
    algorithm: str
    witness: tuple[HamCycle, HamCycle] | None
    iterations: int
    cuts_added: int
    elapsed: float
    work: int
    emitted_cuts: list = field(default_factory=list)
    trace: TraceRecorder | None = None
    model: object = None  # final model state, for LP export


class _CutPool:
    """Subtour cuts keyed by vertex set; every set gets both halves.

    The upper bound keeps one factor from closing a cycle inside the
    set, the lower bound does the same for the complementary factor, so
    any assignment with a short cycle on S violates one of the pair
    while true decompositions satisfy both.
    """

    def __init__(self, model, mapping, g):
        self.model = model
        self.mapping = mapping
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
            for side in (Z, W):
                sec_for_subtour(
                    self.model,
                    self.mapping,
                    self.g,
                    key,
                    side,
                    name=f"sec_{tag}_{'zw'[side]}",
                )
                self.emitted.append((key, side))
                fresh += 1
        return fresh


def _witness(pair, x, y):
    if not is_second_decomposition(pair, x, y):
        raise RuntimeError("witness is not a second decomposition")
    return cycle_from_factor(pair, Z), cycle_from_factor(pair, W)


def _cutting_loop(
    g: UnionMultigraph,
    x: HamCycle,
    y: HamCycle,
    budget_s: float,
    algorithm: str,
    heuristic=None,
    trace: TraceRecorder | None = None,
) -> RunResult:
    started = time.monotonic()
    deadline = started + budget_s
    model, mapping = build_dfj_base(g)
    pool = _CutPool(model, mapping, g)
    iterations = 0
    work = 0

    def done(verdict, witness=None):
        return RunResult(
            verdict=verdict,
            algorithm=algorithm,
            witness=witness,
            iterations=iterations,
            cuts_added=len(pool.emitted),
            elapsed=time.monotonic() - started,
            work=work,
            emitted_cuts=pool.emitted,
            trace=trace,
            model=model,
        )

    while True:
        out = solve(model, deadline - time.monotonic())
        iterations += 1
        work += out.nodes
        if out.status is Status.INFEASIBLE:
            return done(Verdict.INFEASIBLE)
        if out.status is Status.TIMED_OUT:
            return done(Verdict.TIMED_OUT)
        pair = decode(out.assignment, mapping, g)
        report = components(pair)
        if report.total == 2:
            return done(Verdict.FEASIBLE, _witness(pair, x, y))
        added = pool.add_report(report)
        # both cut halves are in the model for every known set, so any
        # integer point that came back must expose a new subtour
        if added <= 0:
            raise RuntimeError("integer point repeats a cut subtour set")
        if heuristic is not None:
            moves = heuristic(pair, report, pool, deadline)
            work += moves
            # the search may slide back into {x, y}; only a genuinely
            # different decomposition settles the question
            if is_second_decomposition(pair, x, y):
                return done(Verdict.FEASIBLE, _witness(pair, x, y))
        if time.monotonic() > deadline:
            return done(Verdict.TIMED_OUT)


def solve_dfj(
    g: UnionMultigraph, x: HamCycle, y: HamCycle, budget_s: float
) -> RunResult:
    """Cutting loop alone: solve, cut every subtour, repeat."""
    return _cutting_loop(g, x, y, budget_s, "dfj")


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
    run draws from the same `random.Random(params.seed)`.
    """
    if variant is None:
        variant = "ls" if g.directed else "vnd-fix"
    algorithm = f"dfj-{variant}"
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown variant {variant!r}")
    check_directedness(algorithm, g.directed)
    rng = random.Random(params.seed)
    trace = TraceRecorder()

    def run_search(pair, report, pool, deadline):
        before = sum(len(s) - 1 for s in trace.sequences)
        sink = pool.add_report
        if variant == "ls":
            local_search_directed(
                pair,
                rng,
                cut_sink=sink,
                trace=trace,
                deadline=deadline,
                report=report,
            )
        else:
            vnd_undirected(
                pair,
                params,
                rng,
                cut_sink=sink,
                trace=trace,
                recursive=variant == "vnd-fix",
                deadline=deadline,
                report=report,
            )
        return sum(len(s) - 1 for s in trace.sequences) - before

    return _cutting_loop(
        g, x, y, budget_s, algorithm, heuristic=run_search, trace=trace
    )


def solve_mtz(
    g: UnionMultigraph, x: HamCycle, y: HamCycle, budget_s: float
) -> RunResult:
    """Single solve of the order-variable model, no cutting loop."""
    started = time.monotonic()
    if g.directed:
        model, mapping = build_mtz_directed(g)
    else:
        model, mapping = build_mtz_undirected(g)
    out = solve(model, budget_s - (time.monotonic() - started))
    verdict, witness = Verdict.TIMED_OUT, None
    if out.status is Status.INFEASIBLE:
        verdict = Verdict.INFEASIBLE
    elif out.status is Status.FEASIBLE:
        pair = decode(out.assignment, mapping, g)
        if components(pair).total != 2:
            raise RuntimeError("order model returned split factors")
        verdict, witness = Verdict.FEASIBLE, _witness(pair, x, y)
    return RunResult(
        verdict=verdict,
        algorithm="mtz",
        witness=witness,
        iterations=1,
        cuts_added=0,
        elapsed=time.monotonic() - started,
        work=out.nodes,
        model=model,
    )
