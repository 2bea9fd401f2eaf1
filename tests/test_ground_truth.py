"""Deciders beyond the oracle's n <= 14 that share no code with the
solvers, and every applicable algorithm checked against them."""

import pytest

from hamdec.heuristics import HeuristicParams
from hamdec.instances import InstanceKind, InstanceSpec, generate_instance
from hamdec.oracle import has_second_decomposition
from hamdec.solvers import Verdict, solve_dfj, solve_dfj_heuristic, solve_mtz

BUDGET = 60.0


def successors(cycle):
    """Each vertex's successor along a directed cycle, indexed by vertex."""
    order = cycle.order
    succ = [0] * (len(order) + 1)
    for i, v in enumerate(order):
        succ[v] = order[(i + 1) % len(order)]
    return succ


def is_hamiltonian(succ):
    """Whether the successor map over 1..n is one cycle."""
    n, v = len(succ) - 1, 1
    for steps in range(1, n + 1):
        v = succ[v]
        if v == 1:
            return steps == n
    return False


def directed_choices(x, y):
    """Every (Z, W) successor pair to try for directed cycles x, y.

    Z takes one out-arc and one in-arc at every vertex.  Arc v -> sx[v]
    and the y-arc into sx[v], from py[sx[v]], alternate around a cycle
    whose tails are one orbit of v -> py[sx[v]], and Z takes all of its
    x-arcs or all of its y-arcs.  A parallel pair, sx[v] = sy[v], is a
    fixed point: either copy gives Z the same arc.  The last cycle stays
    on x, since swapping Z and W flips every choice, and a choice with
    every cycle on x gives back {x, y}.
    """
    sx, sy = successors(x), successors(y)
    py = [0] * len(sy)
    for v in range(1, len(sy)):
        py[sy[v]] = v
    orbits, seen = [], set()
    for v in range(1, len(sx)):
        if v in seen or sx[v] == sy[v]:
            continue
        orbit = []
        while v not in seen:
            seen.add(v)
            orbit.append(v)
            v = py[sx[v]]
        orbits.append(orbit)
    for mask in range(1, 1 << max(len(orbits) - 1, 0)):
        z, w = list(sx), list(sy)
        for i, orbit in enumerate(orbits):
            if mask >> i & 1:
                for v in orbit:
                    z[v], w[v] = sy[v], sx[v]
        yield z, w


def directed_has_second(x, y) -> bool:
    return any(is_hamiltonian(z) and is_hamiltonian(w)
               for z, w in directed_choices(x, y))


@pytest.mark.parametrize("kind", list(InstanceKind))
def test_directed_decider_matches_oracle(kind):
    answers = set()
    for n in (8, 10, 12):
        for seed in range(40):
            x, y, g = generate_instance(InstanceSpec(kind, n, True, seed))
            want, _ = has_second_decomposition(g, x, y)
            assert directed_has_second(x, y) is want, (kind, n, seed)
            answers.add(want)
    assert answers == {False, True}


def check_every_algorithm(n, seeds):
    """`dfj`, `dfj-ls` and `mtz` against the decider on rp dir n over
    `seeds`; returns the choices tried and the feasible instance count."""
    choices = feasible = 0
    for seed in seeds:
        spec = InstanceSpec(InstanceKind.RANDOM_PERMUTATION, n, True, seed)
        x, y, g = generate_instance(spec)
        choices += sum(1 for _ in directed_choices(x, y))
        has_second = directed_has_second(x, y)
        feasible += has_second
        want = Verdict.FEASIBLE if has_second else Verdict.INFEASIBLE
        runs = (solve_dfj(g, x, y, BUDGET),
                solve_dfj_heuristic(g, x, y, HeuristicParams(seed=seed),
                                    BUDGET, variant="ls"),
                solve_mtz(g, x, y, BUDGET))
        for res in runs:
            assert res.verdict is want, (n, seed, res.algorithm)
    return choices, feasible


def test_directed_decider_matches_every_algorithm_at_n64():
    choices, feasible = check_every_algorithm(64, range(7000, 7060))
    # 2^(k-1) - 1 choices for k alternating cycles besides the parallel
    # pairs, k at most 8 here: 880 halves less the 60 that give {x, y}
    assert choices == 820
    assert 0 < feasible < 60


@pytest.mark.parametrize("n, count, choices, feasible", [
    (200, 20, 450, 4),
    (1000, 5, 799, 0),
])
def test_directed_decider_matches_every_algorithm_at_scale(
        n, count, choices, feasible):
    # seeds 0..count-1; k is at most 8 at n=200 and 10 at n=1000
    assert check_every_algorithm(n, range(count)) == (choices, feasible)
