"""Metamorphic properties of the exact solvers' verdicts.

Relabelling the vertices, swapping x and y and reversing an undirected
cycle all describe the same question, so neither `dfj` nor `mtz` may
change its verdict, and every verdict must equal the oracle's.  Each
transform declares the model's variables and rows in another order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdec.multigraph import HamCycle, build_union
from hamdec.oracle import has_second_decomposition
from hamdec.solvers import Verdict, solve_dfj, solve_mtz

from conftest import random_cycle

BUDGET = 30.0


def variants(x, y, perm):
    """The pair relabelled by `perm`, swapped and, if undirected, reversed."""

    def relabel(c):
        return HamCycle.from_order([perm[v - 1] for v in c.order], c.directed)

    yield "relabelled", relabel(x), relabel(y)
    yield "swapped", y, x
    if not x.directed:
        yield "reversed", HamCycle.from_order(x.order[::-1], False), y


@pytest.mark.parametrize("solve", [solve_dfj, solve_mtz], ids=["dfj", "mtz"])
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 10),
    directed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_verdict_survives_relabelling_swap_and_reversal(
    solve, n, directed, seed
):
    rng = np.random.default_rng(seed)
    x = random_cycle(n, rng, directed)
    y = random_cycle(n, rng, directed)
    expected, _ = has_second_decomposition(build_union(x, y), x, y)
    want = Verdict.FEASIBLE if expected else Verdict.INFEASIBLE
    perm = [int(v) + 1 for v in rng.permutation(n)]
    for label, a, b in [("original", x, y), *variants(x, y, perm)]:
        got = solve(build_union(a, b), a, b, BUDGET).verdict
        assert got is want, label
