import copy
import hashlib
import itertools
import math

import numpy as np
import pytest

from hamdec import ilp
from hamdec.formulations import (
    build_dfj_base,
    build_mtz_directed,
    build_mtz_undirected,
    higher_copy_terms,
)
from hamdec.ilp import (
    EQ,
    GE,
    LE,
    IlpModel,
    LinearConstraint,
    Verdict,
    export_lp,
    parse_lp,
    solve,
)
from hamdec.instances import InstanceKind, InstanceSpec, generate_instance
from hamdec.solvers import solve_dfj

from conftest import random_instance


# ---------------------------------------------------------------- oracle

def brute_force_feasible(model):
    domains = [range(lo, hi + 1) for lo, hi in zip(model.lo, model.hi)]
    for assignment in itertools.product(*domains):
        if model.check(list(assignment)):
            return True
    return False


def random_model(seed):
    rng = np.random.default_rng(seed)
    m = IlpModel()
    for i in range(int(rng.integers(3, 9))):
        m.add_binary(f"x_{i}")
    for i in range(int(rng.integers(0, 3))):
        lo = int(rng.integers(-3, 3))
        m.add_int(f"y_{i}", lo, lo + int(rng.integers(0, 5)))
    nvars = len(m.names)
    for k in range(int(rng.integers(2, 7))):
        arity = int(rng.integers(1, min(5, nvars + 1)))
        vs = rng.choice(nvars, size=arity, replace=False)
        terms = []
        for v in vs:
            c = 0
            while c == 0:
                c = int(rng.integers(-3, 4))
            terms.append((c, int(v)))
        sense = (LE, GE, EQ)[int(rng.integers(0, 3))]
        m.add_constraint(terms, sense, int(rng.integers(-6, 11)), f"c_{k}")
    return m


def random_search_model(seed):
    """Random models whose rows pass near one random point.

    Mostly <= and >= rows, loose or tight by a little, so searches
    branch and backtrack more often than on random_model.
    """
    rng = np.random.default_rng(seed)
    m = IlpModel()
    for i in range(int(rng.integers(6, 15))):
        m.add_binary(f"x_{i}")
    for i in range(int(rng.integers(0, 4))):
        lo = int(rng.integers(-4, 4))
        m.add_int(f"y_{i}", lo, lo + int(rng.integers(0, 9)))
    nvars = len(m.names)
    point = [int(rng.integers(lo, hi + 1)) for lo, hi in zip(m.lo, m.hi)]
    for k in range(int(rng.integers(3, 12))):
        arity = int(rng.integers(2, min(8, nvars + 1)))
        vs = rng.choice(nvars, size=arity, replace=False)
        coefs = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4], size=arity)
        terms = [(int(c), int(v)) for c, v in zip(coefs, vs)]
        sense = (LE, GE, LE, GE, EQ)[int(rng.integers(0, 5))]
        rhs = sum(c * point[v] for c, v in terms)
        slack = int(rng.integers(-1, 3))
        rhs += {LE: slack, GE: -slack, EQ: 0}[sense]
        m.add_constraint(terms, sense, rhs, f"c_{k}")
    return m


def _least(c, v, lo, hi):
    return c * (lo[v] if c > 0 else hi[v])


def _narrow(terms, rhs, lo, hi):
    """Apply sum(c*x) <= rhs to the bounds once, from scratch.

    Returns None on a conflict, else whether any bound moved.
    """
    if sum(_least(c, v, lo, hi) for c, v in terms) > rhs:
        return None
    moved = False
    for c, v in terms:
        # c*x <= room, where room leaves the other terms at their least
        room = rhs - sum(_least(d, u, lo, hi) for d, u in terms)
        room += _least(c, v, lo, hi)
        if c > 0 and room // c < hi[v]:
            hi[v] = room // c
            moved = True
        elif c < 0 and -(-room // c) > lo[v]:
            lo[v] = -(-room // c)
            moved = True
        if lo[v] > hi[v]:
            return None
    return moved


def reference_solve(model, zeros=()):
    """solve's search, propagating by sweeping every row until no change.

    Works on the full model: every row, every variable.  Branches on the
    first open variable, upper half first, and counts every propagated
    domain as a node, as solve does; `zeros` cap binaries at 0 before
    the root.  Returns (status, assignment, nodes).
    """
    sides = []
    for con in model.constraints:
        terms = list(zip(con.coefs, con.vars))
        if con.sense != GE:
            sides.append((terms, con.rhs))
        if con.sense != LE:
            sides.append(([(-c, v) for c, v in terms], -con.rhs))
    nodes = 0

    def search(lo, hi):
        nonlocal nodes
        nodes += 1
        moved = True
        while moved:
            moved = False
            for terms, rhs in sides:
                step = _narrow(terms, rhs, lo, hi)
                if step is None:
                    return None
                moved = moved or step
        open_ = [v for v in range(len(lo)) if lo[v] < hi[v]]
        if not open_:
            return lo
        v = open_[0]
        mid = (lo[v] + hi[v]) // 2
        for half in ((mid + 1, hi[v]), (lo[v], mid)):
            child_lo, child_hi = lo[:], hi[:]
            child_lo[v], child_hi[v] = half
            found = search(child_lo, child_hi)
            if found is not None:
                return found
        return None

    hi = list(model.hi)
    for v in zeros:
        hi[v] = 0
    found = search(list(model.lo), hi)
    status = Verdict.INFEASIBLE if found is None else Verdict.FEASIBLE
    return status, found, nodes


def folded_reference_solve(model, zeros=()):
    """solve's search over doubleton classes, propagating by sweeping
    every row folded per class until no change.

    A union-find with parity joins the binaries x != y of every row
    c*x + c*y = c (y = 1 - x) and c*x - c*y = 0 (y = x), so each variable
    is its root r, or 1 - r if flipped.  Every row, a joining one too,
    is folded: one summed coefficient per root, a flipped term c*(1 - r)
    moving c to the rhs, a root whose sum is 0 left out.  Branches on
    the first variable whose root is open, to the half that holds its
    upper half, and counts every propagated domain as a node, as solve
    does.  Returns (status, assignment, nodes).
    """
    parent, flip = list(range(len(model.names))), [0] * len(model.names)

    def find(v):  # (root, 1 if v = 1 - root)
        f = 0
        while parent[v] != v:
            f ^= flip[v]
            v = parent[v]
        return v, f

    for con in model.constraints:
        if con.sense != EQ or len(con.vars) != 2:
            continue
        (c, d), (x, y) = con.coefs, con.vars
        if x == y or not (model.binary[x] and model.binary[y]):
            continue
        if c == d == con.rhs or (c == -d and con.rhs == 0):
            (rx, fx), (ry, fy) = find(x), find(y)
            if rx != ry:
                parent[ry], flip[ry] = rx, fx ^ fy ^ (c == d)

    sides = []
    for con in model.constraints:
        folded, rhs = {}, con.rhs
        for c, v in zip(con.coefs, con.vars):
            r, f = find(v)
            if f:
                rhs -= c
            folded[r] = folded.get(r, 0) + (-c if f else c)
        terms = [(c, r) for r, c in folded.items() if c]
        if con.sense != GE:
            sides.append((terms, rhs))
        if con.sense != LE:
            sides.append(([(-c, r) for c, r in terms], -rhs))
    lits = [find(v) for v in range(len(model.names))]
    nodes = 0

    def search(lo, hi):
        nonlocal nodes
        nodes += 1
        if any(map(int.__gt__, lo, hi)):
            return None
        moved = True
        while moved:
            moved = False
            for terms, rhs in sides:
                step = _narrow(terms, rhs, lo, hi)
                if step is None:
                    return None
                moved = moved or step
        open_ = [(r, f) for r, f in lits if lo[r] < hi[r]]
        if not open_:
            return [1 - lo[r] if f else lo[r] for r, f in lits]
        r, f = open_[0]
        mid = (lo[r] + hi[r]) // 2
        halves = [(mid + 1, hi[r]), (lo[r], mid)]
        if f:  # v = 1 - r: v's upper half is r's lower half
            halves.reverse()
        for half in halves:
            child_lo, child_hi = lo[:], hi[:]
            child_lo[r], child_hi[r] = half
            found = search(child_lo, child_hi)
            if found is not None:
                return found
        return None

    lo, hi = list(model.lo), list(model.hi)
    for v in zeros:  # v = 0 caps r at 0, or raises r to 1 if v = 1 - r
        r, f = lits[v]
        if f:
            lo[r] = 1
        else:
            hi[r] = 0
    found = search(lo, hi)
    status = Verdict.INFEASIBLE if found is None else Verdict.FEASIBLE
    return status, found, nodes


def assert_matches_folded_reference(out, model, zeros=(), label=""):
    """`out` has the folded sweep's status, point and nodes, and no more
    nodes than the sweep that keeps one bound per term."""
    expected = folded_reference_solve(model, zeros)
    assert (out.status, out.assignment, out.nodes) == expected, label
    assert out.nodes <= reference_solve(model, zeros)[2], label


def pigeonhole(m):
    """m+1 pigeons into m exclusive holes; infeasible by counting."""
    model = IlpModel()
    p = [
        [model.add_binary(f"p_{i}_{j}") for j in range(m)]
        for i in range(m + 1)
    ]
    for i in range(m + 1):
        model.add_constraint([(1, v) for v in p[i]], GE, 1, f"pigeon_{i}")
    for j in range(m):
        model.add_constraint([(1, p[i][j]) for i in range(m + 1)], LE, 1,
                             f"hole_{j}")
    return model


# ---------------------------------------------------------------- solve

def test_empty_model_is_feasible():
    out = solve(IlpModel(), 10)
    assert out.status is Verdict.FEASIBLE
    assert out.assignment == []


def test_empty_sum_constraint_is_infeasible():
    m = IlpModel()
    m.add_binary("x_0")
    m.add_constraint([], LE, -1, "impossible")
    out = solve(m, 10)
    assert out.status is Verdict.INFEASIBLE


def test_binaries_branch_one_first_in_declaration_order():
    m = IlpModel()
    for i in range(5):
        m.add_binary(f"x_{i}")
    out = solve(m, 10)
    assert out.status is Verdict.FEASIBLE
    assert out.assignment == [1, 1, 1, 1, 1]


def test_integer_domains_split_toward_upper_half():
    m = IlpModel()
    x = m.add_int("y_0", 2, 9)
    m.add_constraint([(1, x)], LE, 5, "cap")
    out = solve(m, 10)
    assert out.status is Verdict.FEASIBLE
    assert out.assignment == [5]


def test_equalities_propagate_to_fixpoint():
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(4)]
    m.add_constraint([(1, v) for v in xs], EQ, 4, "all")
    out = solve(m, 10)
    assert out.status is Verdict.FEASIBLE
    assert out.assignment == [1, 1, 1, 1]
    assert out.nodes == 1  # no branching needed


@pytest.mark.parametrize("sense", [LE, GE])
def test_root_propagation_tightens_wide_general_integer(sense):
    # y's width times its coefficient (10) exceeds the row's slack (5),
    # so root propagation must cut y to 0..5; a skip that compares the
    # slack with |c| alone leaves 0..10 and needs twice as many nodes
    m = IlpModel()
    x = m.add_binary("x")
    y = m.add_int("y", 0, 10)
    if sense == LE:
        m.add_constraint([(1, y), (1, x)], LE, 5, "cap")
    else:
        m.add_constraint([(-1, y), (-1, x)], GE, -5, "cap")
    out = solve(m, 10)
    assert out.status is Verdict.FEASIBLE
    assert out.assignment == [1, 4]
    assert out.nodes == 4


def test_infeasible_by_conflicting_equalities():
    m = IlpModel()
    x = m.add_binary("x_0")
    y = m.add_binary("x_1")
    m.add_constraint([(1, x), (1, y)], EQ, 2, "both")
    m.add_constraint([(1, x), (1, y)], LE, 1, "not-both")
    assert solve(m, 10).status is Verdict.INFEASIBLE


def test_status_matches_brute_force_on_random_models():
    statuses = set()
    for seed in range(300):
        m = random_model(seed)
        out = solve(m, 30)
        assert out.status in (Verdict.FEASIBLE, Verdict.INFEASIBLE)
        expected = brute_force_feasible(m)
        assert (out.status is Verdict.FEASIBLE) == expected, f"seed {seed}"
        if out.status is Verdict.FEASIBLE:
            assert m.check(out.assignment)
            for v, val in enumerate(out.assignment):
                assert m.lo[v] <= val <= m.hi[v]
        statuses.add(out.status)
    assert statuses == {Verdict.FEASIBLE, Verdict.INFEASIBLE}


def test_pigeonhole_proved_infeasible():
    assert solve(pigeonhole(5), 60).status is Verdict.INFEASIBLE


def test_zero_budget_times_out():
    for budget in (0, math.nan):
        assert solve(pigeonhole(4), budget).status is Verdict.TIMED_OUT
    # a feasible one-binary model: a NaN budget must not search unbounded
    m = IlpModel()
    m.add_binary("b")
    assert solve(m, math.nan).status is Verdict.TIMED_OUT


def test_tight_budget_times_out_not_infeasible():
    out = solve(pigeonhole(10), 0.02)
    assert out.status is Verdict.TIMED_OUT
    assert out.nodes > 0


def test_deadline_is_checked_inside_root_propagation():
    # the first row forces x_0 = 1, which runs the 2000-row chain at the
    # root, so the root fixpoint alone passes the 1024-pop clock check
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(2001)]
    m.add_constraint([(1, xs[0])], GE, 1, "force")
    for i in range(2000):
        m.add_constraint([(1, xs[i]), (-1, xs[i + 1])], LE, 0, f"chain_{i}")
    full = solve(m, 10)
    assert (full.status, full.nodes, full.pops) == (Verdict.FEASIBLE, 1, 2001)
    out = solve(m, 1e-9)
    assert out.status is Verdict.TIMED_OUT
    assert out.nodes == 1


def test_deadline_is_checked_inside_arc_propagation():
    # z = 1 at the root switches on 1,999 difference rows, the chain
    # a_{i+1} >= a_i + 1, which fixes all 2,000 integers; the root's
    # waves alone pass the 1024-pop clock check
    m = IlpModel()
    z = m.add_binary("z")
    a = [m.add_int(f"a_{i}", 0, 1999) for i in range(2000)]
    m.add_constraint([(1, z)], GE, 1, "on")
    for i in range(1999):
        m.add_constraint([(1, a[i]), (-1, a[i + 1]), (2000, z)], LE, 1999,
                         f"chain_{i}")
    full = solve(m, 10)
    assert (full.status, full.nodes) == (Verdict.FEASIBLE, 1)
    assert full.assignment == [1] + list(range(2000))
    # the row "on", then each lower bound up the chain and each upper
    # bound down it, once
    assert full.pops == 1 + 2 * 1999
    out = solve(m, 1e-9)
    assert out.status is Verdict.TIMED_OUT
    assert out.nodes == 1


def difference_cycle(width):
    """Three integers in 0..width and a binary z forced to 1 at the root;
    with z = 1, rows a_i - a_{i+1} + (width + 1) * z <= width say
    a_{i+1} >= a_i + 1 around a cycle, which no point satisfies."""
    m = IlpModel()
    z = m.add_binary("z")
    a = [m.add_int(f"a_{i}", 0, width) for i in range(3)]
    m.add_constraint([(1, z)], GE, 1, "on")
    for i in range(3):
        m.add_constraint([(1, a[i]), (-1, a[(i + 1) % 3]), (width + 1, z)],
                         LE, width, f"order_{i}")
    return m


def test_positive_cycle_is_refuted_without_climbing():
    # row by row, bounds propagation raised each lower bound by one per
    # lap of the cycle: 66,669 pops at width 10**5, growing with width
    outs = [solve(difference_cycle(width), 10) for width in (10**3, 10**6)]
    assert [(out.status, out.nodes) for out in outs] == [
        (Verdict.INFEASIBLE, 1)] * 2
    assert outs[0].pops == outs[1].pops
    m = difference_cycle(10)
    out = solve(m, 10)
    assert (out.status, out.assignment, out.nodes) == reference_solve(m)


def test_leaf_that_fails_the_exact_check_raises(monkeypatch):
    # a leaf is re-checked against the model's rows; a propagation fault
    # that lets a bad leaf through must fail loudly, also under python -O
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(3)]
    m.add_constraint([(1, v) for v in xs], LE, 2, "two")
    assert solve(m, 10).status is Verdict.FEASIBLE
    monkeypatch.setattr(IlpModel, "check",
                        lambda self, assignment, rows=None: False)
    with pytest.raises(AssertionError, match="bad leaf"):
        solve(m, 10)


def joined_doubletons(model):
    """Names of the rows a fresh search joins: the binary doubletons
    c*x + c*y = c and c*x - c*y = 0 whose x and y are in two classes
    when the row comes, in row order (a union-find of the test's own)."""
    parent = list(range(len(model.names)))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    joined = set()
    for coefs, vars_, sense, rhs, name in model.constraints:
        if sense != EQ or len(vars_) != 2:
            continue
        (c, d), (x, y) = coefs, vars_
        if (model.binary[x] and model.binary[y] and root(x) != root(y)
                and (c == d == rhs or c == -d and rhs == 0)):
            parent[root(x)] = root(y)
            joined.add(name)
    return joined


def record_checks(monkeypatch, later=None):
    """Record, per leaf check, the model's row names and the names of
    the rows summed; `later`, if given, answers every check but the
    first of a search in place of the real one."""
    calls, real = [], IlpModel.check

    def check(self, assignment, rows=None):
        calls.append(([row.name for row in self.constraints],
                      [row.name for row in (
                          self.constraints if rows is None else rows)]))
        if later is not None and rows is not None:
            return later
        return real(self, assignment, rows)

    monkeypatch.setattr(IlpModel, "check", check)
    return calls


def test_a_resumed_leaf_sums_every_row_but_the_joined_doubletons(
        monkeypatch):
    # x_1 = 1 - x_0 and x_3 = x_2 join; "inside" then lies in one class
    # and stays a row.  The first leaf sums every row, the resumed leaf
    # every row but the two joins, with the cut admitted at its resume
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(4)]
    m.add_constraint([(1, xs[0]), (1, xs[1])], EQ, 1, "join")
    m.add_constraint([(2, xs[2]), (-2, xs[3])], EQ, 0, "same")
    m.add_constraint([(3, xs[1]), (3, xs[0])], EQ, 3, "inside")
    m.add_constraint([(1, xs[0]), (1, xs[2])], LE, 2, "wide")
    calls = record_checks(monkeypatch)
    first = solve(m, 10)
    assert first.assignment == [1, 0, 1, 1]
    m.add_constraint([(1, xs[0]), (1, xs[3])], LE, 1, "cut")
    out = solve(m, 10, (), first)
    assert out.assignment == [1, 0, 0, 0]
    assert [summed for _, summed in calls] == [
        ["join", "same", "inside", "wide"], ["inside", "wide", "cut"]]
    # a resumed leaf whose check fails raises, as a first leaf does
    m.add_constraint([(1, xs[1]), (1, xs[2])], LE, 1, "late")
    record_checks(monkeypatch, later=False)
    with pytest.raises(AssertionError, match="bad leaf"):
        solve(m, 10, (), out)


@pytest.mark.parametrize("n, directed", [(64, True), (32, False)])
def test_each_leaf_of_a_cutting_run_sums_the_rows_that_can_change(
        monkeypatch, n, directed):
    # one search per run: its first leaf sums every row; each later one
    # every row but the joined doubletons, so also each cut row
    calls = record_checks(monkeypatch)
    later = 0
    for seed in range(6):
        spec = InstanceSpec(InstanceKind.RANDOM_PERMUTATION, n, directed,
                            seed)
        _, _, g = generate_instance(spec)
        del calls[:]
        model = solve_dfj(g, None, None, 60).model
        joined = joined_doubletons(model)
        assert joined
        assert calls[0][0] == calls[0][1]
        for rows, summed in calls[1:]:
            assert summed == [name for name in rows if name not in joined]
            assert summed[-1].startswith("sec_")
        later += len(calls) - 1
    assert later > 10, later


def test_search_pops_no_row_whose_slack_stays_at_reach():
    # every wide row keeps slack (or surplus) >= 1 = its reach under any
    # assignment, so no row is popped at the root; the tight row is
    # popped once, when x_0 = 1 leaves it no slack and it caps x_1 at 0
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(10)]
    mixed = [(1, v) for v in xs[:5]] + [(-1, v) for v in xs[5:]]
    m.add_constraint(mixed, LE, 6, "wide_mixed_le")
    m.add_constraint([(1, v) for v in xs], LE, 11, "wide_le")
    m.add_constraint([(-c, v) for c, v in mixed], GE, -6, "wide_mixed_ge")
    m.add_constraint([(-1, v) for v in xs], GE, -11, "wide_ge")
    m.add_constraint([(1, xs[0]), (1, xs[1])], LE, 1, "tight")
    out = solve(m, 10)
    assert out.status is Verdict.FEASIBLE
    assert out.assignment == [1, 0] + [1] * 8
    assert out.nodes == 10
    assert out.pops == 1


@pytest.mark.parametrize("make, seeds", [
    (random_model, range(300)),
    (random_search_model, range(300)),
])
def test_solve_matches_sweeping_reference_on_random_models(make, seeds):
    statuses = set()
    most_nodes = 0
    for seed in seeds:
        m = make(seed)
        out = solve(m, 30)
        status, assignment, nodes = reference_solve(m)
        assert (out.status, out.assignment, out.nodes) == (
            status, assignment, nodes
        ), f"seed {seed}"
        statuses.add(status)
        most_nodes = max(most_nodes, nodes)
    assert statuses == {Verdict.FEASIBLE, Verdict.INFEASIBLE}
    assert most_nodes > 10


def structured_models():
    yield "pigeonhole 3", pigeonhole(3)
    yield "pigeonhole 5", pigeonhole(5)
    for seed in range(3):
        _, _, g = random_instance(10, seed)
        yield f"dfj und {seed}", build_dfj_base(g)[0]
        _, _, g = random_instance(10, seed, directed=True)
        yield f"dfj dir {seed}", build_dfj_base(g)[0]
        _, _, g = random_instance(7, seed, directed=True)
        yield f"mtz dir {seed}", build_mtz_directed(g)[0]
        _, _, g = random_instance(6, seed)
        yield f"mtz und {seed}", build_mtz_undirected(g)[0]
    # order chains: MTZ's general integers tighten several times within
    # one search node, and a backtrack must restore their bounds from
    # before that node, not from before its last tightening
    for n, seed in ((9, 1), (9, 3), (10, 0), (10, 3)):
        _, _, g = random_instance(n, seed, directed=True)
        yield f"mtz dir n={n} {seed}", build_mtz_directed(g)[0]


def test_solve_matches_sweeping_reference_on_structured_models():
    for label, m in structured_models():
        assert_matches_folded_reference(solve(m, 30), m, (), label)


def doubleton_model(seed):
    """Random models made mostly of two-term equalities over binaries.

    At random scales and signs, c*x + c*y = c and c*x - c*y = 0 link
    binaries into chains, redundant cycles and odd cycles.  Mixed in
    are two-term equalities that must stay rows (x + y = 0, x + y = 2,
    x - y = 1, a binary twice, a binary with a general) and wider rows
    near one random point, in which a class can appear with both flips.
    Returns (model, zeros, late): `late` rows arrive after a first solve.
    """
    rng = np.random.default_rng(seed)
    m = IlpModel()
    nbin = int(rng.integers(4, 11))
    for i in range(nbin):
        m.add_binary(f"x_{i}")
    for i in range(int(rng.integers(0, 3))):
        m.add_int(f"y_{i}", -1, int(rng.integers(0, 3)))
    nvars = len(m.names)
    point = [int(rng.integers(lo, hi + 1)) for lo, hi in zip(m.lo, m.hi)]

    def two_term():
        x, y = (int(v) for v in rng.choice(nbin, size=2, replace=False))
        if rng.random() < 0.1:  # x twice, or x with a general
            y = int(rng.choice([x] + list(range(nbin, nvars))))
        c = int(rng.choice([-2, -1, 1, 2]))
        # (sign, rhs) of c*x + sign*c*y = rhs: the first two forms join
        forms = [(1, c), (-1, 0), (1, c), (-1, 0), (1, 0), (1, 2 * c), (-1, c)]
        # mostly forms that the point satisfies, so that some models stay
        # feasible after many rows
        near = [(sign, rhs) for sign, rhs in forms
                if c * point[x] + sign * c * point[y] == rhs]
        pool = near if near and rng.random() < 0.8 else forms
        sign, rhs = pool[int(rng.integers(0, len(pool)))]
        return [(c, x), (sign * c, y)], rhs

    rows = []
    for _ in range(int(rng.integers(3, 13))):
        rows.append((*two_term(), EQ))
    for _ in range(int(rng.integers(1, 5))):
        arity = int(rng.integers(2, min(6, nvars + 1)))
        vs = rng.choice(nvars, size=arity, replace=False)
        coefs = rng.choice([-3, -2, -1, 1, 2, 3], size=arity)
        terms = [(int(c), int(v)) for c, v in zip(coefs, vs)]
        sense = (LE, GE, EQ)[int(rng.integers(0, 3))]
        rhs = sum(c * point[v] for c, v in terms)
        rhs += {LE: 1, GE: -1, EQ: 0}[sense] * int(rng.integers(-1, 2))
        rows.append((terms, rhs, sense))
    for i in rng.permutation(len(rows)):
        terms, rhs, sense = rows[i]
        m.add_constraint(terms, sense, rhs, f"r_{i}")
    zeros = [int(v) for v in rng.choice(nbin, size=int(rng.integers(0, 3)))]
    late = [two_term() for _ in range(int(rng.integers(1, 4)))]
    return m, zeros, late


def test_solve_matches_reference_on_doubleton_models():
    statuses = set()
    for seed in range(300):
        m, zeros, late = doubleton_model(seed)
        for step in ("first", "late"):
            out = solve(m, 30, zeros)
            assert_matches_folded_reference(out, m, zeros,
                                            f"seed {seed}, {step} solve")
            statuses.add(out.status)
            for k, (terms, rhs) in enumerate(late):
                m.add_constraint(terms, EQ, rhs, f"late_{k}")
    assert statuses == {Verdict.FEASIBLE, Verdict.INFEASIBLE}


def test_bound_raised_twice_in_one_wave_closes_no_cycle():
    # z = 1 switches on s >= p + 1, x >= s + 1, t >= s + 1, x >= t + 10.
    # Once p >= 5, the wave of the first raises s, then x and t by 7, x
    # first; t then raises x again.  x is not up the chain p, s, t that
    # reaches it this time, so this is no cycle
    m = IlpModel()
    z = m.add_binary("z")
    p, s, x, t = (m.add_int(name, 0, 100) for name in "psxt")
    m.add_constraint([(1, z)], GE, 1, "on")
    m.add_constraint([(1, p)], GE, 5, "p_floor")
    for name, (tail, head), gap in (("first", (p, s), 1), ("s_x", (s, x), 1),
                                    ("s_t", (s, t), 1), ("second", (t, x), 10)):
        m.add_constraint([(1, tail), (-1, head), (50, z)], LE, 50 - gap, name)
    out = solve(m, 10)
    assert (out.status, out.assignment, out.nodes) == reference_solve(m)
    assert out.status is Verdict.FEASIBLE


ROW_KINDS = ("arcs", "no binary", "twice", "coef 2", "two")


def difference_model(seed):
    """Random models made mostly of difference rows: two general integers
    with coefficients +-1, with or without one binary term.

    The binary's coefficient is random, not the order rows' n, and x_1
    is sometimes joined to 1 - x_0, so that a binary term can be
    flipped.  Mixed in are near-misses that must stay halves: an integer
    twice, an integer with coefficient 2, two binaries.  Rows pass near
    one random point.  Each row's term order is drawn from a stream of
    its own, so the binary comes first, between or last.  Returns
    (model, late, kinds): `late` rows arrive after a first solve;
    `kinds` counts the rows made of each kind.
    """
    rng = np.random.default_rng(seed)
    order = np.random.default_rng([seed, 1])
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(int(rng.integers(2, 6)))]
    ys = []
    for i in range(int(rng.integers(2, 5))):
        lo = int(rng.integers(-3, 3))
        ys.append(m.add_int(f"y_{i}", lo, lo + int(rng.integers(1, 6))))
    if rng.random() < 0.5:
        m.add_constraint([(1, xs[0]), (1, xs[1])], EQ, 1, "flip")
    point = [int(rng.integers(lo, hi + 1)) for lo, hi in zip(m.lo, m.hi)]
    kinds = dict.fromkeys(ROW_KINDS, 0)

    def row():
        i, j = (ys[int(k)] for k in rng.choice(len(ys), 2, replace=False))
        x, w = (xs[int(k)] for k in rng.choice(len(xs), 2, replace=False))
        sign = [int(c) for c in rng.choice([-1, 1], 2)]
        terms = [(sign[0], i), (sign[1], j)]
        kind = str(rng.choice(["arcs"] * 4 + list(ROW_KINDS[1:])))
        coef = int(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]))
        if kind != "no binary":
            terms.append((coef, x))
        if kind == "twice":
            terms[1] = (terms[1][0], i)
        elif kind == "coef 2":
            terms[1] = (2 * terms[1][0], j)
        elif kind == "two":
            terms.append((-coef, w))
        kinds[kind] += 1
        sense = (LE, GE, EQ, LE, GE)[int(rng.integers(0, 5))]
        rhs = sum(c * point[v] for c, v in terms)
        rhs += {LE: 1, GE: -1, EQ: 0}[sense] * int(rng.integers(-1, 3))
        return [terms[int(k)] for k in order.permutation(len(terms))], sense, rhs

    for k in range(int(rng.integers(2, 9))):
        terms, sense, rhs = row()
        m.add_constraint(terms, sense, rhs, f"r_{k}")
    late = [row() for _ in range(int(rng.integers(1, 4)))]
    return m, late, kinds


def test_solve_matches_reference_on_difference_models():
    # the first solve, a fresh solve after each late row, and the
    # resumed search that takes each late row, against the sweep; the
    # binary of a difference row sits at each place in its terms
    statuses, resumed = set(), 0
    kinds = dict.fromkeys(ROW_KINDS, 0)
    binary_at = [0, 0, 0]
    for seed in range(300):
        m, late, made = difference_model(seed)
        for kind, count in made.items():
            kinds[kind] += count
        out = solve(m, 30)
        assert_matches_folded_reference(out, m, (), f"seed {seed}")
        statuses.add(out.status)
        for k, (terms, sense, rhs) in enumerate(late):
            m.add_constraint(terms, sense, rhs, f"late_{k}")
            previous = [out] if out.status is Verdict.FEASIBLE else []
            out = solve(m, 30, (), *previous)
            resumed += bool(previous)
            fresh = solve(parse_lp(export_lp(m)), 30)
            assert_matches_folded_reference(fresh, m, (),
                                            f"seed {seed}, row {k}")
            assert (out.status, out.assignment) == (
                fresh.status, fresh.assignment), f"seed {seed}, row {k}"
        for row in m.constraints:
            flags = [m.binary[v] for v in row.vars]
            if len(flags) == 3 and sum(flags) == 1:
                binary_at[flags.index(True)] += 1
    assert statuses == {Verdict.FEASIBLE, Verdict.INFEASIBLE}
    assert resumed > 100, resumed
    assert min(kinds.values()) > 50, kinds
    assert min(binary_at) > 100, binary_at


# (rows, zeros, status, assignment) over binaries x_0..x_3 and a general
# g in 0..2; a row is (terms over variable ids, sense, rhs)
DOUBLETON_CASES = {
    "chain": (
        [([(1, 0), (1, 1)], EQ, 1), ([(1, 1), (-1, 2)], EQ, 0),
         ([(2, 2), (2, 3)], EQ, 2)],
        (), "feasible", [1, 0, 0, 1, 2]),
    "redundant cycle": (
        [([(1, 0), (1, 1)], EQ, 1), ([(1, 1), (1, 2)], EQ, 1),
         ([(1, 0), (-1, 2)], EQ, 0), ([(1, 0), (1, 3)], LE, 1)],
        (), "feasible", [1, 0, 1, 0, 2]),
    "odd cycle": (
        [([(1, 0), (1, 1)], EQ, 1), ([(1, 1), (1, 2)], EQ, 1),
         ([(1, 0), (1, 2)], EQ, 1)],
        (), "infeasible", None),
    "scaled": (
        [([(-2, 0), (-2, 1)], EQ, -2), ([(3, 1), (-3, 2)], EQ, 0)],
        (), "feasible", [1, 0, 0, 1, 2]),
    "x + y = 0 and x + y = 2": (
        [([(1, 0), (1, 1)], EQ, 0), ([(1, 2), (1, 3)], EQ, 2)],
        (), "feasible", [0, 0, 1, 1, 2]),
    "x - y = 1": ([([(1, 0), (-1, 1)], EQ, 1)], (), "feasible", [1, 0, 1, 1, 2]),
    "binary and general": ([([(1, 0), (1, 4)], EQ, 1)], (), "feasible",
                           [1, 1, 1, 1, 0]),
    # summed coefficients fix x_0 = 0 at the root: 3 nodes, where one
    # bound per term takes 5
    "both flips in one row": (
        [([(1, 2), (1, 3)], EQ, 1), ([(1, 0), (1, 2), (1, 3)], LE, 1)],
        (), "feasible", [0, 1, 1, 0, 2]),
    "zero on a flipped member": (
        [([(1, 0), (1, 1)], EQ, 1)], (1,), "feasible", [1, 0, 1, 1, 2]),
    "zeros on both members": (
        [([(1, 0), (1, 1)], EQ, 1)], (0, 1), "infeasible", None),
    "doubleton after a row": (
        [([(1, 0), (1, 2)], LE, 1), ([(1, 0), (-1, 2)], EQ, 0)],
        (), "feasible", [0, 1, 0, 1, 2]),
}


@pytest.mark.parametrize("case", DOUBLETON_CASES)
def test_doubleton_cases_match_reference(case):
    rows, zeros, status, assignment = DOUBLETON_CASES[case]
    m = IlpModel()
    for i in range(4):
        m.add_binary(f"x_{i}")
    m.add_int("g", 0, 2)
    for k, (terms, sense, rhs) in enumerate(rows):
        m.add_constraint(terms, sense, rhs, f"r_{k}")
    out = solve(m, 10, zeros)
    assert (out.status.value, out.assignment) == (status, assignment)
    assert_matches_folded_reference(out, m, zeros)


def test_doubleton_joining_classes_after_a_solve_rebuilds_the_index():
    # the row over x_0 and x_2 is indexed by the first search; the late
    # doubleton makes x_2 = 1 - x_0, which the second search's own
    # classes and index must then express
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(4)]
    m.add_constraint([(1, xs[0]), (1, xs[1])], EQ, 1, "d_01")
    m.add_constraint([(1, xs[0]), (1, xs[2]), (-1, xs[3])], GE, 1, "wide")
    first = solve(m, 10)
    assert first.assignment == [1, 0, 1, 1]
    m.add_constraint([(1, xs[1]), (-1, xs[2])], EQ, 0, "d_12")
    m.add_constraint([(1, xs[0]), (1, xs[3])], LE, 1, "cap")
    out = solve(m, 10)
    assert_matches_folded_reference(out, m)
    assert out.assignment == [1, 0, 0, 0]
    fresh = solve(parse_lp(export_lp(m)), 10)
    assert (fresh.status, fresh.assignment, fresh.nodes, fresh.pops) == (
        out.status, out.assignment, out.nodes, out.pops
    )


# rows that fold over the classes: (binaries, generals as (name, lo, hi),
# rows, status, assignment, nodes, pops); a row is (terms, sense, rhs)
FOLDED_CASES = {
    # x + y = 1 makes y = 1 - x, so x + y + z <= 1 folds to z <= 0: the
    # root fixes z = 0; one bound per term leaves z open, 4 nodes
    "a class cancels": (
        "zxy", (), [([(1, 1), (1, 2)], EQ, 1),
                    ([(1, 1), (1, 2), (1, 0)], LE, 1)],
        Verdict.FEASIBLE, [0, 1, 0], 2, 1),
    # with y = 1 - x, x + y <= 0 folds to no terms: 1 <= 0
    "no terms left": (
        "xy", (), [([(1, 0), (1, 1)], EQ, 1), ([(1, 0), (1, 1)], LE, 0)],
        Verdict.INFEASIBLE, None, 1, 1),
    # 2u - u <= 3 is u <= 3; one bound per term takes 6 pops
    "a general twice": (
        "", [("u", 0, 9)], [([(2, 0), (-1, 0)], LE, 3)],
        Verdict.FEASIBLE, [3], 3, 3),
}


@pytest.mark.parametrize("case", FOLDED_CASES)
def test_folded_rows_prune_and_cancel(case):
    binaries, generals, rows, *expected = FOLDED_CASES[case]
    m = IlpModel()
    for name in binaries:
        m.add_binary(name)
    for name, lo, hi in generals:
        m.add_int(name, lo, hi)
    for k, (terms, sense, rhs) in enumerate(rows):
        m.add_constraint(terms, sense, rhs, f"r_{k}")
    out = solve(m, 10)
    assert [out.status, out.assignment, out.nodes, out.pops] == expected
    assert_matches_folded_reference(out, m)


def test_check_rejects_wrong_lengths_and_values_outside_domains():
    # a merged binary's leaf value is derived from its class, so the
    # check must hold every value to its declared domain
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_binary("y")
    u = m.add_int("u", -1, 2)
    m.add_constraint([(1, x), (1, y), (1, u)], LE, 3, "loose")
    assert m.check([1, 1, 0])
    assert not m.check([2, 0, 0])  # satisfies the row, not x's domain
    assert not m.check([1, 1, 3])
    assert not m.check([1, 1, -2])
    assert not m.check([1, 1])
    assert not m.check([1, 1, 0, 0])


# sha256 of repr([(status, nodes, assignment), ...]) over search_corpus():
# the search tree, which joining doubleton equalities into classes keeps
# and folding each row per class prunes
PINNED_SEARCH_TREE_SHA256 = (
    "6ed7cf06dd7914d5d912d1590da25afd929ad7f81bb22c501a502022639149e2"
)
# sha256 of repr([(status, nodes, pops, assignment), ...]) over
# search_corpus(); a change to the engine that keeps verdicts but moves
# the search (its branching, its propagation order, which halves it
# queues, how it relaxes difference arcs) changes this digest
PINNED_SEARCH_SHA256 = (
    "2fc98f27cd10b6fd3c4d1355f0bb49ba61ed631c7e5b8333513eb75e475bb731"
)


def search_corpus():
    """(model, zeros) pairs: every builder on every kind, then random models."""
    for kind in InstanceKind:
        for n in (10, 16):
            for directed in (False, True):
                mtz = build_mtz_directed if directed else build_mtz_undirected
                for seed in range(4):
                    spec = InstanceSpec(kind, n, directed, seed)
                    _, _, g = generate_instance(spec)
                    for build in (build_dfj_base, mtz):
                        m, z_terms = build(g)
                        yield m, ()
                        yield m, higher_copy_terms(g, z_terms)
    for make in (random_model, random_search_model):
        for seed in range(300):
            yield make(seed), ()


def test_search_is_pinned_node_for_node():
    trees, outcomes = [], []
    for m, zeros in search_corpus():
        out = solve(m, 60, zeros)
        assert out.status is not Verdict.TIMED_OUT
        trees.append((out.status.value, out.nodes, out.assignment))
        outcomes.append((out.status.value, out.nodes, out.pops, out.assignment))

    def digest(items):
        return hashlib.sha256(repr(items).encode()).hexdigest()

    assert digest(trees) == PINNED_SEARCH_TREE_SHA256
    assert digest(outcomes) == PINNED_SEARCH_SHA256


# build_dfj_base on rp dir n=64, seeds 7000-7009, each solved once with
# its higher parallel copies fixed to 0, when every row was indexed over
# the model's own variables: each degree row popped once per arc of its
# alternating cycle.  One bound per term, also over the classes, took
# the same 57 nodes
UNJOINED_POPS, UNJOINED_NODES = 2847, 57
# the same solves with every row folded per class representative
FOLDED_NODES = 37


def test_directed_degree_rows_leave_the_queue():
    pops = nodes = 0
    for seed in range(7000, 7010):
        spec = InstanceSpec(InstanceKind.RANDOM_PERMUTATION, 64, True, seed)
        _, _, g = generate_instance(spec)
        m, z_terms = build_dfj_base(g)
        out = solve(m, 60, higher_copy_terms(g, z_terms))
        pops += out.pops
        nodes += out.nodes
    assert nodes == FOLDED_NODES < UNJOINED_NODES
    assert pops <= UNJOINED_POPS // 10


def test_row_index_follows_rows_and_variables_added_between_solves():
    # rows, a binary and a general integer arrive after a first solve,
    # the general after rows as the order models declare theirs; each
    # solve must match the same model read back from LP text in one go
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(6)]
    m.add_constraint([(1, v) for v in xs], EQ, 3, "three")
    m.add_constraint([(1, xs[0]), (1, xs[1])], LE, 1, "pair")
    snapshots = [(export_lp(m), solve(m, 10))]
    m.add_constraint([(1, xs[5]), (-1, xs[0])], GE, 0, "order")
    xs.append(m.add_binary("x_6"))
    m.add_constraint([(1, xs[6]), (1, xs[2])], LE, 1, "late")
    u = m.add_int("u", -2, 5)
    m.add_constraint([(2, u), (3, xs[2]), (-1, xs[3])], LE, 4, "ranked")
    m.add_constraint([(1, u), (1, xs[4]), (-2, xs[6])], GE, 3, "floor")
    snapshots.append((export_lp(m), solve(m, 10)))
    snapshots.append((export_lp(m), solve(m, 10)))
    for text, out in snapshots:
        fresh = solve(parse_lp(text), 10)
        assert (out.status, out.nodes, out.assignment) == (
            fresh.status, fresh.nodes, fresh.assignment
        )
    assert [out.nodes for _, out in snapshots] == [4, 2, 2]


def test_resumed_search_rewakes_a_cut_fixed_above_its_frames():
    # the first search decides x_0..x_3 high in turn; the cut over x_0
    # and x_1, added at that leaf, has both terms fixed above the frames
    # of x_2 and x_3, so only the re-wake list brings it back when the
    # search backtracks to them
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(4)]
    first = solve(m, 10)
    assert first.assignment == [1, 1, 1, 1]
    m.add_constraint([(1, xs[0]), (1, xs[1])], LE, 1, "cut")
    out = solve(m, 10, (), first)
    fresh = solve(parse_lp(export_lp(m)), 10)
    assert (out.status, out.assignment) == (fresh.status, fresh.assignment)
    assert out.assignment == [1, 0, 1, 1]
    # the leaf, the backtracks to x_3, x_2 and x_1, then x_2 and x_3 high
    assert out.nodes == 6
    m.add_constraint([(1, xs[1]), (1, xs[2])], GE, 2, "both")
    again = solve(m, 10, (), out)
    assert (again.status, again.assignment) == (Verdict.FEASIBLE, [0, 1, 1, 1])
    m.add_constraint([(1, xs[2]), (1, xs[3])], LE, 0, "neither")
    assert solve(m, 10, (), again).status is Verdict.INFEASIBLE


def test_resumed_search_matches_fresh_solves_on_random_models():
    # rows arrive one by one; each solve goes on with the last search
    resumed = 0
    for seed in range(300):
        full = random_search_model(seed)
        m = IlpModel()
        for name, lo, hi, binary in zip(full.names, full.lo, full.hi,
                                        full.binary):
            if binary:
                m.add_binary(name)
            else:
                m.add_int(name, lo, hi)
        out = None
        for row in full.constraints:
            m.add_constraint(list(zip(row.coefs, row.vars)), row.sense,
                             row.rhs, row.name)
            # a doubleton may join classes, after which no search resumes
            joins = row.sense == EQ and len(row.vars) == 2
            previous = [out] if out and not joins else []
            out = solve(m, 10, (), *previous)
            fresh = solve(parse_lp(export_lp(m)), 10)
            assert (out.status, out.assignment) == (
                fresh.status, fresh.assignment), f"seed {seed}"
            resumed += bool(previous)
            if out.status is not Verdict.FEASIBLE:
                break
    assert resumed > 1000, resumed


def test_resumed_search_takes_the_first_difference_row():
    # the first search knows no arcs; the late row brings the first, and
    # at the leaf (z, a, b) = (1, 2, 5) its wave raises lo(a) to b + 3,
    # past a's domain, so the search goes on at z = 0
    m = IlpModel()
    z, a, b = m.add_binary("z"), m.add_int("a", 0, 5), m.add_int("b", 0, 5)
    m.add_constraint([(1, a), (1, a), (1, z)], LE, 6, "a_twice")
    first = solve(m, 10)
    assert first.assignment == [1, 2, 5]
    m.add_constraint([(1, b), (-1, a), (3, z)], LE, 0, "late")
    out = solve(m, 10, (), first)
    fresh = solve(parse_lp(export_lp(m)), 10)
    assert (out.status, out.assignment) == (fresh.status, fresh.assignment)
    assert out.assignment == [0, 3, 3]


# Each step gets a model over x_0..x_2 and the FEASIBLE outcome of its
# first search with x_2 fixed to 0, changes something other than adding
# rows, and then tries to resume that search.
REFUSED_RESUMES = {
    # a new variable: the search holds no bounds for it
    "add_binary": lambda m, first: (
        m.add_binary("x_3"), solve(m, 10, [2], first)),
    # a joining doubleton rewrites the classes the search runs over
    "joining doubleton": lambda m, first: (
        m.add_constraint([(1, 0), (1, 1)], EQ, 1, "join"),
        solve(m, 10, [2], first)),
    "other zeros": lambda m, first: solve(m, 10, [], first),
    "other model": lambda m, first: solve(pigeonhole(2), 10, [2], first),
    # an outcome already resumed from
    "twice": lambda m, first: (
        solve(m, 10, [2], first), solve(m, 10, [2], first)),
    # outcomes that are not FEASIBLE
    "infeasible": lambda m, first: solve(
        m, 10, [2], solve(pigeonhole(2), 10)),
    "timed out": lambda m, first: solve(m, 10, [2], solve(m, 0, [2])),
}


@pytest.mark.parametrize("case", REFUSED_RESUMES)
def test_resume_after_a_change_other_than_rows_is_refused(case):
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(3)]
    m.add_constraint([(1, xs[0]), (1, xs[1])], LE, 1, "pair")
    first = solve(m, 10, [2])
    assert first.status is Verdict.FEASIBLE
    with pytest.raises(ValueError, match="resume"):
        REFUSED_RESUMES[case](m, first)


def test_resume_after_a_join_in_a_model_without_rows_is_refused():
    # nothing was indexed, but the first search ran over the old classes
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(2)]
    first = solve(m, 10)
    m.add_constraint([(1, xs[0]), (1, xs[1])], EQ, 1, "join")
    with pytest.raises(ValueError, match="resume"):
        solve(m, 10, (), first)


def test_resume_keeps_a_doubleton_inside_one_class_as_a_row():
    # x_1 = 1 - x_0 joins at the root; at a resume the same doubleton
    # folds to 0 = 0, and x_0 - x_1 = 0 folds to 2 x_0 = 1: a conflict
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(3)]
    m.add_constraint([(1, xs[0]), (1, xs[1])], EQ, 1, "join")
    first = solve(m, 10)
    assert first.assignment == [1, 0, 1]
    m.add_constraint([(2, xs[1]), (2, xs[0])], EQ, 2, "again")
    m.add_constraint([(1, xs[0]), (1, xs[2])], LE, 1, "cut")
    out = solve(m, 10, (), first)
    assert (out.status, out.assignment) == (Verdict.FEASIBLE, [1, 0, 0])
    m.add_constraint([(1, xs[0]), (-1, xs[1])], EQ, 0, "odd")
    assert solve(m, 10, (), out).status is Verdict.INFEASIBLE
    assert solve(parse_lp(export_lp(m)), 10).status is Verdict.INFEASIBLE


def test_termless_halves_that_always_hold_are_not_indexed():
    # a directed union's degree rows join each alternating cycle into one
    # class; the doubleton that closes it folds to 0 = 0, whose two
    # halves always hold and are never queued, so no pop or node changes
    halves = nodes = pops = 0
    for seed in range(7000, 7060):
        spec = InstanceSpec(InstanceKind.RANDOM_PERMUTATION, 64, True, seed)
        _, _, g = generate_instance(spec)
        model, z_terms = build_dfj_base(g)
        index = ilp._Presolve(model)
        index.admit(index.declared, False)
        assert all(terms for terms, _ in index.halves)
        halves += len(index.halves)
        out = solve(model, 60, higher_copy_terms(g, z_terms))
        nodes, pops = nodes + out.nodes, pops + out.pops
    assert (halves, nodes, pops) == (120, 241, 148)


def test_termless_halves_that_fail_stay_conflicts():
    # x_1 = 1 - x_0 joins; x_0 + x_1 = 2 folds to 0 = 1, one termless half
    # with rhs < 0, and x_0 - x_1 = 0 folds to 2 x_0 = 1
    for again, rhs, kept in (((1, 1), 2, 1), ((1, -1), 0, 2),
                             ((1, 1), 1, 0)):
        m = IlpModel()
        xs = [m.add_binary(f"x_{i}") for i in range(2)]
        m.add_constraint([(1, xs[0]), (1, xs[1])], EQ, 1, "join")
        m.add_constraint(list(zip(again, xs)), EQ, rhs, "again")
        index = ilp._Presolve(m)
        index.admit(index.declared, False)
        assert len(index.halves) == kept
        status = Verdict.FEASIBLE if rhs == 1 else Verdict.INFEASIBLE
        assert solve(m, 10).status is status
        assert solve(parse_lp(export_lp(m)), 10).status is status


def test_model_holds_only_what_it_is_given():
    assert sorted(vars(IlpModel())) == [
        "binary", "constraints", "hi", "lo", "names", "var_of"]


def test_solve_leaves_its_model_as_it_found_it():
    # a fresh solve and a resume, over a model with joined doubletons,
    # a folded row, a difference row and a zero fix
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(4)]
    a, b = m.add_int("a", 0, 5), m.add_int("b", 0, 5)
    m.add_constraint([(1, xs[0]), (1, xs[1])], EQ, 1, "d_01")
    m.add_constraint([(1, xs[0]), (1, xs[1]), (1, xs[2])], LE, 1, "folds")
    m.add_constraint([(1, a), (-1, b), (6, xs[3])], LE, 5, "order")
    before = copy.deepcopy(vars(m))
    first = solve(m, 10, [xs[2]])
    assert first.status is Verdict.FEASIBLE
    assert vars(m) == before
    m.add_constraint([(1, b), (-1, a)], GE, 1, "late")
    before = copy.deepcopy(vars(m))
    out = solve(m, 10, [xs[2]], first)
    assert out.status is Verdict.FEASIBLE
    assert vars(m) == before


@pytest.mark.parametrize("zero", [-1, "u", 7, 1.0, None])
def test_zeros_other_than_binaries_of_the_model_are_refused(zero):
    # -1 would fix the last variable, u's hi would drop only to 0, and 7
    # is no variable at all
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(2)]
    u = m.add_int("u", -3, 3)
    m.add_constraint([(1, u)], LE, -1, "neg")
    zero = u if zero == "u" else zero
    with pytest.raises(ValueError, match="not a binary"):
        solve(m, 5, [xs[0], zero])
    assert solve(m, 5, [xs[1]]).assignment == [1, 0, -1]


def test_terms_may_be_an_iterator():
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(3)]
    m.add_constraint(((1, v) for v in xs), LE, 1, "r")
    assert m.constraints[0].vars == (0, 1, 2)
    assert solve(m, 10).assignment == [1, 0, 0]
    assert " r: x_0 + x_1 + x_2 <= 1" in export_lp(m).splitlines()


def test_zero_coefficient_is_rejected_with_the_row_name():
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_binary("y")
    with pytest.raises(ValueError, match="r_zero"):
        m.add_constraint([(0, x), (1, y)], LE, 0, "r_zero")
    assert m.constraints == []


def test_non_integer_numbers_are_rejected_with_their_name():
    # int() would make x >= 1.5 read x >= 1, 1.7x <= 1 read x <= 1 and
    # a domain 0.5..2.5 read 0..2
    m = IlpModel()
    x = m.add_binary("x")
    with pytest.raises(ValueError, match="r_rhs"):
        m.add_constraint([(1, x)], GE, 1.5, "r_rhs")
    with pytest.raises(ValueError, match="r_coef"):
        m.add_constraint([(1.7, x)], LE, 1, "r_coef")
    with pytest.raises(ValueError, match="'g'"):
        m.add_int("g", 0.5, 2.5)
    assert m.constraints == [] and m.names == ["x"]
    assert solve(m, 10).status is Verdict.FEASIBLE
    # integers of other types still pass, as Python ints
    g = m.add_int("g", np.int64(0), np.int32(2))
    m.add_constraint([(np.int64(2), x), (1, g)], LE, np.int64(2), "r_np")
    row = m.constraints[-1]
    assert (m.lo[g], m.hi[g], row.coefs, row.rhs) == (0, 2, (2, 1), 2)
    assert all(type(c) is int for c in row.coefs + (row.rhs, m.hi[g]))


# ----------------------------------------------------------- batch calls

def model_state(m):
    return (list(m.names), dict(m.var_of), list(m.binary), list(m.lo),
            list(m.hi), list(m.constraints))


def binaries_xy():
    m = IlpModel()
    m.add_binaries(["x", "y"])
    return m


# a space, a colon, all digits, a sense, a name twice in the batch, a
# name already in the model; each batch opens with a good name
BAD_NAME_BATCHES = [["ok", "a b"], ["ok", "x:"], ["ok", "7"], ["ok", "<="],
                    ["ok", "d", "d"], ["ok", "x"]]


@pytest.mark.parametrize("names", BAD_NAME_BATCHES, ids=str)
@pytest.mark.parametrize("kind", ["binaries", "ints"])
def test_batch_declarations_name_the_first_bad_name(kind, names):
    def declare(m, batch):
        if kind == "binaries":
            return m.add_binaries(batch)
        return m.add_ints(batch, -1, 2)

    one = binaries_xy()
    with pytest.raises(ValueError) as want:
        for name in names:  # one-element calls, up to the bad one
            declare(one, [name])
    m = binaries_xy()
    before = model_state(m)
    with pytest.raises(ValueError) as got:
        declare(m, names)
    assert str(got.value) == str(want.value)
    assert model_state(m) == before


@pytest.mark.parametrize("lo, hi", [(0.5, 2), (0, 2.5), (3, 1)])
def test_batch_ints_reject_bounds_as_one_element_calls_do(lo, hi):
    with pytest.raises(ValueError) as want:
        binaries_xy().add_int("ok", lo, hi)
    m = binaries_xy()
    before = model_state(m)
    with pytest.raises(ValueError) as got:
        m.add_ints(["ok", "ok2"], lo, hi)
    assert str(got.value) == str(want.value)
    assert model_state(m) == before


def test_batch_binaries_after_a_general_are_rejected():
    m = binaries_xy()
    m.add_ints(["g"], 0, 3)
    before = model_state(m)
    with pytest.raises(ValueError, match="binary b declared after"):
        m.add_binaries(["b", "c"])
    assert model_state(m) == before
    assert m.add_binaries([]) == range(3, 3)


GOOD_ROW = LinearConstraint((1, 1), (0, 1), GE, 1, "good")
BAD_ROWS = {
    "float coef": GOOD_ROW._replace(coefs=(1.5, 1)),
    "float rhs": GOOD_ROW._replace(rhs=1.0),
    "numpy float": GOOD_ROW._replace(coefs=(np.float64(1), 1)),
    "negative var": GOOD_ROW._replace(vars=(0, -1)),
    "unknown var": GOOD_ROW._replace(vars=(0, 2)),
    "zero coef": GOOD_ROW._replace(coefs=(0, 1)),
    "unknown sense": GOOD_ROW._replace(sense="<"),
    "name with space": GOOD_ROW._replace(name="a b"),
    "empty name": GOOD_ROW._replace(name=""),
    "unequal lengths": GOOD_ROW._replace(vars=(0,)),
}


@pytest.mark.parametrize("case", BAD_ROWS)
def test_batch_rows_name_the_first_bad_row(case):
    bad = BAD_ROWS[case]
    one = binaries_xy()
    with pytest.raises(ValueError) as want:
        if len(bad.coefs) == len(bad.vars):
            one.add_constraint(zip(bad.coefs, bad.vars), bad.sense, bad.rhs,
                               bad.name)
        else:  # no list of terms pairs them: the one-element batch
            one.add_rows([bad])
    assert one.constraints == []
    m = binaries_xy()
    m.add_rows([GOOD_ROW])
    before = model_state(m)
    with pytest.raises(ValueError) as got:
        m.add_rows([GOOD_ROW, GOOD_ROW, bad, GOOD_ROW])
    assert str(got.value) == str(want.value)
    assert model_state(m) == before


def test_batches_store_other_integers_as_python_ints():
    m = IlpModel()
    assert m.add_binaries(name for name in ["x", "y"]) == range(2)
    assert m.add_ints(["g", "h"], np.int64(-1), True) == range(2, 4)
    m.add_rows([
        LinearConstraint((np.int64(2), True), (np.int32(0), 3), LE,
                         np.int64(2), "r"),
        LinearConstraint([1], [True], EQ, False, "s"),  # lists, not tuples
    ])
    assert (m.lo, m.hi) == ([0, 0, -1, -1], [1, 1, 1, 1])
    assert m.constraints == [((2, 1), (0, 3), LE, 2, "r"),
                             ((1,), (1,), EQ, 0, "s")]
    for row in m.constraints:
        assert type(row) is LinearConstraint
        assert type(row.coefs) is tuple and type(row.vars) is tuple
        assert all(type(c) is int
                   for c in row.coefs + row.vars + (row.rhs,))
    assert all(type(b) is int for b in m.lo + m.hi)


def test_batches_build_what_one_element_calls_build():
    rng = np.random.default_rng(5)
    rows = [LinearConstraint(
        tuple(int(c) for c in rng.choice([-3, -1, 1, 2], size=3)),
        tuple(int(v) for v in rng.choice(6, size=3, replace=False)),
        [LE, GE, EQ][k % 3], int(rng.integers(-2, 4)), f"r_{k}")
        for k in range(20)]
    batch, one = IlpModel(), IlpModel()
    batch.add_binaries([f"x_{i}" for i in range(4)])
    batch.add_ints(["g", "h"], -2, 5)
    batch.add_rows(rows)
    for i in range(4):
        one.add_binary(f"x_{i}")
    for name in ("g", "h"):
        one.add_int(name, -2, 5)
    for row in rows:
        one.add_constraint(zip(row.coefs, row.vars), row.sense, row.rhs,
                           row.name)
    assert model_state(batch) == model_state(one)
    assert export_lp(batch) == export_lp(one)


# ---------------------------------------------------------------- LP text

def test_export_empty_model():
    assert export_lp(IlpModel()) == "Minimize\n obj: 0\nSubject To\nEnd\n"


def test_export_is_stable():
    m = random_model(17)
    assert export_lp(m) == export_lp(m)


def model_signature(m):
    return (
        m.names,
        m.lo,
        m.hi,
        m.binary,
        [(c.name, c.coefs, c.vars, c.sense, c.rhs) for c in m.constraints],
    )


def test_round_trip_random_models():
    for seed in range(60):
        m = random_model(seed)
        again = parse_lp(export_lp(m))
        assert model_signature(again) == model_signature(m), f"seed {seed}"


def test_round_trip_covers_awkward_pieces():
    m = IlpModel()
    x = m.add_binary("z_0")
    y = m.add_int("a_2", 2, 6)
    m.add_constraint([], LE, -1, "empty")
    m.add_constraint([(-1, x), (6, y)], LE, -1, "mixed")
    m.add_constraint([(1, y)], GE, 3, "floor")
    m.add_constraint([(2, x)], EQ, 2, "pin")
    text = export_lp(m)
    assert "empty: 0 <= -1" in text
    again = parse_lp(text)
    assert model_signature(again) == model_signature(m)


def test_binary_after_general_integer_is_rejected():
    # export_lp writes the binaries first, so this model could not read
    # back with its variable order
    m = IlpModel()
    m.add_binary("z_0")
    m.add_int("u_1", 0, 3)
    with pytest.raises(ValueError, match="after a general"):
        m.add_binary("z_1")
    assert m.names == ["z_0", "u_1"]
    assert model_signature(parse_lp(export_lp(m))) == model_signature(m)


def test_long_constraints_wrap_and_reparse():
    m = IlpModel()
    vs = [m.add_binary(f"z_{i}") for i in range(40)]
    m.add_constraint([(1, v) for v in vs], LE, 39, "wide")
    text = export_lp(m)
    assert max(len(line) for line in text.splitlines()) < 120
    assert model_signature(parse_lp(text)) == model_signature(m)


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_lp("Minimize\n obj: 0\nSubject To\n c: z_9 <= 1\nEnd\n")
    with pytest.raises(ValueError):
        parse_lp(
            "Minimize\n obj: 0\nSubject To\nBinaries\n z_0\n"
            "Generals\n a_1\nEnd\n"
        )


SMALL_LP = (
    "Minimize\n obj: 0\nSubject To\n c: z_0 + z_1 <= 1\n"
    "Binaries\n z_0 z_1\nEnd\n"
)


def with_general(lo, hi):
    """(old, new) that declares a general u in lo..hi after SMALL_LP's
    binaries."""
    return ("Binaries\n z_0 z_1\n", f"Bounds\n {lo} <= u <= {hi}\n"
            "Binaries\n z_0 z_1\nGenerals\n u\n")


def test_small_lp_is_what_export_writes():
    m = IlpModel()
    m.add_constraint([(1, m.add_binary("z_0")), (1, m.add_binary("z_1"))],
                     LE, 1, "c")
    assert export_lp(m) == SMALL_LP
    assert model_signature(parse_lp(SMALL_LP)) == model_signature(m)


@pytest.mark.parametrize("old, new", [
    ("Subject To", "st"),
    ("Binaries", "bin"),
    (" <= ", " < "),
    (" <= ", " == "),
    (" z_0 ", " 2 3 z_0 "),
    (" z_1 ", " -2 z_1 "),
    ("Subject To\n", "Subject To\n\\ a comment\n"),
    ("Minimize\n", "\\ a comment\nMinimize\n"),
    (" c: ", " c : "),
    ("Minimize", "Maximize"),
    # numbers that int() reads as 10, 0 and 3
    (" <= 1\n", " <= 1_0\n"),
    (" <= 1\n", " <= +0\n"),
    (" <= 1\n", " <= \u0663\n"),
    (" z_1 ", " \u0663 z_1 "),
    (" z_1 ", " 03 z_1 "),
    with_general(0, "1_0"),
    with_general("+0", 9),
    with_general("\u0663", 9),
    # layout that a reader of tokens alone would accept
    ("End\n", "End\nmore\n"),
    (" <= 1\n", " <= 1\n\n"),
    (" obj: 0", " obj:  0"),
    ("End\n", "End"),
    (" z_0 + z_1", " z_0\n   + z_1"),
    (" z_0 z_1\n", " z_0\n z_1\n"),
])
def test_parse_rejects_constructs_export_never_writes(old, new):
    assert old in SMALL_LP
    with pytest.raises(ValueError):
        parse_lp(SMALL_LP.replace(old, new, 1))


def test_general_variant_of_small_lp_reads_back():
    # the cases above with numbers that export_lp writes
    text = SMALL_LP.replace(" <= 1", " <= -10").replace(*with_general(-3, 10))
    m = parse_lp(text)
    assert (m.names, m.lo, m.hi, m.constraints[0].rhs) == (
        ["z_0", "z_1", "u"], [0, 0, -3], [1, 1, 10], -10)
    assert export_lp(m) == text


@pytest.mark.parametrize("lhs", [
    "z_0 + z_1 + 2", "z_0 + z_1 2", "z_0 + z_1 +", "z_0 z_1", "2", "- 0",
    "- 0 z_0 + z_1", "0 z_0 + z_1", "z_0 + 0 z_1",
])
def test_parse_rejects_dangling_terms(lhs):
    with pytest.raises(ValueError):
        parse_lp(SMALL_LP.replace("z_0 + z_1", lhs))


def test_duplicate_variable_name_is_rejected():
    # before the check, both binaries were named x and the row on the
    # first one read back on the second
    m = IlpModel()
    x = m.add_binary("x")
    with pytest.raises(ValueError, match="duplicate"):
        m.add_binary("x")
    with pytest.raises(ValueError, match="duplicate"):
        m.add_int("x", 0, 3)
    m.add_constraint([(1, x)], LE, 0, "c")
    assert m.names == ["x"] and m.var_of == {"x": 0}
    assert model_signature(parse_lp(export_lp(m))) == model_signature(m)


@pytest.mark.parametrize(
    "name", ["", " ", "a b", "a\tb", "x:", ":", "<=", ">=", "=", "+", "-", "7"]
)
def test_name_that_is_not_one_lp_token_is_rejected(name):
    m = IlpModel()
    with pytest.raises(ValueError, match="one LP token"):
        m.add_int(name, 0, 1)
    assert m.names == [] and m.var_of == {}


@pytest.mark.parametrize("name", ["", " ", "a b", "a\nb", " c", "c\t"])
def test_row_name_that_is_not_one_lp_token_is_rejected(name):
    # export_lp would write such a name as text that parse_lp refuses
    m = IlpModel()
    v = m.add_binary("x")
    with pytest.raises(ValueError, match="one LP token"):
        m.add_constraint([(1, v)], LE, 1, name)
    assert m.constraints == []


def test_parse_names_the_first_line_that_differs():
    with pytest.raises(ValueError, match="line 4 is ' c: z_0 \\+  z_1"):
        parse_lp(SMALL_LP.replace("+ z_1", "+  z_1"))
    with pytest.raises(ValueError, match="line 8 is None"):
        parse_lp(SMALL_LP.removesuffix("\n"))
    with pytest.raises(ValueError, match="not the LP text"):
        parse_lp(SMALL_LP.replace("z_1 <=", "z_2 <="))


def test_index_maps_every_name_to_its_variable():
    m = random_model(3)
    assert m.var_of == {name: v for v, name in enumerate(m.names)}
    assert parse_lp(export_lp(m)).var_of == m.var_of


@pytest.mark.parametrize("text", [
    "Binaries\n z_0 z_0\n",
    "Binaries\n z_0\n z_0\n",
    "Bounds\n 0 <= z_0 <= 3\nBinaries\n z_0\nGenerals\n z_0\n",
    "Bounds\n 0 <= a_1 <= 3\n 0 <= a_1 <= 3\nGenerals\n a_1 a_1\n",
    "Bounds\n 0 <= a_1 <= 3\n 0 <= a_1 <= 4\nGenerals\n a_1\n",
])
def test_parse_rejects_a_variable_declared_twice(text):
    with pytest.raises(ValueError):
        parse_lp("Minimize\n obj: 0\nSubject To\n" + text + "End\n")
