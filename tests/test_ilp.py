import itertools

import numpy as np
import pytest

from hamdec.ilp import (
    EQ,
    GE,
    LE,
    IlpModel,
    Status,
    export_lp,
    parse_lp,
    solve,
)


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


def pigeonhole(m):
    """m+1 pigeons into m exclusive holes; infeasible by counting."""
    model = IlpModel()
    p = [
        [model.add_binary(f"p_{i}_{j}") for j in range(m)]
        for i in range(m + 1)
    ]
    for i in range(m + 1):
        model.add_ge([(1, v) for v in p[i]], 1, f"pigeon_{i}")
    for j in range(m):
        model.add_le([(1, p[i][j]) for i in range(m + 1)], 1, f"hole_{j}")
    return model


# ---------------------------------------------------------------- solve

def test_empty_model_is_feasible():
    out = solve(IlpModel(), 10)
    assert out.status is Status.FEASIBLE
    assert out.assignment == []


def test_empty_sum_constraint_is_infeasible():
    m = IlpModel()
    m.add_binary("x_0")
    m.add_le([], -1, "impossible")
    out = solve(m, 10)
    assert out.status is Status.INFEASIBLE


def test_binaries_branch_one_first_in_declaration_order():
    m = IlpModel()
    for i in range(5):
        m.add_binary(f"x_{i}")
    out = solve(m, 10)
    assert out.status is Status.FEASIBLE
    assert out.assignment == [1, 1, 1, 1, 1]


def test_integer_domains_split_toward_upper_half():
    m = IlpModel()
    x = m.add_int("y_0", 2, 9)
    m.add_le([(1, x)], 5, "cap")
    out = solve(m, 10)
    assert out.status is Status.FEASIBLE
    assert out.assignment == [5]


def test_equalities_propagate_to_fixpoint():
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(4)]
    m.add_eq([(1, v) for v in xs], 4, "all")
    out = solve(m, 10)
    assert out.status is Status.FEASIBLE
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
        m.add_le([(1, y), (1, x)], 5, "cap")
    else:
        m.add_ge([(-1, y), (-1, x)], -5, "cap")
    out = solve(m, 10)
    assert out.status is Status.FEASIBLE
    assert out.assignment == [1, 4]
    assert out.nodes == 4


def test_infeasible_by_conflicting_equalities():
    m = IlpModel()
    x = m.add_binary("x_0")
    y = m.add_binary("x_1")
    m.add_eq([(1, x), (1, y)], 2, "both")
    m.add_le([(1, x), (1, y)], 1, "not-both")
    assert solve(m, 10).status is Status.INFEASIBLE


def test_status_matches_brute_force_on_random_models():
    statuses = set()
    for seed in range(300):
        m = random_model(seed)
        out = solve(m, 30)
        assert out.status in (Status.FEASIBLE, Status.INFEASIBLE)
        expected = brute_force_feasible(m)
        assert (out.status is Status.FEASIBLE) == expected, f"seed {seed}"
        if out.status is Status.FEASIBLE:
            assert m.check(out.assignment)
            for v, val in enumerate(out.assignment):
                assert m.lo[v] <= val <= m.hi[v]
        statuses.add(out.status)
    assert statuses == {Status.FEASIBLE, Status.INFEASIBLE}


def test_pigeonhole_proved_infeasible():
    assert solve(pigeonhole(5), 60).status is Status.INFEASIBLE


def test_zero_budget_times_out():
    out = solve(pigeonhole(4), 0)
    assert out.status is Status.TIMED_OUT


def test_tight_budget_times_out_not_infeasible():
    out = solve(pigeonhole(10), 0.02)
    assert out.status is Status.TIMED_OUT
    assert out.nodes > 0


def test_deadline_is_checked_inside_root_propagation():
    # 2000 rows start queued, so the root fixpoint alone passes the
    # 1024-pop clock check; the whole search would take two nodes
    m = IlpModel()
    xs = [m.add_binary(f"x_{i}") for i in range(2001)]
    for i in range(2000):
        m.add_le([(1, xs[i]), (-1, xs[i + 1])], 0, f"chain_{i}")
    assert solve(m, 10).status is Status.FEASIBLE
    out = solve(m, 1e-9)
    assert out.status is Status.TIMED_OUT
    assert out.nodes == 1


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
    m.add_le([], -1, "empty")
    m.add_le([(-1, x), (6, y)], -1, "mixed")
    m.add_ge([(1, y)], 3, "floor")
    m.add_eq([(2, x)], 2, "pin")
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
    m.add_le([(1, v) for v in vs], 39, "wide")
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


def test_small_lp_is_what_export_writes():
    m = IlpModel()
    m.add_le([(1, m.add_binary("z_0")), (1, m.add_binary("z_1"))], 1, "c")
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
])
def test_parse_rejects_constructs_export_never_writes(old, new):
    assert old in SMALL_LP
    with pytest.raises(ValueError):
        parse_lp(SMALL_LP.replace(old, new, 1))


@pytest.mark.parametrize("lhs", [
    "z_0 + z_1 + 2", "z_0 + z_1 2", "z_0 + z_1 +", "z_0 z_1", "2", "- 0",
])
def test_parse_rejects_dangling_terms(lhs):
    with pytest.raises(ValueError):
        parse_lp(SMALL_LP.replace("z_0 + z_1", lhs))
