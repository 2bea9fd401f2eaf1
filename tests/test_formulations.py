import itertools
import random

import pytest

from hamdec.formulations import (
    build_dfj_base,
    build_mtz_directed,
    build_mtz_undirected,
    decode,
    sec_for_subtour,
    subtour_form,
)
from hamdec.ilp import GE, LE, Verdict, solve
from hamdec.instances import InstanceKind, InstanceSpec, generate_instance
from hamdec.multigraph import (
    W,
    Z,
    TwoFactorPair,
    build_union,
    components,
    is_second_decomposition,
    normalize_pairs,
)
from hamdec.oracle import enumerate_decompositions, has_second_decomposition

from conftest import (
    factor_multiset,
    make_cycle,
    random_instance,
    sides_for_cycles,
)


def all_assignments(nbits):
    for bits in range(1 << nbits):
        yield [(bits >> i) & 1 for i in range(nbits)]


def valid_pair_excluding_inputs(g, sides, x, y):
    """Reference predicate for the cut-based core model's solution set."""
    pair = TwoFactorPair(g, [Z if s else W for s in sides])
    if pair.broken:
        return False
    for e, mate in enumerate(g.partner):
        if mate is not None and sides[e] == sides[mate]:
            return False
    z_ms = factor_multiset(pair, Z)
    return z_ms not in (x.edge_multiset(), y.edge_multiset())


# ------------------------------------------------------------- core model

def test_core_model_shape(ring6):
    x, y = ring6
    g = build_union(x, y)
    model, mapping = build_dfj_base(g)
    assert len(model.names) == 12
    assert all(model.binary)
    assert model.names == [f"z_{i}" for i in range(12)]
    by_name = {c.name: c for c in model.constraints}
    assert by_name["forbid_x"].rhs == 4  # five unshared x-edges
    assert by_name["forbid_y"].rhs == 4
    assert by_name["deg_3"].rhs == 2
    par = [c for c in model.constraints if c.name.startswith("par_")]
    assert len(par) == 1 and par[0].rhs == 1


@pytest.mark.parametrize("directed", [False, True], ids=["und", "dir"])
def test_core_model_declares_z_e_as_variable_e(directed):
    # the builders write each row's vars straight from lists of edge ids
    x, y, g = random_instance(12, 3, directed)
    for build in [build_dfj_base] + [build_mtz_directed] * directed:
        model, z_terms = build(g)
        assert z_terms == [(e,) for e in range(2 * g.n)]
        assert model.names[:2 * g.n] == [f"z_{e}" for e in range(2 * g.n)]
        slots = {tuple(g.slots[v]) for v in range(len(g.slots))}
        degree = [c for c in model.constraints if "deg_" in c.name]
        assert len(degree) == (2 if directed else 1) * g.n
        assert {c.vars for c in degree} <= slots


def test_core_model_solutions_match_reference_exactly(ring6):
    x, y = ring6
    g = build_union(x, y)
    model, _ = build_dfj_base(g)
    agree = 0
    for sides in all_assignments(12):
        expected = valid_pair_excluding_inputs(g, sides, x, y)
        assert model.check(sides) == expected
        agree += expected
    assert agree > 0


def test_core_model_reference_holds_on_directed_instance():
    x, y, g = random_instance(6, seed=11, directed=True)
    model, _ = build_dfj_base(g)
    hits = 0
    for sides in all_assignments(12):
        expected = valid_pair_excluding_inputs(g, sides, x, y)
        assert model.check(sides) == expected
        hits += expected
    assert hits >= 0


def test_identical_cycles_make_core_model_infeasible():
    x = make_cycle([1, 2, 3, 4])
    g = build_union(x, make_cycle([1, 2, 3, 4]))
    model, _ = build_dfj_base(g)
    assert solve(model, 10).status is Verdict.INFEASIBLE
    empty = [c for c in model.constraints if not c.vars]
    assert {c.rhs for c in empty} == {-1}


# -------------------------------------------------------------- cuts

def test_subtour_cut_kills_triangle_split(twin_triangles):
    x, y = twin_triangles
    g = build_union(x, y)
    model, mapping = build_dfj_base(g)
    sides = sides_for_cycles(g, [[1, 2, 6], [3, 4, 5]])
    bits = [1 if s == Z else 0 for s in sides]
    assert model.check(bits)
    sec_for_subtour(model, mapping, subtour_form(g, {1, 2, 6}), Z, "cut_z_0")
    assert not model.check(bits)


def test_complement_side_cut_kills_w_subtour(twin_triangles):
    x, y = twin_triangles
    g = build_union(x, y)
    model, mapping = build_dfj_base(g)
    sides = sides_for_cycles(g, [[1, 2, 6], [3, 4, 5]])
    bits = [1 if s == Z else 0 for s in sides]
    sec_for_subtour(model, mapping, subtour_form(g, {1, 2, 3}), W, "cut_w_0")
    assert not model.check(bits)


def test_cuts_never_exclude_true_decompositions(twin_triangles):
    x, y = twin_triangles
    g = build_union(x, y)
    model, mapping = build_dfj_base(g)
    k = 0
    for size in (2, 3, 4):
        for s in itertools.combinations(range(1, 7), size):
            form = subtour_form(g, set(s))
            sec_for_subtour(model, mapping, form, Z, f"cut_z_{k}")
            sec_for_subtour(model, mapping, form, W, f"cut_w_{k}")
            k += 1
    for z, w in enumerate_decompositions(g):
        for first, second in ((z, w), (w, z)):
            sides = sides_for_cycles(g, [list(first.order)])
            bits = [1 if s == Z else 0 for s in sides]
            pair = TwoFactorPair(g, sides)
            if factor_multiset(pair, Z) in (
                x.edge_multiset(),
                y.edge_multiset(),
            ):
                continue  # forbidden split, cuts not at issue
            assert model.check(bits)


def test_singleton_cut_is_vacuous(ring6):
    x, y = ring6
    g = build_union(x, y)
    model, mapping = build_dfj_base(g)
    sec_for_subtour(model, mapping, subtour_form(g, {4}), Z, "cut_z_0")
    con = model.constraints[-1]
    assert con.vars == () and con.rhs == 0


def test_subtour_cut_input_validation(ring6):
    x, y = ring6
    g = build_union(x, y)
    model, mapping = build_dfj_base(g)
    for bad in (set(), set(range(1, 7)), {1, 99}, {0, 1}, {-1, 2}):
        with pytest.raises(ValueError):
            subtour_form(g, bad)
    with pytest.raises(ValueError):
        sec_for_subtour(model, mapping, subtour_form(g, {1, 2}), 7, "bad")


# ------------------------------------------------------------ mtz models

def test_mtz_directed_rejects_identical_cycles():
    for n in range(3, 7):
        x = make_cycle(range(1, n + 1), directed=True)
        g = build_union(x, make_cycle(range(1, n + 1), directed=True))
        model, _ = build_mtz_directed(g)
        assert solve(model, 30).status is Verdict.INFEASIBLE


def test_mtz_directed_feasible_run_orders_alpha_along_z():
    hit = False
    for seed in range(30):
        x, y, g = random_instance(7, seed=seed, directed=True)
        truth, _ = has_second_decomposition(g, x, y)
        model, mapping = build_mtz_directed(g)
        out = solve(model, 60)
        assert (out.status is Verdict.FEASIBLE) == truth, f"seed {seed}"
        if not truth:
            continue
        hit = True
        pair = decode(out.assignment, mapping, g)
        assert is_second_decomposition(pair)
        for e, (t, h) in enumerate(zip(g.tail, g.head)):
            if t == 1 or h == 1:
                continue
            if pair.side[e] == Z:
                assert (
                    out.assignment[model.var_of[f"a_{t}"]]
                    < out.assignment[model.var_of[f"a_{h}"]]
                )
            else:
                assert (
                    out.assignment[model.var_of[f"b_{t}"]]
                    < out.assignment[model.var_of[f"b_{h}"]]
                )
    assert hit


def test_mtz_undirected_shape_and_witness(ring6):
    x, y = ring6
    g = build_union(x, y)
    model, mapping = build_mtz_undirected(g)
    assert sum(model.binary) == 48  # four oriented copies per edge
    assert sum(not b for b in model.binary) == 10
    out = solve(model, 60)
    assert out.status is Verdict.FEASIBLE
    pair = decode(out.assignment, mapping, g)
    assert is_second_decomposition(pair)


def test_mtz_undirected_rejects_identical_cycles():
    for n in range(3, 7):
        x = make_cycle(range(1, n + 1))
        g = build_union(x, make_cycle(range(1, n + 1)))
        model, _ = build_mtz_undirected(g)
        assert solve(model, 30).status is Verdict.INFEASIBLE


def test_mtz_undirected_matches_oracle_on_randoms():
    for seed in range(12):
        x, y, g = random_instance(6 + seed % 3, seed=100 + seed)
        truth, _ = has_second_decomposition(g, x, y)
        model, mapping = build_mtz_undirected(g)
        out = solve(model, 60)
        assert (out.status is Verdict.FEASIBLE) == truth, f"seed {seed}"
        if truth:
            pair = decode(out.assignment, mapping, g)
            assert is_second_decomposition(pair)


def test_formulation_direction_guards(ring6):
    x, y = ring6
    g = build_union(x, y)
    with pytest.raises(ValueError):
        build_mtz_directed(g)
    dx, dy, dg = random_instance(6, seed=0, directed=True)
    with pytest.raises(ValueError):
        build_mtz_undirected(dg)


def test_decode_rejects_degree_violations(ring6):
    x, y = ring6
    g = build_union(x, y)
    _, mapping = build_dfj_base(g)
    with pytest.raises(AssertionError):
        decode([0] * 12, mapping, g)


def reference_forms(g, s):
    """Edge ids of the inside, outside and cut forms of set `s`, ascending,
    in the tie order; the cut form keeps the arcs leaving s when directed."""
    ends = list(enumerate(zip(g.tail, g.head)))
    inside = [e for e, (t, h) in ends if t in s and h in s]
    outside = [e for e, (t, h) in ends if t not in s and h not in s]
    cut = [e for e, (t, h) in ends
           if t in s and h not in s
           or not g.directed and h in s and t not in s]
    return [("inside", inside), ("outside", outside), ("cut", cut)]


@pytest.mark.parametrize("directed", [False, True])
def test_subtour_rows_take_the_form_with_fewest_terms(directed):
    rng = random.Random(4)
    ties = set()
    for seed in range(400):
        n = rng.choice((6, 7, 10, 13))
        _, _, g = random_instance(n, seed, directed)
        model, mapping = build_dfj_base(g)
        k_deg = 1 if directed else 2
        for k in range(12):
            s = set(rng.sample(range(1, n + 1), rng.randrange(1, n)))
            forms = reference_forms(g, s)
            fewest = min(len(edges) for _, edges in forms)
            tied = [(form, edges) for form, edges in forms
                    if len(edges) == fewest]
            if len(tied) > 1:
                ties.add(tuple(form for form, _ in tied))
            form, edges = tied[0]
            if form == "cut":
                expected = (GE, k_deg), (LE, len(edges) - k_deg)
            else:
                size = len(s) if form == "inside" else n - len(s)
                expected = (LE, size - 1), (GE, len(edges) - size + 1)
            got = subtour_form(g, list(s))
            assert got == (edges, expected)
            for side in (Z, W):
                sec_for_subtour(model, mapping, got, side, f"c_{k}")
                row = model.constraints[-1]
                assert row.vars == tuple(mapping[e][0] for e in edges)
                assert row.coefs == (1,) * len(edges)
                assert (row.sense, row.rhs) == expected[side]
    # ties were met, and broke in the tie order
    assert ties >= {("inside", "outside"), ("inside", "cut"),
                    ("outside", "cut")}, ties


def degree_feasible_points(g):
    """Every Z edge set, as a bit mask over edge ids, that takes `cap`
    edges of every slot: the 0/1 points that meet the degree rows."""
    need = [g.cap] * len(g.slots)
    left = [len(slot) for slot in g.slots]
    points = []

    def place(e, mask):
        if e == len(g.tail):
            points.append(mask)
            return
        a, b = g.slot_a[e], g.slot_b[e]
        left[a] -= 1
        left[b] -= 1
        for take in (0, 1):
            need[a] -= take
            need[b] -= take
            if 0 <= need[a] <= left[a] and 0 <= need[b] <= left[b]:
                place(e + 1, mask | take << e)
            need[a] += take
            need[b] += take
        left[a] += 1
        left[b] += 1

    place(0, 0)
    return points


EQUIVALENCE_UNIONS = [
    (InstanceKind.RANDOM_PERMUTATION, 7, 1),
    (InstanceKind.RANDOM_PERMUTATION, 9, 2),
    (InstanceKind.PYRAMIDAL, 8, 3),
    (InstanceKind.PYRAMIDAL, 9, 4),
    (InstanceKind.FOUR_PEAK, 9, 5),
    (InstanceKind.RANDOM_PERMUTATION, 8, 6),
    (InstanceKind.RANDOM_PERMUTATION, 9, 7),
]


@pytest.mark.parametrize("directed", [False, True])
def test_every_emitted_row_holds_exactly_when_the_inside_row_holds(directed):
    # the reference is the inside form, counted here from the edge list:
    # Z holds at most |S| - 1 edges of E(S), and so does W
    forms = set()
    for kind, n, seed in EQUIVALENCE_UNIONS:
        _, _, g = generate_instance(InstanceSpec(kind, n, directed, seed))
        points = degree_feasible_points(g)
        assert len(points) >= 2
        model, mapping = build_dfj_base(g)
        assert [v for (v,) in mapping] == list(range(len(g.tail)))
        for bits in range(1, (1 << n) - 1):
            s = {v for v in range(1, n + 1) if bits >> (v - 1) & 1}
            inside = sum(1 << e for e in range(len(g.tail))
                          if g.tail[e] in s and g.head[e] in s)
            form = subtour_form(g, s)
            forms.add(next(name for name, same in reference_forms(g, s)
                           if same == form.edges))
            for side in (Z, W):
                sec_for_subtour(model, mapping, form, side, "row")
                _, vars_, sense, rhs, _ = model.constraints.pop()
                terms = sum(1 << v for v in vars_)
                for z in points:
                    factor = z if side == Z else ~z
                    holds = (factor & inside).bit_count() <= len(s) - 1
                    act = (z & terms).bit_count()
                    assert (act <= rhs if sense == LE else act >= rhs) \
                        == holds, (kind, n, sorted(s), side, bin(z))
    assert forms == {"inside", "outside", "cut"}
