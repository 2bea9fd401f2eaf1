"""ILP formulations over the union multigraph.

Every model asks for a factor Z (complement W) such that both are
Hamiltonian cycles and {Z, W} differs from the generating pair.  The
cut-based model leaves subtour elimination to a lazy loop; the
order-variable models are complete as built.

Shared structure: one binary per union edge (or per oriented edge
copy), degree equalities per vertex, a "not the original pair" cut per
generating cycle over its unshared edges, and an exactly-one split of
every parallel edge pair.

A subtour row for a vertex set S, T = V - S, keeps Z from closing a
cycle inside S; its complementary row does the same for W.  With the
degree rows, three forms of each cut off the same integer points
(Dantzig, Fulkerson & Johnson, 1954; Applegate, Bixby, Chvatal & Cook,
2006), with k = 2 undirected and k = 1 directed, which is Z's degree:
- inside: z(E(S)) <= |S| - 1, and W's z(E(S)) >= |E(S)| - |S| + 1;
- outside, the inside form of T: z(E(T)) <= |T| - 1, and
  z(E(T)) >= |E(T)| - |T| + 1;
- cut, over the edges leaving S: z(delta(S)) >= k, and
  z(delta(S)) <= |delta(S)| - k.
Undirected, 2 z(E(S)) + z(delta(S)) = 2|S| at every degree-feasible
point; directed, z(E(S)) + z(delta+(S)) = |S| = z(E(T)) +
z(delta+(T)), and as many Z arcs leave S as enter it.  Both rows of a
set take the form with the fewest terms (`subtour_form`).

Every builder returns `(model, z_terms)`.  `z_terms[e]` is the tuple of
binaries whose sum is 1 exactly when union edge `e` is in Z, and 0 when
it is in W: `(z_e,)` in the cut-based and directed order models,
`(z_fwd, z_rev)`, one per traversal direction, in the undirected order
model.  Cuts and decoding read Z membership through it alone.
"""

from __future__ import annotations

from typing import NamedTuple

from .ilp import EQ, GE, LE, IlpModel, LinearConstraint
from .multigraph import (
    ORIGIN_X,
    ORIGIN_Y,
    W,
    Z,
    TwoFactorPair,
    UnionMultigraph,
)


def _add_parallel_split(model, g, z_terms):
    """Exactly one copy of each parallel pair belongs to Z."""
    ones = (1,) * (2 * len(z_terms[0]))
    pairs = enumerate(g.partner[:g.n])  # x's copy is the lower id
    model.add_rows([LinearConstraint(ones, z_terms[e] + z_terms[mate], EQ, 1,
                                     f"par_{e}_{mate}")
                    for e, mate in pairs if mate is not None])


def higher_copy_terms(g: UnionMultigraph, z_terms) -> list:
    """Z terms of the higher-id copy of every parallel pair, y's copy
    (see solvers)."""
    n, partner = g.n, g.partner
    return [v for e in range(n, 2 * n) if partner[e] is not None
            for v in z_terms[e]]


def build_dfj_base(g: UnionMultigraph) -> tuple[IlpModel, list]:
    """Degree + forbidden-pair + parallel-split core; no subtour cuts yet."""
    model = IlpModel()
    # declared first on a fresh model, z_e is variable e, so each list
    # of edge ids below is already a list of var ids
    z_vars = model.add_binaries([f"z_{e}" for e in range(2 * g.n)])
    z_terms = [(z,) for z in z_vars]

    # per vertex, Z takes `cap` edges of each of its slots, which all hold
    # 2 * cap (the union is 4-regular)
    slots, mate, cap = g.slots, g.slot_mate, g.cap
    ones = (1,) * (2 * cap)
    names = ("outdeg", "indeg") if g.directed else ("deg",)
    rows = [LinearConstraint(ones, tuple(slots[s]), EQ, cap, f"{name}_{v}")
            for v in range(1, g.n + 1)
            for name, s in zip(names, (v, mate[v]))]
    for origin, tag in ((ORIGIN_X, "x"), (ORIGIN_Y, "y")):
        unique = tuple(g.unique_edge_ids(origin))
        rows.append(LinearConstraint((1,) * len(unique), unique, LE,
                                     len(unique) - 1, f"forbid_{tag}"))
    model.add_rows(rows)
    _add_parallel_split(model, g, z_terms)
    return model, z_terms


class SubtourForm(NamedTuple):
    """Both rows of one cut set in one form: its edge ids in ascending
    order, and per side (Z, W) the row's sense and rhs over the Z terms
    of those edges."""

    edges: list[int]
    sides: tuple[tuple[str, int], tuple[str, int]]


def subtour_form(g: UnionMultigraph, subtour) -> SubtourForm:
    """The sparsest equal form of the two subtour rows of S = `subtour`.

    One walk over slot v of every v in S, its incidence list or, when
    directed, its out-port, finds E(S) and the edges leaving S; the
    degree rows give |E(T)| for T = V - S.  The form with the fewest
    terms wins, in the tie order inside, outside, cut.  Checking and
    walking S cost O(|S|); the outside form scans every edge, but it
    wins only when |T| < |S|.
    """
    s = set(subtour)
    n = g.n
    if not s or len(s) >= n:
        raise ValueError("subtour must be a nonempty proper vertex subset")
    if not all(map(range(1, n + 1).__contains__, s)):
        raise ValueError("subtour contains unknown vertices")
    tail, head, slots = g.tail, g.head, g.slots
    inside, cut = [], []  # E(S), and the edges leaving S
    for v in s:
        for e in slots[v]:
            if tail[e] != v:  # undirected: E(S) takes an edge at its tail
                if tail[e] not in s:
                    cut.append(e)
            elif head[e] in s:
                inside.append(e)
            else:
                cut.append(e)
    k, cap = len(s), g.cap
    # a directed cut set is left by as many arcs as enter it
    outside = 2 * n - len(inside) - len(cut) * (2 if g.directed else 1)
    # Fewest terms costs nodes where the cut form wins (on undirected
    # pyramidal unions): once Z holds |S| - 1 edges of E(S), a path
    # through S, the inside row fixes its closing edge to 0 at once,
    # while the cut row waits until the degree rows close all but two
    # edges leaving S.  Cheaper rows still make each run faster.
    fewest = min(len(inside), outside, len(cut))
    if len(inside) == fewest:
        edges, sides = inside, ((LE, k - 1), (GE, len(inside) - k + 1))
    elif outside == fewest:
        edges = [e for e in range(2 * n)
                 if tail[e] not in s and head[e] not in s]
        sides = (LE, n - k - 1), (GE, outside - (n - k) + 1)
    else:
        edges, sides = cut, ((GE, cap), (LE, len(cut) - cap))
    edges.sort()
    return SubtourForm(edges, sides)


def sec_for_subtour(
    model: IlpModel, z_terms: list, form: SubtourForm, side: int, name: str
) -> None:
    """Add the `side` subtour elimination row of a vertex set, written
    in the `form` that `subtour_form` returned for it.

    Z side: Z holds no cycle inside the set; W side: neither does W,
    with w = 1 - z, so the row keeps Z terms only.  One form gives both
    rows of a set.
    """
    if side not in (Z, W):
        raise ValueError(f"unknown side {side!r}")
    sense, rhs = form.sides[side]
    model.add_constraint([(1, v) for e in form.edges for v in z_terms[e]],
                         sense, rhs, name)


def build_mtz_directed(g: UnionMultigraph) -> tuple[IlpModel, list]:
    """Directed model made complete by two families of order variables."""
    if not g.directed:
        raise ValueError("directed formulation needs a directed union")
    model, z_terms = build_dfj_base(g)
    n = g.n
    # alpha_i is variable a + i and beta_i is b + i; z_e is variable e
    a = model.add_ints([f"{f}_{i}" for f in "ab" for i in range(2, n + 1)],
                       2, n).start - 2
    b = a + n - 1
    z_up, w_up = (1, -1, n), (1, -1, -n)
    rows = []
    for e, (i, j) in enumerate(zip(g.tail, g.head)):
        if i != 1 and j != 1:
            rows.append(LinearConstraint(z_up, (a + i, a + j, e), LE, n - 1,
                                         f"ord_z_{e}"))
            # order along W arcs: the same bound with z inverted
            rows.append(LinearConstraint(w_up, (b + i, b + j, e), LE, -1,
                                         f"ord_w_{e}"))
    model.add_rows(rows)
    return model, z_terms


def build_mtz_undirected(g: UnionMultigraph) -> tuple[IlpModel, list]:
    """Undirected model: each edge picks a factor and a direction."""
    if g.directed:
        raise ValueError("undirected formulation needs an undirected union")
    model = IlpModel()
    n, tail, slots = g.n, g.tail, g.slots
    ends = list(enumerate(zip(tail, g.head)))
    # per edge z_fwd, z_rev, w_fwd, w_rev: variables 4e to 4e + 3
    ids = model.add_binaries([f"{f}_{e}_{u}_{v}" for e, (t, h) in ends
                              for f in "zw" for u, v in ((t, h), (h, t))])
    z_fwd, z_rev, w_fwd, w_rev = (ids[k::4] for k in range(4))
    # alpha_i is variable a + i and beta_i is b + i
    a = model.add_ints([f"{f}_{i}" for f in "ab" for i in range(2, n + 1)],
                       2, n).start - 2
    b = a + n - 1
    ones = (1,) * 4
    rows = [LinearConstraint(ones, (z_fwd[e], z_rev[e], w_fwd[e], w_rev[e]),
                             EQ, 1, f"pick_{e}") for e in range(2 * n)]
    for factor, fwd, rev in (("z", z_fwd, z_rev), ("w", w_fwd, w_rev)):
        for v in range(1, n + 1):
            # the copy of each incident edge that leaves v, and enters it
            outs = [fwd[e] if tail[e] == v else rev[e] for e in slots[v]]
            ins = [rev[e] if tail[e] == v else fwd[e] for e in slots[v]]
            rows += (LinearConstraint(ones, tuple(outs), EQ, 1,
                                      f"{factor}_out_{v}"),
                     LinearConstraint(ones, tuple(ins), EQ, 1,
                                      f"{factor}_in_{v}"))

    up = (1, -1, n)
    for factor, rank, fwd, rev in (("z", a, z_fwd, z_rev),
                                   ("w", b, w_fwd, w_rev)):
        for e, (t, h) in ends:
            for u, v, var in ((t, h, fwd[e]), (h, t, rev[e])):
                if u != 1 and v != 1:
                    rows.append(LinearConstraint(
                        up, (rank + u, rank + v, var), LE, n - 1,
                        f"ord_{factor}_{e}_{u}_{v}"))

    # both factors must differ from both generating cycles
    for origin, tag in ((ORIGIN_X, "x"), (ORIGIN_Y, "y")):
        unique = g.unique_edge_ids(origin)
        for factor, fwd, rev in (("z", z_fwd, z_rev), ("w", w_fwd, w_rev)):
            rows.append(LinearConstraint(
                (1,) * (2 * len(unique)),
                tuple([fwd[e] for e in unique] + [rev[e] for e in unique]),
                LE, len(unique) - 1, f"forbid_{tag}_{factor}"))
    model.add_rows(rows)

    z_terms = list(zip(z_fwd, z_rev))
    _add_parallel_split(model, g, z_terms)
    return model, z_terms


def decode(assignment, z_terms, g: UnionMultigraph) -> TwoFactorPair:
    """Translate a feasible assignment into a factor pair."""
    sides = []
    for terms in z_terms:
        hits = 0
        for v in terms:
            hits += assignment[v]
        sides.append(Z if hits == 1 else W)
    pair = TwoFactorPair(g, sides)
    if pair.broken:
        raise AssertionError("model admitted a degree-violating assignment")
    return pair
