"""Integer feasibility engine and LP-format text round trip.

All variables carry finite integer domains; a model takes variables
and rows in checked batches (see `IlpModel`).  There is no objective:
the solver answers a `Verdict`, FEASIBLE (with a verified assignment),
INFEASIBLE or TIMED_OUT.  The search is depth-first domain splitting
with bounds propagation to a fixpoint at every node; binaries branch
high value first, in declaration order, so a search returns the
lexicographically greatest feasible point.  A caller may fix binaries
to 0 at the root of one search without adding rows to the model.

A binary doubleton equality, c*x + c*y = c or c*x - c*y = 0, puts x and
y in one class, y = 1 - x or y = x (doubleton equations, Achterberg,
Bixby, Gu, Rothberg & Weninger, 2020).  Each variable maps to a literal
2r + f: its class's representative r, and f = 1 when it is 1 - r.  The
search runs over representatives, branches on the first open model
variable to the value that sets it to 1, and checks each leaf as a full
assignment.  Every other row is folded over the classes before it is
indexed (the aggregation step of the same presolve): a flipped term
c*(1 - r) moves c to the rhs and adds -c to r, so the row holds one
summed coefficient per representative, and one whose sum is 0 drops
out.  A half left with no terms, 0 <= rhs, always holds if rhs >= 0
and is not indexed; if rhs < 0 it is indexed, a conflict at the root.
A doubleton inside one class stays a row, and folds to 0 = 0, to a
conflict or to 2r = 1.  A folded row's least activity is at least the
sum of its terms' least activities, so propagation is at least as
strong as over the full model: the tree can only shrink, and the
returned point, the lexicographically greatest feasible one, stays.

Every bound is a lower bound (the bound literals of lazy clause
generation, Ohrimenko, Stuckey & Codish, 2009): bound 2v is lo(v) and
bound 2v+1 is -hi(v), a lower bound on -v, so the domain is empty once
bound[k] + bound[k ^ 1] > 0.  Decisions, propagations and zero fixes
each raise one bound.  Raises are trailed once per bound per segment:
the changes made since the last decision or backtrack.  A per-bound
stamp records the segment of the bound's last trail entry, so a bound
raised many times still leaves one entry, holding the bound from
before the segment, which is what a backtrack restores (time stamps
after Aggoun & Beldiceanu, 1990).

Every row but a joined doubleton is kept as one or two `<=` halves,
sum(c*x) <= rhs: the row itself unless it is >=, and its negation
unless it is <=, so an = row is two (the normal form of MIP presolve).
Each half has a reach: the largest coefficient-times-declared-width of
its terms (widths at a leaf would not hold after a backtrack).  A half
whose slack is at least its reach can neither conflict nor tighten a
bound, so a half is queued when admitted only if its least activity is
past rhs - reach, and a bound change queues a half only when it takes
its least activity past that threshold.  A queued half stays past it:
activities only rise until a backtrack empties the queue.

A difference row (two general integers with coefficients +-1, at most
one binary: MTZ's order rows a_i - a_j + n*z <= n - 1) has no bound
terms.  Each half y_k1 + y_k2 + a*y_kb <= rhs is two arcs, k1 -> k2^1
and k2 -> k1^1, each bound[head] >= bound[tail] + a*bound[kb] - rhs
(Cotton & Maler, SAT 2006).  Once the queue runs dry, the arcs out of
each general integer bound raised since are relaxed, then each arc
whose binary rose is inserted, in row order (mirror arcs run the other
way: in reverse).  A relaxation that raises starts a wave: a bound
rises as it leaves the heap, largest rise first, so once per wave
unless an arc not yet inserted raises it again, and then relaxes its
arcs and their rows' binary rule.  A raise of a bound up the chain of
raises that reached it closes a positive cycle, which rows would climb
one unit per lap: a conflict at once.  A pop takes one half off the
queue or one bound off a heap; propagation checks the deadline every
1024 pops, so a budget holds even when a fixpoint is long.

Each search owns its classes and half index; the model keeps only its
rows, so no solve changes it.  One step admits the rows added since the
last, at the root and at each resume: it joins the binary doubletons
among them, in row order, the smaller class into the larger; folds and
indexes the others, in row order; and queues the new halves past their
threshold, in half order (at the root, before the zero fixes).  A half
holds its folded terms (a, k), one per representative r, with a = |c|
for the summed coefficient c and k the bound at which the term is least
(2r if c > 0, else 2r+1), its rhs, its least activity at the search's
bounds and its threshold.  Bound k lists (half, a) once for each half
with a term at k.

A solve may instead go on with the search of the last FEASIBLE outcome
(lazy constraints, Ohrimenko, Stuckey & Codish): new rows only cut
points off, so every point above that search's point L stays
infeasible, and the search keeps its state and returns what a fresh
solve of the grown model returns.  (1) New halves are admitted at L;
those past their threshold propagate at L.  (2) Least activity only
falls towards the root, so only those can be past it at an ancestor: a
re-wake list holds them, each frame records its length, and a backtrack
re-queues those listed since that are past it there (a difference
half keeps the least activity it was admitted with, so each backtrack
relaxes the arcs out of its tails).  (3) Only a search's last outcome
resumes, if FEASIBLE, on its model and zeros with no variable added and
no new doubleton joining two of its classes; else ValueError.  `nodes`
and `pops` count one call's work.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, zip_longest
from operator import index, le, mul
from typing import NamedTuple

LE, GE, EQ = "<=", ">=", "="


class LinearConstraint(NamedTuple):
    coefs: tuple[int, ...]
    vars: tuple[int, ...]
    sense: str
    rhs: int
    name: str


class Verdict(enum.Enum):
    """The answer of a search, and of a whole solver run."""

    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timeout"


@dataclass
class SolveOutcome:
    status: Verdict
    assignment: list[int] | None
    nodes: int
    pops: int  # halves off the queue, bounds off a wave's heap: see above
    # a FEASIBLE outcome's search, which `solve(..., previous=)` resumes
    search: object = field(default=None, repr=False, compare=False)


class IlpModel:
    """Variables with finite integer domains, and linear rows over them.

    `add_binaries`, `add_ints` and `add_rows` check a whole batch with
    C-level predicates, and else go entry by entry (rows through
    `add_constraint`) to raise the error of the first bad entry; a batch
    that fails adds nothing.  A variable's `lo`/`hi` are fixed once it is
    declared.  The model keeps only what it is given: each search builds
    its own bounds, doubleton classes and half index from it.
    """

    def __init__(self):
        self.names: list[str] = []
        self.var_of: dict[str, int] = {}  # name -> variable id
        self.binary: list[bool] = []
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.constraints: list[LinearConstraint] = []

    def add_ints(self, names, lo: int, hi: int) -> range:
        """Declare general integers, each with domain [lo, hi]."""
        return self._declare(list(names), lo, hi, False)

    def add_binaries(self, names) -> range:
        """Declare 0/1 variables; all precede every general, as in LP text."""
        return self._declare(list(names), 0, 1, True)

    def add_int(self, name: str, lo: int, hi: int) -> int:
        return self.add_ints([name], lo, hi)[0]

    def add_binary(self, name: str) -> int:
        return self.add_binaries([name])[0]

    def _declare(self, names, lo, hi, binary) -> range:
        if binary and names and self.binary and not self.binary[-1]:
            raise ValueError(
                f"binary {names[0]} declared after a general integer")
        if not ({str} == set(map(type, names))
                and (joined := " ".join(names)).split() == names
                and ":" not in joined and not any(map(str.isdigit, names))
                and {LE, GE, EQ, "+", "-"}.isdisjoint(names)
                and len(set(names)) == len(names)
                and self.var_of.keys().isdisjoint(names)
                and type(lo) is int and type(hi) is int and lo <= hi):
            for i, name in enumerate(names):  # the rules name by name
                if (name.split() != [name] or ":" in name or name.isdigit()
                        or name in (LE, GE, EQ, "+", "-")):
                    raise ValueError(
                        f"variable name {name!r} is not one LP token")
                if name in self.var_of or name in names[:i]:
                    raise ValueError(f"duplicate variable name {name!r}")
                try:  # int() would truncate 2.5 to 2
                    lo, hi = index(lo), index(hi)
                except TypeError:
                    raise ValueError(f"variable {name!r} has a non-integer"
                                     " bound") from None
                if lo > hi:
                    raise ValueError(f"empty domain for {name}")
        start = len(self.names)
        self.var_of.update(zip(names, range(start, start + len(names))))
        self.names += names
        self.lo += [lo] * len(names)
        self.hi += [hi] * len(names)
        self.binary += [binary] * len(names)
        return range(start, len(self.names))

    def add_rows(self, rows) -> None:
        """Add `LinearConstraint` rows, checked as a batch (see above)."""
        rows = list(rows)
        if {LinearConstraint} == set(map(type, rows)):
            coefs, vars_, senses, rhs, names = zip(*rows)
            if ({tuple} == set(map(type, coefs + vars_))
                    and list(map(len, coefs)) == list(map(len, vars_))
                    and {str} == set(map(type, names))
                    and " ".join(names).split() == list(names)
                    and all(map((LE, GE, EQ).__contains__, senses))):
                shared = {id(c): c for c in coefs}.values()  # each tuple once
                flat = list(chain(*vars_))
                if ({int} == set(map(type, chain(rhs, *shared, flat)))
                        and 0 not in chain(*shared)
                        and 0 <= min(flat, default=0)
                        and max(flat, default=-1) < len(self.names)):
                    self.constraints += rows
                    return
        trial = IlpModel()  # over the same variables, so a failure
        trial.names = self.names  # leaves this model as it was
        for coefs, vars_, sense, rhs, name in rows:
            if len(coefs) != len(vars_):
                raise ValueError(f"constraint {name} has unpaired terms")
            trial.add_constraint(zip(coefs, vars_), sense, rhs, name)
        self.constraints += trial.constraints

    def add_constraint(self, terms, sense: str, rhs: int, name: str) -> None:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        # export_lp writes the name as one `name:` token
        if name.split() != [name]:
            raise ValueError(f"constraint name {name!r} is not one LP token")
        terms = list(terms)  # read an iterator once, not once per field
        try:  # int() would truncate 1.5 to 1
            coefs = tuple([index(c) for c, _ in terms])
            vars_ = tuple([index(v) for _, v in terms])
            rhs = index(rhs)
        except TypeError:
            raise ValueError(
                f"constraint {name} has a non-integer number"
            ) from None
        for v in vars_:
            if not 0 <= v < len(self.names):
                raise ValueError(f"constraint {name} uses unknown var {v}")
        if 0 in coefs:
            raise ValueError(f"constraint {name} has a zero coefficient")
        self.constraints.append(
            LinearConstraint(coefs, vars_, sense, rhs, name))

    def add_le(self, terms, rhs, name):
        self.add_constraint(terms, LE, rhs, name)

    def add_ge(self, terms, rhs, name):
        self.add_constraint(terms, GE, rhs, name)

    def add_eq(self, terms, rhs, name):
        self.add_constraint(terms, EQ, rhs, name)

    def check(self, assignment) -> bool:
        """Exact check: one value per variable, in its declared domain,
        satisfying every constraint."""
        if len(assignment) != len(self.names) or not (
                all(map(le, self.lo, assignment))
                and all(map(le, assignment, self.hi))):
            return False
        value = assignment.__getitem__
        for coefs, vars_, sense, rhs, _ in self.constraints:
            acc = sum(map(mul, coefs, map(value, vars_)))
            if sense == LE and acc > rhs:
                return False
            if sense == GE and acc < rhs:
                return False
            if sense == EQ and acc != rhs:
                return False
        return True


class _Presolve:
    """One search's declared bounds, doubleton classes and half index
    over its model's rows (see the module docstring); `admit` grows the
    classes and the index."""

    def __init__(self, model):
        self.model = model
        self.rows = 0  # rows of model.constraints admitted
        nvars = len(model.names)
        # the declared domains as bounds: lo(v) at 2v, -hi(v) at 2v+1
        self.declared = declared = [0] * (2 * nvars)
        declared[::2] = model.lo
        declared[1::2] = [-hi for hi in model.hi]
        # per variable its literal 2r + f, per representative its members
        self.lit = list(range(0, 2 * nvars, 2))
        self.members = [[v] for v in range(nvars)]
        # per half its (terms, rhs), least activity, threshold, and arcs
        # if a difference half; per bound the halves it moves, and its
        # out-arcs or, for a binary, the halves whose arcs it weighs
        self.halves, self.minact, self.le_at, self.pairs = [], [], [], []
        self.bound_terms = [[] for _ in declared]
        self.arcs: dict[int, list] = {}

    def admit(self, bound, resume: bool) -> int:
        """Admit the rows added since the last call, with least
        activities at `bound`; return the first new half.  A resume
        refuses a doubleton that joins two classes."""
        new = self.model.constraints[self.rows:]
        self.rows += len(new)
        rows = []
        for row in new:  # step 1: join the binary doubletons
            if len(row.vars) != 2 or row.sense != EQ or not self._join(row):
                rows.append(row)
            elif resume:
                raise ValueError(f"a search resumes only with rows that "
                                 f"join no classes, not {row.name}")
        declared, binary, lit = self.declared, self.model.binary, self.lit
        halves, minact, le_at = self.halves, self.minact, self.le_at
        bound_terms, pairs, start = self.bound_terms, self.pairs, len(halves)
        for coefs, vars_, sense, rhs, _ in rows:  # step 2: fold, index
            if (len(vars_) <= 3  # two general integers and 0 or 1 binary
                    and len(vars_) - sum(map(binary.__getitem__, vars_)) == 2
                    and self._add_arcs(coefs, vars_, sense, rhs, bound)):
                continue
            folded = {}  # 2r -> the row's summed coefficient on r
            for c, v in zip(coefs, vars_):
                k = lit[v]
                if k & 1:  # c * (1 - r): c moves to the rhs, -c onto r
                    rhs -= c
                    c, k = -c, k ^ 1
                if k in folded:
                    folded[k] += c
                else:
                    folded[k] = c
            own, negated = sense != GE, sense != LE  # which halves it has
            h = len(halves)  # the own half; the negated one is h + own
            terms = []  # (a, k): one per representative, a * y_k
            least = neg_least = reach = 0
            for k, c in folded.items():
                if c < 0:
                    c, k = -c, k ^ 1
                elif not c:  # the representative cancels out
                    continue
                terms.append((c, k))
                width = c * -(declared[k] + declared[k ^ 1])
                if width > reach:
                    reach = width
                if own:
                    least += c * bound[k]
                    bound_terms[k].append((h, c))
                if negated:
                    neg_least += c * bound[k ^ 1]
                    bound_terms[k ^ 1].append((h + own, c))
            if own and (terms or rhs < 0):
                halves.append((terms, rhs))
                minact.append(least)
                le_at.append(rhs - reach)
                pairs.append(None)
            if negated and (terms or rhs > 0):
                halves.append(([(a, k ^ 1) for a, k in terms], -rhs))
                minact.append(neg_least)
                le_at.append(-rhs - reach)
                pairs.append(None)
        return start

    def _join(self, row) -> bool:
        """Whether `row`, an = row with two terms, joins two classes."""
        (c, d), (x, y) = row.coefs, row.vars
        binary, lit = self.model.binary, self.lit
        r, s = lit[x] >> 1, lit[y] >> 1
        if r == s or not (binary[x] and binary[y] and (
                c == d == row.rhs or c == -d and row.rhs == 0)):
            return False
        # y = 1 - x if c == d, else y = x: the flip between the classes
        f = (lit[x] ^ lit[y] ^ (c == d)) & 1
        members = self.members
        if len(members[r]) < len(members[s]):
            r, s = s, r
        for v in members[s]:
            lit[v] = 2 * r + ((lit[v] ^ f) & 1)
        members[r] += members[s]
        members[s] = []
        return True

    def _add_arcs(self, coefs, vars_, sense, rhs, bound) -> bool:
        """Index a difference row (see the module docstring), unless its
        general integers are one, or one's coefficient is not +-1."""
        declared, ks = self.declared, []
        a = kb = 0
        for c, v in zip(coefs, vars_):
            if self.model.binary[v]:
                kb = self.lit[v]
                rhs -= c if kb & 1 else 0
                a, kb = (c, kb) if c > 0 else (-c, kb ^ 1)
            elif c * c != 1:
                return False
            else:
                ks.append(2 * v + (c < 0))  # a general's literal is 2v
        k1, k2 = ks
        if k1 >> 1 == k2 >> 1:
            return False
        reach = max(-declared[k1] - declared[k1 ^ 1],
                    -declared[k2] - declared[k2 ^ 1],
                    a * -(declared[kb] + declared[kb ^ 1]))
        for f in (0, 1)[sense == GE:1 + (sense != LE)]:  # own, negated
            h, r = len(self.halves), -rhs if f else rhs
            u1, u2, b = k1 ^ f, k2 ^ f, kb ^ f
            # arcs (head, a, kb, rhs, tail); kb lists the half, and no
            # bound its terms: propagate never pops it
            pair = (u2 ^ 1, a, b, r, u1), (u1 ^ 1, a, b, r, u2)
            for arc in pair:
                self.arcs.setdefault(arc[4], []).append(arc)
            if a:
                self.arcs.setdefault(b, []).append(h)
            self.halves.append(((), r))
            self.minact.append(bound[u1] + bound[u2] + a * bound[b])
            self.le_at.append(r - reach)
            self.pairs.append(pair)
        return True


class _Deadline(Exception):
    """Raised inside propagation once the deadline has passed."""


def solve(model: IlpModel, budget_s: float, zeros=(),
          previous: SolveOutcome | None = None) -> SolveOutcome:
    """Search for a feasible point; `zeros` are binaries fixed to 0
    before the root propagation, bounds of this search and not rows.
    `previous`, the last outcome of a FEASIBLE search of `model` with
    the same `zeros`, resumes that search (see the module docstring)."""
    zeros = tuple(zeros)
    binary = model.binary
    for v in zeros:  # -1 would fix the last variable, a general cap hi at 0
        if not (type(v) is int and 0 <= v < len(binary) and binary[v]):
            raise ValueError(f"zeros holds {v!r}, not a binary of the model")
    if previous is not None:
        search, previous.search = previous.search, None
        if search is None:
            raise ValueError("only a search's last FEASIBLE outcome resumes")
    deadline = time.monotonic() + budget_s
    if not budget_s > 0:  # a NaN budget counts as spent too
        return SolveOutcome(Verdict.TIMED_OUT, None, 0, 0)
    if previous is None:
        search = _search(model, zeros, deadline)
    out = search.send(None if previous is None else (model, zeros, deadline))
    if out.status is Verdict.FEASIBLE:
        out.search = search
    return out


def _search(model, zeros, deadline):
    """The search of `solve`: yields one outcome per call, and after a
    FEASIBLE one is sent (model, zeros, deadline) to resume at its leaf."""
    nvars = len(model.names)
    index = _Presolve(model)
    bound = list(index.declared)
    lit, halves, bound_terms = index.lit, index.halves, index.bound_terms
    minact, le_at = index.minact, index.le_at
    arcs, pairs = index.arcs, index.pairs

    # (bound, value before) flat: ints give the cyclic garbage collector
    # nothing to scan while a search waits between cut rounds
    trail: list[int] = []
    stamp = [-1] * len(bound)  # segment of each bound's last trail entry
    segment = 0
    queued: list[bool] = []
    pending: deque[int] = deque()
    binary = model.binary
    push_back = pending.append
    rewake: list[int] = []  # admitted halves past their threshold
    touched: list[int] = []  # bounds with arcs raised since the last settle

    def wake(h):  # queue a half; for a difference half, touch its tails
        if pairs[h]:
            touched.extend([tail for *_, tail in pairs[h]])
        else:
            queued[h] = True
            push_back(h)

    # admit the rows added since the last call and queue the new halves
    # past their threshold; those listed at the root sit below every
    # frame's mark, so no backtrack re-wakes them
    def admit(resume):
        start = index.admit(bound, resume)
        queued.extend([False] * (len(halves) - start))
        for h in range(start, len(halves)):
            if minact[h] > le_at[h]:
                rewake.append(h)
                wake(h)

    admit(False)

    # a bound change queues a half once the least activity it raises
    # passes the half's threshold, i.e. once its slack falls below reach
    def raise_bound(k, val) -> bool:
        """Raise bound k to val; True means wipeout."""
        old = bound[k]
        if val <= old:
            return False
        if stamp[k] != segment:
            stamp[k] = segment
            trail.extend((k, old))
        bound[k] = val
        d = val - old
        for h, a in bound_terms[k]:
            act = minact[h] + a * d
            minact[h] = act
            if act > le_at[h] and not queued[h]:
                queued[h] = True
                push_back(h)
        if k in arcs:
            touched.append(k)
        return val + bound[k ^ 1] > 0

    def undo_to(mark):
        while len(trail) > mark:
            old = trail.pop()
            k = trail.pop()
            d = old - bound[k]
            bound[k] = old
            for h, a in bound_terms[k]:
                minact[h] += a * d
        while pending:
            queued[pending.pop()] = False
        del touched[:]

    pops = 0

    # per bound, the last wave that raised it and the bound whose arc did
    seen, up = [0] * len(bound), [-1] * len(bound)
    waves = 0

    def settle():
        """Relax the arcs out of each general integer bound raised since
        the last call, then insert those weighed by a binary raised since.
        True means conflict."""
        nonlocal pops, waves
        batch = [pairs[h] for k in touched if binary[k >> 1] for h in arcs[k]]
        roots = [arc for k in dict.fromkeys(touched) if not binary[k >> 1]
                 for arc in arcs[k]] + [first for first, _ in batch]
        roots += [second for _, second in reversed(batch)]
        del touched[:]
        heap = []  # (old - new, bound, new, the bound whose arc gave new)
        for arc in roots:
            v, a, kb, rhs, u = arc
            if (bound[u] + a * bound[kb] - rhs <= bound[v]
                    and not (a and bound[kb] + bound[kb ^ 1] < 0)):
                continue  # it raises nothing, and its binary is fixed
            waves += 1
            seen[u], up[u], out = waves, -1, (arc,)
            while True:  # the wave of arc
                bu = bound[u]
                for v, a, kb, rhs, _ in out:
                    new = bu + a * bound[kb] - rhs
                    if new > bound[v]:
                        if seen[v] == waves:
                            z = u  # v rose: is it up the chain to u?
                            while z >= 0:
                                if z == v:
                                    return True
                                z = up[z]
                        heappush(heap, (bound[v] - new, v, new, u))
                    # the binary's rule: lo(y_kb) + 1 leaves slack < a
                    if a and bound[kb] + bound[kb ^ 1] < 0:
                        slack = -bound[v ^ 1] - new
                        if slack < a and raise_bound(
                                kb ^ 1, -bound[kb] - slack // a):
                            return True
                while heap:
                    _, u, new, z = heappop(heap)
                    if new > bound[u]:
                        break
                else:
                    break
                pops += 1
                if not pops & 1023 and time.monotonic() > deadline:
                    raise _Deadline
                seen[u], up[u] = waves, z
                if raise_bound(u, new):
                    return True
                out = arcs.get(u, ())
                if out:
                    touched.pop()  # u's arcs are relaxed right here
        return False

    def propagate() -> bool:
        """Fixpoint bounds propagation; True means conflict.

        Raises _Deadline once the deadline has passed.
        """
        nonlocal pops
        while True:
            while pending:
                h = pending.popleft()
                queued[h] = False
                pops += 1
                if not pops & 1023 and time.monotonic() > deadline:
                    raise _Deadline
                terms, rhs = halves[h]
                slack = rhs - minact[h]
                if slack < 0:
                    return True
                # the term is a * y with y >= bound[k] (y = x, or -x if k is
                # odd) and may rise by slack, so -y >= -bound[k] - slack // a
                for a, k in terms:
                    new = -bound[k] - slack // a
                    if new > bound[k ^ 1]:
                        # no wipeout: new + bound[k] = -(slack // a) <= 0
                        raise_bound(k ^ 1, new)
            if not touched:
                return False
            if settle():
                return True

    def first_open(start):
        for v in range(start, nvars):
            k = lit[v]
            if bound[k] + bound[k ^ 1] < 0:
                return v
        return nvars

    def outcome(status, assignment=None):
        return SolveOutcome(status, assignment, nodes, pops)

    nodes = 1
    try:
        # v = 0 raises bound k ^ 1 of v's literal k = 2r + f to f: -r >= 0,
        # or r >= 1 if v = 1 - r
        zero_fix = any(raise_bound(lit[v] ^ 1, lit[v] & 1) for v in zeros)
        conflict = zero_fix or propagate()
        # frames: (bound, value it takes on backtrack, trail mark before
        # this decision, the decision's variable, len(rewake) then); once
        # a step decides model variable v, every variable below v is fixed
        frames: list[tuple[int, int, int, int, int]] = []
        v = 0
        # one step per node: a decision, or a backtrack after a conflict
        while True:
            if conflict:
                if not frames:
                    yield outcome(Verdict.INFEASIBLE)
                    return
                k, val, mark, v, woken = frames.pop()
                undo_to(mark)
                for h in rewake[woken:]:  # rule 2 of the module docstring
                    if minact[h] > le_at[h]:
                        wake(h)
            else:
                v = first_open(v)
                if v == nvars:
                    # lo(x) is bound[k] + f for x's literal k = 2r + f
                    assignment = [bound[k] + (k & 1) for k in lit]
                    if not model.check(assignment):
                        raise AssertionError("propagation accepted a bad leaf")
                    *sent, deadline = yield outcome(Verdict.FEASIBLE,
                                                    assignment)
                    if sent != [model, zeros] or len(model.names) != nvars:
                        raise ValueError("a search resumes only on its model "
                                         "and zeros, with rows added")
                    nodes, pops = 1, 0
                    admit(True)  # rule 1
                    conflict = propagate()
                    continue
                # split the domain of y = r (or -r = v - 1 if v is
                # flipped), bounded below by bound k, at its midpoint: the
                # upper half of y is the upper half of v
                k = lit[v]
                mid = (bound[k] - bound[k ^ 1]) // 2
                frames.append((k ^ 1, -mid, len(trail), v, len(rewake)))
                val = mid + 1
            segment += 1
            conflict = raise_bound(k, val) or propagate()
            nodes += 1
            if nodes % 256 == 0 and time.monotonic() > deadline:
                raise _Deadline
    except _Deadline:
        yield outcome(Verdict.TIMED_OUT)


# ------------------------------------------------------------- LP text

def _format_terms(coefs, vars_, names):
    if not vars_:
        return ["0"]
    parts = []
    for i, (c, v) in enumerate(zip(coefs, vars_)):
        mag = abs(c)
        body = names[v] if mag == 1 else f"{mag} {names[v]}"
        sign = "-" if c < 0 else "+" if i else ""
        parts.append(f"{sign} {body}" if sign else body)
    return parts


def export_lp(model: IlpModel) -> str:
    """Serialize in LP text format (feasibility problem, zero objective)."""
    out = ["Minimize", " obj: 0", "Subject To"]
    for con in model.constraints:
        parts = _format_terms(con.coefs, con.vars, model.names)
        line = f" {con.name}:"
        for i in range(0, len(parts), 8):
            chunk = " ".join(parts[i : i + 8])
            if i + 8 >= len(parts):
                out.append(f"{line} {chunk} {con.sense} {con.rhs}")
            else:
                out.append(f"{line} {chunk}")
                line = "  "
    generals = [v for v in range(len(model.names)) if not model.binary[v]]
    lo, hi = model.lo, model.hi
    if generals:
        out.append("Bounds")
        for v in generals:
            out.append(f" {lo[v]} <= {model.names[v]} <= {hi[v]}")
    binaries = [v for v in range(len(model.names)) if model.binary[v]]
    for header, section in (("Binaries", binaries), ("Generals", generals)):
        if section:
            out.append(header)
        for i in range(0, len(section), 10):
            chunk = section[i : i + 10]
            out.append(" " + " ".join(model.names[v] for v in chunk))
    out.append("End")
    return "\n".join(out) + "\n"


def parse_lp(text: str) -> IlpModel:
    """Read back the text export_lp writes, and nothing else.

    A plain reader takes the model from export_lp's layout; the text is
    accepted only if export_lp writes that model as the same text, so
    export_lp alone decides the dialect.  Else ValueError, naming the
    first line that differs.
    """
    try:
        model = _read_lp(text)
    except (LookupError, StopIteration) as exc:
        raise ValueError(
            f"not the LP text export_lp writes: {exc!r}") from None
    written = export_lp(model)
    if written != text:
        lines = zip_longest(text.split("\n"), written.split("\n"))
        for i, (line, wanted) in enumerate(lines, 1):
            if line != wanted:
                raise ValueError(
                    f"line {i} is {line!r}; export_lp writes {wanted!r}")
    return model


def _read_lp(text):
    # an unindented line opens a section; the reader trusts the rest
    sections: dict[str, list[str]] = {}
    lines: list[str] = []
    for line in text.split("\n"):
        if line.startswith(" "):
            lines.append(line)
        else:
            lines = sections[line] = []
    model = IlpModel()
    for line in sections.get("Binaries", ()):
        for name in line.split():
            model.add_binary(name)
    bounds = {}
    for line in sections.get("Bounds", ()):
        lo, _, name, _, hi = line.split()
        bounds[name] = int(lo), int(hi)
    for line in sections.get("Generals", ()):
        for name in line.split():
            model.add_int(name, *bounds[name])
    # each row is `name:` terms sense rhs, a term [+|-] [coefficient] var
    tokens = iter(" ".join(sections.get("Subject To", ())).split())
    for label in tokens:
        terms, sign, coef = [], 1, 1
        tok = next(tokens)
        while tok not in (LE, GE, EQ):
            if tok in ("+", "-"):
                sign = -1 if tok == "-" else 1
            elif tok.isdigit():  # a coefficient, or 0 for no terms
                coef = int(tok)
            else:
                terms.append((sign * coef, model.var_of[tok]))
                sign = coef = 1
            tok = next(tokens)
        model.add_constraint(terms, tok, int(next(tokens)), label[:-1])
    return model
