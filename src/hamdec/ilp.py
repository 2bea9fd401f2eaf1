"""Integer feasibility engine and LP-format text round trip.

All variables carry finite integer domains.  There is no objective:
the solver answers Feasible (with a verified assignment), Infeasible,
or TimedOut.  The search is depth-first domain splitting with bounds
propagation to a fixpoint at every node; binaries branch high value
first, in declaration order, so a search returns the lexicographically
greatest feasible point.  A caller may fix binaries to 0 at the root of
one search without adding rows to the model.

Bound changes are trailed once per variable per segment: the changes
made since the last decision or backtrack.  A per-variable stamp
records the segment of the variable's last trail entry, so an order
row raising a general integer one unit at a time still leaves one
entry, holding the bounds from before the segment, which is what a
backtrack restores (time stamps after Aggoun & Beldiceanu, 1990).

Every row is kept as one or two `<=` halves, sum(c*x) <= rhs: the row
itself unless it is >=, and its negation unless it is <=, so an = row
is two (the normal form of MIP presolve, Achterberg et al., 2020).
Each half has a reach: the largest coefficient-times-initial-width of
its terms.  A half whose slack is at least its reach can neither
conflict nor tighten a bound, so the root queues only the halves whose
least activity is past rhs - reach, and a bound change queues a half
only when it takes the half's least activity past that threshold.  A
queued half stays past it: activities only rise until a backtrack
empties the queue.  Propagation checks the deadline every 1024 halves
it takes off the queue, so a budget holds even when a single fixpoint
is long.

The model keeps its half index as rows arrive: each half's terms, rhs,
least activity at the declared domains and threshold, and per variable
the half terms that its lo rising (c > 0) or its hi falling (c < 0)
moves.  A solve copies the activity list instead of rescanning every
term, so the cutting loop's repeated solves of a growing model pay
O(halves) each for set-up.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass
from operator import neg

LE, GE, EQ = "<=", ">=", "="


@dataclass(frozen=True)
class LinearConstraint:
    coefs: tuple[int, ...]
    vars: tuple[int, ...]
    sense: str
    rhs: int
    name: str


class Status(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed-out"


@dataclass
class SolveOutcome:
    status: Status
    assignment: list[int] | None
    nodes: int
    pops: int  # halves taken off the propagation queue; = rows have two


class IlpModel:
    """Variables with finite integer domains, and linear rows over them.

    A variable's `lo`/`hi` are fixed once it is declared: the row index
    below holds activities at the declared domains.
    """

    def __init__(self):
        self.names: list[str] = []
        self.var_of: dict[str, int] = {}  # name -> variable id
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.binary: list[bool] = []
        self.constraints: list[LinearConstraint] = []
        # half index (see the module docstring): per half its
        # (coefs, vars, rhs), least activity and queueing threshold; per
        # variable its (half, c) terms with c > 0 and with c < 0
        self._halves: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        self._minact: list[int] = []
        self._le_at: list[int] = []
        self._lo_terms: list[list[tuple[int, int]]] = []
        self._hi_terms: list[list[tuple[int, int]]] = []

    def add_int(self, name: str, lo: int, hi: int) -> int:
        # the name must read back from export_lp text as one new token
        bad = name.split() != [name] or ":" in name or name.isdigit()
        if bad or name in (LE, GE, EQ, "+", "-"):
            raise ValueError(f"variable name {name!r} is not one LP token")
        if name in self.var_of:
            raise ValueError(f"duplicate variable name {name!r}")
        if lo > hi:
            raise ValueError(f"empty domain for {name}")
        self.var_of[name] = len(self.names)
        self.names.append(name)
        self.lo.append(int(lo))
        self.hi.append(int(hi))
        self.binary.append(False)
        self._lo_terms.append([])
        self._hi_terms.append([])
        return len(self.names) - 1

    def add_binary(self, name: str) -> int:
        """Declare a 0/1 variable; every binary precedes every general.

        export_lp writes all binaries before all generals, so only this
        order reads back from parse_lp with the same variable indices.
        """
        if self.binary and not self.binary[-1]:
            raise ValueError(f"binary {name} declared after a general integer")
        v = self.add_int(name, 0, 1)
        self.binary[v] = True
        return v

    def add_constraint(self, terms, sense: str, rhs: int, name: str) -> None:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        coefs = tuple([int(c) for c, _ in terms])
        vars_ = tuple([int(v) for _, v in terms])
        for v in vars_:
            if not 0 <= v < len(self.names):
                raise ValueError(f"constraint {name} uses unknown var {v}")
        if 0 in coefs:
            raise ValueError(f"constraint {name} has a zero coefficient")
        rhs = int(rhs)
        self.constraints.append(LinearConstraint(coefs, vars_, sense, rhs, name))
        own, negated = sense != GE, sense != LE  # which halves the row has
        h = len(self._halves)  # the own half; the negated one is h + own
        lo, hi = self.lo, self.hi
        lo_terms, hi_terms = self._lo_terms, self._hi_terms
        least = most = reach = 0
        for c, v in zip(coefs, vars_):
            width = abs(c) * (hi[v] - lo[v])
            if width > reach:
                reach = width
            if c > 0:
                least += c * lo[v]
                most += c * hi[v]
                own_terms, neg_terms = lo_terms[v], hi_terms[v]
            else:
                least += c * hi[v]
                most += c * lo[v]
                own_terms, neg_terms = hi_terms[v], lo_terms[v]
            if own:
                own_terms.append((h, c))
            if negated:
                neg_terms.append((h + own, -c))
        if own:
            self._add_half(coefs, vars_, rhs, least, reach)
        if negated:
            self._add_half(tuple(map(neg, coefs)), vars_, -rhs, -most, reach)

    def _add_half(self, coefs, vars_, rhs, least, reach):
        self._halves.append((coefs, vars_, rhs))
        self._minact.append(least)
        self._le_at.append(rhs - reach)

    def add_le(self, terms, rhs, name):
        self.add_constraint(terms, LE, rhs, name)

    def add_ge(self, terms, rhs, name):
        self.add_constraint(terms, GE, rhs, name)

    def add_eq(self, terms, rhs, name):
        self.add_constraint(terms, EQ, rhs, name)

    def check(self, assignment) -> bool:
        """Exact satisfaction check of every constraint."""
        for con in self.constraints:
            acc = sum(
                c * assignment[v] for c, v in zip(con.coefs, con.vars)
            )
            if con.sense == LE and acc > con.rhs:
                return False
            if con.sense == GE and acc < con.rhs:
                return False
            if con.sense == EQ and acc != con.rhs:
                return False
        return True


class _Deadline(Exception):
    """Raised inside propagation once the deadline has passed."""


def solve(model: IlpModel, budget_s: float, zeros=()) -> SolveOutcome:
    """Search for a feasible point; `zeros` are binaries fixed to 0
    before the root propagation, bounds of this search and not rows."""
    deadline = time.monotonic() + budget_s
    if budget_s <= 0:
        return SolveOutcome(Status.TIMED_OUT, None, 0, 0)

    nvars = len(model.names)
    lo = list(model.lo)
    hi = list(model.hi)
    halves = model._halves
    nhalves = len(halves)
    lo_terms = model._lo_terms
    hi_terms = model._hi_terms
    minact = list(model._minact)
    le_at = model._le_at

    trail: list[tuple[int, int, int]] = []
    stamp = [-1] * nvars  # segment of each variable's last trail entry
    segment = 0
    # the root queues only the halves already past their threshold
    queued = [minact[h] > le_at[h] for h in range(nhalves)]
    pending = deque([h for h in range(nhalves) if queued[h]])
    push = pending.append

    # a bound change queues a half once the least activity it raises
    # passes the half's threshold, i.e. once its slack falls below reach
    def set_lo(v, val) -> bool:
        """Raise the lower bound; True means wipeout."""
        old = lo[v]
        if val <= old:
            return False
        if stamp[v] != segment:
            stamp[v] = segment
            trail.append((v, old, hi[v]))
        lo[v] = val
        d = val - old
        for h, c in lo_terms[v]:
            act = minact[h] + c * d
            minact[h] = act
            if act > le_at[h] and not queued[h]:
                queued[h] = True
                push(h)
        return val > hi[v]

    def set_hi(v, val) -> bool:
        old = hi[v]
        if val >= old:
            return False
        if stamp[v] != segment:
            stamp[v] = segment
            trail.append((v, lo[v], old))
        hi[v] = val
        d = val - old
        for h, c in hi_terms[v]:
            act = minact[h] + c * d
            minact[h] = act
            if act > le_at[h] and not queued[h]:
                queued[h] = True
                push(h)
        return val < lo[v]

    def undo_to(mark):
        while len(trail) > mark:
            v, olo, ohi = trail.pop()
            dlo = olo - lo[v]
            dhi = ohi - hi[v]
            lo[v] = olo
            hi[v] = ohi
            if dlo:
                for h, c in lo_terms[v]:
                    minact[h] += c * dlo
            if dhi:
                for h, c in hi_terms[v]:
                    minact[h] += c * dhi
        while pending:
            queued[pending.pop()] = False

    pops = 0

    def propagate() -> bool:
        """Fixpoint bounds propagation; True means conflict.

        Raises _Deadline once the deadline has passed.
        """
        nonlocal pops
        while pending:
            h = pending.popleft()
            queued[h] = False
            pops += 1
            if not pops & 1023 and time.monotonic() > deadline:
                raise _Deadline
            coefs, vars_, rhs = halves[h]
            slack = rhs - minact[h]
            if slack < 0:
                return True
            for c, v in zip(coefs, vars_):
                if lo[v] == hi[v]:
                    continue
                if c > 0:
                    cap = lo[v] + slack // c
                    if cap < hi[v] and set_hi(v, cap):
                        return True
                else:
                    floor_ = hi[v] - slack // (-c)
                    if floor_ > lo[v] and set_lo(v, floor_):
                        return True
        return False

    def first_open(start):
        for v in range(start, nvars):
            if lo[v] < hi[v]:
                return v
        return None

    def outcome(status, assignment=None):
        return SolveOutcome(status, assignment, nodes, pops)

    nodes = 1
    try:
        if any(set_hi(v, 0) for v in zeros) or propagate():
            return outcome(Status.INFEASIBLE)
        start = 0
        # frames: (var, alt_hi, trail mark before this decision, parent start)
        frames: list[tuple[int, int, int, int]] = []
        while True:
            v = first_open(start)
            if v is None:
                assignment = lo[:]
                if not model.check(assignment):
                    raise AssertionError("propagation accepted a bad leaf")
                return outcome(Status.FEASIBLE, assignment)
            mid = (lo[v] + hi[v]) // 2
            frames.append((v, mid, len(trail), start))
            segment += 1
            conflict = set_lo(v, mid + 1) or propagate()
            start = v
            nodes += 1
            if nodes % 256 == 0 and time.monotonic() > deadline:
                raise _Deadline
            while conflict:
                if not frames:
                    return outcome(Status.INFEASIBLE)
                v, alt_hi, mark, pstart = frames.pop()
                undo_to(mark)
                segment += 1
                conflict = set_hi(v, alt_hi) or propagate()
                start = pstart
                nodes += 1
                if nodes % 256 == 0 and time.monotonic() > deadline:
                    raise _Deadline
    except _Deadline:
        return outcome(Status.TIMED_OUT)


# ------------------------------------------------------------- LP text

def _format_terms(coefs, vars_, names):
    if not vars_:
        return ["0"]
    parts = []
    for i, (c, v) in enumerate(zip(coefs, vars_)):
        mag = abs(c)
        body = names[v] if mag == 1 else f"{mag} {names[v]}"
        if i == 0:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
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
    if generals:
        out.append("Bounds")
        for v in generals:
            out.append(f" {model.lo[v]} <= {model.names[v]} <= {model.hi[v]}")
    binaries = [v for v in range(len(model.names)) if model.binary[v]]
    if binaries:
        out.append("Binaries")
        for i in range(0, len(binaries), 10):
            chunk = binaries[i : i + 10]
            out.append(" " + " ".join(model.names[v] for v in chunk))
    if generals:
        out.append("Generals")
        for i in range(0, len(generals), 10):
            chunk = generals[i : i + 10]
            out.append(" " + " ".join(model.names[v] for v in chunk))
    out.append("End")
    return "\n".join(out) + "\n"


_HEADERS = ("Minimize", "Subject To", "Bounds", "Binaries", "Generals")


def parse_lp(text: str) -> IlpModel:
    """Re-read LP text produced by export_lp into a structurally equal model.

    Only the dialect export_lp writes is accepted: its exact section
    headers, `name:` labels, terms `[+|-] [coefficient] var` with a
    nonzero coefficient, the relations `<=`, `>=` and `=`, and `0` for an
    empty left-hand side.
    """
    sections: dict[str, list[str]] = {header: [] for header in _HEADERS}
    current = None
    for raw in text.splitlines():
        if raw == "End":
            break
        if raw in sections:
            current = raw
            continue
        if current is None:
            raise ValueError(f"content before any section: {raw!r}")
        sections[current].append(raw)
    for line in sections["Minimize"]:
        if line.split() != ["obj:", "0"]:
            raise ValueError(f"unsupported objective line: {line!r}")

    model = IlpModel()
    for line in sections["Binaries"]:
        for name in line.split():
            model.add_binary(name)
    bounds = {}
    for line in sections["Bounds"]:
        toks = line.split()
        if len(toks) != 5 or toks[1] != "<=" or toks[3] != "<=":
            raise ValueError(f"unsupported bounds line: {line!r}")
        if toks[2] in bounds:
            raise ValueError(f"second bounds line for {toks[2]!r}")
        bounds[toks[2]] = (int(toks[0]), int(toks[4]))
    for line in sections["Generals"]:
        for name in line.split():
            if name not in bounds:
                raise ValueError(f"integer var without bounds: {name!r}")
            model.add_int(name, *bounds.pop(name))
    if bounds:
        raise ValueError(f"bounds for vars not in Generals: {sorted(bounds)}")

    tokens: list[str] = []
    for line in sections["Subject To"]:
        tokens.extend(line.split())
    i = 0
    while i < len(tokens):
        name = tokens[i]
        if not name.endswith(":"):
            raise ValueError(f"expected constraint name, got {name!r}")
        name = name[:-1]
        i += 1
        terms = []
        sign = coef = sense = None
        while i < len(tokens) and sense is None:
            tok = tokens[i]
            i += 1
            if tok in (LE, GE, EQ):
                sense = tok
            elif tok in ("+", "-") and sign is None and coef is None:
                sign = 1 if tok == "+" else -1
            elif tok.isdigit() and coef is None:
                coef = int(tok)
            elif tok in model.var_of and (sign is not None or not terms):
                mag = 1 if coef is None else coef
                terms.append(((sign or 1) * mag, model.var_of[tok]))
                sign = coef = None
            else:
                raise ValueError(
                    f"constraint {name!r}: undeclared var or bad token {tok!r}"
                )
        if sense is None:
            raise ValueError(f"constraint {name!r} has no relation")
        # a lone 0 is the empty left-hand side
        if sign is not None or (coef is not None and (coef or terms)):
            raise ValueError(f"dangling constant in constraint {name!r}")
        if i >= len(tokens):
            raise ValueError(f"constraint {name!r} has no right-hand side")
        rhs = int(tokens[i])
        i += 1
        model.add_constraint(terms, sense, rhs, name)
    return model
