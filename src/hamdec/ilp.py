"""Integer feasibility engine and LP-format text round trip.

All variables carry finite integer domains.  There is no objective:
the solver answers Feasible (with a verified assignment), Infeasible,
or TimedOut.  The search is depth-first domain splitting with bounds
propagation to a fixpoint at every node; binaries branch high value
first, in declaration order.

Bound changes are trailed once per variable per segment: the changes
made since the last decision or backtrack.  A per-variable stamp
records the segment of the variable's last trail entry, so an order
row raising a general integer one unit at a time still leaves one
entry, holding the bounds from before the segment, which is what a
backtrack restores (time stamps after Aggoun & Beldiceanu, 1990).

Each row has a reach: the largest coefficient-times-initial-width of its
terms.  A row whose slack (and, for >= and = rows, surplus) is at least
its reach can neither conflict nor tighten a bound, so a bound change
queues a row only when the activity it moves takes the slack or surplus
below the reach; the root queues every row.  Propagation checks the
deadline every 1024 rows it takes off the queue, so a budget holds even
when a single fixpoint is long.

The model keeps its row index as rows arrive: each variable's
(row, coefficient) terms, each row's activity bounds at the declared
domains and its two queueing thresholds.  A solve copies the activity
lists instead of rescanning every term, so the cutting loop's repeated
solves of a growing model pay O(rows) each for set-up.
"""

from __future__ import annotations

import enum
import math
import time
from collections import deque
from dataclasses import dataclass

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
    elapsed: float
    pops: int  # rows taken off the propagation queue


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
        # row index: per variable its (row, coefficient) terms; per row
        # its min/max activity at the declared domains, and the activity
        # past which it is queued (le_at for minact, ge_at for maxact)
        self._vadj: list[list[tuple[int, int]]] = []
        self._minact: list[int] = []
        self._maxact: list[int] = []
        self._le_at: list[float] = []
        self._ge_at: list[float] = []

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
        self._vadj.append([])
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
        coefs = tuple(int(c) for c, _ in terms)
        vars_ = tuple(int(v) for _, v in terms)
        for v in vars_:
            if not 0 <= v < len(self.names):
                raise ValueError(f"constraint {name} uses unknown var {v}")
        if 0 in coefs:
            raise ValueError(f"constraint {name} has a zero coefficient")
        rhs = int(rhs)
        ci = len(self.constraints)
        self.constraints.append(LinearConstraint(coefs, vars_, sense, rhs, name))
        lo, hi, vadj = self.lo, self.hi, self._vadj
        lo_sum = hi_sum = reach = 0
        for c, v in zip(coefs, vars_):
            vadj[v].append((ci, c))
            width = abs(c) * (hi[v] - lo[v])
            if width > reach:
                reach = width
            if c > 0:
                lo_sum += c * lo[v]
                hi_sum += c * hi[v]
            else:
                lo_sum += c * hi[v]
                hi_sum += c * lo[v]
        self._minact.append(lo_sum)
        self._maxact.append(hi_sum)
        self._le_at.append(math.inf if sense == GE else rhs - reach)
        self._ge_at.append(-math.inf if sense == LE else rhs + reach)

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


def solve(model: IlpModel, budget_s: float) -> SolveOutcome:
    started = time.monotonic()
    deadline = started + budget_s
    if budget_s <= 0:
        return SolveOutcome(Status.TIMED_OUT, None, 0, 0.0, 0)

    nvars = len(model.names)
    lo = list(model.lo)
    hi = list(model.hi)
    cons = model.constraints
    ncons = len(cons)
    vadj = model._vadj
    minact = list(model._minact)
    maxact = list(model._maxact)
    le_at = model._le_at
    ge_at = model._ge_at

    trail: list[tuple[int, int, int]] = []
    stamp = [-1] * nvars  # segment of each variable's last trail entry
    segment = 0
    pending: deque[int] = deque()
    push = pending.append
    queued = [False] * ncons

    # a bound change queues a row once the activity it moves passes the
    # row's threshold, i.e. once its slack or surplus falls below reach
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
        for ci, c in vadj[v]:
            if c > 0:
                act = minact[ci] + c * d
                minact[ci] = act
                if act > le_at[ci] and not queued[ci]:
                    queued[ci] = True
                    push(ci)
            else:
                act = maxact[ci] + c * d
                maxact[ci] = act
                if act < ge_at[ci] and not queued[ci]:
                    queued[ci] = True
                    push(ci)
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
        for ci, c in vadj[v]:
            if c > 0:
                act = maxact[ci] + c * d
                maxact[ci] = act
                if act < ge_at[ci] and not queued[ci]:
                    queued[ci] = True
                    push(ci)
            else:
                act = minact[ci] + c * d
                minact[ci] = act
                if act > le_at[ci] and not queued[ci]:
                    queued[ci] = True
                    push(ci)
        return val < lo[v]

    def undo_to(mark):
        while len(trail) > mark:
            v, olo, ohi = trail.pop()
            dlo = olo - lo[v]
            dhi = ohi - hi[v]
            lo[v] = olo
            hi[v] = ohi
            for ci, c in vadj[v]:
                if c > 0:
                    minact[ci] += c * dlo
                    maxact[ci] += c * dhi
                else:
                    minact[ci] += c * dhi
                    maxact[ci] += c * dlo
        while pending:
            queued[pending.pop()] = False

    pops = 0

    def propagate() -> bool:
        """Fixpoint bounds propagation; True means conflict.

        Raises _Deadline once the deadline has passed.
        """
        nonlocal pops
        while pending:
            ci = pending.popleft()
            queued[ci] = False
            pops += 1
            if not pops & 1023 and time.monotonic() > deadline:
                raise _Deadline
            con = cons[ci]
            # the thresholds are infinite on the side a row's sense lacks
            if minact[ci] > le_at[ci]:
                slack = con.rhs - minact[ci]
                if slack < 0:
                    return True
                for c, v in zip(con.coefs, con.vars):
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
            if maxact[ci] < ge_at[ci]:
                surplus = maxact[ci] - con.rhs
                if surplus < 0:
                    return True
                for c, v in zip(con.coefs, con.vars):
                    if lo[v] == hi[v]:
                        continue
                    if c > 0:
                        floor_ = hi[v] - surplus // c
                        if floor_ > lo[v] and set_lo(v, floor_):
                            return True
                    else:
                        cap = lo[v] + surplus // (-c)
                        if cap < hi[v] and set_hi(v, cap):
                            return True
        return False

    def first_open(start):
        for v in range(start, nvars):
            if lo[v] < hi[v]:
                return v
        return None

    def outcome(status, assignment=None):
        return SolveOutcome(
            status, assignment, nodes, time.monotonic() - started, pops
        )

    for ci in range(ncons):
        queued[ci] = True
        push(ci)
    nodes = 1
    try:
        if propagate():
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
