"""Correctness gate: witnesses, reference verdicts, cross-algorithm agreement.

The witness check is written from the problem statement alone and uses
no hamdec code, so a solver bug cannot vouch for itself.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

SETTLED = ("feasible", "infeasible")
VERDICT_CODES = {"f": "feasible", "i": "infeasible"}
REFERENCE = Path(__file__).with_name("reference_verdicts.json")


def _edges(order, directed: bool) -> Counter:
    n = len(order)
    pairs = ((order[i], order[(i + 1) % n]) for i in range(n))
    if directed:
        return Counter(pairs)
    return Counter((min(p), max(p)) for p in pairs)


def _signature(order, directed: bool) -> tuple:
    return tuple(sorted(_edges(order, directed).elements()))


def witness_errors(x, y, z, w, directed: bool) -> list[str]:
    """Why (z, w) is not a second decomposition of x ∪ y; [] if it is."""
    n = len(x)
    for name, cyc in (("z", z), ("w", w)):
        if sorted(cyc) != list(range(1, n + 1)):
            return [f"{name} is not a Hamiltonian cycle on 1..{n}"]
    union = _edges(x, directed) + _edges(y, directed)
    if _edges(z, directed) + _edges(w, directed) != union:
        return ["z and w do not split the union multigraph"]
    got = sorted((_signature(z, directed), _signature(w, directed)))
    given = sorted((_signature(x, directed), _signature(y, directed)))
    if got == given:
        return ["{z, w} equals {x, y}"]
    return []


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check(workload, calls, instances, reference: dict) -> list[str]:
    """Every gate failure among `calls`; timeouts and errors are not ones.

    `instances` maps (set index, seed) to the generated instance.
    """
    errors = []
    settled: dict[tuple, dict[str, str]] = {}
    for c in calls:
        cs = workload.sets[c.set_index]
        where = f"{cs.key(c.algorithm)} seed {c.seed}"
        if c.verdict == "feasible":
            inst = instances[(c.set_index, c.seed)]
            if c.witness is None:
                errors.append(f"{where}: feasible without a witness")
            else:
                for why in witness_errors(
                    list(inst.x.order), list(inst.y.order), *c.witness,
                    cs.directed,
                ):
                    errors.append(f"{where}: {why}")
        if c.verdict not in SETTLED:
            continue
        entry = reference.get(cs.key(c.algorithm))
        if entry is not None:
            i = c.seed - entry["base_seed"]
            if 0 <= i < len(entry["verdicts"]):
                want = VERDICT_CODES[entry["verdicts"][i]]
                if c.verdict != want:
                    errors.append(
                        f"{where}: verdict {c.verdict}, reference {want}"
                    )
        seen = settled.setdefault((c.set_index, c.seed), {})
        if seen and c.verdict not in seen.values():
            errors.append(
                f"{where}: {c.algorithm} says {c.verdict},"
                f" others say {sorted(set(seen.values()))}"
            )
        seen[c.algorithm] = c.verdict
    return errors


def reference_entries(workload, calls) -> dict:
    """Reference table entries for one pass at the default seeds."""
    by_key: dict[str, dict[int, str]] = {}
    for c in calls:
        if c.verdict not in SETTLED:
            raise ValueError(f"cannot record a {c.verdict} verdict")
        cs = workload.sets[c.set_index]
        by_key.setdefault(cs.key(c.algorithm), {})[c.seed] = c.verdict[0]
    out = {}
    for key, verdicts in by_key.items():
        seeds = sorted(verdicts)
        if seeds != list(range(seeds[0], seeds[0] + len(seeds))):
            raise ValueError(f"{key}: seeds are not contiguous")
        out[key] = {
            "base_seed": seeds[0],
            "verdicts": "".join(verdicts[s] for s in seeds),
        }
    return out
