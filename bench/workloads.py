"""Workload table, corpus construction and the timed solve loop.

Nothing here imports hamdec at module level: the caller imports it
inside the timed set-up, so `setup_s` includes the import.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

import gate

BUDGET_S = 30.0
# one calibration round on the nominal host; see HostSpeed
NOMINAL_ROUND_S = 0.0015
CALIBRATE_EVERY_S = 0.02
CALIBRATE_AROUND = 60  # rounds before and after a long timed span
MAX_TIMES = 16  # call times kept per cell
GRID_CALLS = 3  # experiment calls per pass over the grid
SETTLED = gate.SETTLED
SMOKE_N = 12
SMOKE_COUNT = 3


@dataclass(frozen=True)
class CorpusSet:
    """`count` instances of one (kind, n, directedness) cell."""

    kind: str
    n: int
    directed: bool
    base_seed: int
    count: int
    algorithms: tuple[str, ...]

    def seeds(self, offset: int) -> range:
        first = self.base_seed + offset
        return range(first, first + self.count)

    def key(self, algorithm: str) -> str:
        side = "dir" if self.directed else "und"
        return f"{self.kind}:{self.n}:{side}:{algorithm}"

    def smoke(self) -> "CorpusSet":
        return replace(self, n=SMOKE_N, count=SMOKE_COUNT)


@dataclass(frozen=True)
class Workload:
    name: str
    sets: tuple[CorpusSet, ...]
    via_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rp-und-heur",
            (CorpusSet("random-permutation", 96, False, 5000, 150,
                       ("dfj-vnd-fix",)),),
        ),
        Workload(
            "pyr-und-search",
            (CorpusSet("pyramidal", 20, False, 100, 300, ("dfj",)),),
        ),
        Workload(
            "rp-dir-exact",
            (CorpusSet("random-permutation", 64, True, 7000, 60,
                       ("dfj", "dfj-ls", "mtz")),),
        ),
        Workload(
            "grid-cli",
            (
                CorpusSet("four-peak", 96, False, 9000, 60,
                          ("dfj-vnd-fix", "dfj-vnd")),
                CorpusSet("pyramidal", 96, True, 9100, 60,
                          ("dfj", "dfj-ls")),
            ),
            via_cli=True,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    return replace(workload, sets=tuple(s.smoke() for s in workload.sets))


@dataclass
class Call:
    """One solve call and what the gate needs from it."""

    set_index: int
    seed: int
    algorithm: str
    verdict: str
    witness: tuple[list[int], list[int]] | None = None
    seconds: float = 0.0


@dataclass
class Instance:
    set_index: int
    seed: int
    x: object
    y: object
    g: object


class Tally:
    """Every call of a run, folded into fixed state per cell.

    A cell is one (instance, algorithm) pair.  It keeps its first
    settled call, with that call's witness, and the times of its first
    MAX_TIMES calls.  Repeat calls are checked as they come in and then
    dropped, so memory does not grow with the number of repeats.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.cells: dict[tuple, Call] = {}
        self.times: dict[tuple, list[float]] = {}
        self.attempted = 0
        self.settled = 0
        self.busy_s = 0.0
        self.errors: list[str] = []
        self.speed = HostSpeed()

    def add(self, call: Call, inst: Instance) -> None:
        self.attempted += 1
        self.settled += call.verdict in SETTLED
        key = (call.set_index, call.seed, call.algorithm)
        times = self.times.setdefault(key, [])
        if len(times) < MAX_TIMES:
            times.append(call.seconds)
        cell = self.cells.get(key)
        if cell is None:
            self.cells[key] = call
            return
        if call.verdict not in SETTLED:
            return
        if cell.verdict not in SETTLED:
            cell.verdict, cell.witness = call.verdict, call.witness
            return
        cs = self.workload.sets[call.set_index]
        where = f"{cs.key(call.algorithm)} seed {call.seed}"
        if call.verdict != cell.verdict:
            self.errors.append(
                f"{where}: repeat says {call.verdict}, first {cell.verdict}"
            )
        elif call.verdict == "feasible":
            if call.witness is None:
                self.errors.append(f"{where}: feasible without a witness")
            else:
                self.errors.extend(
                    f"{where}: {why}"
                    for why in gate.witness_errors(
                        list(inst.x.order), list(inst.y.order),
                        *call.witness, cs.directed,
                    )
                )

    @property
    def failed(self) -> int:
        return self.attempted - self.settled


def import_hamdec(src: Path, cli: bool = False) -> None:
    """Import hamdec (and its CLI) from `src`, nowhere else."""
    sys.path.insert(0, str(src))
    hamdec = importlib.import_module("hamdec.cli" if cli else "hamdec")
    if not Path(hamdec.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"hamdec imported from {hamdec.__file__}")


def build_corpus(workload: Workload, offset: int) -> list[Instance]:
    from hamdec import instances

    corpus = []
    for si, cs in enumerate(workload.sets):
        kind = instances.InstanceKind(cs.kind)
        for seed in cs.seeds(offset):
            spec = instances.InstanceSpec(kind, cs.n, cs.directed, seed)
            x, y, g = instances.generate_instance(spec)
            corpus.append(Instance(si, seed, x, y, g))
    return corpus


def _solve(algorithm: str, inst: Instance):
    # looked up on the module at call time, so tracing wrappers apply
    from hamdec import heuristics, solvers

    if algorithm == "dfj":
        return solvers.solve_dfj(inst.g, inst.x, inst.y, BUDGET_S)
    if algorithm == "mtz":
        return solvers.solve_mtz(inst.g, inst.x, inst.y, BUDGET_S)
    return solvers.solve_dfj_heuristic(
        inst.g,
        inst.x,
        inst.y,
        heuristics.HeuristicParams(seed=inst.seed),
        BUDGET_S,
        variant=algorithm.removeprefix("dfj-"),
    )


def clocks() -> tuple[float, float]:
    """(wall, CPU) readings; CPU counts this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = time.process_time() + kids.ru_utime + kids.ru_stime
    return time.perf_counter(), cpu


def held_since(start: tuple[float, float]) -> tuple[float, float]:
    """(wall, held) seconds since `start`, a `clocks()` reading.

    Held time is min(wall, CPU): the time the host actually gave the
    process.  On a shared virtual machine the hypervisor takes the CPU
    away for stretches (steal time); wall time counts those, CPU time
    does not.  A single-threaded solve holds exactly its CPU time, and
    work spread over several cores falls back to wall time, so a
    parallel speed-up still shows.
    """
    wall, cpu = clocks()
    wall -= start[0]
    return wall, min(wall, cpu - start[1])


def _kernel() -> int:
    """One calibration round: fixed dict, list, set and call work.

    It uses no hamdec code, so its time measures the host alone.
    """
    acc = 0
    table: dict[int, int] = {}
    items = list(range(64))
    for r in range(48):
        for i in items:
            table[i] = table.get(i, 0) + (i * r) % 7
        ordered = sorted(items, key=lambda v: (v * 31 + r) % 97)
        acc += sum(ordered[:8]) + len(set(ordered[::3]) & set(items[::2]))
    return acc


class HostSpeed:
    """How fast the host runs right now, from calibration rounds.

    The host's speed drifts in phases of seconds to minutes, by up to
    1.8x, in CPU time as well as in wall time.  Calibration rounds run
    between the timed calls; `scale(t)` converts a held time `t` to
    seconds on a nominal host, on which one round holds
    NOMINAL_ROUND_S.  The factor is the median of the last `window`
    rounds.
    """

    def __init__(self, window: int = 9):
        self.rounds: deque[float] = deque(maxlen=window)
        self.last = 0.0
        self.factors: list[float] = []

    def sample(self, rounds: int = 1) -> None:
        for _ in range(rounds):
            started = clocks()
            _kernel()
            self.rounds.append(held_since(started)[1])
        self.last = time.perf_counter()

    def sample_every(self, seconds: float) -> None:
        if time.perf_counter() - self.last >= seconds:
            self.sample()

    def scale(self, held: float) -> float:
        factor = NOMINAL_ROUND_S / statistics.median(self.rounds)
        self.factors.append(factor)
        return held * factor


def _call(inst: Instance, algorithm: str) -> Call:
    call = Call(inst.set_index, inst.seed, algorithm, "error")
    started = clocks()
    try:
        res = _solve(algorithm, inst)
    except Exception:  # a crashed solve is a failed operation
        call.seconds = held_since(started)[1]
        traceback.print_exc()
        return call
    call.seconds = held_since(started)[1]
    call.verdict = res.verdict.value
    if res.witness is not None:
        z, w = res.witness
        call.witness = (list(z.order), list(w.order))
    return call


def solve_corpus(workload: Workload, corpus: list[Instance], seconds: float,
                 tally: Tally) -> float:
    """Solve every (instance, algorithm) once, then cycle until `seconds`.

    Every call goes into `tally` with its time scaled to the nominal
    host (`HostSpeed`).  Returns the sum of those scaled times.
    """
    tasks = [
        (inst, alg)
        for inst in corpus
        for alg in workload.sets[inst.set_index].algorithms
    ]
    speed = tally.speed
    speed.sample(speed.rounds.maxlen)
    started = time.perf_counter()
    busy = 0.0
    i = 0
    while i < len(tasks) or time.perf_counter() - started < seconds:
        inst, alg = tasks[i % len(tasks)]
        call = _call(inst, alg)
        speed.sample_every(CALIBRATE_EVERY_S)
        call.seconds = speed.scale(call.seconds)
        busy += call.seconds
        tally.add(call, inst)
        i += 1
    tally.busy_s += busy
    return busy


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of `values`.

    A mean of all order statistics, each weighted by the mass that
    Beta(q(n+1), (1-q)(n+1)) puts on its share of [0, 1].  Cell times
    cluster, by how many cutting rounds and passes an instance needs.
    A plain sample quantile that falls in a gap between two clusters
    jumps from one to the other when a single cell moves; this estimate
    moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 32  # integration points per order statistic
    logs = [
        (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
        for x in ((j + 0.5) / (n * steps) for j in range(n * steps))
    ]
    top = max(logs)
    weights = [
        sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps])
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def latency_metrics(tally: Tally) -> dict[str, float]:
    """End-to-end figures of one solve phase.

    Latency percentiles are taken over (instance, algorithm) cells, each
    represented by the median time of its calls.  Throughput counts
    every call.
    """
    lat = [statistics.median(t) * 1000.0 for t in tally.times.values()]
    return {
        "settled_frac": tally.settled / tally.attempted,
        "solve_p50_ms": hd_quantile(lat, 0.5),
        "solve_p90_ms": hd_quantile(lat, 0.9),
        "throughput_ips": tally.settled / tally.busy_s,
    }


# ----------------------------------------------------------- grid-cli

def grid_configs(workload: Workload, offset: int) -> list[list[dict]]:
    """The grid as GRID_CALLS `experiment` configs, split by seed range.

    Every config holds a slice of every set, so each call still runs
    the whole grid's mix.  The bench calibrates the host's speed
    around each call, and shorter calls track it more closely.
    """
    configs = []
    for k in range(GRID_CALLS):
        config = []
        for cs in workload.sets:
            size = -(-cs.count // GRID_CALLS)
            first, last = k * size, min(cs.count, (k + 1) * size)
            if first < last:
                config.append({
                    "kind": cs.kind,
                    "n": cs.n,
                    "count": last - first,
                    "directed": cs.directed,
                    "algorithms": list(cs.algorithms),
                    "per_set_time_limit_ms": BUDGET_S * 1000.0 * (last - first),
                    "seed": cs.base_seed + offset + first,
                })
        if config:
            configs.append(config)
    return configs


def run_experiment(config_path: Path, csv_path: Path) -> tuple[float, float]:
    """One `hamdec experiment` call; returns its (wall, held) seconds."""
    from hamdec import cli

    argv = ["experiment", str(config_path), "--out-csv", str(csv_path)]
    started = clocks()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    times = held_since(started)
    if code != 0:
        raise RuntimeError(f"hamdec experiment exited with {code}")
    return times


def read_experiment(workload: Workload, csv_path: Path,
                    share: float) -> list[Call]:
    """Calls as the CSV and its witness sidecars record them.

    The CSV's `time_ms` is wall time; it is scaled by `share`, the
    experiment call's held time over its wall time, to take out the
    time the host withheld.
    """
    sets = {
        (cs.kind, cs.n, cs.directed): si for si, cs in enumerate(workload.sets)
    }
    sidecars = csv_path.parent / (csv_path.stem + "_witnesses")
    calls = []
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            directed = row["directed"] == "true"
            si = sets[(row["generator"], int(row["n"]), directed)]
            call = Call(
                si,
                int(row["seed"]),
                row["algorithm"],
                row["verdict"],
                seconds=int(row["time_ms"]) / 1000.0 * share,
            )
            side = sidecars / f"{row['instance_id']}.{row['algorithm']}.json"
            if side.exists():
                doc = json.loads(side.read_text())
                call.witness = (list(doc["z"]), list(doc["w"]))
            calls.append(call)
    return calls
