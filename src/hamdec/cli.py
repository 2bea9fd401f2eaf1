"""Command-line surface: generate, solve, experiment, oracle.

Instances travel as small JSON files, results as CSV rows, witnesses as
JSON sidecars next to the CSV.  Exit codes: 0 the command ran (whatever
the verdict), 1 usage or bad input data, 2 file-system trouble.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from .heuristics import HeuristicParams
from .ilp import export_lp
from .instances import InstanceKind, InstanceSpec, generate_instance
from .multigraph import HamCycle, build_union
from .oracle import MAX_ORACLE_N, enumerate_decompositions, has_second_decomposition
from .solvers import ALGORITHMS, Verdict, check_directedness
from .solvers import solve_dfj, solve_dfj_heuristic, solve_mtz

CSV_COLUMNS = [
    "instance_id",
    "generator",
    "n",
    "directed",
    "algorithm",
    "seed",
    "verdict",
    "iterations",
    "cuts_added",
    "time_ms",
    "multi_edges",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract of this tool (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ------------------------------------------------------------- file I/O

def write_instance(path, x: HamCycle, y: HamCycle) -> None:
    doc = {
        "n": x.n,
        "directed": x.directed,
        "x": list(x.order),
        "y": list(y.order),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _time_limit_ms(value) -> float:
    """A time limit in ms: a finite number > 0, not a bool or a string.

    An integer too large for a float raises OverflowError.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 < value < math.inf):
        raise ValueError(
            f"time limit must be a finite number of ms > 0, not {value!r}"
        )
    return float(value)


def read_instance(path):
    """Load and validate an instance file; returns (x, y, union)."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise UsageError("instance file must hold a JSON object")
    for key in ("n", "directed", "x", "y"):
        if key not in doc:
            raise UsageError(f"instance file missing key {key!r}")
    directed = doc["directed"]
    if not isinstance(directed, bool):
        raise UsageError("instance field 'directed' must be true or false")
    if not _is_int(doc["n"]):
        raise UsageError("instance field 'n' must be an integer")
    for key in ("x", "y"):
        if not isinstance(doc[key], list) or not all(map(_is_int, doc[key])):
            raise UsageError(f"instance field {key!r} must be a vertex list")
    x = HamCycle.from_order(doc["x"], directed)
    y = HamCycle.from_order(doc["y"], directed)
    if x.n != doc["n"] or y.n != doc["n"]:
        raise UsageError("cycle lengths disagree with declared n")
    return x, y, build_union(x, y)


def instance_basename(kind: str, n: int, directed: bool, index: int) -> str:
    return f"{kind}_n{n}_{'dir' if directed else 'und'}_{index:04d}"


def _generator_for(path: Path, override: str | None) -> str:
    if override:
        return override
    manifest = path.parent / "manifest.json"
    doc = None
    if manifest.exists():
        try:
            doc = json.loads(manifest.read_text())
        except (OSError, json.JSONDecodeError):
            pass
    # a manifest of any other shape is ignored, like an unreadable one
    if isinstance(doc, dict) and isinstance(doc.get("files"), list):
        for entry in doc["files"]:
            if isinstance(entry, dict) and entry.get("file") == path.name:
                return doc.get("kind", "unknown")
    stem_kind = path.stem.split("_")[0]
    if stem_kind in {k.value for k in InstanceKind}:
        return stem_kind
    return "unknown"


def append_csv_rows(csv_path, rows, fresh=False) -> None:
    path = Path(csv_path)
    mode = "w" if fresh or not path.exists() or path.stat().st_size == 0 else "a"
    with open(path, mode, newline="") as fh:
        if mode == "w":
            fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in CSV_COLUMNS) + "\n")


def witness_dir(csv_path) -> Path:
    p = Path(csv_path)
    return p.parent / (p.stem + "_witnesses")


def write_witness(csv_path, instance_id, algorithm, witness) -> Path:
    z, w = witness
    d = witness_dir(csv_path)
    d.mkdir(parents=True, exist_ok=True)
    out = d / f"{instance_id}.{algorithm}.json"
    out.write_text(
        json.dumps({"z": list(z.order), "w": list(w.order)}) + "\n"
    )
    return out


def load_witness(path, x: HamCycle, y: HamCycle):
    """Read a sidecar back and prove it answers the instance."""
    doc = json.loads(Path(path).read_text())
    z = HamCycle.from_order(doc["z"], x.directed)
    w = HamCycle.from_order(doc["w"], x.directed)
    union = sorted(x.edge_multiset() + y.edge_multiset())
    if sorted(z.edge_multiset() + w.edge_multiset()) != union:
        raise ValueError("witness does not cover the union multigraph")
    if {z.edge_multiset(), w.edge_multiset()} == {
        x.edge_multiset(),
        y.edge_multiset(),
    }:
        raise ValueError("witness equals the original decomposition")
    return z, w


# ------------------------------------------------------------- solving

def _run_algorithm(algorithm, g, x, y, params, budget_s):
    variant = ALGORITHMS[algorithm][0]
    if variant is not None:
        # raises ValueError when the instance has the wrong directedness
        return solve_dfj_heuristic(g, x, y, params, budget_s, variant=variant)
    if algorithm == "mtz":
        return solve_mtz(g, x, y, budget_s)
    return solve_dfj(g, x, y, budget_s)


def _time_field(res, time_mode) -> int:
    if time_mode == "deterministic":
        # work units are reproducible only for runs that finished
        return res.work if res.verdict is not Verdict.TIMED_OUT else -1
    return int(round(res.elapsed * 1000))


def _result_row(instance_id, generator, g, algorithm, seed, res, time_mode):
    return {
        "instance_id": instance_id,
        "generator": generator,
        "n": g.n,
        "directed": "true" if g.directed else "false",
        "algorithm": algorithm,
        "seed": seed,
        "verdict": res.verdict.value,
        "iterations": res.iterations,
        "cuts_added": res.cuts_added,
        "time_ms": _time_field(res, time_mode),
        "multi_edges": g.multi_edge_count(),
    }


# ------------------------------------------------------------ commands

def cmd_generate(args) -> int:
    if args.count < 0:
        raise UsageError("--count must be at least 0")
    try:
        kind = InstanceKind(args.kind)
        spec0 = InstanceSpec(kind, args.n, args.directed, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(args.count):
        seed = args.seed + i
        spec = InstanceSpec(kind, args.n, args.directed, seed)
        x, y, _ = generate_instance(spec)
        name = instance_basename(kind.value, args.n, args.directed, i)
        write_instance(out_dir / f"{name}.json", x, y)
        entries.append({"file": f"{name}.json", "seed": seed})
    manifest = {
        "kind": kind.value,
        "n": args.n,
        "count": args.count,
        "directed": args.directed,
        "base_seed": args.seed,
        "files": entries,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n"
    )
    print(f"wrote {args.count} instances to {out_dir}")
    return 0


def cmd_solve(args) -> int:
    budget_s = _time_limit_ms(args.time_limit_ms) / 1000.0
    path = Path(args.instance)
    x, y, g = read_instance(path)
    params = HeuristicParams(
        attempt_limit=args.attempt_limit,
        depth_limit=args.depth_limit,
        seed=args.seed,
    )
    res = _run_algorithm(args.algorithm, g, x, y, params, budget_s)
    instance_id = path.stem
    generator = _generator_for(path, args.generator)
    row = _result_row(
        instance_id, generator, g, args.algorithm, args.seed, res, args.time_mode
    )
    append_csv_rows(args.out_csv, [row])
    if res.witness is not None:
        side = write_witness(args.out_csv, instance_id, args.algorithm, res.witness)
        load_witness(side, x, y)
    if args.export_lp:
        Path(args.export_lp).write_text(export_lp(res.model))
    print(
        f"{instance_id} {args.algorithm}: {res.verdict.value}"
        f" (iterations={res.iterations}, cuts={res.cuts_added},"
        f" time={row['time_ms']}ms)"
    )
    return 0


def _experiment_tasks(config):
    if not isinstance(config, list):
        raise UsageError("config must be a JSON list of set objects")
    tasks = []
    for si, block in enumerate(config):
        try:
            kind = InstanceKind(block["kind"])
            n, count, seed = block["n"], block["count"], block["seed"]
            directed = block["directed"]
            algorithms = block["algorithms"]
            limit_ms = _time_limit_ms(block["per_set_time_limit_ms"])
            for key, value in (("n", n), ("count", count), ("seed", seed)):
                if not _is_int(value):
                    raise ValueError(f"{key!r} must be an integer")
            if count < 0:
                raise ValueError("'count' must be at least 0")
            if not isinstance(directed, bool):
                raise ValueError("'directed' must be true or false")
            # rejects an n below the kind's minimum
            InstanceSpec(kind, n, directed, seed)
            if not isinstance(algorithms, list):
                raise ValueError("'algorithms' must be a list")
            for alg in algorithms:
                if not isinstance(alg, str) or alg not in ALGORITHMS:
                    raise ValueError(f"unknown algorithm {alg!r}")
                check_directedness(alg, directed)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"config set {si}: {exc}")
        budget_s = limit_ms / 1000.0 / max(count, 1)
        for alg in algorithms:
            for i in range(count):
                tasks.append(
                    dict(
                        set_index=si,
                        kind=kind,
                        n=n,
                        directed=directed,
                        algorithm=alg,
                        index=i,
                        seed=seed + i,
                        budget_s=budget_s,
                    )
                )
    return tasks


def _run_task(task, time_mode):
    spec = InstanceSpec(
        task["kind"], task["n"], task["directed"], task["seed"]
    )
    x, y, g = generate_instance(spec)
    params = HeuristicParams(seed=task["seed"])
    res = _run_algorithm(
        task["algorithm"], g, x, y, params, task["budget_s"]
    )
    instance_id = instance_basename(
        task["kind"].value, task["n"], task["directed"], task["index"]
    )
    row = _result_row(
        instance_id,
        task["kind"].value,
        g,
        task["algorithm"],
        task["seed"],
        res,
        time_mode,
    )
    return row, res.witness, (x, y)


def _summarize(rows_by_set):
    lines = []
    for key in sorted(rows_by_set):
        rows = rows_by_set[key]
        si, kind, n, directed, alg = key
        solved = [r for r in rows if r["verdict"] != Verdict.TIMED_OUT.value]
        times = [r["time_ms"] for r in solved]
        iters = [r["iterations"] for r in solved]

        def ms(vals, digits):
            if not vals:
                return "n/a"
            m = statistics.fmean(vals)
            s = statistics.stdev(vals) if len(vals) > 1 else 0.0
            return f"{m:.{digits}f}±{s:.{digits}f}"

        lines.append(
            f"{kind} n={n} {'directed' if directed else 'undirected'} {alg}:"
            f" solved {len(solved)}/{len(rows)},"
            f" time {ms(times, 1)} ms, iterations {ms(iters, 2)}"
        )
    return lines


def cmd_experiment(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}")
    tasks = _experiment_tasks(config)
    results = [_run_task(task, args.time_mode) for task in tasks]
    rows = []
    rows_by_set = {}
    for task, (row, witness, cycles) in zip(tasks, results):
        rows.append(row)
        key = (
            task["set_index"],
            task["kind"].value,
            task["n"],
            task["directed"],
            task["algorithm"],
        )
        rows_by_set.setdefault(key, []).append(row)
        if witness is not None:
            side = write_witness(
                args.out_csv, row["instance_id"], row["algorithm"], witness
            )
            load_witness(side, *cycles)
    append_csv_rows(args.out_csv, rows, fresh=True)
    for line in _summarize(rows_by_set):
        print(line)
    print(f"{len(rows)} rows -> {args.out_csv}")
    return 0


def cmd_oracle(args) -> int:
    x, y, g = read_instance(Path(args.instance))
    if g.n > MAX_ORACLE_N:
        raise UsageError(
            f"oracle enumeration is capped at n <= {MAX_ORACLE_N}"
        )
    decs = enumerate_decompositions(g)
    second, witness = has_second_decomposition(g, x, y)
    noun = "decomposition" if len(decs) == 1 else "decompositions"
    verdictish = "exists" if second else "does not exist"
    print(f"{len(decs)} {noun}; second {verdictish}")
    if witness is not None:
        z, w = witness
        print(f"z: {list(z.order)}")
        print(f"w: {list(w.order)}")
    return 0


# -------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(prog="hamdec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write instance files")
    gen.add_argument("--kind", required=True,
                     choices=[k.value for k in InstanceKind])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--directed", action="store_true")
    gen.add_argument("--out-dir", required=True)
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="solve one instance file")
    slv.add_argument("instance")
    slv.add_argument("--algorithm", required=True, choices=list(ALGORITHMS))
    slv.add_argument("--time-limit-ms", type=float, default=60000.0)
    slv.add_argument("--seed", type=int, default=0)
    slv.add_argument("--attempt-limit", type=int, default=10)
    slv.add_argument("--depth-limit", type=int, default=5)
    slv.add_argument("--export-lp", default=None)
    slv.add_argument("--generator", default=None)
    slv.add_argument("--time-mode", choices=("wall", "deterministic"),
                     default="wall")
    slv.add_argument("--out-csv", required=True)
    slv.set_defaults(func=cmd_solve)

    exp = sub.add_parser("experiment", help="run a config grid")
    exp.add_argument("config")
    exp.add_argument("--out-csv", required=True)
    exp.add_argument("--time-mode", choices=("wall", "deterministic"),
                     default="wall")
    exp.set_defaults(func=cmd_experiment)

    orc = sub.add_parser("oracle", help="exhaustive ground truth")
    orc.add_argument("instance")
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"hamdec: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"hamdec: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"hamdec: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
