"""Command-line surface: generate, solve, experiment, oracle.

Instances travel as small JSON files, results as CSV rows, witnesses as
JSON sidecars next to the CSV; `solve` and `experiment` make them in
one way (`run_instance`).  `experiment` checks its whole config before
the first run.  Exit codes: 0 the command ran (whatever the verdict),
1 usage or bad input data, 2 file-system trouble.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from .heuristics import HeuristicParams
from .ilp import export_lp
from .instances import InstanceKind, InstanceSpec, generate_instance
from .multigraph import HamCycle, build_union
from .oracle import enumerate_decompositions, other_decomposition
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
        raise ValueError("instance file must hold a JSON object")
    for key in ("n", "directed", "x", "y"):
        if key not in doc:
            raise ValueError(f"instance file missing key {key!r}")
    directed = doc["directed"]
    if not isinstance(directed, bool):
        raise ValueError("instance field 'directed' must be true or false")
    if not _is_int(doc["n"]):
        raise ValueError("instance field 'n' must be an integer")
    for key in ("x", "y"):
        if not isinstance(doc[key], list) or not all(map(_is_int, doc[key])):
            raise ValueError(f"instance field {key!r} must be a vertex list")
    x = HamCycle.from_order(doc["x"], directed)
    y = HamCycle.from_order(doc["y"], directed)
    if x.n != doc["n"] or y.n != doc["n"]:
        raise ValueError("cycle lengths disagree with declared n")
    return x, y, build_union(x, y)


def instance_basename(spec: InstanceSpec, index: int) -> str:
    direction = "dir" if spec.directed else "und"
    return f"{spec.kind.value}_n{spec.n}_{direction}_{index:04d}"


def _generator_for(path: Path, override: str | None) -> str:
    """`override`, else the kind that starts a generated file's stem
    (`instance_basename`), else "unknown"."""
    if override:
        return override
    stem_kind = path.stem.split("_")[0]
    if stem_kind in {k.value for k in InstanceKind}:
        return stem_kind
    return "unknown"


def append_csv_rows(csv_path, rows, fresh=False) -> None:
    path = Path(csv_path)
    mode = "w" if fresh or not path.exists() or path.stat().st_size == 0 else "a"
    with open(path, mode, newline="") as fh:
        # quotes a value holding a comma, quote or line break, so each
        # row reads back with one field per column
        writer = csv.writer(fh, lineterminator="\n")
        if mode == "w":
            writer.writerow(CSV_COLUMNS)
        writer.writerows([row[c] for c in CSV_COLUMNS] for row in rows)


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

def run_instance(algorithm, x, y, g, instance_id, generator, params,
                 budget_s, time_mode):
    """Run one algorithm on one instance: its RunResult and its CSV row."""
    variant = ALGORITHMS[algorithm][0]
    if variant is not None:
        # raises ValueError when the instance has the wrong directedness
        res = solve_dfj_heuristic(g, x, y, params, budget_s, variant=variant)
    elif algorithm == "mtz":
        res = solve_mtz(g, x, y, budget_s)
    else:
        res = solve_dfj(g, x, y, budget_s)
    if time_mode == "deterministic":
        # work units are reproducible only for runs that finished
        time_ms = res.work if res.verdict is not Verdict.TIMED_OUT else -1
    else:
        time_ms = int(round(res.elapsed * 1000))
    values = (
        instance_id, generator, g.n, "true" if g.directed else "false",
        algorithm, params.seed, res.verdict.value, res.iterations,
        res.cuts_added, time_ms, g.multi_edge_count(),
    )
    return res, dict(zip(CSV_COLUMNS, values))


# ------------------------------------------------------------ commands

def _earlier_entries(path: Path, entries) -> list:
    """The entries of the manifest at `path` whose files `entries` do not
    rewrite; none if it is missing or not one that generate writes."""
    try:
        files = json.loads(path.read_text())["files"]
    except (OSError, ValueError, LookupError, TypeError):
        return []
    if not (isinstance(files, list)
            and all(isinstance(f, dict) and f.keys() == {"file", "seed"}
                    and isinstance(f["file"], str) and type(f["seed"]) is int
                    for f in files)
            and len({f["file"] for f in files}) == len(files)):
        return []
    rewritten = {e["file"] for e in entries}
    return [f for f in files if f["file"] not in rewritten]


def cmd_generate(args) -> int:
    if args.count < 0:
        raise ValueError("--count must be at least 0")
    # rejects an n below the kind's minimum, before any file is written
    first = InstanceSpec(args.kind, args.n, args.directed, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(args.count):
        spec = replace(first, seed=args.seed + i)
        x, y, _ = generate_instance(spec)
        name = instance_basename(spec, i)
        write_instance(out_dir / f"{name}.json", x, y)
        entries.append({"file": f"{name}.json", "seed": spec.seed})
    path = out_dir / "manifest.json"
    manifest = {
        "kind": first.kind.value,
        "n": args.n,
        "count": args.count,
        "directed": args.directed,
        "base_seed": args.seed,
        "files": _earlier_entries(path, entries) + entries,
    }
    path.write_text(json.dumps(manifest, indent=1) + "\n")
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
    instance_id = path.stem
    res, row = run_instance(
        args.algorithm, x, y, g, instance_id,
        _generator_for(path, args.generator), params, budget_s,
        args.time_mode,
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


def _experiment_sets(config):
    """Validate every set of a config before any of them runs.

    Returns one (spec, algorithms, count, budget_s) tuple per set: the
    spec of its first instance, and its time limit split over its count.
    """
    if not isinstance(config, list):
        raise ValueError("config must be a JSON list of set objects")
    sets = []
    for si, block in enumerate(config):
        try:
            count, algorithms = block["count"], block["algorithms"]
            limit_ms = _time_limit_ms(block["per_set_time_limit_ms"])
            if not _is_int(count):
                raise ValueError("'count' must be an integer")
            if count < 0:
                raise ValueError("'count' must be at least 0")
            # checks the kind, n, directed and seed
            spec = InstanceSpec(block["kind"], block["n"], block["directed"],
                                block["seed"])
            if not isinstance(algorithms, list):
                raise ValueError("'algorithms' must be a list")
            for alg in algorithms:
                if not isinstance(alg, str) or alg not in ALGORITHMS:
                    raise ValueError(f"unknown algorithm {alg!r}")
                check_directedness(alg, spec.directed)
            # instance ids number a set's instances from 0: two such sets
            # would give different instances one id and one sidecar name
            for sj, (other, algs, other_count, _) in enumerate(sets):
                if (count and other_count and other.seed != spec.seed
                        and replace(other, seed=spec.seed) == spec
                        and set(algorithms) & set(algs)):
                    raise ValueError(f"instance ids clash with set {sj}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"config set {si}: {exc}")
        budget_s = limit_ms / 1000.0 / max(count, 1)
        sets.append((spec, algorithms, count, budget_s))
    return sets


def _summary_line(rows):
    """One summary line over the rows of one (set, algorithm) cell."""
    first = rows[0]
    solved = [r for r in rows if r["verdict"] != Verdict.TIMED_OUT.value]

    def ms(column, digits):
        vals = [r[column] for r in solved]
        if not vals:
            return "n/a"
        m = statistics.fmean(vals)
        s = statistics.stdev(vals) if len(vals) > 1 else 0.0
        return f"{m:.{digits}f}±{s:.{digits}f}"

    directed = "directed" if first["directed"] == "true" else "undirected"
    return (
        f"{first['generator']} n={first['n']} {directed} {first['algorithm']}:"
        f" solved {len(solved)}/{len(rows)},"
        f" time {ms('time_ms', 1)} ms, iterations {ms('iterations', 2)}"
    )


def cmd_experiment(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}")
    sets = _experiment_sets(config)
    # one sidecar per (instance id, algorithm), however often it is listed
    rows, cells, witnesses = [], {}, {}
    for si, (first, algorithms, count, budget_s) in enumerate(sets):
        # each instance is generated once and run by every listing; the
        # rows of each listing go out one listing after another
        runs = [[] for _ in algorithms]
        for i in range(count):
            spec = replace(first, seed=first.seed + i)
            x, y, g = generate_instance(spec)
            instance_id = instance_basename(spec, i)
            for alg, alg_rows in zip(algorithms, runs):
                res, row = run_instance(
                    alg, x, y, g, instance_id, spec.kind.value,
                    HeuristicParams(seed=spec.seed), budget_s, args.time_mode,
                )
                if res.witness is not None:
                    witnesses[instance_id, alg] = res.witness, x, y
                del res  # it holds the whole model; drop it before the next
                alg_rows.append(row)
        for alg, alg_rows in zip(algorithms, runs):
            rows.extend(alg_rows)
            if alg_rows:  # a set with count 0 has no summary line
                cells.setdefault((si, alg), []).extend(alg_rows)
    for (instance_id, alg), (witness, x, y) in witnesses.items():
        load_witness(write_witness(args.out_csv, instance_id, alg, witness),
                     x, y)
    append_csv_rows(args.out_csv, rows, fresh=True)
    # sets in config order, algorithms by name within a set
    for key in sorted(cells):
        print(_summary_line(cells[key]))
    print(f"{len(rows)} rows -> {args.out_csv}")
    return 0


def cmd_oracle(args) -> int:
    x, y, g = read_instance(Path(args.instance))
    decs = enumerate_decompositions(g)  # ValueError above its size cap
    witness = other_decomposition(decs, x, y)
    noun = "decomposition" if len(decs) == 1 else "decompositions"
    verdictish = "does not exist" if witness is None else "exists"
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
    slv.add_argument("--attempt-limit", type=int,
                     default=HeuristicParams.attempt_limit)
    slv.add_argument("--depth-limit", type=int,
                     default=HeuristicParams.depth_limit)
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
    except ValueError as exc:
        print(f"hamdec: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"hamdec: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
