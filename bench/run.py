"""hamdec benchmark: seeded corpora, end-to-end metrics, traced layers.

    python3 bench/run.py --workload rp-und-heur --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, one after another

Run from the root of a checkout.  Each workload runs in a fresh worker
process (without HAMDEC_THREADS), so `setup_s` includes `import hamdec`
and `peak_rss_mb` is that workload's own.  `--seed` shifts every
corpus by that many instance seeds; the reference verdict table covers
the default corpora (seed 0).  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  The exit code is 1
when the correctness gate fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import gate
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 160
DEFAULT_SECONDS = 20.0
SETUP_RUNS = 5  # fresh processes whose set-up time is medianed


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _workload(args):
    wl = workloads.WORKLOADS[args.workload]
    return workloads.smoke(wl) if args.smoke else wl


# -------------------------------------------------------- worker side

def _setup(wl, offset):
    """Import hamdec and generate the corpus; grid-cli imports the CLI.

    Returns the corpus and the held set-up time, scaled to the nominal
    host (see `workloads.held_since` and `workloads.HostSpeed`).
    """
    started = workloads.clocks()
    workloads.import_hamdec(SRC, cli=wl.via_cli)
    corpus = None if wl.via_cli else workloads.build_corpus(wl, offset)
    held = workloads.held_since(started)[1]
    speed = workloads.HostSpeed(window=workloads.CALIBRATE_AROUND)
    speed.sample(workloads.CALIBRATE_AROUND)
    return corpus, speed.scale(held)


def _library(wl, args, corpus, tally, tracer):
    """Solves the corpus into `tally`; returns the metrics."""
    if tracer is None:
        workloads.solve_corpus(wl, corpus, args.seconds, tally)
        return workloads.latency_metrics(tally)
    # the second untraced pass is warm, like the traced one after it
    for _ in range(2):
        plain_s = workloads.solve_corpus(wl, corpus, 0, tally)
    tracer.install()
    try:
        corpus = workloads.build_corpus(wl, args.seed)
        traced_s = workloads.solve_corpus(wl, corpus, 0, tally)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace_overhead_frac"] = traced_s / plain_s - 1.0
    return metrics


def _grid(wl, args, instances, tally, tracer):
    """Repeats passes of `hamdec experiment` calls into `tally`.

    Returns the metrics.
    """
    seconds = 0.0 if tracer else args.seconds
    # a traced run compares with the second, warm, untraced pass
    passes = 2 if tracer else 1

    def experiment(cfg, name, traced=False):
        """Returns the call's wall time and its scaled held time."""
        csv_path = cfg.parent / name / "grid.csv"
        csv_path.parent.mkdir()
        speed = workloads.HostSpeed(window=2 * workloads.CALIBRATE_AROUND)
        speed.sample(workloads.CALIBRATE_AROUND)
        span = tracer.span("cli.experiment") if traced else nullcontext()
        with span:
            wall, held = workloads.run_experiment(cfg, csv_path)
        speed.sample(workloads.CALIBRATE_AROUND)
        for call in workloads.read_experiment(wl, csv_path, held / wall):
            call.seconds = speed.scale(call.seconds)
            tally.add(call, instances[(call.set_index, call.seed)])
        tally.speed.factors.extend(speed.factors)
        return wall, speed.scale(held)

    def grid_pass(cfgs, name, traced=False):
        """One experiment call per config; returns summed times."""
        times = [experiment(cfg, f"{name}-{k}", traced)
                 for k, cfg in enumerate(cfgs)]
        return sum(t[0] for t in times), sum(t[1] for t in times)

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        cfgs = []
        for k, config in enumerate(workloads.grid_configs(wl, args.seed)):
            cfgs.append(Path(tmp) / f"grid{k}.json")
            cfgs[-1].write_text(json.dumps(config))
        wall, i = 0.0, 0
        while i < passes or wall < seconds:
            w, plain_s = grid_pass(cfgs, f"run{i}")
            wall += w
            tally.busy_s += plain_s
            i += 1
        if tracer is None:
            return workloads.latency_metrics(tally)
        tracer.install()
        try:
            traced_s = grid_pass(cfgs, "traced", traced=True)[1]
        finally:
            tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace_overhead_frac"] = traced_s / plain_s - 1.0
    return metrics


def worker(args) -> int:
    wl = _workload(args)
    corpus, setup_s = _setup(wl, args.seed)
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = Tracer() if args.trace else None
    tally = workloads.Tally(wl)
    if wl.via_cli:
        # the experiment generates its own copies; the gate needs x and y
        corpus = workloads.build_corpus(wl, args.seed)
    instances = {(i.set_index, i.seed): i for i in corpus}
    if wl.via_cli:
        metrics = _grid(wl, args, instances, tally, tracer)
    else:
        metrics = _library(wl, args, corpus, tally, tracer)
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    if not args.trace:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    cells = list(tally.cells.values())
    if args.record_reference:
        errors = tally.errors + gate.check(wl, cells, instances, {})
        if errors:
            raise RuntimeError(f"not recording a failing gate: {errors}")
        print(json.dumps({"reference": gate.reference_entries(wl, cells)}))
        return 0
    reference = gate.load_reference()
    errors = tally.errors + gate.check(wl, cells, instances, reference)
    print(json.dumps({
        "errors": errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "setup_s": setup_s,
        "speed": statistics.median(tally.speed.factors),
        "metrics": metrics,
    }))
    return 0


# -------------------------------------------------------- parent side

def _spawn(args, *extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HAMDEC_THREADS"}
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *(["--smoke"] if args.smoke else []),
        *(["--spans", str(args.spans)] if args.spans else []),
        *extra,
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> tuple[dict, list[str], float]:
    """Result object as printed, the gate's error list, the host speed."""
    setup = [] if args.trace else [
        _spawn(args, "--probe-setup")["setup_s"]
        for _ in range((1 if args.smoke else SETUP_RUNS) - 1)
    ]
    out = _spawn(args)
    units = _units("per_layer" if args.trace else "end_to_end")
    values = dict(out["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup + [out["setup_s"]])
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    result = {
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    return result, out["errors"], out["speed"]


def record_reference(args) -> int:
    table = {}
    args.seed, args.seconds, args.smoke = 0, 0.0, False
    for name in workloads.WORKLOADS:
        args.workload = name
        table.update(_spawn(args, "--record-reference")["reference"])
    gate.REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} entries to {gate.REFERENCE}")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="shift every corpus by this many instance seeds")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"tiny corpora (n={workloads.SMOKE_N})")
    p.add_argument("--spans", type=Path,
                   help="with --trace 1: write every span to this file")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite the reference table from seed 0")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if not (SRC / "hamdec" / "__init__.py").is_file():
        print(f"bench: no hamdec sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    ok = True
    for name in names:
        args.workload = name
        try:
            result, errors, speed = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        for err in errors:
            print(f"bench: {name}: GATE {err}", file=sys.stderr)
        ok = ok and result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:16s} {metric:30s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:16s} {'(host speed factor)':30s} {speed:>14.6g}")
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
