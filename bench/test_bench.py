"""Self-tests of the benchmark: the gate trips, smoke runs report every metric.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import workloads  # noqa: E402

workloads.import_hamdec(ROOT / "src")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATING = (
    "ilp.nodes",
    "ilp.solve_calls",
    "heuristics.fix_edge_calls",
    "multigraph.components_calls",
    "formulations.sec_rows",
    "solvers.iterations",
)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"),
           "--smoke", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _solved(name):
    wl = workloads.smoke(workloads.WORKLOADS[name])
    corpus = workloads.build_corpus(wl, 0)
    tally = workloads.Tally(wl)
    workloads.solve_corpus(wl, corpus, 0, tally)
    assert tally.errors == []
    calls = list(tally.cells.values())
    return wl, calls, {(i.set_index, i.seed): i for i in corpus}


def _copy_bench(dest, with_sources):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    if with_sources:
        (dest / "src").symlink_to(ROOT / "src", target_is_directory=True)


def test_gate_passes_honest_runs():
    for name in ("rp-und-heur", "rp-dir-exact"):
        wl, calls, instances = _solved(name)
        assert any(c.verdict == "feasible" for c in calls)
        assert gate.check(wl, calls, instances, {}) == []


def test_gate_trips_on_forged_witness():
    wl, calls, instances = _solved("rp-und-heur")
    forged = next(c for c in calls if c.verdict == "feasible")
    inst = instances[(forged.set_index, forged.seed)]
    forged.witness = (list(inst.x.order), list(inst.y.order))
    errors = gate.check(wl, calls, instances, {})
    assert errors and "equals {x, y}" in errors[0]


def test_witness_check_rejects_a_split_that_misses_the_union():
    x, y = [1, 2, 3, 4, 5, 6], [1, 4, 6, 2, 3, 5]
    assert gate.witness_errors(x, y, [1, 2, 3, 4, 6, 5], y, False)
    assert gate.witness_errors(x, y, [1, 2, 3], y, False)


def test_gate_trips_on_flipped_reference_and_disagreement():
    wl, calls, instances = _solved("rp-dir-exact")
    table = gate.reference_entries(wl, calls)
    assert gate.check(wl, calls, instances, table) == []
    key = next(iter(table))
    codes = table[key]["verdicts"]
    table[key]["verdicts"] = ("i" if codes[0] == "f" else "f") + codes[1:]
    assert any("reference" in e for e in gate.check(wl, calls, instances,
                                                    table))
    flip = calls[1]
    flip.verdict = "feasible" if flip.verdict == "infeasible" else "infeasible"
    flip.witness = None
    assert any("others say" in e for e in gate.check(wl, calls, instances, {}))


def test_flipped_reference_fails_the_run(tmp_path):
    wl, calls, _ = _solved("rp-dir-exact")
    table = gate.reference_entries(wl, calls)
    entry = table[next(iter(table))]
    codes = entry["verdicts"]
    entry["verdicts"] = ("i" if codes[0] == "f" else "f") + codes[1:]
    _copy_bench(tmp_path, with_sources=True)
    (tmp_path / "bench" / gate.REFERENCE.name).write_text(json.dumps(table))
    proc = _run("--workload", "rp-dir-exact", cwd=tmp_path)
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_repeats_are_gated_as_they_come_in():
    wl, calls, instances = _solved("rp-und-heur")
    tally = workloads.Tally(wl)
    for call in calls:
        tally.add(call, instances[(call.set_index, call.seed)])
    feasible = next(c for c in calls if c.verdict == "feasible")
    inst = instances[(feasible.set_index, feasible.seed)]
    forged = workloads.Call(feasible.set_index, feasible.seed,
                            feasible.algorithm, "feasible",
                            (list(inst.x.order), list(inst.y.order)))
    tally.add(forged, inst)
    flipped = workloads.Call(feasible.set_index, feasible.seed,
                             feasible.algorithm, "infeasible")
    tally.add(flipped, inst)
    assert len(tally.cells) == len(calls) and tally.attempted == len(calls) + 2
    key = (feasible.set_index, feasible.seed, feasible.algorithm)
    assert len(tally.times[key]) == 3
    assert any("equals {x, y}" in e for e in tally.errors)
    assert any("repeat says infeasible" in e for e in tally.errors)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(name, trace):
    proc = _run("--workload", name, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_traced_counts_repeat():
    runs = [
        json.loads(_run("--workload", "rp-und-heur", "--trace", "1")
                   .stdout.splitlines()[-1])["metrics"]
        for _ in range(2)
    ]
    for name in REPEATING:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    assert runs[0]["heuristics.fix_edge_calls"]["value"] > 0


def test_spans_nest_inside_their_parents(tmp_path):
    out = tmp_path / "spans.jsonl"
    proc = _run("--workload", "rp-und-heur", "--trace", "1",
                "--spans", str(out))
    assert proc.returncode == 0, proc.stderr
    spans = [json.loads(line) for line in out.read_text().splitlines()]
    assert {s[0] for s in spans} >= {"solvers.solve", "ilp.solve",
                                     "heuristics.pass", "formulations.build"}
    for i, (_, start, end, parent, solve_id) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            outer = spans[parent]
            assert parent < i and outer[4] == solve_id
            assert outer[1] <= start and end <= outer[2]


def test_refuses_to_run_without_sources(tmp_path):
    _copy_bench(tmp_path, with_sources=False)
    proc = _run("--workload", "rp-und-heur", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
