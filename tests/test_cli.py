import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from hamdec.cli import (
    CSV_COLUMNS,
    instance_basename,
    load_witness,
    main,
    read_instance,
    write_instance,
    write_witness,
)
from hamdec.instances import generate_instance
from hamdec.multigraph import build_union
from hamdec.oracle import enumerate_decompositions

from conftest import make_cycle, random_instance


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def ring6_file(tmp_path, ring6):
    x, y = ring6
    p = tmp_path / "golden.json"
    write_instance(p, x, y)
    return p


# ------------------------------------------------------------- generate

def test_generate_writes_instances_and_manifest(tmp_path):
    out = tmp_path / "batch"
    rc = main([
        "generate", "--kind", "pyramidal", "--n", "12", "--count", "5",
        "--seed", "7", "--out-dir", str(out),
    ])
    assert rc == 0
    files = sorted(out.glob("pyramidal_n12_und_*.json"))
    assert len(files) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "pyramidal"
    assert [e["seed"] for e in manifest["files"]] == [7, 8, 9, 10, 11]
    for f in files:
        x, y, g = read_instance(f)
        assert g.n == 12 and not g.directed


def test_generate_keeps_earlier_files_in_the_manifest(tmp_path):
    out = tmp_path / "batch"

    def generate(*args):
        rc = main(["generate", "--n", "10", "--out-dir", str(out), *args])
        assert rc == 0
        return json.loads((out / "manifest.json").read_text())

    generate("--kind", "pyramidal", "--count", "2", "--seed", "3")
    generate("--kind", "four-peak", "--count", "1", "--directed")
    # instance names number from 0: this call rewrites the first file
    manifest = generate("--kind", "pyramidal", "--count", "1", "--seed", "9")
    assert manifest["files"] == [
        {"file": "pyramidal_n10_und_0001.json", "seed": 4},
        {"file": "four-peak_n10_dir_0000.json", "seed": 0},
        {"file": "pyramidal_n10_und_0000.json", "seed": 9},
    ]
    assert (manifest["kind"], manifest["count"], manifest["base_seed"],
            manifest["directed"]) == ("pyramidal", 1, 9, False)
    on_disk = sorted(p.name for p in out.glob("*_n10_*.json"))
    assert sorted(f["file"] for f in manifest["files"]) == on_disk
    x, _, _ = read_instance(out / "pyramidal_n10_und_0000.json")
    want = tmp_path / "want"
    main(["generate", "--kind", "pyramidal", "--n", "10", "--count", "1",
          "--seed", "9", "--out-dir", str(want)])
    assert x == read_instance(want / "pyramidal_n10_und_0000.json")[0]


@pytest.mark.parametrize("text", [
    "not json", "[]", '{"files": 3}', '{"files": [{"file": "a.json"}]}',
    '{"files": [{"file": "a.json", "seed": 1.5}]}',
    '{"files": [{"file": "a.json", "seed": 1}, {"file": "a.json", "seed": 2}]}',
])
def test_generate_replaces_a_malformed_manifest(tmp_path, text):
    out = tmp_path / "batch"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    assert main(["generate", "--kind", "pyramidal", "--n", "10", "--count",
                 "1", "--seed", "2", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == [
        {"file": "pyramidal_n10_und_0000.json", "seed": 2}]


def test_generate_reruns_byte_identical(tmp_path):
    args = ["generate", "--kind", "random-permutation", "--n", "10",
            "--count", "3", "--seed", "1", "--directed"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes()


# SHA-256 of the instance file `hamdec generate --n 12 --count 1` writes
# for each (kind, seed).  Instance files must stay byte-reproducible from
# their seeds whatever PRNG the heuristics use.
GENERATE_SHA256 = {
    ("random-permutation", 0):
        "45f2b9af9a9eebf6a46406df22e7c4e40c9c7a4fea4f1bfb90e0dc9c2d864c13",
    ("random-permutation", 7):
        "a0a3133c6921aace4be68185bbebebd9e7bce1a5a2880759a6c81e30d3099a42",
    ("pyramidal", 0):
        "83787612c00fed0a72beb58be17eae7e1d91a537fdc5adb2e2d8cfabfc41abe5",
    ("pyramidal", 7):
        "2a154a36ad3f007e644ca8cb8392d931953d54715aea20af1c9be063305f40e5",
    ("four-peak", 0):
        "0e53a55384645181cae065c5dd60699c8d47d698fd8de2ed90db2e0c62dccb5c",
    ("four-peak", 7):
        "f5f700ddff48ec66dbb5883ee4113b775a0bff581fec56f4ac67f242cd6be3e7",
}


@pytest.mark.parametrize("kind, seed", sorted(GENERATE_SHA256))
def test_generate_output_matches_pinned_digest(tmp_path, kind, seed):
    out = tmp_path / "batch"
    rc = main([
        "generate", "--kind", kind, "--n", "12", "--count", "1",
        "--seed", str(seed), "--out-dir", str(out),
    ])
    assert rc == 0
    data = (out / f"{kind}_n12_und_0000.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GENERATE_SHA256[(kind, seed)]


def test_generate_rejects_small_four_peak(tmp_path):
    rc = main([
        "generate", "--kind", "four-peak", "--n", "6", "--count", "1",
        "--seed", "0", "--out-dir", str(tmp_path / "x"),
    ])
    assert rc == 1


def test_generate_rejects_negative_count(tmp_path, capsys):
    out = tmp_path / "x"
    rc = main([
        "generate", "--kind", "pyramidal", "--n", "8", "--count", "-3",
        "--seed", "0", "--out-dir", str(out),
    ])
    assert rc == 1
    assert "--count must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_negative_seed_before_writing(tmp_path, capsys):
    out = tmp_path / "x"
    rc = main([
        "generate", "--kind", "pyramidal", "--n", "8", "--count", "2",
        "--seed", "-1", "--out-dir", str(out),
    ])
    assert rc == 1
    assert "seed must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_kind_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "spiral", "--n", "8",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 1


# ---------------------------------------------------------------- solve

def test_solve_writes_row_and_validating_witness(tmp_path, ring6_file, ring6):
    x, y = ring6
    out = tmp_path / "res.csv"
    rc = main(["solve", str(ring6_file), "--algorithm", "dfj",
               "--out-csv", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert list(row.keys()) == CSV_COLUMNS
    assert row["instance_id"] == "golden"
    assert row["verdict"] == "feasible"
    assert row["n"] == "6" and row["directed"] == "false"
    assert row["multi_edges"] == "2"
    assert int(row["iterations"]) >= 1
    sidecar = tmp_path / "res_witnesses" / "golden.dfj.json"
    assert sidecar.exists()
    z, w = load_witness(sidecar, x, y)
    assert z.n == 6 and w.n == 6


def test_solve_same_seed_gives_identical_rows(tmp_path, ring6_file):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["solve", str(ring6_file), "--algorithm", "dfj-vnd-fix",
                   "--seed", "3", "--time-mode", "deterministic",
                   "--out-csv", str(out)])
        assert rc == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_solve_rejects_negative_seed_before_writing(tmp_path, ring6_file,
                                                   capsys):
    out = tmp_path / "res.csv"
    rc = main(["solve", str(ring6_file), "--algorithm", "dfj-vnd-fix",
               "--seed", "-7", "--out-csv", str(out)])
    assert rc == 1
    assert "seed must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_solve_appends_rows_without_extra_headers(tmp_path, ring6_file):
    out = tmp_path / "res.csv"
    for alg in ("dfj", "mtz"):
        assert main(["solve", str(ring6_file), "--algorithm", alg,
                     "--out-csv", str(out)]) == 0
    text = out.read_text().splitlines()
    assert len(text) == 3
    assert text[0].startswith("instance_id,")
    rows = read_rows(out)
    assert {r["algorithm"] for r in rows} == {"dfj", "mtz"}
    assert {r["verdict"] for r in rows} == {"feasible"}


def test_csv_quotes_a_comma_and_a_quote(tmp_path, ring6_file):
    # a file stem and a generator name may hold CSV's special characters
    inst = ring6_file.rename(tmp_path / "a,b.json")
    out = tmp_path / "res.csv"
    assert main(["solve", str(inst), "--algorithm", "dfj",
                 "--generator", 'x,"y', "--out-csv", str(out)]) == 0
    with open(out, newline="") as fh:
        records = list(csv.reader(fh))
    assert [len(r) for r in records] == [len(CSV_COLUMNS)] * 2
    row = read_rows(out)[0]
    assert (row["instance_id"], row["generator"]) == ("a,b", 'x,"y')
    assert row["algorithm"] == "dfj" and row["verdict"] == "feasible"


def test_solve_rejects_directionality_mismatch(tmp_path, ring6_file):
    out = tmp_path / "res.csv"
    rc = main(["solve", str(ring6_file), "--algorithm", "dfj-ls",
               "--out-csv", str(out)])
    assert rc == 1
    assert not out.exists()
    x, y, _ = random_instance(8, 0, directed=True)
    directed_file = tmp_path / "directed.json"
    write_instance(directed_file, x, y)
    for alg in ("dfj-vnd", "dfj-vnd-fix"):
        rc = main(["solve", str(directed_file), "--algorithm", alg,
                   "--out-csv", str(out)])
        assert rc == 1
        assert not out.exists()


def test_solve_missing_file_is_io_error(tmp_path):
    rc = main(["solve", str(tmp_path / "nope.json"), "--algorithm", "dfj",
               "--out-csv", str(tmp_path / "r.csv")])
    assert rc == 2


def test_solve_corrupt_instance_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "directed": false, "x": [1,2,3,4]}')
    rc = main(["solve", str(bad), "--algorithm", "dfj",
               "--out-csv", str(tmp_path / "r.csv")])
    assert rc == 1
    bad.write_text("not json at all")
    assert main(["solve", str(bad), "--algorithm", "dfj",
                 "--out-csv", str(tmp_path / "r.csv")]) == 1


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_solve_rejects_non_boolean_directed(tmp_path, ring6, capsys, value):
    # "false" used to load as a directed instance
    x, y = ring6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"n": 6, "directed": value, "x": list(x.order), "y": list(y.order)}
    ))
    out = tmp_path / "r.csv"
    rc = main(["solve", str(bad), "--algorithm", "dfj", "--out-csv", str(out)])
    assert rc == 1
    assert "'directed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-5", "0", "nan", "inf", "-inf"])
def test_solve_rejects_bad_time_limit(tmp_path, ring6_file, capsys, value):
    # -5 used to write a timeout row, nan to run with no deadline
    out = tmp_path / "r.csv"
    rc = main(["solve", str(ring6_file), "--algorithm", "dfj",
               f"--time-limit-ms={value}", "--out-csv", str(out)])
    assert rc == 1
    assert "hamdec: error: time limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["6", 6.0, True, None])
def test_solve_rejects_non_integer_n(tmp_path, ring6, capsys, value):
    x, y = ring6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"n": value, "directed": False, "x": list(x.order), "y": list(y.order)}
    ))
    out = tmp_path / "r.csv"
    rc = main(["solve", str(bad), "--algorithm", "dfj", "--out-csv", str(out)])
    assert rc == 1
    assert "'n'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("x", 5), ("y", 5), ("x", "123456"), ("y", None),
    ("x", [1, 2, 3, 4, 5, None]), ("y", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
])
def test_solve_rejects_cycle_that_is_not_a_vertex_list(
    tmp_path, ring6, capsys, key, value
):
    # "x": 5 used to end in a TypeError traceback
    x, y = ring6
    doc = {"n": 6, "directed": False, "x": list(x.order), "y": list(y.order)}
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    rc = main(["solve", str(bad), "--algorithm", "dfj", "--out-csv", str(out)])
    assert rc == 1
    assert f"hamdec: error: instance field {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [5, None, "text", [1, 2, 3]])
def test_solve_rejects_instance_that_is_not_an_object(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    rc = main(["solve", str(bad), "--algorithm", "dfj", "--out-csv", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("hamdec: error:")
    assert not out.exists()


def test_solve_exports_parseable_model(tmp_path, ring6_file):
    from hamdec.ilp import parse_lp

    lp = tmp_path / "model.lp"
    rc = main(["solve", str(ring6_file), "--algorithm", "mtz",
               "--out-csv", str(tmp_path / "r.csv"),
               "--export-lp", str(lp)])
    assert rc == 0
    model = parse_lp(lp.read_text())
    assert model.names and model.constraints


def test_generator_column_comes_from_manifest(tmp_path):
    out = tmp_path / "batch"
    main(["generate", "--kind", "four-peak", "--n", "9", "--count", "1",
          "--seed", "2", "--out-dir", str(out)])
    inst = next(out.glob("*_0000.json"))
    renamed = out / "mystery.json"
    inst.rename(renamed)
    # the stem no longer starts with a kind; the flag wins
    csv_path = tmp_path / "r.csv"
    main(["solve", str(renamed), "--algorithm", "dfj",
          "--out-csv", str(csv_path)])
    assert read_rows(csv_path)[0]["generator"] == "unknown"
    main(["solve", str(renamed), "--algorithm", "dfj",
          "--generator", "four-peak", "--out-csv", str(csv_path)])
    assert read_rows(csv_path)[1]["generator"] == "four-peak"


@pytest.mark.parametrize("doc", [
    [{"file": "pyramidal_n8_und_0000.json"}],
    {"kind": "four-peak", "files": ["pyramidal_n8_und_0000.json", 3]},
    {"kind": "four-peak", "files": {"file": "pyramidal_n8_und_0000.json"}},
])
def test_generator_column_ignores_malformed_manifest(tmp_path, doc):
    # a manifest of the wrong shape counts as no manifest: the file
    # stem names the generator
    out = tmp_path / "batch"
    main(["generate", "--kind", "pyramidal", "--n", "8", "--count", "1",
          "--out-dir", str(out)])
    (out / "manifest.json").write_text(json.dumps(doc))
    csv_path = tmp_path / "r.csv"
    rc = main(["solve", str(out / "pyramidal_n8_und_0000.json"),
               "--algorithm", "dfj", "--out-csv", str(csv_path)])
    assert rc == 0
    assert read_rows(csv_path)[0]["generator"] == "pyramidal"


# --------------------------------------------------------------- oracle

def test_oracle_reports_count_and_witness(tmp_path, ring6_file, capsys):
    rc = main(["oracle", str(ring6_file)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "4 decompositions; second exists"
    assert out[1].startswith("z: [1, ")
    assert out[2].startswith("w: [1, ")


def test_oracle_identical_cycles(tmp_path, capsys):
    x = make_cycle([1, 2, 3, 4, 5, 6])
    p = tmp_path / "same.json"
    write_instance(p, x, x)
    assert main(["oracle", str(p)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1 decomposition; second does not exist"


def test_oracle_enumerates_once(ring6_file, monkeypatch, capsys):
    # the witness comes from the list that the count is read from
    from hamdec import cli, oracle
    calls = []

    def counted(g):
        calls.append(g)
        return enumerate_decompositions(g)

    monkeypatch.setattr(cli, "enumerate_decompositions", counted)
    monkeypatch.setattr(oracle, "enumerate_decompositions", counted)
    assert main(["oracle", str(ring6_file)]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert out.startswith("4 decompositions; second exists")


def test_oracle_size_guard(tmp_path):
    x, y, g = random_instance(15, 0)
    p = tmp_path / "big.json"
    write_instance(p, x, y)
    assert main(["oracle", str(p)]) == 1


# ----------------------------------------------------------- experiment

def write_config(tmp_path, sets):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(sets))
    return p


def test_experiment_grid_runs_and_summarizes(tmp_path, capsys):
    cfg = write_config(tmp_path, [
        {"kind": "random-permutation", "n": 8, "count": 3, "directed": False,
         "algorithms": ["dfj", "mtz"], "per_set_time_limit_ms": 180000,
         "seed": 5},
        {"kind": "pyramidal", "n": 8, "count": 3, "directed": True,
         "algorithms": ["dfj-ls"], "per_set_time_limit_ms": 90000,
         "seed": 9},
    ])
    out = tmp_path / "grid.csv"
    rc = main(["experiment", str(cfg), "--out-csv", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 9
    stdout = capsys.readouterr().out
    summaries = [l for l in stdout.splitlines() if "solved" in l]
    assert len(summaries) == 3
    # dfj and mtz agree row-by-row on the same instances
    by_alg = {}
    for r in rows:
        by_alg.setdefault(r["algorithm"], []).append(
            (r["instance_id"], r["verdict"])
        )
    assert by_alg["dfj"] == [
        (i, v) for (i, v) in by_alg["mtz"]
    ]
    for r in rows:
        assert r["verdict"] in ("feasible", "infeasible", "timeout")
        assert r["seed"] in {"5", "6", "7", "9", "10", "11"}


def test_experiment_summary_matches_recomputation(tmp_path, capsys):
    cfg = write_config(tmp_path, [
        {"kind": "random-permutation", "n": 9, "count": 4, "directed": False,
         "algorithms": ["dfj"], "per_set_time_limit_ms": 240000, "seed": 3},
    ])
    out = tmp_path / "grid.csv"
    main(["experiment", str(cfg), "--out-csv", str(out),
          "--time-mode", "deterministic"])
    line = [
        l for l in capsys.readouterr().out.splitlines() if "solved" in l
    ][0]
    rows = [r for r in read_rows(out) if r["verdict"] != "timeout"]
    times = [int(r["time_ms"]) for r in rows]
    iters = [int(r["iterations"]) for r in rows]
    expect = (
        f"random-permutation n=9 undirected dfj: solved {len(rows)}/4,"
        f" time {statistics.fmean(times):.1f}±{statistics.stdev(times):.1f} ms,"
        f" iterations {statistics.fmean(iters):.2f}±{statistics.stdev(iters):.2f}"
    )
    assert line == expect


def test_experiment_stdout_is_pinned(tmp_path, capsys):
    # sets print in config order, algorithms by name within a set; a
    # repeated algorithm merges into one line, an empty set prints none
    cfg = write_config(tmp_path, [
        {"kind": "random-permutation", "n": 8, "count": 3, "directed": False,
         "algorithms": ["mtz", "dfj", "dfj"], "per_set_time_limit_ms": 180000,
         "seed": 4},
        {"kind": "pyramidal", "n": 8, "count": 0, "directed": False,
         "algorithms": ["dfj"], "per_set_time_limit_ms": 1000, "seed": 0},
        {"kind": "four-peak", "n": 10, "count": 3, "directed": True,
         "algorithms": ["dfj-ls", "dfj"], "per_set_time_limit_ms": 180000,
         "seed": 9},
    ])
    out = tmp_path / "grid.csv"
    assert main(["experiment", str(cfg), "--out-csv", str(out),
                 "--time-mode", "deterministic"]) == 0
    assert capsys.readouterr().out == (
        "random-permutation n=8 undirected dfj: solved 6/6,"
        " time 11.3±4.1 ms, iterations 3.33±1.03\n"
        "random-permutation n=8 undirected mtz: solved 3/3,"
        " time 28.3±9.5 ms, iterations 1.00±0.00\n"
        "four-peak n=10 directed dfj: solved 3/3,"
        " time 4.7±2.1 ms, iterations 2.00±1.00\n"
        "four-peak n=10 directed dfj-ls: solved 3/3,"
        " time 5.7±3.1 ms, iterations 2.00±1.00\n"
        f"15 rows -> {out}\n"
    )


def test_experiment_generates_each_instance_once(tmp_path, monkeypatch):
    # every listing of a set runs on one generated instance, but the rows
    # still come listing by listing, then instance by instance
    specs = []

    def counted(spec):
        specs.append(spec)
        return generate_instance(spec)

    monkeypatch.setattr("hamdec.cli.generate_instance", counted)
    written = []

    def counted_write(*args):
        written.append(write_witness(*args))
        return written[-1]

    monkeypatch.setattr("hamdec.cli.write_witness", counted_write)
    cfg = write_config(tmp_path, [
        {"kind": "random-permutation", "n": 8, "count": 3, "directed": False,
         "algorithms": ["mtz", "dfj", "mtz"], "per_set_time_limit_ms": 180000,
         "seed": 4},
        {"kind": "pyramidal", "n": 8, "count": 2, "directed": True,
         "algorithms": ["dfj-ls"], "per_set_time_limit_ms": 90000, "seed": 7},
    ])
    out = tmp_path / "grid.csv"
    assert main(["experiment", str(cfg), "--out-csv", str(out),
                 "--time-mode", "deterministic"]) == 0
    assert [s.seed for s in specs] == [4, 5, 6, 7, 8]
    ids = [instance_basename(s, i)
           for s, i in zip(specs, (0, 1, 2, 0, 1))]
    expect = [(ids[i], alg) for alg in ("mtz", "dfj", "mtz") for i in (0, 1, 2)]
    expect += [(ids[i], "dfj-ls") for i in (3, 4)]
    rows = read_rows(out)
    assert [(r["instance_id"], r["algorithm"]) for r in rows] == expect
    # a listing twice over gives the same rows twice, but one sidecar
    assert rows[0:3] == rows[6:9]
    feasible = {(r["instance_id"], r["algorithm"]) for r in rows
                if r["verdict"] == "feasible"}
    assert ("random-permutation_n8_und_0001", "mtz") in feasible
    assert len(written) == len(set(written)) == len(feasible)


def test_experiment_deterministic_mode_reruns_identically(tmp_path):
    cfg = write_config(tmp_path, [
        {"kind": "four-peak", "n": 10, "count": 3, "directed": False,
         "algorithms": ["dfj-vnd-fix", "dfj-vnd"],
         "per_set_time_limit_ms": 360000, "seed": 2},
    ])
    blobs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert main(["experiment", str(cfg), "--out-csv", str(out),
                     "--time-mode", "deterministic"]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


# A small grid that runs all five algorithms, and the SHA-256 digests of
# the deterministic-mode CSV and of its witness sidecars (each file's
# name, a newline and its bytes, in name order).  A change that alters
# a heuristic random stream on purpose updates both digests.
PINNED_GRID = [
    {"kind": "random-permutation", "n": 14, "count": 4, "directed": False,
     "algorithms": ["dfj", "mtz", "dfj-vnd", "dfj-vnd-fix"],
     "per_set_time_limit_ms": 600000, "seed": 11},
    {"kind": "four-peak", "n": 16, "count": 2, "directed": False,
     "algorithms": ["dfj-vnd-fix", "dfj-vnd"],
     "per_set_time_limit_ms": 600000, "seed": 3},
    {"kind": "random-permutation", "n": 14, "count": 4, "directed": True,
     "algorithms": ["dfj", "mtz", "dfj-ls"],
     "per_set_time_limit_ms": 600000, "seed": 5},
]
PINNED_GRID_CSV_SHA256 = (
    "856a0ec8d0875c748970afe4a456dc2c02f733b2d2079fee957124ac7e113b19"
)
PINNED_GRID_WITNESS_SHA256 = (
    "93684f81b3b96ee09cbe7563d72c2ef6ac6522fa699f0f0c359d7e8065e98501"
)


def test_experiment_deterministic_output_matches_pinned_digests(tmp_path):
    cfg = write_config(tmp_path, PINNED_GRID)
    out = tmp_path / "grid.csv"
    assert main(["experiment", str(cfg), "--out-csv", str(out),
                 "--time-mode", "deterministic"]) == 0
    # the witnesses first: a change that moves only `work` must keep them
    digest = hashlib.sha256()
    for side in sorted((tmp_path / "grid_witnesses").iterdir()):
        digest.update(side.name.encode() + b"\n" + side.read_bytes())
    assert digest.hexdigest() == PINNED_GRID_WITNESS_SHA256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        PINNED_GRID_CSV_SHA256
    )


def test_experiment_empty_algorithms_gives_header_only(tmp_path):
    cfg = write_config(tmp_path, [
        {"kind": "pyramidal", "n": 8, "count": 2, "directed": False,
         "algorithms": [], "per_set_time_limit_ms": 1000, "seed": 0},
    ])
    out = tmp_path / "grid.csv"
    assert main(["experiment", str(cfg), "--out-csv", str(out)]) == 0
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_experiment_malformed_config(tmp_path):
    out = tmp_path / "grid.csv"
    cfg = write_config(tmp_path, {"not": "a list"})
    assert main(["experiment", str(cfg), "--out-csv", str(out)]) == 1
    bad = tmp_path / "broken.json"
    bad.write_text("[{]")
    assert main(["experiment", str(bad), "--out-csv", str(out)]) == 1
    missing_keys = write_config(tmp_path, [{"kind": "pyramidal"}])
    assert main(["experiment", str(missing_keys),
                 "--out-csv", str(out)]) == 1


GOOD_SET = {"kind": "pyramidal", "n": 8, "count": 2, "directed": False,
            "algorithms": ["dfj"], "per_set_time_limit_ms": 1000,
            "seed": 0}


@pytest.mark.parametrize("key, value", [
    ("directed", "false"), ("directed", 0), ("directed", None),
    ("n", 8.0), ("n", 2.7), ("n", True), ("n", "8"),
    ("count", 2.7), ("count", False), ("count", "2"),
    ("seed", 1.5), ("seed", True), ("seed", None),
    ("algorithms", "dfj"), ("algorithms", {"dfj": 1}),
    ("algorithms", ["dfj", ["mtz"]]),
    ("algorithms", ["dfj-ls"]),
    ("per_set_time_limit_ms", "1000"), ("per_set_time_limit_ms", True),
    ("per_set_time_limit_ms", -5), ("per_set_time_limit_ms", 0),
    ("per_set_time_limit_ms", None), ("per_set_time_limit_ms", float("nan")),
    ("per_set_time_limit_ms", float("inf")), ("per_set_time_limit_ms", 10**400),
])
def test_experiment_rejects_bad_config_field_before_any_task(
    tmp_path, monkeypatch, capsys, key, value
):
    assert_second_set_rejected(
        tmp_path, monkeypatch, capsys, {**GOOD_SET, key: value}
    )


@pytest.mark.parametrize("changes", [
    {"kind": "four-peak", "n": 6},
    {"count": -3},
    {"seed": -3},
    {"seed": 100},  # its instance ids would clash with the first set's
])
def test_experiment_rejects_out_of_range_set_before_any_task(
    tmp_path, monkeypatch, capsys, changes
):
    assert_second_set_rejected(
        tmp_path, monkeypatch, capsys, {**GOOD_SET, **changes}
    )


@pytest.mark.parametrize("changes", [
    {"seed": 0}, {"n": 9}, {"directed": True}, {"algorithms": ["mtz"]},
    {"count": 0},
])
def test_experiment_accepts_sets_that_give_no_id_two_instances(
    tmp_path, changes
):
    cfg = write_config(tmp_path, [
        GOOD_SET, {**GOOD_SET, "seed": 100, **changes},
    ])
    out = tmp_path / "grid.csv"
    assert main(["experiment", str(cfg), "--out-csv", str(out)]) == 0


def assert_second_set_rejected(tmp_path, monkeypatch, capsys, bad):
    # the bad set comes second, so a late check would run the first one
    ran = []
    # every task starts by generating its instance
    monkeypatch.setattr(
        "hamdec.cli.generate_instance", lambda spec: ran.append(spec)
    )
    cfg = write_config(tmp_path, [GOOD_SET, bad])
    out = tmp_path / "grid.csv"
    assert main(["experiment", str(cfg), "--out-csv", str(out)]) == 1
    assert "hamdec: error: config set 1:" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("alg", ["dfj-vnd", "dfj-vnd-fix"])
def test_experiment_rejects_undirected_search_on_directed_set(
    tmp_path, monkeypatch, alg
):
    ran = []
    # every task starts by generating its instance
    monkeypatch.setattr(
        "hamdec.cli.generate_instance", lambda spec: ran.append(spec)
    )
    bad = {**GOOD_SET, "directed": True, "algorithms": ["dfj", alg]}
    cfg = write_config(tmp_path, [GOOD_SET, bad])
    out = tmp_path / "grid.csv"
    assert main(["experiment", str(cfg), "--out-csv", str(out)]) == 1
    assert ran == []


def test_experiment_accepts_float_time_limit(tmp_path):
    cfg = write_config(tmp_path, [
        {**GOOD_SET, "per_set_time_limit_ms": 120000.5},
    ])
    out = tmp_path / "grid.csv"
    assert main(["experiment", str(cfg), "--out-csv", str(out)]) == 0
    assert len(read_rows(out)) == 2


def test_experiment_witnesses_revalidate(tmp_path):
    cfg = write_config(tmp_path, [
        {"kind": "random-permutation", "n": 8, "count": 3, "directed": False,
         "algorithms": ["dfj"], "per_set_time_limit_ms": 180000, "seed": 21},
    ])
    out = tmp_path / "grid.csv"
    main(["experiment", str(cfg), "--out-csv", str(out)])
    feasible = [
        r for r in read_rows(out) if r["verdict"] == "feasible"
    ]
    for r in feasible:
        sidecar = tmp_path / "grid_witnesses" / (
            f"{r['instance_id']}.{r['algorithm']}.json"
        )
        assert sidecar.exists()


# ------------------------------------------------------------ process

def test_cli_round_trip_in_subprocess(tmp_path, ring6_file):
    out = tmp_path / "res.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "hamdec.cli", "solve", str(ring6_file),
         "--algorithm", "dfj", "--out-csv", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "feasible" in proc.stdout
    assert read_rows(out)[0]["verdict"] == "feasible"


def test_cli_runs_where_numpy_cannot_be_imported(tmp_path):
    # numpy is a test dependency only: with a numpy whose import fails
    # first on the path, generate writes the pinned bytes and solve and
    # experiment run
    shim = tmp_path / "shim"
    (shim / "numpy").mkdir(parents=True)
    (shim / "numpy" / "__init__.py").write_text(
        'raise ImportError("numpy is not a runtime dependency")\n')
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(shim), str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True)

    blocked = run("-c", "import numpy")
    assert blocked.returncode != 0
    assert "not a runtime dependency" in blocked.stderr
    for kind, seed in sorted(GENERATE_SHA256):
        out = tmp_path / f"{kind}{seed}"
        proc = run("-m", "hamdec.cli", "generate", "--kind", kind, "--n", "12",
                   "--count", "1", "--seed", str(seed), "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        data = (out / f"{kind}_n12_und_0000.json").read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        assert digest == GENERATE_SHA256[(kind, seed)]
    proc = run("-m", "hamdec.cli", "solve",
               str(tmp_path / "four-peak0" / "four-peak_n12_und_0000.json"),
               "--algorithm", "dfj-vnd-fix", "--out-csv", "solve.csv")
    assert proc.returncode == 0, proc.stderr
    cfg = write_config(tmp_path, [
        {"kind": "pyramidal", "n": 8, "count": 2, "directed": True,
         "algorithms": ["dfj", "dfj-ls", "mtz"],
         "per_set_time_limit_ms": 60000, "seed": 0},
    ])
    proc = run("-m", "hamdec.cli", "experiment", str(cfg),
               "--out-csv", "grid.csv")
    assert proc.returncode == 0, proc.stderr
    assert len(read_rows(tmp_path / "grid.csv")) == 6
