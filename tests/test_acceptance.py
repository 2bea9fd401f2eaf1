"""End-to-end acceptance checks.

Nine scored checks, each printing one CRITERION line so the output reads
as a scorecard. Heavy corpora are built once per module and shared.
"""

import json
import time
from statistics import fmean

import pytest

from hamdec import (
    HeuristicParams,
    InstanceKind,
    InstanceSpec,
    Verdict,
    generate_instance,
    solve_dfj,
    solve_dfj_heuristic,
    solve_mtz,
)
from hamdec.cli import main as cli_main
from hamdec.ilp import export_lp, parse_lp
from hamdec.multigraph import (
    HamCycle,
    TwoFactorPair,
    W,
    Z,
    build_union,
    is_second_decomposition,
)
from hamdec.oracle import enumerate_decompositions, has_second_decomposition

SOLVE_BUDGET = 120.0

KINDS = (
    InstanceKind.RANDOM_PERMUTATION,
    InstanceKind.PYRAMIDAL,
    InstanceKind.FOUR_PEAK,
)


def scoreline(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def witness_sides(g, cycle):
    """Side vector whose Z factor realizes `cycle` in g."""
    from collections import Counter

    want = Counter(cycle.edge_multiset())
    sides = [W] * len(g.tail)
    for e in range(len(g.tail)):
        if g.directed:
            key = (g.tail[e], g.head[e])
        else:
            key = tuple(sorted((g.tail[e], g.head[e])))
        if want[key] > 0:
            want[key] -= 1
            sides[e] = Z
    assert sum(want.values()) == 0
    return sides


def witness_is_second(g, witness):
    z, w = witness
    pair = TwoFactorPair(g, witness_sides(g, z))
    return is_second_decomposition(pair)


def decomposition_key(z_order, w_order):
    """Unordered pair of edge multisets for two undirected vertex orders."""
    return frozenset(
        (
            HamCycle.from_order(z_order, False).edge_multiset(),
            HamCycle.from_order(w_order, False).edge_multiset(),
        )
    )


def cut_holds(s, side, z_inside, e_s):
    if side == Z:
        return z_inside <= len(s) - 1
    return z_inside >= e_s - len(s) + 1


def model_signature(m):
    return (
        m.names,
        m.lo,
        m.hi,
        m.binary,
        [(c.name, c.coefs, c.vars, c.sense, c.rhs) for c in m.constraints],
    )


# ----------------------------------------------------------- shared runs

def mixed_corpus(count, seed0):
    """Deterministic strip across kind, directedness and n in [6, 12]."""
    out = []
    for i in range(count):
        kind = KINDS[i % 3]
        directed = bool((i // 3) % 2)
        n = 6 + i % 7
        if kind is InstanceKind.FOUR_PEAK and n < 8:
            n += 4
        spec = InstanceSpec(kind, n, directed, seed0 + i)
        x, y, g = generate_instance(spec)
        out.append((spec, x, y, g))
    return out


@pytest.fixture(scope="module")
def batch3():
    """Oracle plus all three solvers on 200 mixed instances."""
    started = time.monotonic()
    records = []
    for spec, x, y, g in mixed_corpus(200, seed0=1000):
        truth, _ = has_second_decomposition(g, x, y)
        decs = enumerate_decompositions(g)
        runs = (
            solve_dfj(g, x, y, SOLVE_BUDGET),
            solve_mtz(g, x, y, SOLVE_BUDGET),
            solve_dfj_heuristic(
                g, x, y, HeuristicParams(seed=spec.seed), SOLVE_BUDGET
            ),
        )
        records.append((spec, x, y, g, truth, decs, runs))
    return records, time.monotonic() - started


@pytest.fixture(scope="module")
def run6():
    """100 large undirected instances under the fixing heuristic."""
    started = time.monotonic()
    results = []
    for i in range(100):
        spec = InstanceSpec(InstanceKind.RANDOM_PERMUTATION, 192, False, 5000 + i)
        x, y, g = generate_instance(spec)
        res = solve_dfj_heuristic(
            g, x, y, HeuristicParams(seed=spec.seed), 60.0, variant="vnd-fix"
        )
        results.append(res)
    return results, time.monotonic() - started


# ------------------------------------------------------------- criteria

def test_criterion_1_golden_instance():
    started = time.monotonic()
    x = HamCycle.from_order([1, 2, 3, 4, 5, 6], False)
    y = HamCycle.from_order([1, 4, 6, 2, 3, 5], False)
    g = build_union(x, y)
    problems = []
    runs = [
        solve_dfj(g, x, y, SOLVE_BUDGET),
        solve_mtz(g, x, y, SOLVE_BUDGET),
        solve_dfj_heuristic(
            g, x, y, HeuristicParams(seed=0), SOLVE_BUDGET, variant="vnd-fix"
        ),
    ]
    for res in runs:
        if res.verdict is not Verdict.FEASIBLE:
            problems.append(f"{res.algorithm} returned {res.verdict.value}")
        elif not witness_is_second(g, res.witness):
            problems.append(f"{res.algorithm} witness is not a second split")
    # {x, y} and the three second decompositions, listed by hand: in each
    # pair the cycles share only the doubled edge {2,3} and together cover
    # the 11 distinct edges of the union
    expected = {
        decomposition_key([1, 2, 3, 4, 5, 6], [1, 4, 6, 2, 3, 5]),
        decomposition_key([1, 2, 3, 4, 6, 5], [1, 6, 2, 3, 5, 4]),
        decomposition_key([1, 2, 3, 5, 6, 4], [1, 6, 2, 3, 4, 5]),
        decomposition_key([1, 2, 3, 5, 4, 6], [1, 4, 3, 2, 6, 5]),
    }
    found = {
        frozenset((z.edge_multiset(), w.edge_multiset()))
        for z, w in enumerate_decompositions(g)
    }
    if found != expected:
        problems.append(
            f"oracle enumerates {sorted(map(sorted, found))}, "
            f"expected exactly {sorted(map(sorted, expected))}"
        )
    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, limit 1s")
    detail = "; ".join(problems) if problems else (
        f"three solvers feasible with distinct witnesses, oracle lists the "
        f"four expected decompositions, in {elapsed:.2f}s"
    )
    scoreline(1, not problems, detail)
    assert not problems, detail


def test_criterion_2_identical_cycles_infeasible():
    started = time.monotonic()
    problems = []
    for n in range(3, 7):
        for directed in (False, True):
            x = HamCycle.from_order(list(range(1, n + 1)), directed)
            g = build_union(x, x)
            tag = f"n={n} directed={directed}"
            res = solve_dfj(g, x, x, SOLVE_BUDGET)
            if res.verdict is not Verdict.INFEASIBLE:
                problems.append(f"dfj {tag}: {res.verdict.value}")
            elif res.iterations != 1:
                problems.append(f"dfj {tag}: {res.iterations} iterations")
            alt = solve_mtz(g, x, x, SOLVE_BUDGET)
            if alt.verdict is not Verdict.INFEASIBLE:
                problems.append(f"mtz {tag}: {alt.verdict.value}")
    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, limit 1s")
    detail = "; ".join(problems) if problems else (
        f"8 degenerate instances infeasible at iteration 1 in {elapsed:.2f}s"
    )
    scoreline(2, not problems, detail)
    assert not problems, detail


def test_criterion_3_verdicts_match_oracle(batch3):
    records, elapsed = batch3
    problems = []
    agree = 0
    for spec, x, y, g, truth, decs, runs in records:
        want = Verdict.FEASIBLE if truth else Verdict.INFEASIBLE
        bad = [r.algorithm for r in runs if r.verdict is not want]
        if bad:
            problems.append(f"{spec}: {', '.join(bad)} != {want.value}")
        else:
            agree += 1
    if len(records) != 200:
        problems.append(f"corpus has {len(records)} instances, wanted 200")
    if elapsed > 600.0:
        problems.append(f"took {elapsed:.0f}s, limit 600s")
    detail = "; ".join(problems[:5]) if problems else (
        f"{agree}/200 instances agree across dfj, mtz and heuristic"
        f" in {elapsed:.0f}s"
    )
    scoreline(3, not problems, detail)
    assert not problems, detail


def test_criterion_4_cuts_never_exclude_decompositions(batch3):
    records, _ = batch3
    problems = []
    checked = 0
    for spec, x, y, g, truth, decs, runs in records:
        cuts = [c for r in runs for c in r.emitted_cuts]
        if not cuts or not decs:
            continue
        e_inside = {}
        for s, side in cuts:
            e_s = e_inside.setdefault(
                s, sum(1 for t, h in zip(g.tail, g.head) if t in s and h in s)
            )
            for z, w in decs:
                for factor in (z, w):
                    sides = witness_sides(g, factor)
                    z_inside = sum(
                        1
                        for e in range(len(g.tail))
                        if sides[e] == Z and g.tail[e] in s and g.head[e] in s
                    )
                    checked += 1
                    if not cut_holds(s, side, z_inside, e_s):
                        problems.append(f"{spec}: cut on {sorted(s)} violated")
    if checked == 0:
        problems.append("no emitted cuts to check")
    detail = "; ".join(problems[:5]) if problems else (
        f"{checked} cut evaluations, all satisfied"
    )
    scoreline(4, not problems, detail)
    assert not problems, detail


def test_criterion_5_repeated_edge_statistics():
    started = time.monotonic()
    cells = [
        (InstanceKind.RANDOM_PERMUTATION, False, 2.0, 8.0),
        (InstanceKind.FOUR_PEAK, False, 17.0, 36.0),
        (InstanceKind.PYRAMIDAL, False, 110.0, 155.0),
        (InstanceKind.PYRAMIDAL, True, 55.0, 80.0),
    ]
    problems = []
    means = []
    for kind, directed, lo, hi in cells:
        vals = []
        for s in range(100):
            spec = InstanceSpec(kind, 192, directed, 20_000 + s)
            vals.append(generate_instance(spec)[2].multi_edge_count())
        mean = fmean(vals)
        means.append(f"{kind.value}/{'dir' if directed else 'und'}={mean:.1f}")
        if not lo <= mean <= hi:
            problems.append(
                f"{kind.value} directed={directed}: mean {mean:.1f}"
                f" outside [{lo}, {hi}]"
            )
    elapsed = time.monotonic() - started
    if elapsed > 60.0:
        problems.append(f"took {elapsed:.0f}s, limit 60s")
    detail = "; ".join(problems) if problems else (
        "means in range: " + ", ".join(means)
    )
    scoreline(5, not problems, detail)
    assert not problems, detail


def test_criterion_6_heuristic_effectiveness(run6):
    results, elapsed = run6
    problems = []
    solved = sum(1 for r in results if r.verdict is not Verdict.TIMED_OUT)
    mean_iters = fmean(r.iterations for r in results)
    if solved < 95:
        problems.append(f"solved {solved}/100, need 95")
    if mean_iters > 2.0:
        problems.append(f"mean iterations {mean_iters:.2f}, limit 2")
    if elapsed > 900.0:
        problems.append(f"took {elapsed:.0f}s, limit 900s")
    detail = "; ".join(problems) if problems else (
        f"solved {solved}/100 at n=192, mean iterations {mean_iters:.2f},"
        f" {elapsed:.0f}s"
    )
    scoreline(6, not problems, detail)
    assert not problems, detail


def test_criterion_7_traces_descend_and_validate(batch3, run6):
    records, _ = batch3
    results, _ = run6
    traces = [runs[2].trace for _, _, _, _, _, _, runs in records]
    traces += [r.trace for r in results]
    problems = []
    sequences = 0
    # a trace raises inside its run on an accepted state that is not a
    # clean 2-factor, so every recorded state here passed that check
    for trace in traces:
        if trace is None:
            continue
        for seq in trace.sequences:
            sequences += 1
            if not all(a > b for a, b in zip(seq, seq[1:])):
                problems.append(f"non-decreasing trace {seq}")
    if sequences == 0:
        problems.append("no recorded descent sequences")
    detail = "; ".join(problems[:5]) if problems else (
        f"{sequences} descent runs, all strictly decreasing and validated"
    )
    scoreline(7, not problems, detail)
    assert not problems, detail


def test_criterion_8_experiment_runs_are_deterministic(tmp_path):
    config = [
        {
            "kind": "random-permutation",
            "n": 192,
            "count": 100,
            "directed": False,
            "algorithms": ["dfj-vnd-fix"],
            "per_set_time_limit_ms": 6_000_000,
            "seed": 5000,
        }
    ]
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    problems = []
    outs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        rc = cli_main(
            ["experiment", str(cfg), "--out-csv", str(out),
             "--time-mode", "deterministic"]
        )
        if rc != 0:
            problems.append(f"experiment exited {rc}")
        outs.append(out.read_bytes())
    if not problems and outs[0] != outs[1]:
        problems.append("repeated run produced a different csv")
    rows = outs[0].decode().strip().splitlines()
    if len(rows) != 101:
        problems.append(f"csv has {len(rows) - 1} data rows, wanted 100")
    detail = "; ".join(problems) if problems else (
        "two runs with identical seeds produced byte-identical csv"
    )
    scoreline(8, not problems, detail)
    assert not problems, detail


def test_criterion_9_lp_export_round_trip():
    problems = []
    done = 0
    for i in range(20):
        kind = KINDS[i % 3]
        directed = bool(i % 2)
        spec = InstanceSpec(kind, 8 + i % 5, directed, 30_000 + i)
        x, y, g = generate_instance(spec)
        if i % 2 == 0:
            res = solve_dfj(g, x, y, SOLVE_BUDGET)
        else:
            res = solve_mtz(g, x, y, SOLVE_BUDGET)
        if res.model is None:
            problems.append(f"{spec}: no model on result")
            continue
        again = parse_lp(export_lp(res.model))
        if model_signature(again) != model_signature(res.model):
            problems.append(f"{spec}: reparsed model differs")
        else:
            done += 1
    detail = "; ".join(problems[:5]) if problems else (
        f"{done}/20 exported models reparse identically"
    )
    scoreline(9, not problems, detail)
    assert not problems, detail
