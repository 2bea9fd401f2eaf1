"""Spans and counters at hamdec's module boundaries, from outside the package.

Each traced name is replaced where its caller looks it up: a
`from x import f` binds `f` into the importing module, so patching `x`
alone would miss it.  Spans stay in memory until the run ends; a span
is [name, start, end, parent index, solve id].
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict

SOLVE_ENTRIES = ("solve_dfj", "solve_dfj_heuristic", "solve_mtz")

# (module, attribute, span name, counting hook)
PATCHES = [
    ("hamdec.instances", "generate_instance", "instances.generate", None),
    ("hamdec.instances", "build_union", "multigraph.build_union", None),
    *(("hamdec.solvers", f, "solvers.solve", "_on_solve")
      for f in SOLVE_ENTRIES),
    ("hamdec.solvers", "solve", "ilp.solve", "_on_ilp"),
    ("hamdec.solvers", "build_dfj_base", "formulations.build", None),
    ("hamdec.solvers", "build_mtz_directed", "formulations.build", None),
    ("hamdec.solvers", "build_mtz_undirected", "formulations.build", None),
    ("hamdec.solvers", "decode", "formulations.decode", None),
    ("hamdec.solvers", "sec_for_subtour", "formulations.sec", "_on_sec"),
    ("hamdec.solvers", "components", "multigraph.components", None),
    ("hamdec.solvers", "is_second_decomposition", "multigraph.verify",
     "_on_verify"),
    ("hamdec.solvers", "cycle_from_factor", "multigraph.verify", None),
    ("hamdec.solvers", "local_search_directed", "heuristics.pass",
     "_on_pass"),
    ("hamdec.solvers", "vnd_undirected", "heuristics.pass", "_on_pass"),
    ("hamdec.heuristics", "components", "heuristics.components", None),
    ("hamdec.heuristics", "fix_edge", "heuristics.fix_edge", "_on_fix"),
    ("hamdec.cli", "generate_instance", "instances.generate", None),
    *(("hamdec.cli", f, "solvers.solve", "_on_solve") for f in SOLVE_ENTRIES),
    ("hamdec.cli", "append_csv_rows", "cli.io", None),
    ("hamdec.cli", "write_witness", "cli.io", None),
    ("hamdec.cli", "load_witness", "cli.io", None),
]

class Tracer:
    """Installs the wrappers, records spans and counts, reports layers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._solve_id = 0
        self._settle_pending = False
        self._saved: list[tuple] = []

    # ---------------------------------------------------------- wrappers

    def install(self) -> None:
        for module_name, attr, name, hook in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name, hook_name):
        hook = getattr(self, hook_name) if hook_name else None
        entry = name == "solvers.solve"

        def traced(*args, **kwargs):
            if entry:
                self._solve_id += 1
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(args, out)
            return out

        return traced

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                self._solve_id]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the bench itself, e.g. around a CLI call."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    # ------------------------------------------------------------- hooks

    def _on_solve(self, args, res):
        self.counts["iterations"] += res.iterations
        self.counts["cuts_added"] += res.cuts_added
        if res.trace is not None:
            self.counts["accepts"] += sum(
                len(s) - 1 for s in res.trace.sequences
            )

    def _on_ilp(self, args, out):
        self.counts["nodes"] += out.nodes
        self.counts["nodes_max"] = max(self.counts["nodes_max"], out.nodes)
        self.counts["timeouts"] += out.status.name == "TIMED_OUT"

    def _on_sec(self, args, out):
        model = args[0]
        self.counts["sec_nnz"] += len(model.constraints[-1].vars)

    def _on_pass(self, args, out):
        self._settle_pending = True

    def _on_verify(self, args, out):
        # the cutting loop asks right after every pass whether the pass
        # left a second decomposition
        if self._settle_pending:
            self._settle_pending = False
            self.counts["settled_passes"] += bool(out)

    def _on_fix(self, args, out):
        self.counts["fix_ok"] += bool(out)

    # ----------------------------------------------------------- summary

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        total = defaultdict(float)
        calls = Counter()
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start

        def self_time(name):
            return sum(
                s[2] - s[1] - child[i]
                for i, s in enumerate(spans)
                if s[0] == name
            )

        def under(name, ancestor, direct):
            """Spans of `name` below an `ancestor` span (directly or not)."""
            hits = []
            for s in spans:
                if s[0] != name:
                    continue
                p = s[3]
                while p >= 0 and spans[p][0] != ancestor:
                    p = -1 if direct else spans[p][3]
                if p >= 0:
                    hits.append(s)
            return hits

        def cli_child_s(name):
            return sum(s[2] - s[1] for s in under(name, "cli.experiment", True))

        c = self.counts
        nodes = c["nodes"]
        fixes = calls["heuristics.fix_edge"]
        passes = calls["heuristics.pass"]
        rows = calls["formulations.sec"]
        comp = ("multigraph.components", "heuristics.components")
        return {
            "instances.generate_s": total["instances.generate"],
            "multigraph.build_union_s": total["multigraph.build_union"],
            "multigraph.components_calls": sum(calls[n] for n in comp),
            "multigraph.components_s": sum(total[n] for n in comp),
            "multigraph.verify_s": total["multigraph.verify"],
            "formulations.build_s": total["formulations.build"],
            "formulations.decode_s": total["formulations.decode"],
            "formulations.sec_rows": rows,
            "formulations.sec_nnz_mean": c["sec_nnz"] / rows if rows else 0.0,
            "formulations.sec_s": total["formulations.sec"],
            "ilp.solve_calls": calls["ilp.solve"],
            "ilp.nodes": nodes,
            "ilp.nodes_max": c["nodes_max"],
            "ilp.solve_s": total["ilp.solve"],
            "ilp.us_per_node": (
                total["ilp.solve"] / nodes * 1e6 if nodes else 0.0
            ),
            "ilp.timeouts": c["timeouts"],
            "heuristics.passes": passes,
            "heuristics.s": total["heuristics.pass"],
            "heuristics.fix_edge_calls": fixes,
            "heuristics.fix_edge_ok_ratio": (
                c["fix_ok"] / fixes if fixes else 0.0
            ),
            "heuristics.components_calls": calls["heuristics.components"],
            "heuristics.accepts": c["accepts"],
            "heuristics.settle_ratio": (
                c["settled_passes"] / passes if passes else 0.0
            ),
            "heuristics.cut_rows": len(
                under("formulations.sec", "heuristics.pass", False)
            ),
            "solvers.iterations": c["iterations"],
            "solvers.cuts_added": c["cuts_added"],
            "solvers.self_s": self_time("solvers.solve"),
            "cli.experiment_s": total["cli.experiment"],
            "cli.generate_s": cli_child_s("instances.generate"),
            "cli.solve_s": cli_child_s("solvers.solve"),
            "cli.io_s": total["cli.io"],
            "cli.self_s": self_time("cli.experiment"),
        }
