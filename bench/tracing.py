"""Per-layer tracing from outside the program.

Tracer.install() replaces each traced kspt function at every module
attribute bound to it (``kspt.game.amplitude``, ``kspt.scan.best_assignment``,
...), which is where its callers resolve it, and uninstall() restores the
originals.  No file of the package changes.

Every traced call pushes a frame; on return its duration is added to the
parent frame's child time, so a function's self time is its duration minus
the traced calls it made.  Coarse calls also append a span
(name, start, end, parent span, job id); the hot ones, amplitude and
inner_product, only add to their summed time and call count.  Counters that
ratios need (lookups, nonzero amplitudes, rows) are taken at the same calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import kspt.cli  # noqa: F401  (imports every traced module)

# layer (kspt module) -> traced public functions of that module
TRACED = {
    "cli": ("run",),
    "catalog": (
        "load_builtin", "merged_peres", "merged_window_bases",
        "catalog_ceg18", "catalog_peres24", "catalog_conway_kochen31",
    ),
    "ks_sets": (
        "build_orthogonality_graph", "enumerate_contexts", "check_ks_property",
        "check_completeness", "complete_set",
    ),
    "game": ("classical_value_report", "verify_perfect_strategy", "quantum_joint_distribution"),
    "scan": ("best_assignment",),
    "supersinglet": ("build_supersinglet", "amplitude"),
    "selftest": (
        "general_d_selftest", "support_restriction_constraints", "pqs_constraint_rows",
        "assemble_and_solve", "verify_unique_supersinglet",
    ),
    "exact_linalg": (
        "inner_product", "row_echelon", "rank", "null_space_basis",
        "gram_schmidt", "orthocomplement_basis",
    ),
}
LAYERS = tuple(TRACED)
HOT = {"supersinglet.amplitude", "exact_linalg.inner_product"}
# traced function -> (counter, amount read off its return value)
RESULT_COUNTS = {
    "supersinglet.amplitude": ("supersinglet.amplitude_nonzero", lambda r: not r.is_zero),
    "selftest.pqs_constraint_rows": (
        "selftest.rows_generated", lambda rows: sum(len(r.provenance) for r in rows)),
    "selftest.assemble_and_solve": ("selftest.rows_kept", lambda sol: len(sol.rows)),
    "ks_sets.enumerate_contexts": ("ks_sets.contexts_found", len),
    "ks_sets.check_ks_property": ("ks_sets.dfs_nodes", lambda dec: dec.nodes),
}


class Tracer:
    """Spans, per-function [calls, total s, self s] and named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, str | None]] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._stack: list[list] = []  # [child seconds, span id]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "kspt" or name.startswith("kspt.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"kspt.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                key = f"{layer}.{fname}"
                wrapped = self._wrap(key, self._counting(key, original))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, key: str, fn):
        stack = self._stack
        stat = self.stats[key]
        spans = self.spans
        record = key not in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans) if record else parent]
            if record:
                spans.append(None)  # reserve the id; filled on return
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if record:
                    spans[frame[1]] = (key, t0, t1, parent, self.job)

        return traced

    def _counting(self, key: str, fn):
        """fn, plus the counters the per-layer ratios need from its calls."""
        counts = self.counts
        if key == "scan.best_assignment":
            def counted(members, tables, n, *args, **kwargs):
                counts["scan.lookups"] += len(members) << n
                c0 = time.process_time()
                try:
                    return fn(members, tables, n, *args, **kwargs)
                finally:
                    counts["scan.cpu_s"] += time.process_time() - c0
            return counted
        if key == "exact_linalg.row_echelon":
            def counted(rows, *args, **kwargs):
                counts["exact_linalg.matrix_cells"] += len(rows) * (len(rows[0]) if rows else 0)
                return fn(rows, *args, **kwargs)
            return counted
        if key not in RESULT_COUNTS:
            return fn
        name, amount = RESULT_COUNTS[key]

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += amount(result)
            return result
        return counted

    def calls(self, key: str) -> int:
        return self.stats[key][0] if key in self.stats else 0

    def total(self, key: str) -> float:
        return self.stats[key][1] if key in self.stats else 0.0

    def self_time(self, key: str) -> float:
        return self.stats[key][2] if key in self.stats else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(self.self_time(f"{layer}.{f}") for f in TRACED[layer])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, passes: int, report_bytes: int) -> dict[str, float]:
    """Per-pass layer figures from a tracer that ran `passes` passes."""
    c = tr.counts
    scan_s = tr.total("scan.best_assignment")
    amp_calls = tr.calls("supersinglet.amplitude")
    amp_s = tr.total("supersinglet.amplitude")
    generated = c["selftest.rows_generated"]
    totals = {
        "scan.best_assignment_s": scan_s,
        "scan.lookups": c["scan.lookups"],
        "game.classical_self_s": tr.self_time("game.classical_value_report"),
        "game.quantum_s": tr.total("game.verify_perfect_strategy"),
        "game.quantum_self_s": tr.self_time("game.verify_perfect_strategy")
        + tr.self_time("game.quantum_joint_distribution"),
        "game.inputs": tr.calls("game.quantum_joint_distribution"),
        "supersinglet.amplitude_calls": amp_calls,
        "supersinglet.amplitude_s": amp_s,
        "selftest.rows_s": tr.total("selftest.pqs_constraint_rows"),
        "selftest.rows_generated": generated,
        "selftest.rows_kept": c["selftest.rows_kept"],
        "selftest.solve_self_s": tr.self_time("selftest.assemble_and_solve"),
        "exact_linalg.row_echelon_calls": tr.calls("exact_linalg.row_echelon"),
        "exact_linalg.row_echelon_s": tr.total("exact_linalg.row_echelon"),
        "exact_linalg.null_space_self_s": tr.self_time("exact_linalg.null_space_basis"),
        "exact_linalg.matrix_cells": c["exact_linalg.matrix_cells"],
        "exact_linalg.inner_product_calls": tr.calls("exact_linalg.inner_product"),
        "ks_sets.graph_calls": tr.calls("ks_sets.build_orthogonality_graph"),
        "ks_sets.graph_s": tr.total("ks_sets.build_orthogonality_graph"),
        "ks_sets.contexts_s": tr.self_time("ks_sets.enumerate_contexts"),
        "ks_sets.contexts_found": c["ks_sets.contexts_found"],
        "ks_sets.dfs_s": tr.self_time("ks_sets.check_ks_property"),
        "ks_sets.dfs_nodes": c["ks_sets.dfs_nodes"],
        "ks_sets.complete_s": tr.total("ks_sets.complete_set"),
        "catalog.load_s": tr.layer_self("catalog"),
        "catalog.merged_builds": tr.calls("catalog.merged_peres"),
        "cli.self_s": tr.self_time("cli.run"),
        "cli.report_bytes": report_bytes,
    }
    for layer in LAYERS:
        if layer not in ("catalog", "cli"):
            totals[f"{layer}.self_s"] = tr.layer_self(layer)
    out = {name: value / passes for name, value in totals.items()}
    out["scan.lookups_per_s"] = _ratio(c["scan.lookups"], scan_s)
    out["scan.cpu_per_wall"] = _ratio(c["scan.cpu_s"], scan_s)
    out["supersinglet.amplitude_us"] = _ratio(amp_s, amp_calls) * 1e6
    out["supersinglet.amplitude_nonzero_ratio"] = _ratio(
        c["supersinglet.amplitude_nonzero"], amp_calls)
    out["selftest.rows_kept_ratio"] = _ratio(c["selftest.rows_kept"], generated)
    return out


def layers_self_total(tr: Tracer) -> float:
    """Summed self time of every layer: the traced wall time of the jobs."""
    return sum(tr.layer_self(layer) for layer in LAYERS)
