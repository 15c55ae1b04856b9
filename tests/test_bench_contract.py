"""The names the benchmark reads from kspt still exist and still trace.

bench/tracing.py wraps each function in TRACED by attribute lookup on its
kspt module, and bench/harness.py reads results["lane"] from the
classical-bound report; a removed or renamed name would crash the benchmark
while every other test stays green.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from kspt import scan
from kspt.cli import run

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"kspt_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_and_traces(capsys):
    tracing = _load_bench_module("tracing")
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"kspt.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"kspt.{layer}.{name}"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = run(["selftest", "--builtin", "ck31", "--contexts", "0,3,4", "1,5,6"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.calls("selftest.assemble_and_solve") == 1
    assert tracer.counts["selftest.rows_kept"] == 6
    assert tracer.counts["selftest.rows_generated"] > 6


def _traced_run(argv):
    tracer = _load_bench_module("tracing").Tracer()
    tracer.install()
    try:
        code = run(argv)
    finally:
        tracer.uninstall()
    return code, tracer


def test_classical_bound_traces_one_search(capsys):
    # the tracer's wrapper calls best_assignment as (members, tables, n)
    code, tracer = _traced_run(["game", "classical-bound", "--builtin", "ceg18"])
    capsys.readouterr()
    assert code == 0
    assert tracer.calls("scan.best_assignment") == 1


def test_ks_verify_counters_trace(capsys):
    code, tracer = _traced_run(["ks", "verify", "--builtin", "merged6"])
    capsys.readouterr()
    assert code == 0
    assert tracer.calls("ks_sets.enumerate_contexts") == 1
    assert tracer.calls("ks_sets.build_orthogonality_graph") == 1
    assert tracer.counts["ks_sets.contexts_found"] == 126
    assert tracer.counts["ks_sets.dfs_nodes"] == 42


def test_colorable_verify_builds_one_graph(capsys):
    # enumeration, the search and the witness check share the set's graph
    code, tracer = _traced_run(["ks", "verify", "--edges-from-contexts-only", "--builtin", "ck31"])
    capsys.readouterr()
    assert code == 1
    assert tracer.calls("ks_sets.build_orthogonality_graph") == 1


def test_selftest_builds_the_merged_set_once(capsys):
    code, tracer = _traced_run(["selftest", "--d", "4"])
    capsys.readouterr()
    assert code == 0
    assert tracer.calls("catalog.merged_peres") == 1


def test_selftest_elimination_traces(capsys):
    # the self-test takes one rank and no null space; rank must reach
    # row_echelon through its module attribute, where the tracer counts
    # calls and matrix cells
    code, tracer = _traced_run(["selftest", "--d", "4"])
    capsys.readouterr()
    assert code == 0
    assert tracer.calls("exact_linalg.rank") == 1
    assert tracer.calls("exact_linalg.row_echelon") == 1
    assert tracer.calls("exact_linalg.null_space_basis") == 0
    assert tracer.counts["exact_linalg.matrix_cells"] > 0


@pytest.mark.parametrize("seed", [1, 7])
def test_every_workload_builds_its_jobs(seed, tmp_path):
    workloads = _load_bench_module("workloads")
    for workload in workloads.WORKLOADS:
        directory = tmp_path / workload
        directory.mkdir()
        jobs = workloads.build_jobs(workload, seed, str(directory))
        assert jobs, workload
        for job in jobs:
            assert job.argv[0] in {"game", "selftest", "ks"}
            if job.set_file is not None:
                assert Path(job.set_file).is_file()


def test_scan_lane_names_exist():
    assert callable(scan.compiled_available)
    assert isinstance(scan.LANE, str)


def test_classical_bound_report_carries_the_lane(capsys):
    assert run(["game", "classical-bound", "--builtin", "ceg18"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["lane"] == scan.LANE
