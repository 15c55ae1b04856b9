"""The names the benchmark reads from kspt still exist and still trace.

bench/tracing.py wraps each function in TRACED by attribute lookup on its
kspt module, and bench/harness.py reads results["lane"] from the
classical-bound report; a removed or renamed name would crash the benchmark
while every other test stays green.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from kspt import scan
from kspt.cli import run

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("kspt_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_and_traces(capsys):
    tracing = _load_tracing()
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


def test_scan_lane_names_exist():
    assert callable(scan.compiled_available)
    assert isinstance(scan.LANE, str)


def test_classical_bound_report_carries_the_lane(capsys):
    assert run(["game", "classical-bound", "--builtin", "ceg18"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["lane"] == scan.LANE
