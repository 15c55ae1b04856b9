import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kspt
from kspt.catalog import catalog_ceg18, catalog_peres24
from kspt.cli import run
from kspt.ks_sets import from_json_dict, to_json_dict


def run_report(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_report_shape_and_digest(capsys):
    code, report = run_report(capsys, ["ks", "contexts", "--builtin", "peres24"])
    assert code == 0
    assert set(report) == {"command", "inputs_digest", "results", "timings_ms"}
    assert report["command"] == "ks contexts"
    assert re.fullmatch(r"[0-9a-f]{64}", report["inputs_digest"])
    assert "total" in report["timings_ms"]


def test_inputs_digest_is_deterministic_and_input_sensitive(capsys):
    _, first = run_report(capsys, ["ks", "contexts", "--builtin", "peres24"])
    _, second = run_report(capsys, ["ks", "contexts", "--builtin", "peres24"])
    _, other = run_report(capsys, ["ks", "contexts", "--builtin", "ceg18"])
    assert first["inputs_digest"] == second["inputs_digest"]
    assert first["inputs_digest"] != other["inputs_digest"]


def test_catalog_list(capsys):
    code, report = run_report(capsys, ["catalog", "list"])
    assert code == 0
    assert report["results"]["builtins"] == ["ceg18", "ck31", "peres24"]


def test_catalog_export_round_trips_bit_identically(capsys, tmp_path):
    code = run(["catalog", "export", "--builtin", "ceg18"])
    assert code == 0
    text = capsys.readouterr().out
    vset, contexts = from_json_dict(json.loads(text))
    ceg, tetrads = catalog_ceg18()
    assert vset == ceg
    assert contexts == tetrads
    path = tmp_path / "ceg.json"
    path.write_text(text, encoding="utf-8")
    code = run(["catalog", "export", "--set", str(path)])
    assert code == 0
    assert capsys.readouterr().out == text


def test_catalog_export_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "peres.json"
    code = run(["catalog", "export", "--builtin", "peres24", "--out", str(path)])
    assert code == 0
    run(["catalog", "export", "--builtin", "peres24"])
    stdout_text = capsys.readouterr().out
    assert path.read_text(encoding="utf-8") == stdout_text


def test_catalog_export_merged_family(capsys):
    code, doc = run_report(capsys, ["catalog", "export", "--builtin", "merged5"])
    assert code == 0
    vset, contexts = from_json_dict(doc)
    assert vset.dim == 5
    assert vset.n == 39
    assert contexts is None


def test_ks_verify_uncolorable_exits_zero(capsys):
    for name in ("ceg18", "peres24", "ck31"):
        code, report = run_report(capsys, ["ks", "verify", "--builtin", name])
        assert code == 0
        assert report["results"]["verdict"] == "uncolorable"
        assert "witness" not in report["results"]


@pytest.mark.parametrize(
    "argv, results",
    [
        (["--builtin", "merged10"], {"verdict": "uncolorable", "contexts": 6176, "nodes": 70}),
        (["--builtin", "merged6"], {"verdict": "uncolorable", "contexts": 126, "nodes": 42}),
        (
            ["--edges-from-contexts-only", "--builtin", "ck31"],
            {
                "verdict": "colorable",
                "contexts": 17,
                "nodes": 8,
                "witness": [1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0,
                            0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
            },
        ),
    ],
)
def test_ks_verify_results_are_pinned(capsys, argv, results):
    code, report = run_report(capsys, ["ks", "verify", *argv])
    assert code == (0 if results["verdict"] == "uncolorable" else 1)
    assert report["results"] == results


def test_ks_verify_colorable_exits_one(capsys, tmp_path):
    doc = {"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_report(capsys, ["ks", "verify", "--set", str(path)])
    assert code == 1
    assert report["results"]["verdict"] == "colorable"
    assert sum(report["results"]["witness"]) == 1


def test_ks_verify_missing_file_exits_two(capsys):
    code = run(["ks", "verify", "--set", "/nonexistent/rays.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_reports_location(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 3,\n "vectors": [[1, 0, 0],]}', encoding="utf-8")
    code = run(["ks", "verify", "--set", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err
    assert "line 2" in err


def test_unknown_builtin_exits_two(capsys):
    code = run(["ks", "verify", "--builtin", "nosuchset"])
    assert code == 2
    assert "nosuchset" in capsys.readouterr().err


def test_ks_contexts_counts(capsys):
    code, report = run_report(capsys, ["ks", "contexts", "--builtin", "ck31"])
    assert code == 0
    assert report["results"]["count"] == 17
    assert len(report["results"]["contexts"]) == 17


def test_ks_contexts_rejects_a_document_context_that_is_not_a_basis(capsys, tmp_path):
    path = tmp_path / "not_a_basis.json"
    doc = {"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], "contexts": [[0, 1, 3]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["ks", "contexts", "--set", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "not an orthogonal basis" in captured.err


def test_ks_complete_writes_the_closure(capsys, tmp_path):
    out = tmp_path / "completed.json"
    code, report = run_report(
        capsys, ["ks", "complete", "--builtin", "ceg18", "--out", str(out)]
    )
    assert code == 0
    assert report["results"]["original_size"] == 18
    assert report["results"]["completed_size"] == 44
    vset, _ = from_json_dict(json.loads(out.read_text(encoding="utf-8")))
    assert vset.n == 44


def test_ks_complete_does_not_enumerate_the_input_contexts(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ks complete reads no contexts")

    monkeypatch.setattr("kspt.cli.enumerate_contexts", refuse)
    code, report = run_report(capsys, ["ks", "complete", "--builtin", "ck31"])
    assert code == 0
    assert report["results"]["completed_size"] == 55


def test_state_expand_context_8(capsys):
    code, report = run_report(
        capsys, ["state", "expand", "--builtin", "ceg18", "--context", "8"]
    )
    assert code == 0
    results = report["results"]
    assert results["context"] == [12, 13, 14, 15]
    assert results["total_probability"] == "1/1"
    terms = results["terms"]
    assert len(terms) == 24
    assert terms[0]["outcome"] == [0, 1, 2, 3]
    assert terms[0]["coeff"] == "-8/1"
    assert terms[0]["scale"] == "1536/1"
    assert all(t["probability"] == "1/24" for t in terms)


def test_state_expand_bad_context_index(capsys):
    code = run(["state", "expand", "--builtin", "ceg18", "--context", "99"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_state_invariance_report(capsys):
    code, report = run_report(
        capsys,
        ["state", "invariance", "--d", "3", "--samples", "3", "--signed", "2"],
    )
    assert code == 0
    results = report["results"]
    assert results["max_deviation_identity"] <= results["tolerance"]
    assert results["signed_exact_det_covariance"] is True
    assert len(results["signed_determinants"]) == 2
    assert set(results["signed_determinants"]) <= {"1/1", "-1/1"}


def test_game_quantum_verify_perfect(capsys):
    code, report = run_report(capsys, ["game", "quantum-verify", "--builtin", "ceg18"])
    assert code == 0
    results = report["results"]
    assert results["min"] == "1/1"
    assert results["perfect"] is True
    assert len(results["per_input"]) == 36
    assert all(entry["p"] == "1/1" for entry in results["per_input"])


def test_game_classical_bound(capsys, monkeypatch):
    monkeypatch.delenv("KS_SEARCH_BUDGET", raising=False)
    code, report = run_report(capsys, ["game", "classical-bound", "--builtin", "ceg18"])
    assert code == 0
    results = report["results"]
    assert results["value"] == "35/36"
    assert results["best_total"] == 35
    assert results["trials"] == 36
    assert len(results["witness_strategy"]["assignment"]) == 18
    assert len(results["witness_strategy"]["context_choices"]) == 9
    # exact rationals are serialized as strings, never floats
    assert isinstance(results["value"], str)


def test_game_classical_bound_respects_budget(capsys, monkeypatch):
    monkeypatch.delenv("KS_SEARCH_BUDGET", raising=False)
    code = run(["game", "classical-bound", "--builtin", "ck31"])
    assert code == 2
    assert "KS_SEARCH_BUDGET" in capsys.readouterr().err


def test_selftest_merged_d4(capsys):
    code, report = run_report(capsys, ["selftest", "--d", "4"])
    assert code == 0
    results = report["results"]
    assert results["rank"] == 23
    assert results["nullity"] == 1
    assert results["unique"] is True
    assert results["witness"]["0,1,2,3"] == "1/1"
    assert results["witness"]["1,0,2,3"] == "-1/1"


def test_selftest_single_tetrad_fails(capsys):
    code, report = run_report(
        capsys, ["selftest", "--builtin", "peres24", "--contexts", "4,5,6,7"]
    )
    assert code == 1
    results = report["results"]
    assert results["rank"] == 18
    assert results["nullity"] == 6
    assert results["unique"] is False
    assert results["witness"] is None


def test_selftest_31_ray_contexts(capsys):
    code, report = run_report(
        capsys, ["selftest", "--builtin", "ck31", "--contexts", "0,3,4", "1,5,6"]
    )
    assert code == 0
    results = report["results"]
    assert results["d"] == 3
    assert results["rank"] == 5
    assert results["unique"] is True
    assert results["canonical_context"] == [0, 1, 2]
    assert results["witness"]["0,1,2"] == "1/1"
    assert results["witness"]["0,2,1"] == "-1/1"


def test_selftest_without_contexts_exits_two(capsys):
    code = run(["selftest", "--builtin", "ck31"])
    assert code == 2
    assert "needs --d or --contexts" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["selftest"], "one of the arguments --d --builtin --set is required"),
        (["selftest", "--contexts", "0,1,2"], "one of the arguments --d --builtin --set is required"),
        (["selftest", "--d", "4", "--builtin", "ck31"], "not allowed with argument --d"),
        (
            ["selftest", "--builtin", "ck31", "--contexts", "0,3,4", "1,5,6", "--all-contexts"],
            "--all-contexts needs --d",
        ),
        (["selftest", "--d", "4", "--contexts", "0,1,2,3"], "--contexts needs --builtin or --set"),
    ],
    ids=["no-source", "contexts-only", "d-and-set", "all-contexts-with-set", "contexts-with-d"],
)
def test_selftest_usage_errors_exit_two(capsys, argv, message):
    # exactly one source; --contexts only with a set, --all-contexts only with --d
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and message in captured.err


def test_selftest_support_is_checked_against_the_document_contexts(capsys, tmp_path):
    # this game never measures the canonical basis, although its four rays are in the set
    path = tmp_path / "peres24_two_tetrads.json"
    doc = to_json_dict(catalog_peres24(), [(4, 5, 6, 7), (8, 9, 10, 11)])
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run(["selftest", "--set", str(path), "--contexts", "4,5,6,7", "8,9,10,11"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "not a context" in captured.err


@pytest.mark.parametrize("contexts", [["0,3,99"], ["0,3,-27", "1,5,6"]])
def test_selftest_rejects_context_members_outside_the_set(capsys, contexts):
    # 99 is past the 31 rays; -27 must not be read as vertex 4
    code = run(["selftest", "--builtin", "ck31", "--contexts", *contexts])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "outside [0, 31)" in captured.err


def test_non_integer_document_entries_exit_two(capsys, tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(
        json.dumps({"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0.5, 1.9]]}),
        encoding="utf-8",
    )
    code = run(["ks", "verify", "--set", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "0.5" in captured.err


def test_selftest_rejects_out_of_range_d(capsys):
    assert run(["selftest", "--d", "3"]) == 2
    capsys.readouterr()


def test_no_arguments_exits_two(capsys):
    assert run([]) == 2
    capsys.readouterr()


def declared_script_target(name):
    """The ``module:attr`` target of ``name`` in ``[project.scripts]``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
        encoding="utf-8"
    )
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section is not None, "pyproject.toml has no [project.scripts]"
    entry = re.search(rf'^{name}\s*=\s*"([^"]+)"\s*$', section.group(1), re.M)
    assert entry is not None, f"[project.scripts] declares no {name}"
    return entry.group(1)


def check_script_process(argv_prefix, env, cwd):
    proc = subprocess.run(
        [*argv_prefix, "catalog", "list"],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert "ceg18" in report["results"]["builtins"]
    proc = subprocess.run(
        [*argv_prefix, "ks", "verify", "--builtin", "nosuchset"],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_installed_script_smoke(tmp_path):
    # The declared entry point runs in a fresh interpreter the way the
    # installed console-script wrapper calls it, so the check holds in an
    # uninstalled checkout too; an installed kspt on PATH is run as well.
    module, _, attr = declared_script_target("kspt").partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    # The child imports the same kspt as this suite, wherever pytest started.
    src = str(Path(kspt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    check_script_process([sys.executable, "-c", wrapper], env, tmp_path)
    exe = shutil.which("kspt")
    if exe is not None:
        check_script_process([exe], dict(os.environ), tmp_path)


def test_export_document_matches_library_serialization(capsys):
    code, doc = run_report(capsys, ["catalog", "export", "--builtin", "ceg18"])
    assert code == 0
    ceg, tetrads = catalog_ceg18()
    assert doc == to_json_dict(ceg, tetrads)
