import argparse
import hashlib
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import kspt
from kspt import cli, ks_sets, scan, selftest, supersinglet
from kspt.catalog import (
    catalog_ceg18,
    catalog_conway_kochen31,
    catalog_peres24,
    merged_peres,
    merged_window_bases,
)
from kspt.cli import _HANDLERS, run
from kspt.ks_sets import complete_set, enumerate_contexts, from_json_dict, to_json_dict
from kspt.supersinglet import levi_civita


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


@pytest.mark.parametrize(
    "command, flags",
    [
        ("catalog list", []),
        ("ks verify", ["--builtin", "ceg18"]),
        ("ks contexts", ["--builtin", "ceg18"]),
        ("ks complete", ["--builtin", "ceg18"]),
        ("state expand", ["--builtin", "ceg18", "--context", "0"]),
        ("state invariance", ["--d", "3", "--samples", "1", "--signed", "1"]),
        ("game quantum-verify", ["--builtin", "ceg18"]),
        ("game classical-bound", ["--builtin", "ceg18"]),
        ("selftest", ["--d", "4"]),
    ],
)
def test_every_report_command_has_the_report_shape(capsys, command, flags):
    code, report = run_report(capsys, [*command.split(), *flags])
    assert code == 0
    assert set(report) == {"command", "inputs_digest", "results", "timings_ms"}
    assert report["command"] == command
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
    # merged<d> has one spelling per d, so one set has one inputs_digest
    for name in ("merged05", "merged+5", "merged 5", "merged\u0665"):
        assert run(["ks", "contexts", "--builtin", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown builtin set" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ks", "verify"], "undefined without contexts"),
        (["game", "quantum-verify"], "need at least one context"),
        (["game", "classical-bound"], "need at least one context"),
        (["state", "expand", "--context", "0"], "out of range"),
        (["selftest", "--contexts", "0,1,2"], "canonical basis is not a context"),
    ],
)
def test_an_empty_context_list_is_not_replaced_by_the_enumerated_one(
    capsys, tmp_path, argv, message
):
    # five ck31 rays hold two bases, (0, 1, 2) and (0, 3, 4); the document
    # lists none, and its inputs_digest hashes that empty list
    vset = catalog_conway_kochen31()
    path = tmp_path / "no_contexts.json"
    doc = {"dim": 3, "vectors": [list(v) for v in vset.vectors[:5]], "contexts": []}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_report(capsys, ["ks", "contexts", "--set", str(path)])
    assert code == 0 and report["results"]["count"] == 0
    assert run([*argv, "--set", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_ks_contexts_counts(capsys):
    code, report = run_report(capsys, ["ks", "contexts", "--builtin", "ck31"])
    assert code == 0
    assert report["results"]["count"] == 17
    assert len(report["results"]["contexts"]) == 17


@pytest.mark.parametrize(
    "context, message",
    [
        ([0, 1, 3], "context (0, 1, 3) is not an orthogonal basis"),
        ([0, 1, 1], "context (0, 1, 1) must have 3 distinct members"),
        ([0, 1, 4], "context (0, 1, 4) has a member outside [0, 4)"),
    ],
    ids=["not a basis", "repeated member", "out of range"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "export"],
        ["ks", "verify"],
        ["ks", "contexts"],
        ["ks", "complete"],
        ["state", "expand", "--context", "0"],
        ["game", "quantum-verify"],
        ["game", "classical-bound"],
        ["selftest", "--contexts", "0,1,2"],
    ],
    ids=" ".join,
)
def test_ks_contexts_rejects_a_document_context_that_is_not_a_basis(
    capsys, tmp_path, argv, context, message
):
    # every command that reads a document refuses a bad listed context with
    # the one message of check_context
    path = tmp_path / "not_a_basis.json"
    doc = {"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], "contexts": [context]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run([*argv, "--set", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ks_verify_deeper_than_the_recursion_limit(capsys, tmp_path):
    # a colourable set that branches on more contexts than Python's recursion
    # limit gets its report and exit 1, not a traceback; disjoint d = 2
    # contexts (1, k), (k, -1), read by their own edges so no graph is built
    m = sys.getrecursionlimit() + 100
    vectors = [ray for k in range(1, m + 1) for ray in ([1, k], [k, -1])]
    doc = {"dim": 2, "vectors": vectors, "contexts": [[2 * i, 2 * i + 1] for i in range(m)]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run(["ks", "verify", "--edges-from-contexts-only", "--set", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    results = json.loads(captured.out)["results"]
    assert (results["verdict"], results["nodes"]) == ("colorable", m)


def _completed_ck31_doc():
    completed = complete_set(catalog_conway_kochen31())
    return to_json_dict(completed, enumerate_contexts(completed))


@pytest.mark.parametrize(
    "argv, document, checks, graphs",
    [
        (["ks", "verify", "--builtin", "merged6"], None, 0, 1),
        (["game", "classical-bound", "--builtin", "ceg18"], None, 9, 0),
        (["game", "quantum-verify"],
         lambda: to_json_dict(merged_peres(5), merged_window_bases(5)[:1]), 1, 0),
        (["selftest", "--builtin", "ck31", "--contexts", "0,3,4", "1,5,6"], None, 0, 1),
        (["ks", "verify", "--edges-from-contexts-only"], _completed_ck31_doc, 41, 0),
        (["ks", "complete"], lambda: to_json_dict(*catalog_ceg18()), 9, 0),
        # 126 contexts of 15 pairs each cost more inner products than the
        # graph's 1431, so they are read off the graph
        (["ks", "verify", "--edges-from-contexts-only"],
         lambda: to_json_dict(merged_peres(6), enumerate_contexts(merged_peres(6))), 126, 1),
    ],
    ids=["ks verify merged6", "classical ceg18", "quantum merged5 window",
         "selftest ck31", "ks verify completed ck31", "ks complete ceg18",
         "ks verify merged6 listed"],
)
def test_each_listed_context_is_checked_once_and_no_enumerated_one(
    capsys, tmp_path, monkeypatch, argv, document, checks, graphs
):
    # a listed context is checked once, by ContextSystem.of, without the
    # set's graph unless many are listed; an enumerated one, a d-clique of
    # that graph, not at all
    if document is not None:
        path = tmp_path / "set.json"
        path.write_text(json.dumps(document()), encoding="utf-8")
        argv = [*argv, "--set", str(path)]
    calls = {"check_context": 0, "build_orthogonality_graph": 0}
    for name in calls:
        original = getattr(ks_sets, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        # wherever a kspt module binds the function, as the bench tracer does
        for module in [m for key, m in sys.modules.items() if key.startswith("kspt.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert run(argv) == 0
    capsys.readouterr()
    assert (calls["check_context"], calls["build_orthogonality_graph"]) == (checks, graphs)


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


@pytest.mark.parametrize(
    "name, digest",
    [
        ("ck31", "347f14b6b591feea743c1998ad960c5e76c89c61275793745163366720d5b52e"),
        ("ceg18", "2ee197afc301049a37d811906aec4188edaea5439a6616b80a1625ff94ce83bc"),
    ],
)
def test_ks_complete_adds_its_rays_in_a_pinned_order(capsys, name, digest):
    # the rays come in the order of the uncovered pairs, round by round
    code, report = run_report(capsys, ["ks", "complete", "--builtin", name])
    assert code == 0
    added = json.dumps(report["results"]["added"])
    assert hashlib.sha256(added.encode()).hexdigest() == digest


def test_ks_complete_does_not_enumerate_the_input_contexts(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ks complete reads no contexts")

    monkeypatch.setattr("kspt.ks_sets.ContextSystem.of", refuse)
    code, report = run_report(capsys, ["ks", "complete", "--builtin", "ck31"])
    assert code == 0
    assert report["results"]["completed_size"] == 55


def test_ks_complete_over_its_round_limit_exits_two(capsys, monkeypatch):
    # ck31 needs three rounds to close; over the limit is a refusal, not a fault
    monkeypatch.setattr("kspt.ks_sets.MAX_ROUNDS", 1)
    assert run(["ks", "complete", "--builtin", "ck31"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "did not stabilize" in captured.err


def test_a_fault_inside_a_handler_propagates(monkeypatch):
    # only ValueError and OSError are refusals; a KeyError is a program fault
    def fault(args):
        raise KeyError("fault")

    monkeypatch.setitem(_HANDLERS, "catalog", fault)
    with pytest.raises(KeyError):
        run(["catalog", "list"])


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


@pytest.mark.parametrize(
    "name, context, digest",
    [
        ("ceg18", 8, "8e8c75258ee3851be1be11f8ece337a0c72149180470b2ca5d5dd02a45b7a708"),
        ("ck31", 0, "9166576bcbfa9659d68338697ae2397d4958c793bdee3b3d0d2783dee7fb9035"),
        ("merged5", 0, "1014cafad6cfb70a2cbf8e029b9c286abfbe2c3e359c6229b50fc02105d10616"),
    ],
)
def test_state_expand_results_are_pinned(capsys, name, context, digest):
    # sha256 of the canonical JSON of results, recorded when the re-expansion
    # read the product expansion term by term
    code, report = run_report(
        capsys, ["state", "expand", "--builtin", name, "--context", str(context)]
    )
    assert code == 0
    canonical = json.dumps(report["results"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest


def test_state_expand_bad_context_index(capsys):
    code = run(["state", "expand", "--builtin", "ceg18", "--context", "99"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_state_expand_builds_the_state_once(capsys, monkeypatch):
    # the re-expansion reads the signs off the state it is given, so the
    # d!-term state is built once per command
    built = []
    original = supersinglet.build_supersinglet

    def counting(d):
        built.append(d)
        return original(d)

    monkeypatch.setattr(supersinglet, "build_supersinglet", counting)
    monkeypatch.setattr(cli, "build_supersinglet", counting)
    code, report = run_report(capsys, ["state", "expand", "--builtin", "ceg18", "--context", "0"])
    assert code == 0
    assert report["results"]["total_probability"] == "1/1"
    assert built == [4]


def test_selftest_builds_the_state_once(capsys, monkeypatch):
    # the sign vector and the witness are read off one state
    built = []
    original = supersinglet.build_supersinglet

    def counting(d):
        built.append(d)
        return original(d)

    for module in (supersinglet, cli, selftest):
        monkeypatch.setattr(module, "build_supersinglet", counting)
    code, report = run_report(capsys, ["selftest", "--d", "5"])
    assert code == 0
    assert report["results"]["rank"] == 119 and report["results"]["witness"]
    assert built == [5]
    code, report = run_report(capsys, ["selftest", "--builtin", "peres24", "--contexts", "4,5,6,7"])
    assert code == 1
    assert report["results"]["witness"] is None
    assert built == [5, 4]


def test_state_invariance_builds_the_state_once(capsys, monkeypatch):
    # both invariance checks read the state the handler built, so the dense
    # samples build no state of their own
    built = []
    original = supersinglet.build_supersinglet

    def counting(d):
        built.append(d)
        return original(d)

    monkeypatch.setattr(supersinglet, "build_supersinglet", counting)
    monkeypatch.setattr(cli, "build_supersinglet", counting)
    argv = ["state", "invariance", "--d", "5", "--samples", "4", "--signed", "2"]
    code, report = run_report(capsys, argv)
    assert code == 0
    assert report["results"]["special_unitary_samples"] == 4
    assert built == [5]


@pytest.mark.parametrize("d", [9, 10])
def test_the_state_budget_refuses_before_any_term_or_row(capsys, monkeypatch, tmp_path, d):
    # a canonical-basis document of dimension d > 8: state expand and the
    # self-test's rows both need the d!-term state, and neither builds a
    # permutation or an expansion row before the refusal
    def refuse(*args, **kwargs):
        raise AssertionError("nothing d!-sized may be built for a refused request")

    monkeypatch.setattr("kspt.supersinglet.permutations", refuse)
    monkeypatch.setattr("kspt.selftest._multiset_expansion", refuse)
    path = tmp_path / f"dim{d}.json"
    vectors = [[int(i == j) for j in range(d)] for i in range(d)]
    path.write_text(json.dumps({"dim": d, "vectors": vectors, "contexts": [list(range(d))]}))
    everything = ",".join(map(str, range(d)))
    for argv in (
        ["state", "expand", "--set", str(path), "--context", "0"],
        ["selftest", "--set", str(path), "--contexts", everything],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"d={d} exceeds the budget of 8 for the d!-term state" in captured.err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--d", "9"], "--samples needs 2 <= --d <= 6"),
        (["--d", "12", "--samples", "1", "--signed", "0"], "--samples needs 2 <= --d <= 6"),
        (["--d", "3", "--samples", "-2", "--signed", "-1"], "must be non-negative"),
        (["--d", "3", "--signed", "-1"], "must be non-negative"),
        (
            ["--d", "9", "--samples", "0", "--signed", "1"],
            "d=9 exceeds the budget of 8 for the d!-term state",
        ),
        (["--d", "3", "--tolerance", "-1"], "--tolerance must be finite and non-negative"),
        (["--d", "3", "--tolerance", "nan"], "--tolerance must be finite and non-negative"),
        (["--d", "3", "--tolerance", "inf"], "--tolerance must be finite and non-negative"),
        (["--d", "3", "--tolerance=-inf"], "--tolerance must be finite and non-negative"),
    ],
)
def test_state_invariance_refuses_bad_requests_before_building_the_state(
    capsys, monkeypatch, argv, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("the state must not be built for a refused request")

    monkeypatch.setattr("kspt.cli.build_supersinglet", refuse)
    assert run(["state", "invariance", *argv]) == 2
    assert message in capsys.readouterr().err


def test_state_invariance_exit_code_is_the_reports_verdict(capsys, monkeypatch):
    # the exit code reads InvarianceReport.invariant, not a second comparison
    monkeypatch.setattr(supersinglet.InvarianceReport, "invariant", property(lambda self: False))
    assert run(["state", "invariance", "--d", "3", "--samples", "1", "--signed", "0"]) == 1
    assert run(["state", "invariance", "--d", "3", "--samples", "0", "--signed", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["\u0661", "1_0", " 0.5"])
def test_tolerance_has_one_spelling(capsys, raw):
    # float() would read these as 1.0, 10.0 and 0.5 and run the command
    argv = ["state", "invariance", "--d", "3", "--samples", "1", "--signed", "0"]
    assert run([*argv, "--tolerance", raw]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid real value: {raw!r}" in captured.err


@pytest.mark.parametrize(
    "raw, code, message",
    [
        ("+0.5", 0, ""),
        ("+1e-10", 0, ""),
        ("NaN", 2, "--tolerance must be finite and non-negative"),
        ("Infinity", 2, "--tolerance must be finite and non-negative"),
        ("-nan", 2, "--tolerance must be finite and non-negative"),
    ],
)
def test_tolerance_keeps_the_other_float_spellings(capsys, raw, code, message):
    argv = ["state", "invariance", "--d", "3", "--samples", "1", "--signed", "0"]
    assert run([*argv, f"--tolerance={raw}"]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, digest",
    [
        ("ceg18", "29d53ed82b483f154245eb7544d48926ca18b1e3584e1aa5d49f6e1f0ec84b21"),
        ("ck31", "eb286654415a3cea26ab2525c9b7f767cc6811447af76079bb76e8ed3294ae46"),
        ("merged5", "9274a61aff03c07fd0ea95c65f66dee4d5e034cb2f34483353bffe57cc1b108b"),
    ],
)
def test_game_quantum_verify_results_are_pinned(capsys, name, digest):
    # sha256 of the canonical JSON of results; a change to the quantum path
    # must reproduce every per-input probability bit for bit
    code, report = run_report(capsys, ["game", "quantum-verify", "--builtin", name])
    assert code == 0
    canonical = json.dumps(report["results"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest


def test_game_quantum_verify_perfect(capsys):
    code, report = run_report(capsys, ["game", "quantum-verify", "--builtin", "ceg18"])
    assert code == 0
    results = report["results"]
    assert results["min"] == "1/1"
    assert results["perfect"] is True
    assert len(results["per_input"]) == 36
    assert all(entry["p"] == "1/1" for entry in results["per_input"])


@pytest.mark.parametrize("name, inputs", [("merged6", 756), ("merged7", 2009)])
def test_game_quantum_verify_is_perfect_at_d6_and_d7(capsys, name, inputs):
    # the paper's claim, every input won with probability exactly 1, for d = 6
    # and 7 on every enumerated context
    code, report = run_report(capsys, ["game", "quantum-verify", "--builtin", name])
    assert code == 0
    results = report["results"]
    assert results["perfect"] is True
    assert results["min"] == "1/1"
    assert len(results["per_input"]) == inputs
    assert all(entry["p"] == "1/1" for entry in results["per_input"])


def test_game_classical_bound(capsys):
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


def test_game_classical_bound_answers_ck31_by_default(capsys):
    # n = 31; the search enters 17,590 nodes, far inside its budget
    code, report = run_report(capsys, ["game", "classical-bound", "--builtin", "ck31"])
    assert code == 0
    assert report["results"]["value"] == "1/1"
    assert report["results"]["best_total"] == 51


def test_game_classical_bound_refusal_names_the_node_budget(capsys, monkeypatch):
    # merged5 enters 38,306 nodes, past a budget of 1,000
    monkeypatch.setattr(scan, "MAX_NODES", 1000)
    assert run(["game", "classical-bound", "--builtin", "merged5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget of 1000 nodes" in captured.err
    assert "n = 39 vertices" in captured.err
    assert "m = 50 contexts" in captured.err
    assert "scan" not in captured.err


def test_game_classical_bound_is_bounded_by_nodes_not_n(capsys, tmp_path):
    # one context of the canonical basis at d = 64: n = 64, a score table of
    # d + 1 entries, and 65 nodes entered
    d = 64
    path = tmp_path / "dim64.json"
    path.write_text(json.dumps({
        "dim": d,
        "vectors": [[int(i == j) for j in range(d)] for i in range(d)],
        "contexts": [list(range(d))],
    }))
    code, report = run_report(capsys, ["game", "classical-bound", "--set", str(path)])
    assert code == 0
    assert report["results"]["value"] == "1/1"
    assert report["results"]["n"] == d


@pytest.mark.parametrize("chunk", ["+0,3,4", "0,03,4", "1_0,5,6", "\u0660,3,4", "0, 3,4"])
def test_selftest_contexts_have_one_spelling(capsys, chunk):
    # int() would read each of these as a valid ck31 context or another index
    assert run(["selftest", "--builtin", "ck31", "--contexts", chunk, "1,5,6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"context {chunk!r} is not a comma-separated index list" in captured.err


@pytest.mark.parametrize("raw", ["+4", "٤", "04", "4_0", " 4", "-0"])
def test_integer_flags_have_one_spelling(capsys, raw):
    # int() would read these as 4, 40 or 0 and run the command
    for argv in (
        ["selftest", "--d", raw],
        ["state", "invariance", "--d", raw, "--samples", "0", "--signed", "0"],
        ["state", "invariance", "--d", "3", "--samples", raw, "--signed", "0"],
        ["state", "invariance", "--d", "3", "--samples", "0", "--signed", raw],
        ["state", "invariance", "--d", "3", "--samples", "0", "--signed", "0", "--seed", raw],
        ["state", "expand", "--builtin", "ceg18", "--context", raw],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid integer value: {raw!r}" in captured.err


def test_selftest_merged_d4(capsys):
    code, report = run_report(capsys, ["selftest", "--d", "4"])
    assert code == 0
    results = report["results"]
    assert results["rank"] == 23
    assert results["nullity"] == 1
    assert results["unique"] is True
    assert results["witness"]["0,1,2,3"] == "1/1"
    assert results["witness"]["1,0,2,3"] == "-1/1"


def test_selftest_d6_certifies_and_is_pinned(capsys):
    # sha256 of the canonical JSON of results, recorded with the dense
    # elimination; the 3240 x 720 system must give the same rank and witness
    code, report = run_report(capsys, ["selftest", "--d", "6"])
    assert code == 0
    results = report["results"]
    assert (results["rows"], results["rank"], results["nullity"]) == (3240, 719, 1)
    assert results["unique"] is True
    assert results["witness"] == {
        ",".join(map(str, p)): f"{levi_civita(p)}/1" for p in permutations(range(6))
    }
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "79b840ddf41fdc00f75cfe17ebad14af8e971f67836d20f57a19b6ef55e9ff1c"
    )


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


def test_selftest_support_accepts_document_contexts_in_any_member_order(capsys, tmp_path):
    # the document lists the canonical basis as [2, 1, 0]
    vset = catalog_conway_kochen31()
    contexts = [(2, 1, 0) if c == (0, 1, 2) else c for c in enumerate_contexts(vset)]
    path = tmp_path / "ck31_reordered.json"
    path.write_text(json.dumps(to_json_dict(vset, contexts)), encoding="utf-8")
    code, report = run_report(
        capsys, ["selftest", "--set", str(path), "--contexts", "0,3,4", "1,5,6"]
    )
    assert code == 0
    assert report["results"]["canonical_context"] == [0, 1, 2]
    assert report["results"]["unique"] is True


def test_selftest_rejects_row_contexts_the_game_does_not_measure(capsys, tmp_path):
    # (0, 3, 4) is an orthogonal basis of ck31, but the document's game
    # measures only (0, 1, 2) and (1, 5, 6)
    path = tmp_path / "ck31_two_contexts.json"
    vset = catalog_conway_kochen31()
    path.write_text(json.dumps(to_json_dict(vset, [(0, 1, 2), (1, 5, 6)])), encoding="utf-8")
    code = run(["selftest", "--set", str(path), "--contexts", "0,3,4", "1,5,6"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "not a context of the game" in captured.err
    code, report = run_report(capsys, ["selftest", "--set", str(path), "--contexts", "1,5,6"])
    assert code == 1
    assert report["results"]["nullity"] == 3


@pytest.mark.parametrize(
    "contexts", [["0,3,99"], ["0,1,99999999999"], ["0,3,-27", "1,5,6"], ["0,0,4", "1,5,6"]]
)
def test_selftest_rejects_context_members_outside_the_set(capsys, contexts):
    # 99 is past the 31 rays, and 99999999999 is refused before any mask
    # holds its bit; -27 must not be read as vertex 4, and since an index has
    # no sign it is refused as it is read; a repeated member is no context of
    # the game and gets check_context's message
    message = {
        "0,3,99": "outside [0, 31)",
        "0,1,99999999999": "has a member outside [0, 31)",
        "0,3,-27": "context '0,3,-27' is not a comma-separated index list",
        "0,0,4": "context (0, 0, 4) must have 3 distinct members",
    }[contexts[0]]
    code = run(["selftest", "--builtin", "ck31", "--contexts", *contexts])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and message in captured.err


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


def source_env():
    """The environment of a child that imports the same kspt as this suite, wherever pytest started."""
    src = str(Path(kspt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_run(argv, epilogue=""):
    """run(argv) in a new interpreter, then the Python statements of epilogue there."""
    script = f"import sys\nfrom kspt.cli import run\ncode = run(sys.argv[1:])\n{epilogue}\nsys.exit(code)"
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, timeout=120, env=source_env(),
    )


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
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    check_script_process([sys.executable, "-c", wrapper], source_env(), tmp_path)
    exe = shutil.which("kspt")
    if exe is not None:
        check_script_process([exe], dict(os.environ), tmp_path)


def parse_with(parser, argv, capsys):
    """(exit code, stdout, stderr) of parser.parse_args(argv) when it exits, as for --help or a usage error."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return (exc.value.code or 0, *capsys.readouterr())


def test_the_shared_parser_carries_nothing_from_one_call_to_the_next(capsys, monkeypatch):
    # each flag set by one call is unset in the next; every report equals the
    # same argv's report from a fresh interpreter, timings aside
    d4_all = ["selftest", "--d", "4", "--all-contexts"]
    d4 = ["selftest", "--d", "4"]
    edges_only = ["ks", "verify", "--edges-from-contexts-only", "--builtin", "ck31"]
    verify = ["ks", "verify", "--builtin", "ck31"]
    contexts = ["selftest", "--builtin", "ck31", "--contexts", "0,3,4", "1,5,6"]
    usage = ["selftest", "--d", "4", "--builtin", "ck31"]
    fresh = {}
    for argv in (d4_all, d4, edges_only, verify, contexts):
        proc = fresh_run(argv)
        report = json.loads(proc.stdout)
        del report["timings_ms"]
        fresh[tuple(argv)] = proc.returncode, report
    fresh_parser = cli.build_parser.__wrapped__()

    # the first call builds the parser; no later one may build another
    assert run(d4_all) == fresh[tuple(d4_all)][0]
    capsys.readouterr()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (d4_all, d4, edges_only, verify, contexts, d4, usage, verify, ["--help"],
                 ["selftest", "--help"], edges_only):
        code = run(argv)
        out, err = capsys.readouterr()
        if tuple(argv) in fresh:
            report = json.loads(out)
            del report["timings_ms"]
            assert (code, report) == fresh[tuple(argv)], argv
        else:
            assert (code, out, err) == parse_with(fresh_parser, argv, capsys), argv
            assert code == (2 if argv is usage else 0)
    assert built == []


def test_exact_commands_leave_numpy_unloaded():
    loaded = "print('numpy' in sys.modules, file=sys.stderr)"
    proc = fresh_run(["ks", "verify", "--builtin", "ck31"], loaded)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"
    # the dense check and the seeded generators import it where they read it
    proc = fresh_run(["state", "invariance", "--d", "3", "--samples", "2", "--signed", "2"], loaded)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "True\n"
    assert json.loads(proc.stdout)["results"]["signed_determinants"] == ["-1/1", "1/1"]


def test_export_document_matches_library_serialization(capsys):
    code, doc = run_report(capsys, ["catalog", "export", "--builtin", "ceg18"])
    assert code == 0
    ceg, tetrads = catalog_ceg18()
    assert doc == to_json_dict(ceg, tetrads)


def test_public_names_resolve_once_in_sorted_order():
    names = kspt.__all__
    assert all(hasattr(kspt, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)
