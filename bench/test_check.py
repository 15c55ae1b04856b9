"""The exact checker accepts true reports and rejects one corrupted value or bit.

    python3 -m pytest bench/test_check.py
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from check import check_job  # noqa: E402
from kspt import cli  # noqa: E402
from workloads import build_jobs  # noqa: E402


def report_of(capsys, job) -> dict:
    code = cli.run(list(job.argv))
    assert code == 0
    return json.loads(capsys.readouterr().out)


def failed(job, report: dict) -> bool:
    return bool(check_job(job, 0, json.dumps(report)))


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    out = {}
    for workload in ("classical-scan", "quantum-verify", "selftest", "ks-structure"):
        directory = tmp_path_factory.mktemp(workload)
        out.update({job.name: job for job in build_jobs(workload, 3, str(directory))})
    return out


def test_true_reports_pass(capsys, jobs):
    for name in ("classical ceg18", "quantum ck31", "selftest ck31", "ks complete ceg18"):
        assert check_job(jobs[name], 0, json.dumps(report_of(capsys, jobs[name]))) == []


def test_nonzero_exit_fails(capsys, jobs):
    job = jobs["ks complete ceg18"]
    assert check_job(job, 1, json.dumps(report_of(capsys, job)))


def test_classical_value_and_witness_corruptions_fail(capsys, jobs):
    job = jobs["classical ceg18"]
    good = report_of(capsys, job)["results"]

    bad = copy.deepcopy(good)
    bad["value"] = "17/18"
    assert failed(job, {"results": bad})

    bad = copy.deepcopy(good)
    bad["best_total"] -= 1
    assert failed(job, {"results": bad})

    # a context choice that repeats a member wins no input of that context
    bad = copy.deepcopy(good)
    choice = bad["witness_strategy"]["context_choices"][0]
    choice[1] = choice[0]
    assert failed(job, {"results": bad})


def test_classical_witness_bit_flip_fails(capsys, jobs):
    from check import _load_spec
    from kspt import winning_predicate

    job = jobs["classical ceg18"]
    good = report_of(capsys, job)["results"]
    spec = _load_spec(job.set_file)
    choices = [tuple(c) for c in good["witness_strategy"]["context_choices"]]

    def score(assignment):
        return sum(winning_predicate(spec, x, y, choices[x], assignment[y])
                   for x, ctx in enumerate(spec.contexts) for y in ctx)

    assignment = good["witness_strategy"]["assignment"]
    assert score(assignment) == good["best_total"]
    # some flips keep the score (gains and losses cancel); take one that does not
    flips = [i for i in range(len(assignment))
             if score(assignment[:i] + [1 - assignment[i]] + assignment[i + 1:])
             != good["best_total"]]
    assert flips
    bad = copy.deepcopy(good)
    bad["witness_strategy"]["assignment"][flips[0]] ^= 1
    assert failed(job, {"results": bad})


def test_quantum_probability_corruption_fails(capsys, jobs):
    job = jobs["quantum ck31"]
    good = report_of(capsys, job)["results"]
    bad = copy.deepcopy(good)
    bad["per_input"][5]["p"] = "8/9"
    assert failed(job, {"results": bad})
    bad = copy.deepcopy(good)
    del bad["per_input"][5]
    assert failed(job, {"results": bad})


def test_selftest_witness_sign_flip_fails(capsys, jobs):
    job = jobs["selftest ck31"]
    good = report_of(capsys, job)["results"]
    bad = copy.deepcopy(good)
    key = next(k for k, v in bad["witness"].items() if v == "-1/1")
    bad["witness"][key] = "1/1"
    assert failed(job, {"results": bad})
    bad = copy.deepcopy(good)
    bad["rank"] -= 1
    assert failed(job, {"results": bad})


def test_ks_corruptions_fail(capsys, jobs):
    job = jobs["ks complete ceg18"]
    good = report_of(capsys, job)["results"]
    bad = copy.deepcopy(good)
    bad["completed_size"] = 43
    assert failed(job, {"results": bad})

    verify = jobs["ks verify ck31 completed, context edges"]
    good = report_of(capsys, verify)["results"]
    assert not failed(verify, {"results": good})
    bad = dict(good, verdict="colorable")
    assert failed(verify, {"results": bad})


def test_malformed_report_fails(jobs):
    assert check_job(jobs["quantum ck31"], 0, "{not json")
    assert check_job(jobs["quantum ck31"], 0, json.dumps({"results": {}}))
