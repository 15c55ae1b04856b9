"""Exact checks on the JSON reports the benchmark jobs print.

A job passes only if its exit code is 0 and every fact below holds exactly:

- classical-bound: the value equals the pinned fraction, and the witness
  assignment with its context choices re-scores to best_total through
  kspt.game.winning_predicate on the job's own input;
- quantum-verify: every (x, y) input appears once with p = 1/1;
- selftest: rank d! - 1, nullity 1, and a witness equal to the Levi-Civita
  signs on all d! permutations;
- ks verify: verdict uncolorable over the pinned number of contexts;
- ks complete: the pinned original and completed sizes.

Witnesses are re-scored, never compared with pinned bits, so inputs relabelled
by another seed stay checkable.
"""

from __future__ import annotations

import json
import math
from itertools import permutations

from kspt import GameSpec, enumerate_contexts, from_json_dict, levi_civita, winning_predicate


def _load_spec(path: str) -> GameSpec:
    with open(path, "r", encoding="utf-8") as fh:
        vset, contexts = from_json_dict(json.load(fh))
    contexts = contexts if contexts else enumerate_contexts(vset)
    return GameSpec(d=vset.dim, vset=vset, contexts=tuple(contexts))


def _check_classical(results: dict, job) -> list[str]:
    spec = _load_spec(job.set_file)
    problems = []
    if results["value"] != job.expect["value"]:
        problems.append(f"value {results['value']} != {job.expect['value']}")
    trials = spec.m * spec.d
    if results["trials"] != trials or results["value"] != _fraction(results["best_total"], trials):
        problems.append("best_total, trials and value disagree")
    assignment = results["witness_strategy"]["assignment"]
    choices = results["witness_strategy"]["context_choices"]
    if len(assignment) != spec.vset.n or any(b not in (0, 1) for b in assignment):
        return problems + ["assignment is not a 0/1 vector over the vertices"]
    if len(choices) != spec.m:
        return problems + ["one context choice per context expected"]
    score = sum(
        winning_predicate(spec, x, y, tuple(choices[x]), assignment[y])
        for x, ctx in enumerate(spec.contexts)
        for y in ctx
    )
    if score != results["best_total"]:
        problems.append(f"witness scores {score}, report says {results['best_total']}")
    return problems


def _fraction(num: int, den: int) -> str:
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def _check_quantum(results: dict, job) -> list[str]:
    spec = _load_spec(job.set_file)
    expected = [(x, y) for x, ctx in enumerate(spec.contexts) for y in ctx]
    seen = [(e["x"], e["y"]) for e in results["per_input"]]
    problems = []
    if sorted(seen) != sorted(expected):
        problems.append("per_input does not list every (x, y) input once")
    wrong = [e for e in results["per_input"] if e["p"] != "1/1"]
    if wrong:
        problems.append(f"{len(wrong)} inputs with p != 1/1, first {wrong[0]}")
    if results["min"] != "1/1" or results["perfect"] is not True:
        problems.append("min/perfect do not report a perfect strategy")
    return problems


def _check_selftest(results: dict, job) -> list[str]:
    d = job.expect["d"]
    variables = math.factorial(d)
    problems = []
    if results["d"] != d or results["variables"] != variables:
        problems.append(f"expected d={d} over {variables} variables")
    if results["rank"] != variables - 1 or results["nullity"] != 1:
        problems.append(f"rank {results['rank']}, nullity {results['nullity']}")
    if results["unique"] is not True:
        problems.append("not reported unique")
    signs = {
        ",".join(map(str, p)): f"{levi_civita(p)}/1" for p in permutations(range(d))
    }
    if results["witness"] != signs:
        problems.append("witness is not the Levi-Civita sign vector")
    return problems


def _check_ks_verify(results: dict, job) -> list[str]:
    problems = []
    if results["verdict"] != "uncolorable" or "witness" in results:
        problems.append(f"verdict {results['verdict']}")
    if results["contexts"] != job.expect["contexts"]:
        problems.append(f"{results['contexts']} contexts != {job.expect['contexts']}")
    return problems


def _check_ks_complete(results: dict, job) -> list[str]:
    got = (results["original_size"], results["completed_size"], len(results["added"]))
    want = (
        job.expect["original_size"],
        job.expect["completed_size"],
        job.expect["completed_size"] - job.expect["original_size"],
    )
    return [] if got == want else [f"sizes (original, completed, added) {got} != {want}"]


_CHECKERS = {
    "classical": _check_classical,
    "quantum": _check_quantum,
    "selftest": _check_selftest,
    "ks-verify": _check_ks_verify,
    "ks-complete": _check_ks_complete,
}


def check_job(job, code: int, stdout: str) -> list[str]:
    """Problems with one job's exit code and report; empty when it passes."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(stdout)
        return _CHECKERS[job.kind](report["results"], job)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
