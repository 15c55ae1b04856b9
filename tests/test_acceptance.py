"""Acceptance gate: ten end-to-end criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion lines print
straight to the terminal even under capture.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from kspt.catalog import (
    catalog_ceg18,
    catalog_conway_kochen31,
    catalog_peres24,
    merged_peres,
    merged_window_bases,
)
from kspt.exact_linalg import gram_schmidt
from kspt.game import (
    GameSpec,
    classical_value_report,
    verify_perfect_strategy,
)
from kspt.ks_sets import ContextSystem, VectorSet, check_ks_property, enumerate_contexts
from kspt.selftest import (
    assemble_and_solve,
    general_d_selftest,
    verify_unique_supersinglet,
)
from kspt.supersinglet import (
    amplitude,
    build_supersinglet,
    check_unitary_invariance,
    check_unitary_invariance_exact,
    levi_civita,
    random_signed_permutation,
    random_special_unitary,
    reexpand_in_basis,
)

from naive import naive_classical_value

# Transcribed reference expansion of the 4-party state in the tetrad of rays
# 12..15 (labels D, E, F, G): outcome tuple and sign of each of the 24 printed
# terms, in their printed order.
TRANSCRIBED_TETRAD_TERMS = [
    ((0, 1, 2, 3), 1), ((0, 1, 3, 2), -1), ((0, 2, 1, 3), -1), ((0, 2, 3, 1), 1),
    ((0, 3, 1, 2), 1), ((0, 3, 2, 1), -1), ((1, 0, 2, 3), -1), ((1, 0, 3, 2), 1),
    ((1, 2, 0, 3), 1), ((1, 2, 3, 0), -1), ((1, 3, 0, 2), -1), ((1, 3, 2, 0), 1),
    ((2, 0, 1, 3), 1), ((2, 0, 3, 1), -1), ((2, 1, 0, 3), -1), ((2, 1, 3, 0), 1),
    ((2, 3, 0, 1), 1), ((2, 3, 1, 0), -1), ((3, 0, 1, 2), -1), ((3, 0, 2, 1), 1),
    ((3, 1, 0, 2), 1), ((3, 1, 2, 0), -1), ((3, 2, 0, 1), -1), ((3, 2, 1, 0), 1),
]


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion-{criterion}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _toy_game() -> GameSpec:
    vset = VectorSet(
        dim=3,
        vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, -1), (0, 1, 1)),
    )
    return GameSpec(d=3, vset=vset, contexts=((0, 1, 2), (0, 3, 4)))


def test_criterion_01_ks_verification(capsys):
    budget_s = 10.0
    results = []
    ceg, tetrads = catalog_ceg18()
    cases = [
        ("18-ray", ceg, tetrads),
        ("24-ray", catalog_peres24(), None),
        ("31-ray", catalog_conway_kochen31(), None),
    ]
    ok = True
    for name, vset, contexts in cases:
        system = ContextSystem.of(vset, contexts)
        t0 = time.monotonic()
        decision = check_ks_property(system)
        dt = time.monotonic() - t0
        ok = ok and decision.uncolorable and dt < budget_s
        results.append(f"{name} {decision.verdict} in {dt:.3f}s")
    _report(capsys, 1, ok, "; ".join(results) + f" (budget {budget_s:.0f}s each)")


def test_criterion_02_perfect_quantum_strategies(capsys):
    ceg, tetrads = catalog_ceg18()
    games = [
        ("d=4 18-ray", GameSpec(d=4, vset=ceg, contexts=tuple(tetrads))),
        (
            "d=3 31-ray",
            GameSpec(
                d=3,
                vset=catalog_conway_kochen31(),
                contexts=tuple(enumerate_contexts(catalog_conway_kochen31())),
            ),
        ),
        *(
            (
                f"d={d} merged",
                GameSpec(d=d, vset=merged_peres(d), contexts=tuple(merged_window_bases(d))),
            )
            for d in (5, 6, 7)
        ),
    ]
    ok = True
    parts = []
    for name, spec in games:
        report = verify_perfect_strategy(spec)
        all_one = all(p == 1 for _, _, p in report.per_input)
        ok = ok and report.min_success == 1 and all_one
        parts.append(f"{name}: exact 1 on {len(report.per_input)} input pairs")
    _report(capsys, 2, ok, "; ".join(parts))


def test_criterion_03_classical_bound_18_ray(capsys):
    budget_s = 300.0
    ceg, tetrads = catalog_ceg18()
    spec = GameSpec(d=4, vset=ceg, contexts=tuple(tetrads))
    t0 = time.monotonic()
    report = classical_value_report(spec)
    dt = time.monotonic() - t0
    ok = report.value == Fraction(35, 36) and dt < budget_s
    _report(
        capsys,
        3,
        ok,
        f"classical value {report.value} (expected 35/36), branch-and-bound search, "
        f"{dt:.2f}s of {budget_s:.0f}s budget",
    )


def test_criterion_04_classical_bound_24_ray(capsys):
    reference = Fraction(59, 60)
    peres = catalog_peres24()
    contexts = enumerate_contexts(peres)
    spec = GameSpec(d=4, vset=peres, contexts=tuple(contexts))
    report = classical_value_report(spec)
    toy = _toy_game()
    oracle_holds = naive_classical_value(toy) == classical_value_report(toy).value
    if report.value == reference:
        ok = oracle_holds
        detail = f"classical value {report.value} matches reference 59/60"
    else:
        ok = report.value < 1 and oracle_holds
        detail = (
            f"computed {report.value} != reference {reference} with "
            f"{len(contexts)} contexts (open-question flag); value < 1: "
            f"{report.value < 1}; naive-oracle cross-check holds: {oracle_holds}"
        )
    _report(capsys, 4, ok, detail)


def test_criterion_05_tetrad_expansion(capsys):
    basis_indices = (12, 13, 14, 15)
    vectors = catalog_ceg18()[0].vectors
    expansion = reexpand_in_basis(
        build_supersinglet(4), [vectors[i] for i in basis_indices]
    )
    nonzero = {t: a for t, a in expansion.coefficients.items() if not a.is_zero}
    count_ok = len(nonzero) == 24
    weight_ok = all(a.probability == Fraction(1, 24) for a in nonzero.values())
    # the transcription fixes signs up to one global phase: the product of
    # each coefficient with its transcribed sign must be the same for all 24
    products = {
        nonzero[t].coeff * s for t, s in TRANSCRIBED_TETRAD_TERMS if t in nonzero
    }
    signs_ok = len(TRANSCRIBED_TETRAD_TERMS) == 24 and len(products) == 1
    ok = count_ok and weight_ok and signs_ok
    _report(
        capsys,
        5,
        ok,
        f"{len(nonzero)} nonzero outcome tuples, all squared magnitudes 1/24: "
        f"{weight_ok}, sign pattern matches all 24 transcribed terms: {signs_ok}",
    )


def test_criterion_06_selftest_d4(capsys):
    solution = assemble_and_solve(
        ContextSystem.of(catalog_peres24(), [(4, 5, 6, 7), (8, 9, 10, 11)])
    )
    unique, witness = verify_unique_supersinglet(solution)
    witness_ok = unique and all(
        witness.terms[p] == levi_civita(p) for p in permutations(range(4))
    )
    ok = solution.rank == 23 and solution.variables == 24 and solution.nullity == 1 and witness_ok
    _report(
        capsys,
        6,
        ok,
        f"rank {solution.rank} over {solution.variables} variables, nullity "
        f"{solution.nullity}, sign-vector witness: {witness_ok}",
    )


def test_criterion_07_selftest_d3_and_d5(capsys):
    budget_s = 120.0
    ck = catalog_conway_kochen31()
    solution3 = assemble_and_solve(ContextSystem.of(ck, [(0, 3, 4), (1, 5, 6)]))
    unique3, witness3 = verify_unique_supersinglet(solution3)
    d3_ok = (
        solution3.rank == 5
        and solution3.variables == 6
        and unique3
        and all(witness3.terms[p] == levi_civita(p) for p in permutations(range(3)))
    )
    t0 = time.monotonic()
    report5 = general_d_selftest(5)
    dt = time.monotonic() - t0
    d5_ok = (
        report5.variables == 120
        and report5.nullity == 1
        and report5.unique
        and dt < budget_s
    )
    ok = d3_ok and d5_ok
    _report(
        capsys,
        7,
        ok,
        f"d=3 rank {solution3.rank}/6 with sign witness: {d3_ok}; d=5 nullity "
        f"{report5.nullity} over {report5.variables} variables with sign witness "
        f"in {dt:.2f}s of {budget_s:.0f}s budget: {d5_ok}",
    )


def test_criterion_08_oracle_equivalence(capsys):
    spec = _toy_game()
    naive = naive_classical_value(spec)
    decomposed = classical_value_report(spec).value
    ok = naive == decomposed
    _report(
        capsys,
        8,
        ok,
        f"toy game ({spec.vset.n} vertices, {spec.m} contexts): decomposed "
        f"{decomposed} == naive {naive}",
    )


def test_criterion_09_invariance(capsys):
    tolerance = 1e-10
    max_dev = 0.0
    for d in (3, 4):
        for seed in range(20):
            rep = check_unitary_invariance(
                build_supersinglet(d), random_special_unitary(d, seed), tolerance=tolerance
            )
            max_dev = max(max_dev, rep.max_deviation_identity)
    unitary_ok = max_dev < tolerance
    signed_ok = True
    for d in (3, 4):
        state = build_supersinglet(d)
        for seed in range(5):
            rep = check_unitary_invariance_exact(
                state, list(random_signed_permutation(d, seed))
            )
            signed_ok = signed_ok and rep.equals_det_times_state
    ok = unitary_ok and signed_ok
    _report(
        capsys,
        9,
        ok,
        f"20 seeded special unitaries per d in {{3,4}}: max deviation "
        f"{max_dev:.2e} < {tolerance:.0e}; 5 signed permutations per d exactly "
        f"det-covariant: {signed_ok}",
    )


def test_criterion_10_antisymmetry_and_normalization(capsys):
    trials = 100
    swap_ok = True
    norm_ok = True
    for d in (3, 4, 5):
        rng = random.Random(d)
        state = build_supersinglet(d)
        for _ in range(trials):
            vs = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
            i, j = rng.sample(range(d), 2)
            swapped = list(vs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            a, b = amplitude(state, vs), amplitude(state, swapped)
            swap_ok = swap_ok and b.coeff == -a.coeff and b.scale == a.scale
        for _ in range(trials):
            while True:
                vs = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
                basis = gram_schmidt(vs)
                if len(basis) == d:
                    break
            total = reexpand_in_basis(state, [tuple(b) for b in basis]).total_probability()
            norm_ok = norm_ok and total == 1
    ok = swap_ok and norm_ok
    _report(
        capsys,
        10,
        ok,
        f"{trials} random tuples per d in {{3,4,5}}: party-swap sign flip exact: "
        f"{swap_ok}; re-expansion totals exactly 1 on {trials} random orthogonal "
        f"bases per d: {norm_ok}",
    )
