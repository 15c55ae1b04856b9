import random
from fractions import Fraction

import numpy as np
import pytest

from kspt import game, scan
from kspt.catalog import catalog_ceg18, catalog_conway_kochen31, catalog_peres24, merged_peres
from kspt.cli import run
from kspt.game import (
    GameSpec,
    _best_choice,
    _outcome_weights,
    classical_value_report,
    quantum_joint_distribution,
    verify_perfect_strategy,
    winning_predicate,
)
from kspt.ks_sets import ContextSystem, VectorSet, enumerate_contexts
from kspt.supersinglet import SupersingletState, build_supersinglet

from naive import naive_best_choice, naive_classical_value, naive_joint_distribution


def ceg_game() -> GameSpec:
    vset, tetrads = catalog_ceg18()
    return GameSpec(d=4, vset=vset, contexts=tuple(tetrads))


def ck_game() -> GameSpec:
    vset = catalog_conway_kochen31()
    return GameSpec(d=3, vset=vset, contexts=tuple(enumerate_contexts(vset)))


def peres_game() -> GameSpec:
    vset = catalog_peres24()
    return GameSpec(d=4, vset=vset, contexts=tuple(enumerate_contexts(vset)))


def toy_game() -> GameSpec:
    vset = VectorSet(
        dim=3,
        vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, -1), (0, 1, 1)),
    )
    return GameSpec(d=3, vset=vset, contexts=((0, 1, 2), (0, 3, 4)))


def test_winning_predicate_examples():
    spec = ceg_game()
    # context 0 is (0, 1, 2, 3); leaving out y demands b = 1
    assert winning_predicate(spec, 0, 0, (1, 2, 3), 1)
    assert not winning_predicate(spec, 0, 0, (1, 2, 3), 0)
    # leaving out a member other than y demands b = 0
    assert winning_predicate(spec, 0, 1, (1, 2, 3), 0)
    assert not winning_predicate(spec, 0, 1, (1, 2, 3), 1)
    # outputting y itself is fine when the left-out member is not y
    assert winning_predicate(spec, 0, 0, (0, 1, 2), 0)
    assert not winning_predicate(spec, 0, 0, (0, 1, 2), 1)


def test_winning_predicate_rejects_degenerate_outputs():
    spec = ceg_game()
    # repeated first-party outputs never win
    assert not winning_predicate(spec, 0, 0, (1, 1, 2), 0)
    assert not winning_predicate(spec, 0, 0, (1, 1, 2), 1)
    # outputs outside the context never win
    assert not winning_predicate(spec, 0, 0, (1, 2, 17), 1)


def test_winning_predicate_input_validation():
    spec = ceg_game()
    with pytest.raises(ValueError):
        winning_predicate(spec, 0, 4, (1, 2, 3), 1)
    with pytest.raises(ValueError):
        winning_predicate(spec, 0, 0, (1, 2), 1)


def test_a_context_index_outside_the_game_is_refused():
    # x = -1 used to read the last context, and x = 9 to raise IndexError
    spec = ceg_game()
    last = spec.contexts[-1]
    for x in (-1, spec.m, 999):
        with pytest.raises(ValueError, match=r"context index -?\d+ is outside \[0, 9\)"):
            winning_predicate(spec, x, last[0], last[1:], 1)
        with pytest.raises(ValueError, match=r"outside \[0, 9\)"):
            quantum_joint_distribution(spec, x, last[0])


def test_game_spec_refuses_members_that_are_not_indices():
    vset = catalog_peres24()
    for member in (0.0, "0", False):
        with pytest.raises(ValueError, match="that is not an index"):
            GameSpec(d=4, vset=vset, contexts=((member, 1, 2, 3),))
    spec = GameSpec(d=4, vset=vset, contexts=(tuple(np.int64(v) for v in (0, 1, 2, 3)),))
    assert verify_perfect_strategy(spec).perfect


def test_game_spec_validation():
    vset, tetrads = catalog_ceg18()
    with pytest.raises(ValueError):
        GameSpec(d=3, vset=vset, contexts=tuple(tetrads))
    with pytest.raises(ValueError):
        GameSpec(d=4, vset=vset, contexts=())
    # wrong size, a repeated member, members outside [0, 18) (-18 would wrap
    # to vertex 0, 18 is past the end), and vectors 0 and 4, not orthogonal
    for ctx, reason in (
        (tuple(tetrads[0][:3]), "distinct members"),
        ((0, 0, 1, 2), "distinct members"),
        ((1, 2, 3, 18), r"outside \[0, 18\)"),
        ((-18, 1, 2, 3), r"outside \[0, 18\)"),
        ((0, 4, 2, 3), "not an orthogonal basis"),
    ):
        with pytest.raises(ValueError, match=reason):
            GameSpec(d=4, vset=vset, contexts=(tetrads[0], ctx))
    spec = ceg_game()
    assert spec.m == 9


def test_the_game_reads_any_context_system():
    # GameSpec is a ContextSystem with a keyword constructor and nothing more,
    # so the system the CLI loads is played as it is
    assert [k for k in vars(GameSpec) if not k.startswith("__")] == []
    for spec in (ceg_game(), peres_game(), toy_game()):
        system = ContextSystem.of(spec.vset, spec.contexts)
        assert isinstance(spec, ContextSystem) and type(system) is ContextSystem
        assert (system.d, system.m) == (spec.d, spec.m)
        assert verify_perfect_strategy(system) == verify_perfect_strategy(spec)
        assert classical_value_report(system) == classical_value_report(spec)
    empty = ContextSystem.of(ceg_game().vset, ())
    for entry in (verify_perfect_strategy, classical_value_report):
        with pytest.raises(ValueError, match="need at least one context"):
            entry(empty)


def test_quantum_joint_distribution_normalization_and_support():
    spec = ceg_game()
    for x in (0, 5):
        for y in spec.contexts[x]:
            dist = quantum_joint_distribution(spec, x, y)
            assert sum(dist.values(), Fraction(0)) == 1
            members = set(spec.contexts[x])
            for (a, b), p in dist.items():
                assert p > 0
                assert b in (0, 1)
                assert len(set(a)) == spec.d - 1
                assert set(a) <= members


def test_quantum_joint_distribution_rejects_foreign_y():
    spec = ceg_game()
    with pytest.raises(ValueError):
        quantum_joint_distribution(spec, 0, 17)


def test_reference_strategy_is_perfect_on_the_18_ray_game():
    report = verify_perfect_strategy(ceg_game())
    assert len(report.per_input) == 36
    assert report.min_success == 1
    assert report.perfect


def test_reference_strategy_is_perfect_on_the_31_ray_game():
    report = verify_perfect_strategy(ck_game())
    assert len(report.per_input) == 51
    assert report.min_success == 1
    assert report.perfect


def test_every_quantum_outcome_wins_when_perfect():
    spec = ck_game()
    for x in (0, 16):
        for y in spec.contexts[x]:
            dist = quantum_joint_distribution(spec, x, y)
            for (a, b), _ in dist.items():
                assert winning_predicate(spec, x, y, a, b)


def test_corrupted_state_breaks_perfection():
    spec = ceg_game()
    canonical = build_supersinglet(4)
    terms = dict(canonical.terms)
    terms[(0, 1, 2, 3)] = -terms[(0, 1, 2, 3)]
    corrupted = SupersingletState(d=4, terms=terms)
    report = verify_perfect_strategy(spec, state=corrupted)
    assert report.min_success == Fraction(167, 192)
    assert not report.perfect
    # per_input reads each context's shared outcome table; it must equal the
    # success summed from the joint distribution of every single (x, y)
    for state in (canonical, corrupted):
        expected = []
        for x, ctx in enumerate(spec.contexts):
            for y in ctx:
                dist = quantum_joint_distribution(spec, x, y, state)
                success = sum(
                    (p for (a, b), p in dist.items() if winning_predicate(spec, x, y, a, b)),
                    Fraction(0),
                )
                expected.append((x, y, success))
        assert verify_perfect_strategy(spec, state=state).per_input == tuple(expected)


def _sign_flipped(state, rng):
    # flip a few signs: no longer antisymmetric, still of norm 1
    terms = dict(state.terms)
    for pi in rng.sample(sorted(terms), k=3):
        terms[pi] = -terms[pi]
    return SupersingletState(d=state.d, terms=terms)


def merged_game(d: int) -> GameSpec:
    vset = merged_peres(d)
    return GameSpec(d=d, vset=vset, contexts=tuple(enumerate_contexts(vset)))


def _expansion_per_input(spec, state):
    # every input's success summed over the context's outcome weights
    per_input = []
    for x, ctx in enumerate(spec.contexts):
        weights, denominator = _outcome_weights(spec, x, state)
        for y in ctx:
            won = sum(
                w for t, w in weights.items() if winning_predicate(spec, x, y, t[:-1], t[-1] == y)
            )
            per_input.append((x, y, Fraction(won, denominator)))
    return tuple(per_input)


def test_determinant_path_matches_the_expansion_on_every_context():
    # c = 1, -1 and 2: p = c^2 on every input, from the determinant path and
    # from the expansion alike
    for spec in (ck_game(), ceg_game(), peres_game(), merged_game(5)):
        canonical = build_supersinglet(spec.d)
        for c in (1, -1, 2):
            state = SupersingletState(d=spec.d, terms={p: c * s for p, s in canonical.terms.items()})
            report = verify_perfect_strategy(spec, state=state)
            assert report.determinant_pairs is not None
            assert len(report.determinant_pairs) == spec.m
            assert report.per_input == _expansion_per_input(spec, state)
            assert {p for _, _, p in report.per_input} == {Fraction(c * c)}
            assert report.perfect == (c * c == 1)


def test_determinant_pairs_read_rescaled_rays_as_primitive_integers():
    # the same rays as toy_game, given as non-primitive and rational vectors
    spec = toy_game()
    rescaled = GameSpec(
        d=3,
        vset=VectorSet(
            dim=3,
            vectors=(
                (Fraction(1, 2), 0, 0), (0, -3, 0), (0, 0, 1),
                (0, Fraction(2, 3), Fraction(-2, 3)), (0, 5, 5),
            ),
        ),
        contexts=spec.contexts,
    )
    report = verify_perfect_strategy(rescaled)
    assert report == verify_perfect_strategy(spec)
    assert report.determinant_pairs == ((1, 1), (4, 4))
    assert report.per_input == _expansion_per_input(rescaled, build_supersinglet(3))


def test_an_antisymmetric_state_reads_no_expansion(monkeypatch):
    built = []

    def refuse(*args):
        raise AssertionError("an antisymmetric state needs no product expansion")

    def counting_build(d):
        built.append(d)
        return build_supersinglet(d)

    monkeypatch.setattr(game, "_outcome_weights", refuse)
    monkeypatch.setattr(game, "build_supersinglet", counting_build)
    # the default state has c = 1 and is not built; a passed state's signs
    # are read off its own keys, so no sign vector is built either
    assert verify_perfect_strategy(ceg_game()).perfect
    assert built == []
    assert verify_perfect_strategy(ceg_game(), build_supersinglet(4)).perfect
    assert built == []


def test_a_state_that_is_not_antisymmetric_is_summed_over_the_expansion(monkeypatch):
    spec = ck_game()
    canonical = build_supersinglet(3)
    calls = []

    def counting_weights(spec, x, state):
        calls.append(x)
        return _outcome_weights(spec, x, state)

    monkeypatch.setattr(game, "_outcome_weights", counting_weights)
    for state in (
        _sign_flipped(canonical, random.Random(3)),
        SupersingletState(d=3, terms={p: s for p, s in canonical.terms.items() if p != (2, 1, 0)}),
    ):
        calls.clear()
        report = verify_perfect_strategy(spec, state=state)
        assert report.determinant_pairs is None
        assert calls == list(range(spec.m))
        assert not report.perfect


def test_determinant_pairs_meet_hadamards_equality():
    # d pairwise orthogonal rows: det(V)^2 = prod |v_i|^2 on every context
    for d, m in ((5, 50), (6, 126), (7, 287)):
        report = verify_perfect_strategy(merged_game(d))
        assert len(report.determinant_pairs) == m
        assert all(det_squared == norms for det_squared, norms in report.determinant_pairs)
        assert report.perfect and len(report.per_input) == m * d


def test_quantum_joint_distribution_matches_the_all_tuples_oracle():
    # the oracle reads every tuple of C_x^d, including those whose first d-1
    # members repeat; for a state that is not antisymmetric they carry
    # probability, and the distribution must still sum to exactly 1
    rng = random.Random(5)
    for spec in (ck_game(), ceg_game()):
        canonical = build_supersinglet(spec.d)
        states = [canonical, _sign_flipped(canonical, rng), _sign_flipped(canonical, rng)]
        for x in rng.sample(range(spec.m), k=3):
            for state in states:
                for y in spec.contexts[x]:
                    dist = quantum_joint_distribution(spec, x, y, state)
                    assert dist == naive_joint_distribution(spec, x, y, state)
                    assert sum(dist.values(), Fraction(0)) == 1


def test_quantum_game_rejects_a_state_of_another_dimension():
    spec = ceg_game()
    for d in (3, 5):
        with pytest.raises(ValueError, match="state has d="):
            verify_perfect_strategy(spec, state=build_supersinglet(d))
        with pytest.raises(ValueError, match="state has d="):
            quantum_joint_distribution(spec, 0, spec.contexts[0][0], build_supersinglet(d))


def test_classical_value_matches_naive_enumeration_on_toy_game():
    spec = toy_game()
    assert classical_value_report(spec).value == naive_classical_value(spec)


def test_classical_value_of_the_18_ray_game():
    report = classical_value_report(ceg_game())
    assert report.value == Fraction(35, 36)
    assert report.best_total == 35
    assert report.trials == 36
    assert report.n == 18 and report.m == 9 and report.d == 4


def test_classical_witness_replays_to_the_reported_total():
    spec = ceg_game()
    report = classical_value_report(spec)
    assert len(report.assignment) == spec.vset.n
    assert all(v in (0, 1) for v in report.assignment)
    total = 0
    for x in range(spec.m):
        a = report.context_choices[x]
        for y in spec.contexts[x]:
            if winning_predicate(spec, x, y, a, report.assignment[y]):
                total += 1
    assert total == report.best_total


def test_a_witness_that_does_not_rescore_is_a_fault(monkeypatch):
    # keep every best score, so the score table and the search are unchanged,
    # but leave out each context's smallest member instead of the solved one
    solved = _best_choice

    def wrong_choice(system, x, bit):
        return solved(system, x, bit)[0], tuple(sorted(system.contexts[x]))[1:]

    monkeypatch.setattr(game, "_best_choice", wrong_choice)
    with pytest.raises(RuntimeError, match="the witness scores"):
        classical_value_report(ceg_game())


@pytest.mark.parametrize("builtin, calls", [("peres24", 24 * 4), ("ceg18", 9 * 4)])
def test_classical_bound_calls_the_predicate_once_per_input(capsys, monkeypatch, builtin, calls):
    # the choice is solved, not searched: only the witness re-score, m * d
    # calls, reads the predicate
    seen = []

    def counting(*args):
        seen.append(args)
        return winning_predicate(*args)

    monkeypatch.setattr(game, "winning_predicate", counting)
    assert run(["game", "classical-bound", "--builtin", builtin]) == 0
    capsys.readouterr()
    assert len(seen) == calls


def test_classical_witnesses_are_pinned():
    # the witnesses of the builtin games, as the CLI reports them; a kernel
    # change must reproduce them bit for bit
    ceg = classical_value_report(ceg_game())
    assert ceg.best_total == 35
    assert ceg.assignment == tuple(int(i in (0, 4, 7, 10)) for i in range(18))
    assert ceg.context_choices == (
        (1, 2, 3), (15, 16, 17), (1, 8, 17), (2, 11, 13), (3, 5, 6),
        (5, 14, 16), (6, 8, 9), (9, 11, 12), (12, 13, 14),
    )
    report = classical_value_report(peres_game())
    assert report.best_total == 94
    assert report.assignment == tuple(int(i % 4 == 0) for i in range(24))
    assert report.context_choices == (
        (1, 2, 3), (1, 6, 7), (2, 10, 11), (3, 22, 23), (1, 2, 21), (1, 3, 9),
        (2, 3, 5), (5, 6, 7), (6, 14, 15), (7, 18, 19), (5, 6, 17), (5, 7, 13),
        (9, 10, 11), (10, 13, 15), (11, 17, 19), (9, 10, 18), (9, 11, 14),
        (13, 14, 15), (15, 21, 23), (13, 14, 22), (17, 18, 19), (16, 19, 23),
        (17, 18, 21), (21, 22, 23),
    )


def test_ck31_witness_is_pinned_by_default():
    # recorded from the exhaustive 2^31 scan, which took about a minute; the
    # pruned search must reach the same smallest maximizer, in 17,590 nodes
    report = classical_value_report(ck_game())
    assert report.best_total == 51
    assert report.value == 1
    assert report.assignment == tuple((9307809 >> i) & 1 for i in range(31))


def test_merged5_witness_is_pinned_by_default():
    # n = 39; recorded from the pattern-table search that the loss bound
    # replaced, with the same node count
    report = classical_value_report(merged_game(5))
    assert report.value == Fraction(124, 125)
    assert report.best_total == 248
    assert report.assignment == tuple(int(i in (0, 4, 8, 12, 16, 20)) for i in range(39))


class _ScanCalled(Exception):
    pass


def test_every_context_scores_like_the_shared_table(monkeypatch):
    # the scan gets one score table by count for all contexts; recompute
    # each context's own table per member pattern and compare, pattern by
    # pattern, with the shared entry for the pattern's count of 1s
    seen = {}

    def capture(members, table, n):
        seen.update(members=members, table=table)
        raise _ScanCalled

    monkeypatch.setattr(scan, "best_assignment", capture)
    for spec in (ceg_game(), peres_game(), ck_game(), toy_game()):
        with pytest.raises(_ScanCalled):
            classical_value_report(spec)
        assert seen["members"] == [tuple(c) for c in spec.contexts]
        assert len(seen["table"]) == spec.d + 1
        for x, ctx in enumerate(spec.contexts):
            for p in range(1 << spec.d):
                own = _best_choice(spec, x, {y: (p >> j) & 1 for j, y in enumerate(ctx)})[0]
                assert own == seen["table"][p.bit_count()]


def test_best_choice_matches_the_all_outputs_oracle():
    # the sorted (d-1)-subsets against every output in C_x^(d-1), on every
    # pattern of every context (the first 6 of merged5)
    merged5 = merged_peres(5)
    merged = GameSpec(d=5, vset=merged5, contexts=tuple(enumerate_contexts(merged5)[:6]))
    for spec in (ceg_game(), ck_game(), merged):
        for x, ctx in enumerate(spec.contexts):
            for p in range(1 << spec.d):
                bit = {y: (p >> j) & 1 for j, y in enumerate(ctx)}
                assert _best_choice(spec, x, bit) == naive_best_choice(spec, x, bit)
    # and on the canonical basis, listed in descending order, for d = 2 to 7:
    # every pattern up to d = 6; the oracle reads 7^6 outputs per pattern at
    # d = 7 (about 1 s), so there only no 1 and 1s on members 5, 4 and 2
    for d in range(2, 8):
        identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        ctx = tuple(reversed(range(d)))
        spec = GameSpec(d=d, vset=VectorSet(dim=d, vectors=identity), contexts=(ctx,))
        for p in range(1 << d) if d < 7 else (0, 0b10110):
            bit = {y: (p >> j) & 1 for j, y in enumerate(ctx)}
            assert _best_choice(spec, 0, bit) == naive_best_choice(spec, 0, bit)


def test_classical_value_invariant_under_vertex_relabeling():
    spec = toy_game()
    perm = (4, 3, 2, 1, 0)
    vectors = tuple(spec.vset.vectors[perm.index(i)] for i in range(5))
    relabeled = GameSpec(
        d=3,
        vset=VectorSet(dim=3, vectors=vectors),
        contexts=tuple(tuple(sorted(perm[i] for i in ctx)) for ctx in spec.contexts),
    )
    assert classical_value_report(relabeled).value == classical_value_report(spec).value


def test_node_budget_guard(monkeypatch):
    # merged5 enters 38,306 nodes; a budget of 1,000 refuses it, naming the
    # budget, n and m
    spec = merged_game(5)
    monkeypatch.setattr(scan, "MAX_NODES", 1000)
    with pytest.raises(ValueError, match="budget of 1000 nodes") as err:
        classical_value_report(spec)
    assert "n = 39 vertices" in str(err.value)
    assert "m = 50 contexts" in str(err.value)


def test_node_budget_counts_the_nodes_entered(monkeypatch):
    # ceg18 enters 437 nodes: one budget less refuses it, that budget answers
    spec = ceg_game()
    monkeypatch.setattr(scan, "MAX_NODES", 436)
    with pytest.raises(ValueError, match="budget of 436 nodes"):
        classical_value_report(spec)
    monkeypatch.setattr(scan, "MAX_NODES", 437)
    assert classical_value_report(spec).value == Fraction(35, 36)

