import math
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from kspt.catalog import CEG18_VECTORS, catalog_ceg18
from kspt.exact_linalg import determinant
from kspt.supersinglet import (
    DENSE_CHECK_MAX_D,
    SupersingletState,
    _product_expansion,
    amplitude,
    build_supersinglet,
    check_unitary_invariance,
    check_unitary_invariance_exact,
    levi_civita,
    random_signed_permutation,
    random_special_unitary,
    reexpand_in_basis,
)
from naive import naive_amplitude_coeff, naive_row


def test_levi_civita_examples():
    assert levi_civita((0,)) == 1
    assert levi_civita((0, 1)) == 1
    assert levi_civita((1, 0)) == -1
    assert levi_civita((1, 2, 0)) == 1
    assert levi_civita((1, 0, 2)) == -1
    assert levi_civita((2, 3, 0, 1)) == 1
    assert levi_civita((0, 1, 3, 2)) == -1


def test_levi_civita_rejects_non_permutations():
    with pytest.raises(ValueError):
        levi_civita((0, 0, 1))
    with pytest.raises(ValueError):
        levi_civita((1, 2, 3))


def test_build_supersinglet_d2():
    state = build_supersinglet(2)
    assert state.terms == {(0, 1): 1, (1, 0): -1}


def test_build_supersinglet_d3_signs():
    state = build_supersinglet(3)
    assert state.terms == {
        (0, 1, 2): 1,
        (1, 2, 0): 1,
        (2, 0, 1): 1,
        (0, 2, 1): -1,
        (2, 1, 0): -1,
        (1, 0, 2): -1,
    }


def test_build_supersinglet_rejects_d1():
    with pytest.raises(ValueError):
        build_supersinglet(1)


def test_state_rejects_terms_that_are_not_permutations():
    # the expansion enumerates level permutations only, so such a key would be ignored
    with pytest.raises(ValueError):
        SupersingletState(d=3, terms={**build_supersinglet(3).terms, (0, 0, 5): 1})
    with pytest.raises(ValueError):
        SupersingletState(d=3, terms={(0, 1): 1})


def test_amplitude_on_canonical_basis():
    state = build_supersinglet(3)
    amp = amplitude(state, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert amp.coeff == 1
    assert amp.scale == 6
    assert amp.probability == Fraction(1, 6)
    assert np.isclose(amp.as_float(), 1 / math.sqrt(6))


def test_amplitude_vanishes_on_repeated_vector():
    state = build_supersinglet(3)
    amp = amplitude(state, [(1, 0, 0), (1, 0, 0), (0, 0, 1)])
    assert amp.is_zero
    assert amp.probability == 0


def test_amplitude_input_validation():
    state = build_supersinglet(3)
    with pytest.raises(ValueError):
        amplitude(state, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        amplitude(state, [(1, 0), (0, 1), (0, 0)])


def test_amplitude_equals_row_determinant_for_canonical_signs():
    rng = random.Random(5)
    for d in (2, 3, 4):
        state = build_supersinglet(d)
        for _ in range(20):
            vs = [
                tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
                for _ in range(d)
            ]
            assert amplitude(state, vs).coeff == determinant([list(v) for v in vs])


def test_amplitude_follows_corrupted_sign_map():
    # flipping one stored sign must change the evaluation; the amplitude is
    # computed from the terms, not from a determinant shortcut
    terms = dict(build_supersinglet(3).terms)
    terms[(0, 1, 2)] = -1
    corrupted = SupersingletState(d=3, terms=terms)
    amp = amplitude(corrupted, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert amp.coeff == -1


def test_amplitude_antisymmetric_under_party_swap():
    rng = random.Random(9)
    for d in (2, 3, 4):
        state = build_supersinglet(d)
        for _ in range(10):
            vs = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
            i, j = rng.sample(range(d), 2)
            swapped = list(vs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            a = amplitude(state, vs)
            b = amplitude(state, swapped)
            assert b.coeff == -a.coeff
            assert b.scale == a.scale


def test_reexpand_in_canonical_basis_recovers_terms():
    for d in (2, 3, 4):
        state = build_supersinglet(d)
        basis = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        exp = reexpand_in_basis(state, basis)
        assert set(exp.coefficients) == set(permutations(range(d)))
        for t, amp in exp.coefficients.items():
            assert amp.coeff == levi_civita(t)
            assert amp.scale == math.factorial(d)
        assert exp.total_probability() == 1


def test_reexpand_in_unnormalized_tetrad():
    ceg, tetrads = catalog_ceg18()
    basis = [ceg.vectors[i] for i in tetrads[0]]
    exp = reexpand_in_basis(build_supersinglet(4), basis)
    probs = exp.probabilities()
    assert len(probs) == 24
    assert all(p == Fraction(1, 24) for p in probs.values())
    assert exp.total_probability() == 1


def test_reexpand_defg_tetrad_signs_and_weights():
    # rays 12..15 are the labels D, E, F, G; every injective outcome carries
    # probability 1/24 and the coefficient pattern is the base determinant -8
    # times the sign of the outcome tuple
    basis = [CEG18_VECTORS[i] for i in (12, 13, 14, 15)]
    exp = reexpand_in_basis(build_supersinglet(4), basis)
    assert len(exp.coefficients) == 24
    for t, amp in exp.coefficients.items():
        assert amp.coeff == -8 * levi_civita(t)
        assert amp.scale == 1536
        assert amp.probability == Fraction(1, 24)
    assert exp.total_probability() == 1


def test_reexpand_rejects_bad_bases():
    state = build_supersinglet(2)
    with pytest.raises(ValueError):
        reexpand_in_basis(state, [(1, 0), (1, 1)])
    with pytest.raises(ValueError):
        reexpand_in_basis(state, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        reexpand_in_basis(state, [(1, 0)])


def test_invariance_under_identity():
    rep = check_unitary_invariance(3, np.eye(3))
    assert rep.determinant == pytest.approx(1)
    assert rep.max_deviation_det == 0
    assert rep.max_deviation_identity == 0
    assert rep.invariant


def test_invariance_under_random_special_unitaries():
    for d in (3, 4):
        for seed in range(5):
            u = random_special_unitary(d, seed)
            assert np.isclose(np.linalg.det(u), 1)
            rep = check_unitary_invariance(d, u)
            assert rep.max_deviation_det <= 1e-10
            assert rep.invariant


def test_invariance_detects_global_determinant_phase():
    # i * identity is unitary with det = -i: the image is det * state exactly,
    # which is not the state itself
    rep = check_unitary_invariance(3, 1j * np.eye(3))
    assert rep.max_deviation_det <= 1e-12
    assert rep.max_deviation_identity > 0.1
    assert not rep.invariant


def test_invariance_rejects_non_unitary_and_bad_shapes():
    with pytest.raises(ValueError):
        check_unitary_invariance(2, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        check_unitary_invariance(3, np.eye(2))
    with pytest.raises(ValueError):
        check_unitary_invariance(1, np.eye(1))
    with pytest.raises(ValueError):
        check_unitary_invariance(DENSE_CHECK_MAX_D + 1, np.eye(DENSE_CHECK_MAX_D + 1))


def test_exact_invariance_under_signed_permutations():
    for d in (3, 4):
        state = build_supersinglet(d)
        for seed in range(5):
            m = random_signed_permutation(d, seed)
            det = determinant([list(r) for r in m])
            assert det in (1, -1)
            rep = check_unitary_invariance_exact(state, list(m))
            assert rep.determinant == det
            assert rep.equals_det_times_state
            assert rep.equals_state == (det == 1)


def test_exact_invariance_reads_the_state_terms():
    # identity sign flipped: not antisymmetric, so the level swap must not
    # map it to det * itself
    state = build_supersinglet(3)
    corrupted = SupersingletState(d=3, terms={**state.terms, (0, 1, 2): -1})
    swap = [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
    rep = check_unitary_invariance_exact(corrupted, swap)
    assert rep.determinant == -1
    assert not rep.equals_det_times_state
    assert not rep.equals_state
    assert check_unitary_invariance_exact(state, swap).equals_det_times_state
    # the identity maps every state to itself
    identity = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rep = check_unitary_invariance_exact(corrupted, identity)
    assert rep.equals_det_times_state and rep.equals_state


def test_exact_invariance_rejects_non_orthogonal_matrix():
    state = build_supersinglet(2)
    with pytest.raises(ValueError):
        check_unitary_invariance_exact(state, [(1, 1), (0, 1)])
    with pytest.raises(ValueError):
        check_unitary_invariance_exact(state, [(1, 0)])


def _random_vector(rng, d, exact_kind):
    if exact_kind == "int":
        return tuple(rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(d))
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d))


def _corrupted(state, rng):
    # flip, drop or rescale a few signs
    terms = dict(state.terms)
    for pi in rng.sample(sorted(terms), k=min(3, len(terms))):
        change = rng.choice(("flip", "drop", "double"))
        if change == "drop":
            del terms[pi]
        else:
            terms[pi] *= -1 if change == "flip" else 2
    return SupersingletState(d=state.d, terms=terms)


def test_product_expansion_matches_the_naive_oracles():
    rng = random.Random(11)
    for d in (2, 3, 4, 5):
        canonical = build_supersinglet(d)
        states = [canonical, _corrupted(canonical, rng), _corrupted(canonical, rng)]
        most = max(2, 6 - d)  # vectors per party
        for exact_kind in ("int", "fraction"):
            for _ in range(3):
                choices = [
                    [_random_vector(rng, d, exact_kind) for _ in range(rng.randint(1, most))]
                    for _ in range(d)
                ]
                expansion = _product_expansion(choices)
                assert all(x != 0 for row in expansion.values() for x in row.values())
                for a in product(*(range(len(c)) for c in choices)):
                    vectors = [choices[i][p] for i, p in enumerate(a)]
                    row = naive_row(vectors)
                    stored = expansion.get(a, {})
                    assert [stored.get(pi, 0) for pi in permutations(range(d))] == row
                    assert (a in expansion) == any(row)
                    for state in states:
                        assert amplitude(state, vectors).coeff == naive_amplitude_coeff(state, vectors)
                # injective: the rows of the tuples with distinct positions, and no others
                # (d = 5 is left out: a dense full expansion has d^d * d! entries)
                if d == 5:
                    continue
                shared = [_random_vector(rng, d, exact_kind) for _ in range(d)]
                full = _product_expansion([shared] * d)
                assert _product_expansion([shared] * d, injective=True) == {
                    a: row for a, row in full.items() if len(set(a)) == d
                }
