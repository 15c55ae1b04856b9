import math
import random
from fractions import Fraction
from itertools import permutations, product
from operator import itemgetter

import numpy as np
import pytest

from kspt.catalog import (
    CEG18_VECTORS,
    catalog_ceg18,
    catalog_conway_kochen31,
    catalog_peres24,
    merged_peres,
    merged_window_bases,
)
from kspt.exact_linalg import determinant, gram_schmidt
from kspt.ks_sets import enumerate_contexts
from kspt.supersinglet import (
    DENSE_CHECK_MAX_D,
    SupersingletState,
    _antisymmetric_constant,
    _arrangements,
    _multiset_expansion,
    _signed_permutation_image,
    amplitude,
    build_supersinglet,
    check_state_budget,
    check_unitary_invariance,
    check_unitary_invariance_exact,
    levi_civita,
    random_signed_permutation,
    random_special_unitary,
    reexpand_in_basis,
)
from naive import naive_amplitude_coeff, naive_levi_civita, naive_row


def test_levi_civita_examples():
    assert levi_civita((0,)) == 1
    assert levi_civita((0, 1)) == 1
    assert levi_civita((1, 0)) == -1
    assert levi_civita((1, 2, 0)) == 1
    assert levi_civita((1, 0, 2)) == -1
    assert levi_civita((2, 3, 0, 1)) == 1
    assert levi_civita((0, 1, 3, 2)) == -1


@pytest.mark.parametrize("d", range(1, 7))
def test_levi_civita_matches_the_inversion_count(d):
    for p in permutations(range(d)):
        assert levi_civita(p) == naive_levi_civita(p), p


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


@pytest.mark.parametrize("d", range(2, 8))
def test_build_supersinglet_signs_match_the_inversion_count(d):
    # the terms skip levi_civita's check on the permutations they are built from
    terms = build_supersinglet(d).terms
    assert list(terms) == list(permutations(range(d)))
    assert all(sign == naive_levi_civita(p) for p, sign in terms.items())


def test_build_supersinglet_rejects_d1():
    with pytest.raises(ValueError):
        build_supersinglet(1)


def test_the_state_is_built_through_its_checked_constructor(monkeypatch):
    # build_supersinglet used to set the fields past __post_init__
    checked = []
    monkeypatch.setattr(SupersingletState, "__post_init__", lambda self: checked.append(self.d))
    assert build_supersinglet(4).terms == {p: levi_civita(p) for p in permutations(range(4))}
    assert checked == [4]


def test_the_state_budget_has_one_message():
    check_state_budget(8)
    for d in (9, 16):
        message = rf"^d={d} exceeds the budget of 8 for the d!-term state$"
        for refuse in (check_state_budget, build_supersinglet):
            with pytest.raises(ValueError, match=message):
                refuse(d)


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
    assert len(exp.coefficients) == 24
    assert all(a.probability == Fraction(1, 24) for a in exp.coefficients.values())
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


def test_reexpand_rejects_a_state_that_is_not_antisymmetric():
    # flipping the sign of (0, 1, 2) puts probability on tuples with a
    # repeated index, which reading c * sign(t) * det(B) would silently drop
    state = build_supersinglet(3)
    flipped = SupersingletState(d=3, terms={**state.terms, (0, 1, 2): -1})
    basis = [(1, 1, 0), (1, -1, 0), (0, 0, 1)]

    def probability(t):
        vectors = [basis[i] for i in t]
        coeff = naive_amplitude_coeff(flipped, vectors)
        return Fraction(coeff * coeff, 6 * math.prod(sum(c * c for c in v) for v in vectors))

    assert probability((0, 0, 2)) == Fraction(1, 6)
    assert sum(probability(t) for t in product(range(3), repeat=3)) == 1
    assert sum(probability(t) for t in permutations(range(3))) == Fraction(2, 3)
    with pytest.raises(ValueError, match="antisymmetric"):
        reexpand_in_basis(flipped, basis)
    dropped = SupersingletState(d=3, terms={p: s for p, s in state.terms.items() if p != (2, 1, 0)})
    with pytest.raises(ValueError, match="antisymmetric"):
        reexpand_in_basis(dropped, basis)
    # one nonzero constant times the sign map is read exactly
    negated = SupersingletState(d=3, terms={p: -s for p, s in state.terms.items()})
    assert reexpand_in_basis(negated, basis).total_probability() == 1


def test_antisymmetric_constant_reads_c_or_none():
    signs = build_supersinglet(3).terms
    for c in (1, -1, 2, Fraction(1, 2)):
        scaled = SupersingletState(d=3, terms={p: c * s for p, s in signs.items()})
        assert _antisymmetric_constant(scaled, 3) == c
    # a flipped sign, a dropped term, the zero state and a state of another d
    for terms, d in (
        ({**signs, (0, 1, 2): -1}, 3),
        ({p: s for p, s in signs.items() if p != (2, 1, 0)}, 3),
        (dict.fromkeys(signs, 0), 3),
        (build_supersinglet(4).terms, 4),
    ):
        assert _antisymmetric_constant(SupersingletState(d=d, terms=terms), 3) is None


def test_reexpand_coefficients_match_the_naive_overlap():
    # c * sign(t) * det(B) against the term-by-term overlap, on random
    # orthogonal bases: integer, rational, and each vector rescaled
    rng = random.Random(37)
    for d in (2, 3, 4, 5):
        for c in (1, -3):
            state = SupersingletState(
                d=d, terms={p: c * s for p, s in build_supersinglet(d).terms.items()})
            for kind in ("integer", "fraction", "rescaled"):
                while True:
                    basis = gram_schmidt([tuple(rng.randint(-3, 3) for _ in range(d))
                                          for _ in range(d)])
                    if len(basis) == d:
                        break
                if kind == "fraction":
                    basis = [tuple(Fraction(x, k) for x in v)
                             for v, k in zip(basis, rng.choices(range(2, 8), k=d))]
                elif kind == "rescaled":
                    basis = [tuple(k * x for x in v)
                             for v, k in zip(basis, rng.choices((-2, -1, 3), k=d))]
                exp = reexpand_in_basis(state, basis)
                assert list(exp.coefficients) == list(permutations(range(d)))
                for t, amp in exp.coefficients.items():
                    assert amp.coeff == naive_amplitude_coeff(state, [basis[i] for i in t])
                assert exp.total_probability() == c * c


def test_reexpand_rejects_bad_bases():
    state = build_supersinglet(2)
    with pytest.raises(ValueError):
        reexpand_in_basis(state, [(1, 0), (1, 1)])
    with pytest.raises(ValueError):
        reexpand_in_basis(state, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        reexpand_in_basis(state, [(1, 0)])


def test_reexpand_checks_every_dimension_before_any_inner_product():
    # a vector too short or too long at any position gets the dimension
    # message, not inner_product's "dimension mismatch"
    state = build_supersinglet(3)
    for i in range(3):
        for bad in ((1, 0), (1, 0, 0, 0)):
            basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
            basis[i] = bad
            message = rf"^basis vector {i} has dimension {len(bad)}, expected 3$"
            with pytest.raises(ValueError, match=message):
                reexpand_in_basis(state, basis)


def test_invariance_under_identity():
    rep = check_unitary_invariance(build_supersinglet(3), np.eye(3))
    assert rep.determinant == pytest.approx(1)
    assert rep.max_deviation_det == 0
    assert rep.max_deviation_identity == 0
    assert rep.invariant


def test_invariance_under_random_special_unitaries():
    for d in (3, 4):
        for seed in range(5):
            u = random_special_unitary(d, seed)
            assert np.isclose(np.linalg.det(u), 1)
            rep = check_unitary_invariance(build_supersinglet(d), u)
            assert rep.max_deviation_det <= 1e-10
            assert rep.invariant


def test_invariance_detects_global_determinant_phase():
    # i * identity is unitary with det = -i: the image is det * state exactly,
    # which is not the state itself
    rep = check_unitary_invariance(build_supersinglet(3), 1j * np.eye(3))
    assert rep.max_deviation_det <= 1e-12
    assert rep.max_deviation_identity > 0.1
    assert not rep.invariant


def test_invariance_rejects_non_unitary_and_bad_shapes():
    with pytest.raises(ValueError):
        check_unitary_invariance(build_supersinglet(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        check_unitary_invariance(build_supersinglet(3), np.eye(2))
    with pytest.raises(ValueError):
        # build_supersinglet refuses d = 1 itself, so the check's own bound is hit here
        check_unitary_invariance(SupersingletState(d=1, terms={(0,): 1}), np.eye(1))
    with pytest.raises(ValueError):
        check_unitary_invariance(
            build_supersinglet(DENSE_CHECK_MAX_D + 1), np.eye(DENSE_CHECK_MAX_D + 1)
        )
    # a NaN compares false with every deviation, so as a tolerance it would
    # pass 2 * I as unitary, and as an entry it would pass itself
    state = build_supersinglet(3)
    for bad in (math.nan, math.inf, -math.inf, -1e-12):
        for u in (np.eye(3), 2 * np.eye(3)):
            with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
                check_unitary_invariance(state, u, tolerance=bad)
    for bad in (math.nan, math.inf, complex(0, math.nan)):
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite entry"):
            check_unitary_invariance(state, u)


def test_invariance_reads_the_state_it_is_given():
    # identity sign flipped: the identity keeps it and a special unitary does
    # not, so the check reads the state it is given, not the canonical one
    state = build_supersinglet(3)
    corrupted = SupersingletState(d=3, terms={**state.terms, (0, 1, 2): -1})
    assert check_unitary_invariance(corrupted, np.eye(3)).invariant
    u = random_special_unitary(3, 0)
    assert check_unitary_invariance(state, u).invariant
    assert not check_unitary_invariance(corrupted, u).invariant


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
    # an exactly orthogonal rational rotation is refused too: the exact check
    # acts by relabeling, so it takes signed permutation matrices only
    rotation = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))]
    # so is an inexact entry: 1.0 == 1 passes the +-1 test, and the
    # determinant cannot read it
    inexact = [[(1.0, 0), (0, 1)], [(1, 0.0), (0, 1)], [(1, 0), (0, np.float64(-1))],
               [(1 + 0j, 0), (0, 1)]]
    for m in (rotation, [(2, 0), (0, 1)], [(1, 0), (-1, 0)], [(0, 0), (0, 1)], *inexact):
        with pytest.raises(ValueError, match="signed permutation"):
            check_unitary_invariance_exact(state, m)
    # an exact integer is taken in any rational type
    rep = check_unitary_invariance_exact(state, [(Fraction(1), 0), (0, np.int64(-1))])
    assert rep.determinant == -1 and rep.equals_det_times_state


def test_exact_invariance_matches_the_naive_overlaps():
    # every signed permutation matrix for d = 2..4, on the canonical state and
    # on states with one sign flipped: image component t is the state's
    # overlap with the product of rows t of M
    seen = set()
    for d in (2, 3, 4):
        canonical = build_supersinglet(d)
        perms = sorted(canonical.terms)
        states = [canonical] + [
            SupersingletState(d=d, terms={**canonical.terms, p: -canonical.terms[p]})
            for p in (perms[0], perms[-1])
        ]
        for sigma in permutations(range(d)):
            for signs in product((1, -1), repeat=d):
                m = [tuple(signs[i] * (c == sigma[i]) for c in range(d)) for i in range(d)]
                det = determinant([list(r) for r in m])
                for state in states:
                    image = {t: naive_amplitude_coeff(state, [m[i] for i in t]) for t in perms}
                    assert _signed_permutation_image(state, m) == image
                    rep = check_unitary_invariance_exact(state, m)
                    assert rep.determinant == det
                    assert rep.equals_det_times_state == all(
                        image[t] == det * state.terms[t] for t in perms
                    )
                    assert rep.equals_state == all(image[t] == state.terms[t] for t in perms)
                    seen.add((rep.equals_det_times_state, rep.equals_state))
    assert len(seen) == 4  # every combination of the two verdicts occurs


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


def _relabelled(expansion):
    """Every row of the expansion: row s o sigma is row s with column pi moved to pi o sigma."""
    full = {}
    for s, row in expansion.items():
        for b, sigma in _arrangements(s).items():
            move = itemgetter(*sigma)
            full[b] = {move(pi): x for pi, x in row.items()}
    return full


def _catalog_bases():
    for vset, contexts in (
        (catalog_peres24(), None),
        (catalog_conway_kochen31(), None),
        (merged_peres(4), None),
        (merged_peres(5), merged_window_bases(5)),
    ):
        for ctx in contexts or enumerate_contexts(vset):
            yield [vset.vectors[i] for i in ctx]


def test_product_expansion_matches_the_naive_oracles():
    # the multiset rows, relabelled, against naive_row on every outcome tuple:
    # random vectors every party picks from, and every context of the
    # catalog's sets.  Amplitudes read the state's terms, so they are checked
    # on corrupted states too: on random vectors, a different list per party,
    # and on every live tuple of the catalog's contexts
    # (test_party_permutations_relabel_the_expansion checks every sigma)
    rng = random.Random(11)
    cases = []
    for d in (2, 3, 4, 5):
        canonical = build_supersinglet(d)
        states = [canonical, _corrupted(canonical, rng), _corrupted(canonical, rng)]
        most = max(2, 6 - d)  # vectors per party
        for exact_kind in ("int", "fraction"):
            for _ in range(3):
                vectors = [_random_vector(rng, d, exact_kind) for _ in range(rng.randint(1, most))]
                cases.append((vectors, states))
                choices = [
                    [_random_vector(rng, d, exact_kind) for _ in range(rng.randint(1, most))]
                    for _ in range(d)
                ]
                for a in product(*(range(len(c)) for c in choices)):
                    party_vectors = [choices[i][p] for i, p in enumerate(a)]
                    for state in states:
                        assert (amplitude(state, party_vectors).coeff
                                == naive_amplitude_coeff(state, party_vectors))
    for vectors in _catalog_bases():
        cases.append((vectors, [_corrupted(build_supersinglet(len(vectors)), rng)]))
    for vectors, states in cases:
        d = len(vectors[0])
        perms = list(permutations(range(d)))
        expansion = _multiset_expansion(vectors)
        assert all(list(s) == sorted(s) for s in expansion)
        assert all(x != 0 for row in expansion.values() for x in row.values())
        full = _relabelled(expansion)
        for a in product(range(len(vectors)), repeat=d):
            party_vectors = [vectors[p] for p in a]
            row = naive_row(party_vectors)
            stored = full.get(a, {})
            assert [stored.get(pi, 0) for pi in perms] == row
            assert (a in full) == any(row)
            if a in full:
                for state in states:
                    assert (amplitude(state, party_vectors).coeff
                            == naive_amplitude_coeff(state, party_vectors))
