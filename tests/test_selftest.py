import hashlib
from fractions import Fraction
from itertools import permutations
from operator import itemgetter

import numpy as np
import pytest
import sympy

from kspt import selftest
from kspt.catalog import (
    catalog_ceg18,
    catalog_conway_kochen31,
    catalog_peres24,
    merged_peres,
    merged_window_bases,
)
from kspt.cli import run
from kspt.exact_linalg import null_space_basis, primitive, rank
from kspt.ks_sets import ContextSystem, enumerate_contexts
from kspt.selftest import (
    ConstraintRow,
    assemble_and_solve,
    certify,
    general_d_selftest,
    pqs_constraint_rows,
    support_restriction_constraints,
    verify_unique_supersinglet,
)
from kspt.supersinglet import (
    _arrangements,
    _multiset_expansion,
    build_supersinglet,
    levi_civita,
)
from naive import densify, naive_constraint_rows

# Independently transcribed reference rows for the d=4 system built from the
# two tetrads {v4..v7} and {v8..v11}: 23 rows over the 24 permutation
# coefficients in lexicographic order, known to have full rank 23.
REFERENCE_ROWS_D4 = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, -1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, -1, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, -1, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, -1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 1, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 1, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, -1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, -1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1],
]

CK_SELFTEST_CONTEXTS = [(0, 3, 4), (1, 5, 6)]
PERES_WINDOW_TETRADS = [(4, 5, 6, 7), (8, 9, 10, 11)]


def test_support_restriction_on_the_31_ray_set():
    system = ContextSystem.of(catalog_conway_kochen31())
    assert support_restriction_constraints(system) == (0, 1, 2)
    report = certify(system, CK_SELFTEST_CONTEXTS)
    assert report.d == 3
    assert report.variables == 6
    assert report.canonical_context == (0, 1, 2)


def test_support_restriction_on_the_24_ray_set():
    system = ContextSystem.of(catalog_peres24())
    assert support_restriction_constraints(system) == (0, 1, 2, 3)
    report = certify(system, PERES_WINDOW_TETRADS)
    assert report.variables == 24
    assert report.canonical_context == (0, 1, 2, 3)


def test_support_restriction_accepts_a_context_listed_in_any_order():
    vset = catalog_conway_kochen31()
    contexts = [(2, 1, 0) if c == (0, 1, 2) else c for c in enumerate_contexts(vset)]
    assert support_restriction_constraints(ContextSystem.of(vset, contexts)) == (0, 1, 2)


def test_support_restriction_needs_the_canonical_rays():
    # the 18-ray set lacks (0, 0, 1, 0)
    ceg, tetrads = catalog_ceg18()
    with pytest.raises(ValueError) as err:
        support_restriction_constraints(ContextSystem.of(ceg, tetrads))
    assert "absent" in str(err.value)


def test_support_restriction_needs_the_canonical_context():
    vset = catalog_conway_kochen31()
    with pytest.raises(ValueError) as err:
        support_restriction_constraints(ContextSystem.of(vset, [(0, 3, 4)]))
    assert "not a context" in str(err.value)


def test_constraint_row_for_a_repeated_outcome():
    vset = catalog_conway_kochen31()
    rows = pqs_constraint_rows(ContextSystem.of(vset, [(0, 3, 4)]))
    by_outcome = {}
    for row in rows:
        for _, a in row.provenance:
            by_outcome[a] = densify(row.entries, 6)
    # outcome (v0, v3, v3): v0 pins the first level to 0, the two v3 factors
    # fill levels 1 and 2 with product 1 * (-1) either way
    assert by_outcome[(0, 3, 3)] == (1, 1, 0, 0, 0, 0)


def test_constraint_rows_reject_bad_contexts():
    vset = catalog_conway_kochen31()
    game = ContextSystem.of(vset)
    # wrong size, a repeated member, members outside [0, 31) (-27 would wrap
    # to v4, 31 and 99 are past the end), and v3, v13, not orthogonal: each
    # refused as a listed context and as a row context of certify
    for ctx, reason in (
        ((0, 3), "distinct members"),
        ((0, 3, 3), "distinct members"),
        ((0, 3, 31), r"outside \[0, 31\)"),
        ((0, 3, 99), r"outside \[0, 31\)"),
        ((0, 3, -27), r"outside \[0, 31\)"),
        ((0, 3, 13), "not an orthogonal basis"),
    ):
        with pytest.raises(ValueError, match=reason):
            ContextSystem.of(vset, [ctx])
        with pytest.raises(ValueError, match=reason):
            certify(game, [ctx])


def test_certify_refuses_row_context_members_that_are_not_indices():
    # 0.0 used to raise TypeError in mask_of, before check_context was reached
    game = ContextSystem.of(catalog_peres24())
    for member in (0.0, "0", False):
        with pytest.raises(ValueError, match="that is not an index"):
            certify(game, [(member, 1, 6, 7)])
    row = game.contexts[1]
    assert certify(game, [tuple(np.int64(v) for v in row)]) == certify(game, [row])


def test_certify_reads_numpy_members_past_63_as_the_ints():
    # mask_of shifted np.int64 members, and 1 << np.int64(64) is 0, so a game
    # context with a member >= 64 was refused as "not a context of the game"
    game = ContextSystem.of(merged_peres(7))
    row = next(ctx for ctx in game.contexts if max(ctx) >= 64)
    report = certify(game, [tuple(np.int64(v) for v in row)])
    assert report == certify(game, [row])
    assert all(type(v) is int for v in report.contexts[0])


def test_constraint_rows_are_primitive_and_distinct():
    vset = catalog_peres24()
    rows = pqs_constraint_rows(ContextSystem.of(vset, [(4, 5, 6, 7)]))
    seen = set()
    for row in rows:
        columns = [c for c, _ in row.entries]
        assert columns == sorted(set(columns)) and all(x != 0 for _, x in row.entries)
        dense = densify(row.entries, 24)
        assert dense not in seen
        seen.add(dense)
        assert primitive(dense) == dense
        lead = next(x for x in dense if x != 0)
        assert lead > 0
        assert row.provenance


def test_constraint_rows_annihilate_the_sign_vector():
    ck = catalog_conway_kochen31()
    peres = catalog_peres24()
    for vset, contexts, d in (
        (ck, CK_SELFTEST_CONTEXTS, 3),
        (peres, PERES_WINDOW_TETRADS, 4),
    ):
        eps = [levi_civita(p) for p in permutations(range(d))]
        for ctx in contexts:
            for row in pqs_constraint_rows(ContextSystem.of(vset, [ctx])):
                assert sum(e * s for e, s in zip(densify(row.entries, len(eps)), eps)) == 0


def test_provenance_replays_to_the_stored_row():
    vset = catalog_peres24()
    perms = list(permutations(range(4)))
    for row in pqs_constraint_rows(ContextSystem.of(vset, [(8, 9, 10, 11)])):
        for _, a in row.provenance:
            vectors = [vset.vectors[i] for i in a]
            raw = [
                Fraction(
                    vectors[0][p[0]] * vectors[1][p[1]] * vectors[2][p[2]] * vectors[3][p[3]]
                )
                for p in perms
            ]
            assert primitive(raw) == densify(row.entries, 24)


def test_constraint_rows_match_the_all_tuples_oracle():
    # the oracle walks all d^d outcome tuples and expands each one separately
    ck31 = catalog_conway_kochen31()
    ceg, tetrads = catalog_ceg18()
    peres24 = catalog_peres24()
    merged4 = merged_peres(4)
    cases = [
        (ck31, enumerate_contexts(ck31)),
        (ceg, tetrads),
        (peres24, enumerate_contexts(peres24)),
        (merged4, enumerate_contexts(merged4)),
        (merged_peres(5), merged_window_bases(5)),
    ]
    for vset, contexts in cases:
        for ctx in contexts:
            rows = pqs_constraint_rows(ContextSystem.of(vset, [ctx]))
            assert rows == naive_constraint_rows(vset, ctx, 0)


def test_one_pass_merges_the_oracle_rows_in_context_order():
    # pqs_constraint_rows(system) walks every context once, reusing the row
    # of each (multiset row, sigma) pair it has met: its rows and provenance
    # are each context's oracle rows merged in context order
    ck31 = catalog_conway_kochen31()
    merged4 = merged_peres(4)
    cases = [
        (ck31, enumerate_contexts(ck31)),
        (ck31, CK_SELFTEST_CONTEXTS),
        (merged4, enumerate_contexts(merged4)),
        (merged_peres(5), merged_window_bases(5)),
    ]
    for vset, contexts in cases:
        merged = {}
        for ci, ctx in enumerate(contexts):
            for row in naive_constraint_rows(vset, ctx, ci):
                merged.setdefault(row.entries, []).extend(row.provenance)
        want = [ConstraintRow(entries=e, provenance=tuple(p)) for e, p in merged.items()]
        assert pqs_constraint_rows(ContextSystem.of(vset, contexts)) == want


def test_expansion_rows_list_permutations_in_lexicographic_order():
    # each member multiset's row lists its permutations in lexicographic
    # order, and its arrangements come in lexicographic order, each once,
    # with a sigma that makes it: b = s o sigma
    cases = [
        (catalog_peres24(), None),
        (catalog_conway_kochen31(), None),
        (merged_peres(5), merged_window_bases(5)),
    ]
    for vset, contexts in cases:
        for ctx in contexts or enumerate_contexts(vset):
            expansion = _multiset_expansion([vset.vectors[i] for i in ctx])
            assert expansion
            for s, row in expansion.items():
                assert list(row) == sorted(row)
                arrangements = _arrangements(s)
                assert list(arrangements) == sorted(set(permutations(s)))
                assert all(b == itemgetter(*sigma)(s) for b, sigma in arrangements.items())


def test_party_permutations_relabel_the_expansion():
    # E[s o sigma][pi o sigma] = E[s][pi] for every sigma, not only the one
    # _arrangements keeps: relabelled by each sigma, every multiset row is
    # the row _arrangements gives the arrangement s o sigma.  Those rows
    # match naive_row on every outcome tuple
    # (test_supersinglet.py::test_product_expansion_matches_the_naive_oracles)
    cases = [
        (catalog_peres24(), None),
        (catalog_conway_kochen31(), None),
        (merged_peres(4), None),
        (merged_peres(5), merged_window_bases(5)),
    ]
    for vset, contexts in cases:
        perms = list(permutations(range(vset.dim)))
        for ctx in contexts or enumerate_contexts(vset):
            for s, row in _multiset_expansion([vset.vectors[i] for i in ctx]).items():
                arrangements = _arrangements(s)
                for sigma in perms:
                    move = itemgetter(*sigma)
                    kept = itemgetter(*arrangements[move(s)])
                    assert {move(pi): x for pi, x in row.items()} == {
                        kept(pi): x for pi, x in row.items()
                    }


def test_d6_window_basis_rows_are_pinned():
    # count and sha256 of (entries, provenance) of the merged rows, recorded
    # from the d^d-tuple generator
    system = ContextSystem.of(merged_peres(6), merged_window_bases(6))
    merged = {}
    for ci, ctx in enumerate(system.contexts):
        # each one-context system gives its rows at context position 0
        for row in pqs_constraint_rows(ContextSystem.of(system.vset, [ctx])):
            merged.setdefault(row.entries, []).extend((ci, a) for _, a in row.provenance)
    rows = [(densify(entries, 720), tuple(provenance)) for entries, provenance in merged.items()]
    assert len(rows) == 3240
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "304f59bdea3caf1657bf465affaa935496172fae7aba2649bcb8bf572680097c"
    )


def test_one_pass_reproduces_the_pinned_d6_rows():
    # the whole-system call gives the rows and provenance that
    # test_d6_window_basis_rows_are_pinned merges from the per-context calls
    system = ContextSystem.of(merged_peres(6), merged_window_bases(6))
    rows = [(densify(r.entries, 720), r.provenance) for r in pqs_constraint_rows(system)]
    assert len(rows) == 3240
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "304f59bdea3caf1657bf465affaa935496172fae7aba2649bcb8bf572680097c"
    )


def test_d3_system_certifies_the_state():
    vset = catalog_conway_kochen31()
    solution = assemble_and_solve(ContextSystem.of(vset, CK_SELFTEST_CONTEXTS))
    assert solution.variables == 6
    assert len(solution.rows) == 6
    assert solution.rank == 5
    assert solution.nullity == 1
    unique, witness = verify_unique_supersinglet(solution)
    assert unique
    chain = tuple(witness.terms[p] for p in permutations(range(3)))
    assert chain == (1, -1, -1, 1, 1, -1)
    assert witness == build_supersinglet(3)


def test_d4_system_certifies_the_state():
    vset = catalog_peres24()
    solution = assemble_and_solve(ContextSystem.of(vset, PERES_WINDOW_TETRADS))
    assert solution.variables == 24
    assert len(solution.rows) == 36
    assert solution.rank == 23
    assert solution.nullity == 1
    unique, witness = verify_unique_supersinglet(solution)
    assert unique
    for p in permutations(range(4)):
        assert witness.terms[p] == levi_civita(p)
    assert witness == build_supersinglet(4)


def test_d4_rank_matches_sympy():
    vset = catalog_peres24()
    solution = assemble_and_solve(ContextSystem.of(vset, PERES_WINDOW_TETRADS))
    matrix = sympy.Matrix([densify(r.entries, 24) for r in solution.rows])
    assert matrix.rank() == 23


def test_reference_rows_are_reproduced_by_the_generator():
    vset = catalog_peres24()
    solution = assemble_and_solve(ContextSystem.of(vset, PERES_WINDOW_TETRADS))
    generated = {densify(row.entries, 24) for row in solution.rows}
    for ref in REFERENCE_ROWS_D4:
        assert primitive(ref) in generated
    assert rank(REFERENCE_ROWS_D4) == 23
    stacked = [list(densify(r.entries, 24)) for r in solution.rows] + REFERENCE_ROWS_D4
    assert rank(stacked) == 23


def test_single_tetrad_leaves_a_six_dimensional_null_space():
    vset = catalog_peres24()
    solution = assemble_and_solve(ContextSystem.of(vset, [(4, 5, 6, 7)]))
    assert solution.rank == 18
    assert solution.nullity == 6
    unique, witness = verify_unique_supersinglet(solution)
    assert not unique
    assert witness is None


@pytest.mark.parametrize("name, want", [
    ("ck31", 5), ("peres24 single tetrad", 18), ("d4 all contexts", 23),
    ("d4 windows", 23), ("d5 windows", 119), ("d6 windows", 719),
])
def test_rank_stopped_at_the_bound_is_the_full_rank(name, want):
    # assemble_and_solve stops its elimination at d! - 1, which the
    # annihilation check proves; the full elimination must agree
    if name == "ck31":
        system = ContextSystem.of(catalog_conway_kochen31(), CK_SELFTEST_CONTEXTS)
    elif name == "peres24 single tetrad":
        system = ContextSystem.of(catalog_peres24(), [(4, 5, 6, 7)])
    elif name == "d4 all contexts":
        system = ContextSystem.of(merged_peres(4))
    else:
        d = int(name[1])
        system = ContextSystem.of(merged_peres(d), merged_window_bases(d))
    solution = assemble_and_solve(system)
    assert solution.rank == want
    assert rank([dict(r.entries) for r in solution.rows]) == want


def test_adding_contexts_never_lowers_the_rank():
    vset = catalog_peres24()
    single = assemble_and_solve(ContextSystem.of(vset, [(4, 5, 6, 7)]))
    both = assemble_and_solve(ContextSystem.of(vset, PERES_WINDOW_TETRADS))
    assert single.rank <= both.rank
    assert both.rank == 23


def test_a_row_off_the_sign_vector_is_refused(monkeypatch):
    # the identity column alone has product +1 with the sign vector
    bad = ConstraintRow(entries=((0, 1),), provenance=((0, (0, 0, 0)),))
    monkeypatch.setattr(selftest, "pqs_constraint_rows", lambda *args, **kwargs: [bad])
    with pytest.raises(RuntimeError, match="sign vector"):
        assemble_and_solve(ContextSystem.of(catalog_conway_kochen31(), CK_SELFTEST_CONTEXTS))


@pytest.mark.parametrize(
    "vset, contexts",
    [
        (catalog_conway_kochen31(), CK_SELFTEST_CONTEXTS),
        (catalog_peres24(), PERES_WINDOW_TETRADS),
        (merged_peres(5), merged_window_bases(5)),
    ],
    ids=["ck31", "peres24-window", "merged5-window"],
)
def test_back_substituted_kernel_is_the_sign_vector(vset, contexts):
    # the rank-only certificate against the reference back-substitution
    solution = assemble_and_solve(ContextSystem.of(vset, contexts))
    signs = tuple(levi_civita(p) for p in permutations(range(vset.dim)))
    rows = [dict(r.entries) for r in solution.rows]
    assert null_space_basis(rows, ncols=solution.variables) == [signs]
    assert solution.nullity == 1


def test_row_contexts_must_be_game_contexts():
    # (0, 3, 4) is an orthogonal basis of ck31 but not a context of this game
    game = ContextSystem.of(catalog_conway_kochen31(), [(0, 1, 2), (6, 5, 1)])
    with pytest.raises(ValueError, match="not a context of the game"):
        certify(game, CK_SELFTEST_CONTEXTS)
    report = certify(game, [(1, 5, 6)])
    assert (report.rank, report.nullity, report.unique) == (3, 3, False)


def test_general_selftest_d4():
    report = general_d_selftest(4)
    assert report.variables == 24
    assert report.canonical_context == (0, 1, 2, 3)
    assert report.row_count == 36
    assert report.rank == 23
    assert report.nullity == 1
    assert report.unique
    for p in permutations(range(4)):
        assert report.witness.terms[p] == levi_civita(p)
    assert report.witness == build_supersinglet(4)


def test_general_selftest_d4_with_all_contexts():
    report = general_d_selftest(4, all_contexts=True)
    assert report.unique
    assert report.rank == 23
    assert len(report.contexts) == 24


def test_general_selftest_d5():
    report = general_d_selftest(5)
    assert report.variables == 120
    assert report.rank == 119
    assert report.nullity == 1
    assert report.unique
    assert report.witness == build_supersinglet(5)


def test_general_selftest_rejects_out_of_range_d(monkeypatch):
    # merged_peres refuses d = 3 itself; a d over the state's budget is
    # refused before the merged set is built
    with pytest.raises(ValueError):
        general_d_selftest(3)

    def refuse(d):
        raise AssertionError("the merged set may not be built for a refused d")

    monkeypatch.setattr("kspt.selftest.merged_peres", refuse)
    for d in (9, 16):
        with pytest.raises(ValueError, match=f"d={d} exceeds the budget of 8 for the d!-term"):
            general_d_selftest(d)


@pytest.mark.parametrize(
    "vset, contexts, argv",
    [
        (
            catalog_conway_kochen31(),
            CK_SELFTEST_CONTEXTS,
            ["--builtin", "ck31", "--contexts", "0,3,4", "1,5,6"],
        ),
        (merged_peres(4), None, ["--d", "4", "--all-contexts"]),
    ],
    ids=["ck31-pair", "merged4-all-contexts"],
)
def test_the_row_budget_refuses_before_relabelling_any_row(
    monkeypatch, capsys, vset, contexts, argv
):
    # the budget counts generated rows, one per provenance entry (the bench
    # tracer's rows_generated): the exact count is admitted, one fewer is
    # refused before the second pass relabels a row through itemgetter
    system = ContextSystem.of(vset, contexts)
    generated = sum(len(row.provenance) for row in pqs_constraint_rows(system))
    monkeypatch.setattr(selftest, "MAX_ROWS", generated)
    assert sum(len(row.provenance) for row in pqs_constraint_rows(system)) == generated
    assert run(["selftest", *argv]) == 0
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("no row may be relabelled over the budget")

    monkeypatch.setattr(selftest, "MAX_ROWS", generated - 1)
    monkeypatch.setattr("kspt.selftest.itemgetter", refuse)
    with pytest.raises(ValueError, match=f"budget of {generated - 1} generated rows"):
        pqs_constraint_rows(system)
    assert run(["selftest", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"budget of {generated - 1} generated rows" in captured.err
