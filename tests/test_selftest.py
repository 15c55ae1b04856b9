import hashlib
from fractions import Fraction
from itertools import permutations

import pytest
import sympy

from kspt.catalog import (
    catalog_ceg18,
    catalog_conway_kochen31,
    catalog_peres24,
    merged_peres,
    merged_window_bases,
)
from kspt.exact_linalg import primitive, rank
from kspt.ks_sets import enumerate_contexts
from kspt.selftest import (
    CoefficientVector,
    assemble_and_solve,
    general_d_selftest,
    pqs_constraint_rows,
    support_restriction_constraints,
    verify_unique_supersinglet,
)
from kspt.supersinglet import levi_civita
from naive import naive_constraint_rows

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
    vset = catalog_conway_kochen31()
    record = support_restriction_constraints(vset, enumerate_contexts(vset))
    assert record.d == 3
    assert record.variables == 6
    assert record.canonical_context == (0, 1, 2)


def test_support_restriction_on_the_24_ray_set():
    vset = catalog_peres24()
    record = support_restriction_constraints(vset, enumerate_contexts(vset))
    assert record.variables == 24
    assert record.canonical_context == (0, 1, 2, 3)


def test_support_restriction_needs_the_canonical_rays():
    # the 18-ray set lacks (0, 0, 1, 0)
    ceg, tetrads = catalog_ceg18()
    with pytest.raises(ValueError) as err:
        support_restriction_constraints(ceg, tetrads)
    assert "absent" in str(err.value)


def test_support_restriction_needs_the_canonical_context():
    vset = catalog_conway_kochen31()
    with pytest.raises(ValueError) as err:
        support_restriction_constraints(vset, [(0, 3, 4)])
    assert "not a context" in str(err.value)


def test_constraint_row_for_a_repeated_outcome():
    vset = catalog_conway_kochen31()
    rows = pqs_constraint_rows(vset, (0, 3, 4))
    by_outcome = {}
    for row in rows:
        for _, a in row.provenance:
            by_outcome[a] = row.entries
    # outcome (v0, v3, v3): v0 pins the first level to 0, the two v3 factors
    # fill levels 1 and 2 with product 1 * (-1) either way
    assert by_outcome[(0, 3, 3)] == (1, 1, 0, 0, 0, 0)


def test_constraint_rows_reject_bad_contexts():
    vset = catalog_conway_kochen31()
    # wrong size, a repeated member, members outside [0, 31) (-27 would wrap
    # to v4, 31 and 99 are past the end), and v3, v13, not orthogonal
    for ctx, reason in (
        ((0, 3), "distinct members"),
        ((0, 3, 3), "distinct members"),
        ((0, 3, 31), r"outside \[0, 31\)"),
        ((0, 3, 99), r"outside \[0, 31\)"),
        ((0, 3, -27), r"outside \[0, 31\)"),
        ((0, 3, 13), "not an orthogonal basis"),
    ):
        with pytest.raises(ValueError, match=reason):
            pqs_constraint_rows(vset, ctx)


def test_constraint_rows_are_primitive_and_distinct():
    vset = catalog_peres24()
    rows = pqs_constraint_rows(vset, (4, 5, 6, 7))
    seen = set()
    for row in rows:
        assert row.entries not in seen
        seen.add(row.entries)
        lead = next(x for x in row.entries if x != 0)
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
            for row in pqs_constraint_rows(vset, ctx):
                assert sum(e * s for e, s in zip(row.entries, eps)) == 0


def test_provenance_replays_to_the_stored_row():
    vset = catalog_peres24()
    perms = list(permutations(range(4)))
    for row in pqs_constraint_rows(vset, (8, 9, 10, 11)):
        for _, a in row.provenance:
            vectors = [vset.vectors[i] for i in a]
            raw = [
                Fraction(
                    vectors[0][p[0]] * vectors[1][p[1]] * vectors[2][p[2]] * vectors[3][p[3]]
                )
                for p in perms
            ]
            assert primitive(raw) == row.entries


def test_constraint_rows_match_the_all_tuples_oracle():
    # the oracle walks all d^d outcome tuples and expands each one separately
    ck31 = catalog_conway_kochen31()
    ceg, tetrads = catalog_ceg18()
    merged4 = merged_peres(4)
    cases = [
        (ck31, enumerate_contexts(ck31)),
        (ceg, tetrads),
        (merged4, enumerate_contexts(merged4)),
        (merged_peres(5), merged_window_bases(5)),
    ]
    for vset, contexts in cases:
        for ci, ctx in enumerate(contexts):
            assert pqs_constraint_rows(vset, ctx, ci) == naive_constraint_rows(vset, ctx, ci)


def test_d6_window_basis_rows_are_pinned():
    # count and sha256 of (entries, provenance) of the merged rows, recorded
    # from the d^d-tuple generator
    vset = merged_peres(6)
    merged = {}
    for ci, ctx in enumerate(merged_window_bases(6)):
        for row in pqs_constraint_rows(vset, ctx, ci):
            merged.setdefault(row.entries, []).extend(row.provenance)
    rows = [(entries, tuple(provenance)) for entries, provenance in merged.items()]
    assert len(rows) == 3240
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "304f59bdea3caf1657bf465affaa935496172fae7aba2649bcb8bf572680097c"
    )


def test_d3_system_certifies_the_state():
    vset = catalog_conway_kochen31()
    solution = assemble_and_solve(vset, CK_SELFTEST_CONTEXTS)
    assert solution.variables == 6
    assert len(solution.rows) == 6
    assert solution.rank == 5
    assert solution.nullity == 1
    unique, witness = verify_unique_supersinglet(solution.null_basis)
    assert unique
    chain = tuple(witness.entries[p] for p in permutations(range(3)))
    assert chain == (1, -1, -1, 1, 1, -1)


def test_d4_system_certifies_the_state():
    vset = catalog_peres24()
    solution = assemble_and_solve(vset, PERES_WINDOW_TETRADS)
    assert solution.variables == 24
    assert len(solution.rows) == 36
    assert solution.rank == 23
    assert solution.nullity == 1
    unique, witness = verify_unique_supersinglet(solution.null_basis)
    assert unique
    for p in permutations(range(4)):
        assert witness.entries[p] == levi_civita(p)


def test_d4_rank_matches_sympy():
    vset = catalog_peres24()
    solution = assemble_and_solve(vset, PERES_WINDOW_TETRADS)
    matrix = sympy.Matrix([list(r.entries) for r in solution.rows])
    assert matrix.rank() == 23


def test_reference_rows_are_reproduced_by_the_generator():
    vset = catalog_peres24()
    solution = assemble_and_solve(vset, PERES_WINDOW_TETRADS)
    generated = {row.entries for row in solution.rows}
    for ref in REFERENCE_ROWS_D4:
        assert primitive(ref) in generated
    assert rank(REFERENCE_ROWS_D4) == 23
    stacked = [list(r.entries) for r in solution.rows] + REFERENCE_ROWS_D4
    assert rank(stacked) == 23


def test_single_tetrad_leaves_a_six_dimensional_null_space():
    vset = catalog_peres24()
    solution = assemble_and_solve(vset, [(4, 5, 6, 7)])
    assert solution.rank == 18
    assert solution.nullity == 6
    unique, witness = verify_unique_supersinglet(solution.null_basis)
    assert not unique
    assert witness is None


def test_adding_contexts_never_lowers_the_rank():
    vset = catalog_peres24()
    single = assemble_and_solve(vset, [(4, 5, 6, 7)])
    both = assemble_and_solve(vset, PERES_WINDOW_TETRADS)
    assert single.rank <= both.rank
    assert both.rank == 23


def test_verify_rejects_wrong_null_lines():
    # a symmetric line is a single null vector that is not the sign vector
    entries = {p: Fraction(1) for p in permutations(range(3))}
    unique, witness = verify_unique_supersinglet(
        (CoefficientVector(d=3, entries=entries),)
    )
    assert not unique
    assert witness is not None
    # zero identity coefficient cannot be normalized
    entries = {p: Fraction(0 if p == (0, 1, 2) else 1) for p in permutations(range(3))}
    unique, witness = verify_unique_supersinglet(
        (CoefficientVector(d=3, entries=entries),)
    )
    assert not unique and witness is None


def test_general_selftest_d4():
    report = general_d_selftest(4)
    assert report.variables == 24
    assert report.support.variables == 24
    assert report.row_count == 36
    assert report.rank == 23
    assert report.nullity == 1
    assert report.unique
    for p in permutations(range(4)):
        assert report.witness.entries[p] == levi_civita(p)


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


def test_general_selftest_rejects_out_of_range_d():
    with pytest.raises(ValueError):
        general_d_selftest(3)
    with pytest.raises(ValueError) as err:
        general_d_selftest(7)
    assert "budget" in str(err.value)
