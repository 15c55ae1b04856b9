import math
import random
from fractions import Fraction

import pytest
import sympy

from kspt import exact_linalg
from kspt.catalog import merged_peres, merged_window_bases
from kspt.exact_linalg import (
    _read_rows,
    determinant,
    gram_schmidt,
    inner_product,
    norm_squared,
    null_space_basis,
    orthocomplement_basis,
    primitive,
    rank,
    row_echelon,
)
from kspt.ks_sets import ContextSystem
from kspt.selftest import assemble_and_solve
from naive import densify, naive_gram_schmidt, naive_row_echelon, union_row_echelon


def test_inner_product_canonical_orthogonality():
    assert inner_product((1, 0, 0, 0), (0, 1, 0, 0)) == 0


def test_inner_product_tetrad_pair():
    assert inner_product((-1, 1, 1, 1), (1, 1, 1, -1)) == 0


def test_inner_product_plain_arithmetic():
    assert inner_product((1, 1, 0, 0), (1, 1, 1, 1)) == 2


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product((1, 0), (1, 0, 0))


def test_inner_product_rational_entries():
    assert inner_product((Fraction(1, 2), Fraction(1, 3)), (2, 3)) == 2


def test_inner_product_stays_integer_for_integer_vectors():
    assert type(inner_product((1, -2, 3), (4, 5, 6))) is int
    assert type(norm_squared((1, -2, 3))) is int
    assert type(inner_product((Fraction(1, 2), 1), (2, 3))) is Fraction


def test_inner_product_symmetric_bilinear():
    rng = random.Random(7)
    for _ in range(50):
        dim = rng.randint(2, 5)
        u = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
        v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
        w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert inner_product(u, v) == inner_product(v, u)
        lhs = inner_product(tuple(c * ui + wi for ui, wi in zip(u, w)), v)
        assert lhs == c * inner_product(u, v) + inner_product(w, v)


def test_norm_squared():
    assert norm_squared((1, -2, 2)) == 9
    assert norm_squared((Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)


def test_primitive_clears_denominators_and_sign():
    assert primitive((Fraction(-1, 2), Fraction(1, 4), 0)) == (2, -1, 0)
    assert primitive((0, -3, 6)) == (0, 1, -2)
    assert primitive((4, 6)) == (2, 3)
    # idempotent
    assert primitive(primitive((Fraction(-3, 7), Fraction(9, 14)))) == primitive(
        (Fraction(-3, 7), Fraction(9, 14))
    )
    # a row of ints skips the denominator pass; Fraction entries, integral
    # ones included, take it, and both give the same plain int tuple
    for row, want in [
        ((0, -4, 6), (0, 2, -3)),
        ([-2, 0, 0], (1, 0, 0)),
        ((Fraction(2), 4), (1, 2)),
        ((Fraction(-4, 2), 6, 0), (1, -3, 0)),
        ((3, Fraction(-1, 2), Fraction(2)), (6, -1, 4)),
        ((0, 0), (0, 0)),
    ]:
        got = primitive(row)
        assert got == want and all(type(x) is int for x in got), row


def test_rank_identity():
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert rank(eye) == 4


def test_rank_gram_matrix_of_tetrad():
    tetrad = [(-1, 1, 1, 1), (1, 1, 1, -1), (1, 0, 0, 1), (0, 1, -1, 0)]
    gram = [[inner_product(u, v) for v in tetrad] for u in tetrad]
    assert rank(gram) == 4


def test_rank_zero_and_rectangular():
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert rank([[1, 2, 3]]) == 1


def test_null_space_zero_matrix():
    basis = null_space_basis([[0, 0, 0], [0, 0, 0]])
    assert len(basis) == 3


def test_null_space_and_rank_random_cross_check():
    rng = random.Random(11)
    for _ in range(30):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        r = rank(m)
        basis = null_space_basis(m)
        assert r + len(basis) == ncols
        for x in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, x)) == 0
            g = 0
            for e in x:
                g = math.gcd(g, abs(e))
            assert g == 1
            first = next(e for e in x if e != 0)
            assert first > 0


def test_rank_matches_sympy():
    rng = random.Random(13)
    for _ in range(20):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        assert rank(m) == sympy.Matrix(m).rank()


def test_null_space_dimension_matches_sympy():
    # sympy's nullspace also has one vector per free column, in column order,
    # with that column 1 and the other free columns 0: the rays must agree
    rng = random.Random(17)
    frng = random.Random(19)
    for _ in range(15):
        m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        rational = [[Fraction(frng.randint(-6, 6), frng.randint(1, 4)) for _ in range(5)]
                    for _ in range(3)]
        for matrix in (m, rational):
            basis = null_space_basis(matrix)
            expected = sympy.Matrix(matrix).nullspace()
            assert len(basis) == len(expected)
            for x, v in zip(basis, expected):
                assert x == primitive([Fraction(int(e.p), int(e.q)) for e in v])


def test_row_echelon_pivots():
    rows, pivots = row_echelon([[0, 2, 1], [0, 4, 2], [1, 0, 0]])
    assert len(rows) == len(pivots) == 2
    assert pivots[0] == 0


def test_elimination_rejects_ragged_rows():
    with pytest.raises(ValueError):
        rank([[1], [1, 1]])
    with pytest.raises(ValueError):
        null_space_basis([[1, 2, 3]], ncols=2)
    with pytest.raises(ValueError):
        row_echelon([[0], [1, 5]])
    with pytest.raises(ValueError):
        row_echelon([[1, 2], [3]])


def test_elimination_rejects_bad_mapping_rows():
    # mapping columns must lie in [0, ncols), and only ncols can size them
    with pytest.raises(ValueError, match="outside"):
        null_space_basis([{0: 1}, {3: 2}], ncols=3)
    with pytest.raises(ValueError, match="outside"):
        null_space_basis([{-1: 1, 0: 2}], ncols=3)
    with pytest.raises(ValueError, match="outside"):
        row_echelon([{0: 1}, {-2: 1}])
    with pytest.raises(ValueError, match="ncols"):
        null_space_basis([{0: 1, 2: 1}])


def _oracle_matrices():
    rng = random.Random(31)

    def sparse(nrows, ncols):
        m = [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(ncols)] for _ in range(nrows)]
        m += [[0] * ncols, list(m[0]), list(m[-1])]  # a zero row and duplicates
        rng.shuffle(m)
        return m

    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        yield [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        yield [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(ncols)]
               for _ in range(nrows)]
        yield sparse(nrows, ncols)
    for nrows, ncols in ((3, 30), (30, 3), (1, 12), (12, 1)):
        yield [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
    yield sparse(8, 40)
    yield sparse(60, 8)
    for d in (4, 5):
        solution = assemble_and_solve(ContextSystem.of(merged_peres(d), merged_window_bases(d)))
        yield [list(densify(r.entries, solution.variables)) for r in solution.rows]


def unbounded_naive_row_echelon(rows, at_most=None):
    # rank passes its at_most on; the oracle rank reads every row
    assert at_most is None
    return naive_row_echelon(rows)


def test_sparse_elimination_matches_the_dense_oracle(monkeypatch):
    # the pivot row may differ, so only pivots, rank and null space must agree;
    # every matrix is run once as dense rows and once as {column: value} rows
    for m in _oracle_matrices():
        ncols = len(m[0])
        with monkeypatch.context() as patch:
            patch.setattr(exact_linalg, "row_echelon", unbounded_naive_row_echelon)
            want = (naive_row_echelon(m)[1], rank(m), null_space_basis(m, ncols=ncols))
        mapped = [{j: x for j, x in enumerate(row) if x != 0} for row in m]
        for rows in (m, mapped):
            echelon, pivots = row_echelon(rows)
            for row, c in zip(echelon, pivots):
                assert min(row) == c and all(row.values())
            got = (pivots, rank(rows), null_space_basis(rows, ncols=ncols))
            assert got == want, rows


def test_bounded_rank_is_the_rank_capped():
    # rank(m, at_most=k) stops reading rows once the basis holds k of them
    for m in _oracle_matrices():
        ncols = len(m[0])
        full = rank(m)
        mapped = [{j: x for j, x in enumerate(row) if x != 0} for row in m]
        for rows in (m, mapped):
            for k in range(ncols + 1):
                assert rank(rows, at_most=k) == min(full, k), (rows, k)


def test_row_echelon_matches_the_union_step_and_keeps_its_input():
    # each step writes a * row - b * prow straight into a new dict; the
    # arithmetic, and so every echelon row and pivot, is that of the step
    # over the union of both rows' columns, on the oracle matrices and on the
    # d = 6 self-test rows.  The rows passed in are never changed
    d6 = assemble_and_solve(ContextSystem.of(merged_peres(6), merged_window_bases(6)))
    matrices = list(_oracle_matrices()) + [[dict(r.entries) for r in d6.rows]]
    for m in matrices:
        rows = _read_rows(m)[0]
        before = [dict(r) for r in rows]
        assert row_echelon(rows) == union_row_echelon([dict(r) for r in rows])
        assert rows == before


def test_determinant_basics():
    assert determinant([[1, 0], [0, 1]]) == 1
    assert determinant([[1, 2], [1, 2]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_rational_and_sympy():
    rng = random.Random(19)
    for _ in range(20):
        dim = rng.randint(2, 5)
        m = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim)]
        assert determinant(m) == sympy.Matrix(m).det()
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert determinant(m) == Fraction(1, 14) - Fraction(1, 15)
    frng = random.Random(29)
    for _ in range(30):
        dim = frng.randint(1, 5)
        m = [[Fraction(frng.randint(-6, 6), frng.randint(1, 5)) for _ in range(dim)]
             for _ in range(dim)]
        assert determinant(m) == sympy.Matrix(m).det()
        m[frng.randrange(dim)] = [Fraction(0)] * dim
        assert determinant(m) == 0
    # a zero pivot that a row swap fixes, with rational rows
    m = [[0, Fraction(2, 3), 1], [Fraction(1, 2), 0, 2], [1, 1, Fraction(-1, 4)]]
    assert determinant(m) == sympy.Matrix(m).det() != 0
    assert determinant([]) == 1


def test_orthocomplement_of_two_canonical():
    basis = orthocomplement_basis([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    assert basis == [(0, 0, 0, 1), (0, 0, 1, 0)]


def test_orthocomplement_of_single_vector():
    basis = orthocomplement_basis([(0, 1, 1)], 3)
    assert (1, 0, 0) in basis
    assert (0, 1, -1) in basis
    assert len(basis) == 2


def test_orthocomplement_of_full_basis_is_empty():
    assert orthocomplement_basis([(1, 0), (0, 1)], 2) == []


def test_orthocomplement_of_empty_input():
    basis = orthocomplement_basis([], 3)
    assert basis == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_orthocomplement_properties_random():
    rng = random.Random(23)
    for _ in range(25):
        dim = rng.randint(2, 5)
        k = rng.randint(1, dim)
        vs = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(k)]
        vs = [v for v in vs if any(v)]
        if not vs:
            continue
        basis = orthocomplement_basis(vs, dim)
        for b in basis:
            for v in vs:
                assert inner_product(b, v) == 0
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert inner_product(basis[i], basis[j]) == 0
        assert rank([list(v) for v in vs] + [list(b) for b in basis]) == dim
        assert basis == sorted(basis)


def test_gram_schmidt_orthogonalizes():
    out = gram_schmidt([(1, 1, 0), (1, 0, 0), (2, 2, 0)])
    assert len(out) == 2
    assert inner_product(out[0], out[1]) == 0


def test_gram_schmidt_matches_the_rational_oracle():
    rng = random.Random(31)
    for trial in range(300):
        dim = rng.randint(1, 5)
        if trial % 2:
            vs = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim))
                  for _ in range(rng.randint(0, dim + 1))]
        else:
            vs = [tuple(rng.randint(-3, 3) for _ in range(dim))
                  for _ in range(rng.randint(0, dim + 1))]
        if vs:
            # a dependent vector and a zero vector contribute nothing
            vs.insert(rng.randint(0, len(vs)), tuple(-2 * x for x in vs[0]))
            vs.insert(rng.randint(0, len(vs)), (0,) * dim)
        out = gram_schmidt(vs)
        assert out == naive_gram_schmidt(vs), vs
        assert all(inner_product(u, v) == 0 for i, u in enumerate(out) for v in out[i + 1:])
        assert len(out) == (rank(vs) if vs else 0)
