"""Exact rational linear algebra over plain tuples and lists.

Vectors are tuples of ints or fractions.Fraction, matrices are sequences of
such rows or of {column: value} mappings.  Everything here is exact: no
floats, no tolerances.  Every kernel computes in integers, clearing a row's
denominators once on entry; the only Fraction built is the value that
determinant returns.  Elimination is fraction-free on sparse integer rows
{column: nonzero}, one row inserted at a time into a basis keyed by leading
column.  The pivot columns do not depend on the row order, nor does the
primitive null vector of a free column, so ranks, null spaces and canonical
ray representatives are reproducible bit for bit.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, inf, lcm, prod
from operator import mul
from typing import Sequence

Scalar = int | Fraction
Vector = tuple[Scalar, ...]
Rows = Sequence[Sequence[Scalar] | Mapping[int, Scalar]]


def inner_product(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Exact Euclidean inner product sum_k u_k v_k.

    The plain sum: an int for integer vectors, a Fraction only when an entry
    is one.
    """
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def norm_squared(v: Sequence[Scalar]) -> Scalar:
    return inner_product(v, v)


def primitive(v: Sequence[Scalar]) -> tuple[int, ...]:
    """Canonical ray representative: primitive integers, first nonzero positive.

    Clears denominators, divides by the content gcd, and fixes the overall
    sign so that the first nonzero entry is positive.  The zero vector maps
    to itself.  A row of ints has no denominators to clear.
    """
    ints = _reduce_row(list(v) if all(type(x) is int for x in v) else _integer_row(v))
    if next(filter(None, ints), 0) < 0:
        return tuple([-x for x in ints])
    return tuple(ints)


def _integer_row(row: Sequence[Scalar]) -> list[int]:
    # clear denominators; row scaling never changes a ray, a rank or a null space
    den = lcm(*[x.denominator for x in row])
    return [int(x * den) for x in row]


def _reduce_row(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce_entries(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


class _ReadRows(list):
    """Rows already primitive integer {column: nonzero} dicts; row_echelon takes them as is."""


def _read_rows(rows: Rows, ncols: int | None = None) -> tuple[_ReadRows, int | None]:
    """Rows as primitive integer {column: nonzero} dicts, and the column count.

    Dense rows all have ncols entries (by default their common length);
    mapping columns lie in [0, ncols).  The count is None when neither ncols
    nor a dense row gives it.
    """
    lengths = {len(r) for r in rows if not isinstance(r, Mapping)}
    if ncols is None and len(lengths) == 1:
        ncols = lengths.pop()
    if lengths - {ncols}:
        raise ValueError(f"dense rows of lengths {sorted(lengths)}, ncols = {ncols}")
    work = _ReadRows()
    for r in rows:
        row = {c: x for c, x in (r.items() if isinstance(r, Mapping) else enumerate(r)) if x != 0}
        if row and not 0 <= min(row) <= max(row) < (inf if ncols is None else ncols):
            raise ValueError(f"columns {sorted(row)} outside [0, ncols), ncols = {ncols}")
        work.append(_reduce_entries(dict(zip(row, _integer_row(list(row.values()))))))
    return work, ncols


def row_echelon(rows: Rows, at_most: int | None = None) -> tuple[list[dict[int, int]], list[int]]:
    """Integer-preserving row echelon form: ({column: nonzero} rows, pivot columns).

    Rows are read in order, each reduced by the basis row of its leading
    column, an integer step and a primitive rescale at a time, until it is
    zero or leads at a new column, where it joins the basis.  Reading stops
    once the basis holds at_most rows.  Rows come back by ascending pivot.
    """
    work = rows if isinstance(rows, _ReadRows) else _read_rows(rows)[0]
    basis: dict[int, dict[int, int]] = {}
    for row in work:
        if len(basis) == at_most:
            break
        while row:
            c = min(row)
            if (prow := basis.get(c)) is None:
                basis[c] = row
                break
            g = gcd(prow[c], row[c])
            a, b = prow[c] // g, row[c] // g
            new = {j: a * v for j, v in row.items()}
            for j, v in prow.items():
                if w := new.get(j, 0) - b * v:
                    new[j] = w
                else:  # a * row[j] == b * v, so j was in new
                    del new[j]
            row = _reduce_entries(new)
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def rank(rows: Rows, at_most: int | None = None) -> int:
    """Exact matrix rank, or at_most when the rank reaches it."""
    return len(row_echelon(rows, at_most)[0])


def determinant(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    """Exact determinant: Bareiss fraction-free elimination in integers.

    Each row is scaled once by the lcm of its denominators, so the value is
    the integer determinant over the product of those lcms.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    dens = [lcm(*[x.denominator for x in r]) for r in rows]
    m = [[int(x * den) for x in r] for r, den in zip(rows, dens)]
    sign, pivot = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            sign = 0
            break
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // pivot
        pivot = m[k][k]
    return Fraction(sign * pivot, prod(dens))


def null_space_basis(rows: Rows, ncols: int | None = None) -> list[tuple[int, ...]]:
    """Basis of {x : Mx = 0}, one primitive integer vector per free column.

    Mapping rows need ncols.  Back-substitution runs in integers on the sparse
    echelon rows: at pivot p with row sum s, x is scaled by p / g and x[pivot]
    = -s / g, g = gcd(s, p).  Basis vectors are emitted in increasing
    free-column order, each primitive with the first nonzero entry positive.
    """
    work, ncols = _read_rows(rows, ncols)
    if ncols is None:
        raise ValueError("cannot infer the column count: pass ncols")
    echelon, pivots = row_echelon(work)
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        x = [0] * ncols
        x[f] = 1
        for row, c in zip(reversed(echelon), reversed(pivots)):
            s = sum(v * x[j] for j, v in row.items() if j != c)
            g = gcd(s, row[c])
            x = [row[c] // g * e for e in x]
            x[c] = -s // g
        basis.append(primitive(x))
    return basis


def gram_schmidt(vectors: Sequence[Sequence[Scalar]]) -> list[tuple[int, ...]]:
    """Fraction-free Gram-Schmidt without normalization.

    Returns pairwise-orthogonal primitive integer vectors spanning the same
    space.  Each input is projected off every earlier output u as
    w <- (u.u) w - (w.u) u, a positive multiple of the rational projection,
    and made primitive after each step.  Linearly dependent inputs contribute
    nothing (zero vectors are dropped).
    """
    ortho: list[tuple[int, ...]] = []
    for v in vectors:
        w = _reduce_row(_integer_row(v))
        for u in ortho:
            if c := inner_product(w, u):
                uu = norm_squared(u)
                w = _reduce_row([uu * wi - c * ui for wi, ui in zip(w, u)])
        if any(w):
            ortho.append(primitive(w))
    return ortho


def orthocomplement_basis(vectors: Sequence[Sequence[Scalar]], dim: int) -> list[tuple[int, ...]]:
    """Mutually orthogonal basis of the orthogonal complement of span(vectors).

    The complement of the row span is the null space of the matrix; the null
    space basis is then orthogonalized over the rationals and canonicalized
    (primitive integers, first nonzero positive, lexicographic order).
    """
    return sorted(gram_schmidt(null_space_basis(vectors, ncols=dim)))
