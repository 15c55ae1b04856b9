"""Linear constraint systems certifying the antisymmetric state as unique.

A perfect strategy forces the shared state's coefficient vector, indexed by
outcome tuples, to vanish on every product-basis outcome that the winning
condition forbids.  With the canonical basis available as one context, the
surviving coefficients live on permutations only (d! variables); every other
context contributes one homogeneous row per forbidden outcome tuple.  When
the stacked system has rank d! - 1, its null space is one line, and the
certification succeeds exactly when that line is the permutation-sign
vector.

Rows, ranks, and null spaces are exact rational computations throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .catalog import _window_bases, merged_peres
from .exact_linalg import Scalar, null_space_basis, primitive
from .ks_sets import Context, VectorSet, check_context, enumerate_contexts
from .supersinglet import Permutation, levi_civita

MAX_D = 6


@dataclass(frozen=True)
class SupportRestrictionRecord:
    """Why the variable space is the d! permutation-indexed coefficients.

    Measuring the canonical-basis context perfectly means the d parties'
    levels are always a permutation of range(d), so coefficients on all other
    outcome tuples vanish before any further context is considered.
    """

    d: int
    variables: int
    canonical_context: Context


def support_restriction_constraints(
    vset: VectorSet, contexts: list[Context]
) -> SupportRestrictionRecord:
    """Check the canonical basis is one of the set's contexts and record it.

    The restriction is structural (it shrinks the variable space), so no rows
    are emitted; the record carries the context that justifies it.
    """
    d = vset.dim
    index = {primitive(v): i for i, v in enumerate(vset.vectors)}
    canonical = []
    for t in range(d):
        ray = tuple(1 if j == t else 0 for j in range(d))
        if ray not in index:
            raise ValueError(f"canonical basis vector e_{t} is absent from the set")
        canonical.append(index[ray])
    ctx = tuple(sorted(canonical))
    if ctx not in {tuple(c) for c in contexts}:
        raise ValueError("canonical basis is not a context of the supplied set")
    return SupportRestrictionRecord(d=d, variables=math.factorial(d), canonical_context=ctx)


@dataclass(frozen=True)
class ConstraintRow:
    """One deduplicated homogeneous row over the d! permutation coefficients.

    entries follow the lexicographic permutation order; rows are scaled to
    primitive integers with positive leading entry, so equal rows merge and
    provenance lists every (context position, forbidden outcome tuple) that
    produced them.
    """

    entries: tuple[int, ...]
    provenance: tuple[tuple[int, tuple[int, ...]], ...]


def _row_for_vectors(vectors: list, perm_index: dict[Permutation, int]) -> list[Scalar]:
    """Row r[pi] = prod_i (v_i)_{pi(i)}, built by support-constrained recursion."""
    d = len(vectors)
    supports = [tuple(j for j, x in enumerate(v) if x != 0) for v in vectors]
    row: list[Scalar] = [0] * len(perm_index)
    assign = [0] * d

    def rec(i: int, used: int, coeff: Scalar) -> None:
        if i == d:
            row[perm_index[tuple(assign)]] += coeff
            return
        for level in supports[i]:
            if used & (1 << level):
                continue
            assign[i] = level
            rec(i + 1, used | (1 << level), coeff * vectors[i][level])

    rec(0, 0, 1)
    return row


def pqs_constraint_rows(
    vset: VectorSet, context: Context, context_id: int = 0
) -> list[ConstraintRow]:
    """Rows from one context: every outcome tuple that is not a permutation of it.

    Identically zero rows are dropped; proportional rows are merged with their
    provenance concatenated in generation order.
    """
    d = vset.dim
    check_context(vset, context)
    perms = list(permutations(range(d)))
    perm_index = {p: i for i, p in enumerate(perms)}
    allowed = set(permutations(context))
    merged: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    order: list[tuple[int, ...]] = []
    for a in product(context, repeat=d):
        if a in allowed:
            continue
        row = _row_for_vectors([vset.vectors[i] for i in a], perm_index)
        if not any(row):
            continue
        key = primitive(row)
        if key not in merged:
            merged[key] = []
            order.append(key)
        merged[key].append((context_id, a))
    return [ConstraintRow(entries=key, provenance=tuple(merged[key])) for key in order]


@dataclass(frozen=True)
class CoefficientVector:
    """A rational vector over the d! permutations."""

    d: int
    entries: dict[Permutation, Fraction]


@dataclass(frozen=True)
class SelftestSolution:
    d: int
    variables: int
    rows: tuple[ConstraintRow, ...]
    rank: int
    null_basis: tuple[CoefficientVector, ...]

    @property
    def nullity(self) -> int:
        return len(self.null_basis)


def assemble_and_solve(vset: VectorSet, contexts: list[Context]) -> SelftestSolution:
    """Stack the rows of the chosen contexts and solve the homogeneous system.

    One elimination, in null_space_basis; rank = variables - nullity.
    """
    d = vset.dim
    merged: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    order: list[tuple[int, ...]] = []
    for ci, ctx in enumerate(contexts):
        for row in pqs_constraint_rows(vset, ctx, context_id=ci):
            if row.entries not in merged:
                merged[row.entries] = []
                order.append(row.entries)
            merged[row.entries].extend(row.provenance)
    rows = tuple(
        ConstraintRow(entries=key, provenance=tuple(merged[key])) for key in order
    )
    variables = math.factorial(d)
    matrix = [list(r.entries) for r in rows]
    null_vectors = null_space_basis(matrix, ncols=variables)
    system_rank = variables - len(null_vectors)
    perms = list(permutations(range(d)))
    null_basis = tuple(
        CoefficientVector(d=d, entries={p: Fraction(x[i]) for i, p in enumerate(perms)})
        for x in null_vectors
    )
    return SelftestSolution(
        d=d, variables=variables, rows=rows, rank=system_rank, null_basis=null_basis
    )


def verify_unique_supersinglet(
    null_basis: tuple[CoefficientVector, ...],
) -> tuple[bool, CoefficientVector | None]:
    """True iff the null space is one line spanned by the permutation signs.

    The witness is rescaled so the identity permutation's coefficient is +1;
    on success its entries are exactly the Levi-Civita signs.
    """
    if len(null_basis) != 1:
        return False, None
    vec = null_basis[0]
    d = vec.d
    identity = tuple(range(d))
    lead = vec.entries.get(identity, Fraction(0))
    if lead == 0:
        return False, None
    scaled = {p: v / lead for p, v in vec.entries.items()}
    witness = CoefficientVector(d=d, entries=scaled)
    for p in permutations(range(d)):
        if scaled.get(p, Fraction(0)) != levi_civita(p):
            return False, witness
    return True, witness


@dataclass(frozen=True)
class SelftestReport:
    d: int
    variables: int
    contexts: tuple[Context, ...]
    support: SupportRestrictionRecord
    row_count: int
    rank: int
    nullity: int
    unique: bool
    witness: CoefficientVector | None


def certify(
    vset: VectorSet, contexts: list[Context], row_contexts: list[Context]
) -> SelftestReport:
    """Certify the state from row_contexts, with the support taken from contexts.

    contexts are the game's contexts: the canonical basis must be one of them
    for the permutation-only variable space to hold.  row_contexts are the
    contexts whose forbidden outcomes give the rows.
    """
    support = support_restriction_constraints(vset, contexts)
    solution = assemble_and_solve(vset, row_contexts)
    unique, witness = verify_unique_supersinglet(solution.null_basis)
    return SelftestReport(
        d=vset.dim,
        variables=solution.variables,
        contexts=tuple(row_contexts),
        support=support,
        row_count=len(solution.rows),
        rank=solution.rank,
        nullity=solution.nullity,
        unique=unique,
        witness=witness,
    )


def general_d_selftest(d: int, all_contexts: bool = False) -> SelftestReport:
    """Certify the d-party state from the merged set's distinguished bases.

    Uses the two bases per 4-coordinate window; all_contexts stacks rows from
    every enumerated context of the merged set instead, as a redundancy
    cross-check.
    """
    if d < 4:
        raise ValueError("the merged construction needs d >= 4")
    if d > MAX_D:
        raise ValueError(
            f"d={d} exceeds the budget of {MAX_D} ({math.factorial(d)} variables)"
        )
    vset = merged_peres(d)
    contexts = enumerate_contexts(vset)
    return certify(vset, contexts, contexts if all_contexts else _window_bases(vset))
