"""Linear constraint systems certifying the antisymmetric state as unique.

A perfect strategy forces the shared state's coefficient vector, indexed by
outcome tuples, to vanish on every product-basis outcome that the winning
condition forbids.  With the canonical basis available as one context, the
surviving coefficients live on permutations only (d! variables); every other
context contributes one homogeneous row per forbidden outcome tuple.  When
the stacked system has rank d! - 1, its null space is one line, and the
certification succeeds exactly when that line is the permutation-sign
vector.

A context's rows are its product-expansion rows on the tuples that are not
permutations of it.  Rows, ranks, and null spaces are exact throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .catalog import _window_bases, merged_peres
from .exact_linalg import null_space_basis, primitive
from .ks_sets import Context, VectorSet, check_context, enumerate_contexts
from .supersinglet import Permutation, _product_expansion, levi_civita

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
    index = vset._ray_index
    canonical = []
    for t in range(d):
        ray = tuple(1 if j == t else 0 for j in range(d))
        if ray not in index:
            raise ValueError(f"canonical basis vector e_{t} is absent from the set")
        canonical.append(index[ray])
    ctx = tuple(sorted(canonical))
    if ctx not in {tuple(sorted(c)) for c in contexts}:
        raise ValueError("canonical basis is not a context of the supplied set")
    return SupportRestrictionRecord(d=d, variables=math.factorial(d), canonical_context=ctx)


@dataclass(frozen=True)
class ConstraintRow:
    """One deduplicated homogeneous row over the d! permutation coefficients.

    entries are the row's nonzeros as ascending (column, value) pairs, columns
    in the lexicographic permutation order; values are primitive integers with
    the first one positive, so equal rows merge and provenance lists every
    (context position, forbidden outcome tuple) that produced them.
    """

    entries: tuple[tuple[int, int], ...]
    provenance: tuple[tuple[int, tuple[int, ...]], ...]


def _merge(keyed) -> tuple[ConstraintRow, ...]:
    """Rows in first-seen key order, provenance concatenated in generation order."""
    merged: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for key, provenance in keyed:
        merged.setdefault(key, []).extend(provenance)
    return tuple(ConstraintRow(entries=key, provenance=tuple(p)) for key, p in merged.items())


def pqs_constraint_rows(
    vset: VectorSet, context: Context, context_id: int = 0
) -> list[ConstraintRow]:
    """Rows from one context: every outcome tuple that is not a permutation of it.

    Tuples come in the order of product(context, repeat=d); identically zero
    rows are absent from the expansion.  A row is keyed by its (column, value)
    pairs, the values made primitive; proportional rows are merged with their
    provenance concatenated in generation order.
    """
    d = vset.dim
    check_context(vset, context)
    perm_index = {p: i for i, p in enumerate(permutations(range(d)))}
    expansion = _product_expansion([[vset.vectors[i] for i in context]] * d)

    def keyed():
        for pos in sorted(expansion):
            if len(set(pos)) == d:
                continue
            perms, values = zip(*sorted(expansion[pos].items()))
            key = tuple(zip(map(perm_index.__getitem__, perms), primitive(values)))
            yield key, [(context_id, tuple(context[p] for p in pos))]

    return list(_merge(keyed()))


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
    rows = _merge(
        (row.entries, row.provenance)
        for ci, ctx in enumerate(contexts)
        for row in pqs_constraint_rows(vset, ctx, context_id=ci)
    )
    variables = math.factorial(d)
    null_vectors = null_space_basis([dict(r.entries) for r in rows], ncols=variables)
    system_rank = variables - len(null_vectors)
    perms = list(permutations(range(d)))
    null_basis = tuple(
        CoefficientVector(d=d, entries=dict(zip(perms, map(Fraction, x)))) for x in null_vectors
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
    lead = vec.entries.get(tuple(range(vec.d)), Fraction(0))
    if lead == 0:
        return False, None
    scaled = {p: v / lead for p, v in vec.entries.items()}
    witness = CoefficientVector(d=vec.d, entries=scaled)
    return all(scaled.get(p, 0) == levi_civita(p) for p in permutations(range(vec.d))), witness


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
