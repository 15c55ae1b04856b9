"""Linear constraint systems certifying the antisymmetric state as unique.

A perfect strategy forces the shared state's coefficient vector, indexed by
outcome tuples, to vanish on every product-basis outcome that the winning
condition forbids.  With the canonical basis available as one context, the
surviving coefficients live on permutations only (d! variables); every other
context contributes one homogeneous row per forbidden outcome tuple.

A context's rows are its product-expansion rows on the tuples that are not
permutations of it.  Permuting the parties permutes a row's columns, so each
member multiset is expanded once and its row relabelled for every
arrangement.  Rows come from a whole system, its contexts in order; one
pass counts the rows every context generates and refuses more than MAX_ROWS
before relabelling any, a second relabels each (multiset row, sigma) pair
once.  The rows, their order, values and provenance are those of expanding
every tuple of every context.  Such a tuple repeats a member, so its row's
product with the permutation-sign vector is a determinant with two equal
rows: every row annihilates the sign vector.  The certificate is that
integer check plus the exact rank: nullity = d! - rank, and nullity 1 means
the null space is the sign vector's line, so the state is unique.  Contexts
arrive as a checked ks_sets.ContextSystem, and the canonical basis and row
contexts are found among the game's by mask, never checked again.  Rows
expand the set's primitive rays; a member's scale would only scale its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from operator import itemgetter

from .catalog import _window_bases, merged_peres
from .exact_linalg import _ReadRows, primitive, rank
from .ks_sets import Context, ContextSystem, _as_indices, check_context
from .supersinglet import SupersingletState, build_supersinglet, check_state_budget
from .supersinglet import _arrangements, _multiset_expansion

MAX_ROWS = 1 << 21  # generated rows, before merging; merged8's window bases generate 1,209,600


def support_restriction_constraints(system: ContextSystem) -> Context:
    """Check the canonical basis is one of the system's contexts and return it sorted.

    Measuring the canonical-basis context perfectly means the d parties'
    levels are always a permutation of range(d), so coefficients on all other
    outcome tuples vanish before any further context is considered: the
    variable space is the d! permutation-indexed coefficients.  The
    restriction is structural (it shrinks the variable space), so no rows are
    emitted; the returned context is what justifies it.
    """
    d, index_of = system.vset.dim, system.vset.index_of
    canonical = [index_of([int(j == t) for j in range(d)]) for t in range(d)]
    if None in canonical:
        raise ValueError(f"canonical basis vector e_{canonical.index(None)} is absent from the set")
    ctx = tuple(sorted(canonical))
    if system.mask_of(ctx) is None:
        raise ValueError("canonical basis is not a context of the supplied set")
    return ctx


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


def pqs_constraint_rows(system: ContextSystem) -> list[ConstraintRow]:
    """The rows of every context of the system, in order, merged.

    A context's rows come from its outcome tuples that are not permutations
    of it, in the order of product(context, repeat=d); identically zero rows
    are absent.  The first pass expands every context and counts the rows its
    multisets s that repeat a member generate, one per distinct arrangement
    b = s o sigma (supersinglet._arrangements, once per s); past MAX_ROWS it
    raises ValueError before relabelling any row.  The second makes s's row
    primitive once and reads b's as s's with column pi moved to pi o sigma,
    in column (lexicographic permutation) order; each (primitive row, sigma)
    pair is relabelled and signed once.  Equal rows merge in first-seen order,
    their provenance, (context position, outcome tuple), in generation order.
    """
    d = system.vset.dim
    arranged = cache(_arrangements)  # position tuple s -> its arrangements, for this call
    expanded, generated = [], 0  # [(context, its live (s, row) pairs)], their row count
    for context in system.contexts:
        expansion = _multiset_expansion([system.vset.rays[i] for i in context])
        live = [(s, row) for s, row in expansion.items() if len(set(s)) < d]
        generated += sum(len(arranged(s)) for s, _ in live)
        if generated > MAX_ROWS:
            raise ValueError(f"the rows exceed the budget of {MAX_ROWS} generated rows")
        expanded.append((context, live))
    perm_index = {p: i for i, p in enumerate(permutations(range(d)))}
    seen: dict[tuple, dict] = {}  # multiset row (columns pi, primitive values) -> {sigma: provenance}
    merged: dict[tuple[tuple[int, int], ...], list[tuple[int, tuple[int, ...]]]] = {}
    for ci, (context, live) in enumerate(expanded):
        arrangements = {}  # every live arrangement b -> (sigma, s's row, its row's memo)
        for s, row in live:
            key = (tuple(row), primitive(list(row.values())))
            memo = seen.setdefault(key, {})
            for b, sigma in arranged(s).items():
                arrangements[b] = sigma, key, memo
        for b in sorted(arrangements):
            sigma, (pis, values), memo = arrangements[b]
            if (provenance := memo.get(sigma)) is None:
                moved = map(perm_index.__getitem__, map(itemgetter(*sigma), pis))
                entries = sorted(zip(moved, values))
                if entries[0][1] < 0:
                    entries = [(c, -v) for c, v in entries]
                provenance = memo[sigma] = merged.setdefault(tuple(entries), [])
            provenance.append((ci, tuple(map(context.__getitem__, b))))
    return [ConstraintRow(entries=e, provenance=tuple(p)) for e, p in merged.items()]


@dataclass(frozen=True)
class SelftestSolution:
    state: SupersingletState
    variables: int
    rows: tuple[ConstraintRow, ...]
    rank: int

    @property
    def nullity(self) -> int:
        return self.variables - self.rank


def assemble_and_solve(system: ContextSystem) -> SelftestSolution:
    """Stack the rows of every context of the system, check them on the sign vector, rank them.

    Every merged row must annihilate the permutation-sign vector, in integers;
    a row that does not is a generator fault and raises RuntimeError.  That
    check proves rank <= d! - 1, so the rank is one elimination of the sparse
    rows, already primitive, that stops once it reaches d! - 1.
    """
    # built first, so a d over the state's budget is refused before any row
    state = build_supersinglet(system.vset.dim)
    signs = list(state.terms.values())  # in lexicographic order, as the columns
    rows = tuple(pqs_constraint_rows(system))
    for row in rows:
        if sum(v * signs[c] for c, v in row.entries):
            raise RuntimeError(f"row from {row.provenance[0]} does not annihilate the sign vector")
    system_rank = rank(_ReadRows(dict(r.entries) for r in rows), at_most=len(signs) - 1)
    return SelftestSolution(state=state, variables=len(signs), rows=rows, rank=system_rank)


def verify_unique_supersinglet(
    solution: SelftestSolution,
) -> tuple[bool, SupersingletState | None]:
    """True iff the null space is one line, and then the state is its witness.

    assemble_and_solve has checked that every row annihilates the state's
    sign vector, so nullity 1 means the null space is exactly its line.
    """
    if solution.nullity != 1:
        return False, None
    return True, solution.state


@dataclass(frozen=True)
class SelftestReport:
    d: int
    variables: int
    contexts: tuple[Context, ...]
    canonical_context: Context
    row_count: int
    rank: int
    nullity: int
    unique: bool
    witness: SupersingletState | None


def certify(system: ContextSystem, row_contexts: list[Context]) -> SelftestReport:
    """Certify the state from row_contexts, with the support taken from the game's system.

    The canonical basis must be one of the game's contexts for the
    permutation-only variable space to hold.  Perfect play forces only the
    rows of measured contexts, so each row context must be one of them too
    (members in any order, found by mask); any other gets check_context's
    message if malformed, else ValueError.  Unique iff the rank is d! - 1.
    """
    canonical_context = support_restriction_constraints(system)
    for ctx in row_contexts:
        if system.mask_of(ctx) is None:
            check_context(system.vset, ctx)
            raise ValueError(f"context {ctx} is not a context of the game")
    rows = ContextSystem._trusted(system.vset, map(_as_indices, row_contexts))
    solution = assemble_and_solve(rows)
    unique, witness = verify_unique_supersinglet(solution)
    return SelftestReport(
        d=system.vset.dim,
        variables=solution.variables,
        contexts=rows.contexts,
        canonical_context=canonical_context,
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
    check_state_budget(d)  # before the merged set is built
    system = ContextSystem.of(merged_peres(d))
    return certify(system, system.contexts if all_contexts else _window_bases(system.vset))
