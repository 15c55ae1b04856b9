"""The d-party vector-set game: exact quantum evaluation and classical optimum.

A game instance is a vector set with a list of contexts (orthogonal bases).
The first d-1 parties all receive a context index x, the last party receives
a member y of that context, both uniformly.  They win when the first parties'
outputs enumerate all of C_x except one member, and the last party's bit says
whether the left-out member is y.

The quantum side evaluates the reference strategy (shared antisymmetric
state, basis measurements) with exact rational probabilities.  The classical
side maximizes over all deterministic strategies: for a fixed {0,1} vertex
assignment the per-context choices decouple, so one table lookup per context
per assignment suffices, and ``scan.best_assignment`` runs the 2^n assignment
scan by split enumeration, returning the smallest maximizing assignment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from . import scan
from .exact_linalg import inner_product, norm_squared
from .ks_sets import Context, VectorSet
from .supersinglet import SupersingletState, amplitude, build_supersinglet

DEFAULT_SEARCH_BUDGET = 26
BUDGET_ENV = "KS_SEARCH_BUDGET"

OutputTuple = tuple[tuple[int, ...], int]


class SearchBudgetError(RuntimeError):
    """Raised when the classical scan would exceed the assignment budget."""


@dataclass(frozen=True)
class GameSpec:
    """A playable instance: d parties, the vector set, the context alphabet.

    Inputs are drawn uniformly: x over the contexts, then y over C_x.
    """

    d: int
    vset: VectorSet
    contexts: tuple[Context, ...]

    def __post_init__(self) -> None:
        if self.d != self.vset.dim:
            raise ValueError("party count must equal the vector dimension")
        if not self.contexts:
            raise ValueError("need at least one context")
        for ctx in self.contexts:
            if len(ctx) != self.d or len(set(ctx)) != self.d:
                raise ValueError(f"context {ctx} must have {self.d} distinct members")
            for i in range(self.d):
                for j in range(i + 1, self.d):
                    if inner_product(self.vset.vectors[ctx[i]], self.vset.vectors[ctx[j]]) != 0:
                        raise ValueError(f"context {ctx} is not an orthogonal basis")

    @property
    def m(self) -> int:
        return len(self.contexts)


def winning_predicate(spec: GameSpec, x: int, y: int, a: tuple[int, ...], b: int) -> bool:
    """Win iff a enumerates C_x minus one member k, and b == (k is y)."""
    ctx = spec.contexts[x]
    members = set(ctx)
    if y not in members:
        raise ValueError(f"input {y} is not a member of context {x}")
    if len(a) != spec.d - 1:
        raise ValueError(f"expected {spec.d - 1} first-party outputs")
    chosen = set(a)
    if len(chosen) != spec.d - 1 or not chosen <= members:
        return False
    (left_out,) = members - chosen
    return (left_out == y) == bool(b)


def quantum_joint_distribution(
    spec: GameSpec, x: int, y: int, state: SupersingletState | None = None
) -> dict[OutputTuple, Fraction]:
    """Exact p(a, b | x, y) for the reference strategy; zero entries omitted.

    The first parties' joint outcome a ranges over C_x^{d-1}; tuples with a
    repeated member have amplitude zero and are skipped.  The b=1 branch is
    the amplitude with the last party's vector appended; the b=0 branch is
    the marginal p(a) minus it, with p(a) summed over the last party's basis.
    """
    if state is None:
        state = build_supersinglet(spec.d)
    ctx = spec.contexts[x]
    if y not in ctx:
        raise ValueError(f"input {y} is not a member of context {x}")
    vectors = spec.vset.vectors
    dist: dict[OutputTuple, Fraction] = {}
    for a in permutations(ctx, spec.d - 1):
        rows = [vectors[i] for i in a]
        p_b1 = amplitude(state, rows + [vectors[y]]).probability
        p_a = sum(
            (amplitude(state, rows + [vectors[k]]).probability for k in ctx), Fraction(0)
        )
        p_b0 = p_a - p_b1
        if p_b1 != 0:
            dist[(a, 1)] = p_b1
        if p_b0 != 0:
            dist[(a, 0)] = p_b0
    return dist


@dataclass(frozen=True)
class PerfectStrategyReport:
    per_input: tuple[tuple[int, int, Fraction], ...]
    min_success: Fraction

    @property
    def perfect(self) -> bool:
        return self.min_success == 1


def verify_perfect_strategy(
    spec: GameSpec, state: SupersingletState | None = None
) -> PerfectStrategyReport:
    """Exact success probability of the reference strategy for every (x, y)."""
    if state is None:
        state = build_supersinglet(spec.d)
    per_input: list[tuple[int, int, Fraction]] = []
    for x in range(spec.m):
        for y in spec.contexts[x]:
            dist = quantum_joint_distribution(spec, x, y, state)
            success = sum(
                (p for (a, b), p in dist.items() if winning_predicate(spec, x, y, a, b)),
                Fraction(0),
            )
            per_input.append((x, y, success))
    min_success = min(p for _, _, p in per_input)
    return PerfectStrategyReport(per_input=tuple(per_input), min_success=min_success)


def _context_tables(spec: GameSpec) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Per-context score tables indexed by the 2^d pattern of member v-bits.

    tables[x][pattern] is the number of winning y in C_x for the best joint
    choice a of the first parties, when the last party's assignment restricted
    to C_x reads off pattern (bit j = value of member j in sorted order).
    Computed directly from the winning predicate.
    """
    members: list[tuple[int, ...]] = []
    tables: list[list[int]] = []
    d = spec.d
    for x, ctx in enumerate(spec.contexts):
        members.append(tuple(ctx))
        table = []
        for pattern in range(1 << d):
            bits = {ctx[j]: (pattern >> j) & 1 for j in range(d)}
            best = 0
            # first-party outputs outside C_x always lose, so C_x^{d-1} is exhaustive
            for a in product(ctx, repeat=d - 1):
                score = sum(
                    1 for y in ctx if winning_predicate(spec, x, y, a, bits[y])
                )
                if score > best:
                    best = score
            table.append(best)
        tables.append(table)
    return members, tables


@dataclass(frozen=True)
class ClassicalBoundReport:
    """Exact optimum over deterministic strategies, with a witness."""

    value: Fraction
    best_total: int
    trials: int
    n: int
    m: int
    d: int
    assignment: tuple[int, ...]
    context_choices: tuple[tuple[int, ...], ...]


def _argmax_choice(spec: GameSpec, x: int, assignment: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically first maximizing joint output for context x."""
    ctx = spec.contexts[x]
    best_score = -1
    best_a: tuple[int, ...] = ()
    for a in product(sorted(ctx), repeat=spec.d - 1):
        score = sum(1 for y in ctx if winning_predicate(spec, x, y, a, assignment[y]))
        if score > best_score:
            best_score = score
            best_a = a
    return best_a


def classical_value_report(spec: GameSpec) -> ClassicalBoundReport:
    """Scan all 2^n vertex assignments for the exact classical optimum.

    Guarded by the assignment budget (default n <= 26); the KS_SEARCH_BUDGET
    environment variable raises or lowers the cap.  The witness is
    deterministic: the smallest maximizing assignment v (vertex i is bit i),
    read as a tuple, and per context the lexicographically first best choice.
    """
    n = spec.vset.n
    budget = int(os.environ.get(BUDGET_ENV, DEFAULT_SEARCH_BUDGET))
    if n > budget:
        raise SearchBudgetError(
            f"scan over 2^{n} assignments exceeds the budget of 2^{budget}; "
            f"set {BUDGET_ENV}={n} or higher to run anyway"
        )
    members, tables = _context_tables(spec)
    best_total, best_v = scan.best_assignment(members, tables, n)
    assignment = tuple((best_v >> i) & 1 for i in range(n))
    choices = tuple(_argmax_choice(spec, x, assignment) for x in range(spec.m))
    return ClassicalBoundReport(
        value=Fraction(best_total, spec.m * spec.d),
        best_total=best_total,
        trials=spec.m * spec.d,
        n=n,
        m=spec.m,
        d=spec.d,
        assignment=assignment,
        context_choices=choices,
    )


def classical_value(spec: GameSpec) -> Fraction:
    return classical_value_report(spec).value


@dataclass(frozen=True)
class AlgebraFailure:
    context_index: int
    kind: str
    pair: tuple[int, int] | None


@dataclass(frozen=True)
class AlgebraReport:
    failures: tuple[AlgebraFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def measurement_algebra_check(vset: VectorSet, contexts: list[Context]) -> AlgebraReport:
    """Exact projector algebra for each context's normalized projectors.

    For P_y = |v_y><v_y| / ||v_y||^2, checks that products of distinct
    projectors within a context vanish and that each context's projectors sum
    to the identity.  Contexts are taken as given, so a non-basis context is
    reported, not rejected.
    """
    dim = vset.dim
    failures: list[AlgebraFailure] = []

    def projector(idx: int) -> list[list[Fraction]]:
        v = vset.vectors[idx]
        nn = norm_squared(v)
        return [[Fraction(v[r]) * Fraction(v[c]) / nn for c in range(dim)] for r in range(dim)]

    for x, ctx in enumerate(contexts):
        projs = {y: projector(y) for y in ctx}
        for i, y in enumerate(ctx):
            for yp in ctx[i + 1:]:
                prod_is_zero = all(
                    sum(projs[y][r][k] * projs[yp][k][c] for k in range(dim)) == 0
                    for r in range(dim)
                    for c in range(dim)
                )
                if not prod_is_zero:
                    failures.append(AlgebraFailure(x, "nonzero product", (y, yp)))
        for r in range(dim):
            for c in range(dim):
                total = sum(projs[y][r][c] for y in ctx)
                if total != (1 if r == c else 0):
                    failures.append(AlgebraFailure(x, "sum is not identity", None))
                    break
            else:
                continue
            break
    return AlgebraReport(failures=tuple(failures))
