"""The d-party vector-set game: exact quantum evaluation and classical optimum.

A game instance is a vector set with a list of contexts (orthogonal bases).
The first d-1 parties all receive a context index x, the last party receives
a member y of that context, both uniformly.  They win when the first parties'
outputs enumerate all of C_x except one member, and the last party's bit says
whether the left-out member is y.

The quantum side evaluates the reference strategy (shared antisymmetric
state, basis measurements) with exact rational probabilities, one outcome
table p(a, k) per context.  The classical side maximizes over all
deterministic strategies: for a fixed {0,1} vertex assignment the per-context
choices decouple, so one lookup per context per assignment in the game's one
score table suffices, and ``scan.best_assignment`` runs the 2^n assignment
scan by split enumeration, returning the smallest maximizing assignment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from . import scan
from .exact_linalg import norm_squared
from .ks_sets import Context, VectorSet, check_context
from .supersinglet import SupersingletState, amplitude, build_supersinglet

DEFAULT_SEARCH_BUDGET = 26
BUDGET_ENV = "KS_SEARCH_BUDGET"

OutputTuple = tuple[tuple[int, ...], int]
OutcomeTable = dict[tuple[int, ...], list[Fraction]]


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
            check_context(self.vset, ctx)

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


def _outcome_probabilities(spec: GameSpec, x: int, state: SupersingletState) -> OutcomeTable:
    """Exact {a: [p(a, k) for k in C_x]} of the reference strategy on context x.

    a ranges over C_x^{d-1}; tuples with a repeated member have amplitude zero
    and are skipped.  k is the last party's outcome.
    """
    vectors = spec.vset.vectors
    ctx = spec.contexts[x]
    return {
        a: [amplitude(state, [vectors[i] for i in (*a, k)]).probability for k in ctx]
        for a in permutations(ctx, spec.d - 1)
    }


def quantum_joint_distribution(
    spec: GameSpec, x: int, y: int, state: SupersingletState | None = None
) -> dict[OutputTuple, Fraction]:
    """Exact p(a, b | x, y) for the reference strategy; zero entries omitted.

    The b=1 branch is p(a, y); the b=0 branch is the marginal p(a), summed
    over the last party's basis, minus it.
    """
    ctx = spec.contexts[x]
    if y not in ctx:
        raise ValueError(f"input {y} is not a member of context {x}")
    if state is None:
        state = build_supersinglet(spec.d)
    return _joint_from_table(_outcome_probabilities(spec, x, state), ctx.index(y))


def _joint_from_table(table: OutcomeTable, col: int) -> dict[OutputTuple, Fraction]:
    """p(a, b | x, y) from the outcome table of x, for y member col of C_x."""
    dist: dict[OutputTuple, Fraction] = {}
    for a, row in table.items():
        p_b1 = row[col]
        p_b0 = sum(row, Fraction(0)) - p_b1
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
    for x, ctx in enumerate(spec.contexts):
        table = _outcome_probabilities(spec, x, state)
        for col, y in enumerate(ctx):
            dist = _joint_from_table(table, col)
            success = sum(
                (p for (a, b), p in dist.items() if winning_predicate(spec, x, y, a, b)),
                Fraction(0),
            )
            per_input.append((x, y, success))
    min_success = min(p for _, _, p in per_input)
    return PerfectStrategyReport(per_input=tuple(per_input), min_success=min_success)


def _best_choice(
    spec: GameSpec, x: int, bit: dict[int, int] | tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """Best score on context x and its lexicographically first maximizing joint output.

    The score of a first-party output a is the number of members y of C_x it
    wins against the last party's answer bit[y].  First-party outputs outside
    C_x always lose, so C_x^{d-1} is exhaustive.
    """
    ctx = spec.contexts[x]
    best_score = -1
    best_a: tuple[int, ...] = ()
    for a in product(sorted(ctx), repeat=spec.d - 1):
        score = sum(1 for y in ctx if winning_predicate(spec, x, y, a, bit[y]))
        if score > best_score:
            best_score = score
            best_a = a
    return best_score, best_a


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
    # Score table indexed by the 2^d pattern of member v-bits (bit j = v-bit
    # of member j).  The predicate sees a context's members only through which
    # one is left out, so every context has the table of C_0.
    ctx = spec.contexts[0]
    table = [
        _best_choice(spec, 0, {y: (pattern >> j) & 1 for j, y in enumerate(ctx)})[0]
        for pattern in range(1 << spec.d)
    ]
    members = [tuple(c) for c in spec.contexts]
    best_total, best_v = scan.best_assignment(members, [table] * spec.m, n)
    assignment = tuple((best_v >> i) & 1 for i in range(n))
    choices = tuple(_best_choice(spec, x, assignment)[1] for x in range(spec.m))
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
