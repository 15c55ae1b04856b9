"""The d-party vector-set game: exact quantum evaluation and classical optimum.

A game instance is a ks_sets.ContextSystem, its contexts checked once by
ContextSystem.of; GameSpec is its keyword constructor.  The first d-1
parties all receive a context index x, the last party a member y of that
context, both uniformly.  They win when the first parties' outputs enumerate
all of C_x except one member, and the last party's bit says whether the
left-out member is y.

The quantum side evaluates the reference strategy (shared antisymmetric
state, basis measurements) by one integer determinant per context: for a
state c * sign the overlap with outcome t is c * det(V_t), so every input of
context x wins with p = c^2 det(V)^2 / prod |v_i|^2, V the set's primitive
rays (VectorSet.rays), and the pair (det(V)^2, prod |v_i|^2) is the context's
certificate; the default state has c = 1 and is not built.  A state that is
not antisymmetric is evaluated from the context's product expansion instead,
read as the self-test reads it: every outcome tuple with nonzero amplitude
gets an integer weight over one denominator, and Fractions are formed only
for the returned probabilities.

The classical side maximizes over all deterministic strategies: for a fixed
{0,1} vertex assignment the per-context choices decouple, and a context with
k ones scores d - |k - 1|, a choice that _best_choice solves.  So the score
table has one entry per count k = 0..d, the same for every context.
``scan.best_assignment`` finds the least total loss sum |k - 1| by an exact
branch and bound within its node budget and returns the smallest maximizing
assignment, which is re-scored with its choices through winning_predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from . import scan
from .exact_linalg import determinant, norm_squared
from .ks_sets import Context, ContextSystem, VectorSet
from .supersinglet import (
    SupersingletState,
    _antisymmetric_constant,
    _arrangements,
    _multiset_expansion,
    build_supersinglet,
)

OutputTuple = tuple[tuple[int, ...], int]


class GameSpec(ContextSystem):
    """The game's keyword constructor: d parties, the vector set, the context alphabet.

    d must be the dimension, and the contexts, at least one, go through
    ContextSystem.of.  For d distinct nonzero rays, being pairwise orthogonal
    is the whole projector algebra of a measurement: the rank-one projectors
    annihilate each other and sum to I.
    """

    def __new__(cls, *, d: int, vset: VectorSet, contexts: tuple[Context, ...]) -> GameSpec:
        if d != vset.dim:
            raise ValueError("party count must equal the vector dimension")
        if not contexts:
            raise ValueError("need at least one context")
        return cls.of(vset, contexts)


def _input_context(system: ContextSystem, x: int, y: int) -> Context:
    """C_x for the inputs (x, y); ValueError unless 0 <= x < m and y is a member of C_x."""
    if not 0 <= x < system.m:
        raise ValueError(f"context index {x} is outside [0, {system.m})")
    if y not in system.contexts[x]:
        raise ValueError(f"input {y} is not a member of context {x}")
    return system.contexts[x]


def winning_predicate(system: ContextSystem, x: int, y: int, a: tuple[int, ...], b: int) -> bool:
    """Win iff a enumerates C_x minus one member k, and b == (k is y)."""
    members = set(_input_context(system, x, y))
    if len(a) != system.d - 1:
        raise ValueError(f"expected {system.d - 1} first-party outputs")
    chosen = set(a)
    if len(chosen) != system.d - 1 or not chosen <= members:
        return False
    (left_out,) = members - chosen
    return (left_out == y) == bool(b)


def _outcome_weights(
    system: ContextSystem, x: int, state: SupersingletState
) -> tuple[dict[tuple[int, ...], int], int]:
    """Integer weights w(t) and one denominator D with p(t) = w(t) / D on context x.

    t is an outcome tuple in C_x^d (first parties, then the last party), kept
    when its overlap with the state, sum_pi terms[pi o sigma] * E[s][pi] for
    t = s o sigma, is nonzero.  It reads the set's primitive rays; with N
    the product of the context's squared norms, w(t) = coeff(t)^2 * prod_i
    N / |v_{t_i}|^2 and D = d! * N^d.
    """
    if state.d != system.d:
        raise ValueError(f"state has d={state.d}, the game has d={system.d}")
    d, ctx = system.d, system.contexts[x]
    vectors = [system.vset.rays[i] for i in ctx]
    norms = [norm_squared(v) for v in vectors]
    big = math.prod(norms)
    cofactors = [big // n for n in norms]
    weights = {}
    for s, row in _multiset_expansion(vectors).items():
        for b, sigma in _arrangements(s).items():
            move = itemgetter(*sigma)
            coeff = sum(state.terms.get(move(pi), 0) * x for pi, x in row.items())
            if coeff:
                weights[tuple(ctx[i] for i in b)] = coeff * coeff * math.prod(cofactors[i] for i in b)
    return weights, math.factorial(d) * big**d


def quantum_joint_distribution(
    system: ContextSystem, x: int, y: int, state: SupersingletState | None = None
) -> dict[OutputTuple, Fraction]:
    """Exact p(a, b | x, y) for the reference strategy; zero entries omitted.

    b = 1 collects the outcomes whose last-party member is y, b = 0 the rest.
    """
    _input_context(system, x, y)
    if state is None:
        state = build_supersinglet(system.d)
    weights, denominator = _outcome_weights(system, x, state)
    sums: dict[OutputTuple, int] = {}
    for t, w in weights.items():
        key = (t[:-1], int(t[-1] == y))
        sums[key] = sums.get(key, 0) + w
    return {key: Fraction(w, denominator) for key, w in sums.items()}


@dataclass(frozen=True)
class PerfectStrategyReport:
    """Exact success per input (x, y), in context order.

    determinant_pairs holds, per context, (det(V)^2, prod |v_i|^2) of its
    primitive integer rays when the state is antisymmetric, and is None when
    the success was summed over the product expansion.
    """

    per_input: tuple[tuple[int, int, Fraction], ...]
    min_success: Fraction
    determinant_pairs: tuple[tuple[int, int], ...] | None

    @property
    def perfect(self) -> bool:
        return self.min_success == 1


def verify_perfect_strategy(
    system: ContextSystem, state: SupersingletState | None = None
) -> PerfectStrategyReport:
    """Exact success probability of the reference strategy for every (x, y).

    The default state is build_supersinglet(d), c = 1, and is not built.  A
    state with terms[pi] = c * sign(pi) overlaps outcome t with c * det(V_t):
    zero when t repeats a member, and every ordering of C_x wins against every
    y.  So each input of context x has p = c^2 det(V)^2 / prod |v_i|^2 from one
    determinant, the sum the expansion forms, and the report keeps the pairs;
    they are equal by Hadamard's equality for orthogonal rows, so p = c^2.  Any
    other state, one of another d included, is summed over _outcome_weights.
    A system with no context is refused (ValueError).
    """
    if not system.contexts:
        raise ValueError("need at least one context")
    c = 1 if state is None else _antisymmetric_constant(state, system.d)
    per_input: list[tuple[int, int, Fraction]] = []
    pairs: list[tuple[int, int]] = []
    for x, ctx in enumerate(system.contexts):
        if c is not None:
            # (det(V)^2, prod |v_i|^2) for the rows V, the context's primitive rays
            vectors = [system.vset.rays[i] for i in ctx]
            det_squared = determinant(vectors).numerator ** 2
            norms = math.prod(norm_squared(v) for v in vectors)
            pairs.append((det_squared, norms))
            per_input.extend((x, y, Fraction(c * c * det_squared, norms)) for y in ctx)
            continue
        weights, denominator = _outcome_weights(system, x, state)
        for y in ctx:
            won = sum(
                w for t, w in weights.items() if winning_predicate(system, x, y, t[:-1], t[-1] == y)
            )
            per_input.append((x, y, Fraction(won, denominator)))
    min_success = min(p for _, _, p in per_input)
    return PerfectStrategyReport(
        per_input=tuple(per_input),
        min_success=min_success,
        determinant_pairs=None if c is None else tuple(pairs),
    )


def _best_choice(
    system: ContextSystem, x: int, bit: dict[int, int] | tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """Best score on context x and its lexicographically first maximizing joint output.

    An output a scores the members y of C_x it wins against bit[y].  Outputs
    outside C_x or with a repeated member always lose and a best score is at
    least 1, so the first maximizer of C_x^{d-1} is a sorted (d-1)-subset,
    named by the member L it leaves out.  With k members at 1, leaving out L
    wins against d - k + 1 answers when bit[L] = 1 and against d - 1 - k when
    bit[L] = 0: the best is d - |k - 1|, by leaving out a member at 1, or any
    member when none is.  combinations(sorted(C_x), d - 1) meets the largest
    left-out member first, so its first maximizer leaves out the largest best.
    """
    ctx = sorted(system.contexts[x])
    ones = [y for y in ctx if bit[y]]
    left_out = ones[-1] if ones else ctx[-1]
    return system.d - abs(len(ones) - 1), tuple(y for y in ctx if y != left_out)


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


def classical_value_report(system: ContextSystem) -> ClassicalBoundReport:
    """The exact classical optimum over the deterministic strategies.

    The branch and bound of scan.best_assignment decides it over the vertex
    assignments, on _best_choice's score table by count, within the search's
    node budget (scan.MAX_NODES); no context or a search past the budget
    raises ValueError.  The witness, the smallest maximizing assignment v
    (vertex i is bit i) as a tuple and per context the first best choice, is
    re-scored through winning_predicate in m * d calls; a total other than
    the search's is a fault (RuntimeError).
    """
    if not system.contexts:
        raise ValueError("need at least one context")
    n = system.vset.n
    # table[k]: the score of a context with k members at 1, read off context
    # 0 with its first k members at 1; scan.best_assignment takes only
    # d - |k - 1|, so it checks _best_choice against the loss it bounds.
    ctx = system.contexts[0]
    table = [
        _best_choice(system, 0, {y: int(j < k) for j, y in enumerate(ctx)})[0]
        for k in range(system.d + 1)
    ]
    best_total, best_v = scan.best_assignment(list(system.contexts), table, n)
    assignment = tuple((best_v >> i) & 1 for i in range(n))
    choices = tuple(_best_choice(system, x, assignment)[1] for x in range(system.m))
    won = sum(winning_predicate(system, x, y, a, assignment[y])
              for x, a in enumerate(choices) for y in system.contexts[x])
    if won != best_total:
        raise RuntimeError(f"the witness scores {won}, the search found {best_total}")
    return ClassicalBoundReport(
        value=Fraction(best_total, system.m * system.d),
        best_total=best_total,
        trials=system.m * system.d,
        n=n,
        m=system.m,
        d=system.d,
        assignment=assignment,
        context_choices=choices,
    )
