"""The totally antisymmetric state of d parties with d levels.

The state is stored sparsely as a map permutation -> sign with the 1/sqrt(d!)
normalization kept implicit.  An amplitude reads the terms,
sum_pi terms[pi] * prod_i v_i[pi(i)], over a symbolic square root: exact
rational probabilities, and corrupted sign maps evaluated as given.  Every
state, build_supersinglet's included, goes through the constructor that
checks its keys, and check_state_budget is the one refusal of a d over the
state's budget, STATE_MAX_D.  The self-test rows
and the game's outcome weights for a state that is not antisymmetric read one
product expansion E[s][pi] = prod_i v_{s_i}[pi(i)] of a context, one row per
member multiset s: permuting the parties relabels a row (_arrangements).  A
re-expansion in a basis B, and the game on an antisymmetric state, read one
determinant instead: the overlap of c * sign with a product of basis vectors
is c * det of those rows.  Both decide that a state is c * sign, and find c,
with one helper, _antisymmetric_constant, which reads the signs off the
state's own keys.  A signed permutation matrix acts on the state by
relabeling and signing its terms, so the exact invariance check reads no
expansion.  Floats enter only in the dense invariance check of a state, and
so does numpy: it is imported inside the functions that read it (the dense
check and the seeded matrix generators), so the exact commands never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from numbers import Rational
from operator import getitem
from typing import TYPE_CHECKING

from .exact_linalg import Scalar, determinant, inner_product, norm_squared

if TYPE_CHECKING:
    import numpy as np

Permutation = tuple[int, ...]
Vector = tuple[Scalar, ...]
Expansion = dict[tuple[int, ...], dict[Permutation, Scalar]]

DENSE_CHECK_MAX_D = 6
STATE_MAX_D = 8  # d = 9 would build 362,880 terms: nine times d = 8's time and memory


def levi_civita(p: Permutation) -> int:
    """Sign of a permutation of range(d): +1 even, -1 odd.

    A permutation with c cycles is a product of d - c transpositions, so one
    walk over the cycles, O(d), gives the sign.
    """
    d = len(p)
    if sorted(p) != list(range(d)):
        raise ValueError(f"not a permutation of range({d}): {p!r}")
    return _cycle_sign(p)


def _cycle_sign(p: Permutation) -> int:
    """levi_civita(p) for a p already known to be a permutation of range(len(p))."""
    d = len(p)
    seen = [False] * d
    cycles = 0
    for start in range(d):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = p[i]
    return -1 if (d - cycles) % 2 else 1


@dataclass(frozen=True)
class SupersingletState:
    """Totally antisymmetric d-party state, terms[pi] = sign(pi), 1/sqrt(d!) implicit."""

    d: int
    terms: dict[Permutation, int]

    def __post_init__(self) -> None:
        # amplitudes index levels by the key; outcome weights look up permutations only
        levels = list(range(self.d))
        for pi in self.terms:
            if sorted(pi) != levels:
                raise ValueError(f"term {pi!r} is not a permutation of range({self.d})")


def check_state_budget(d: int) -> None:
    """Refuse a d over the d!-term state's budget, STATE_MAX_D (ValueError)."""
    if d > STATE_MAX_D:
        raise ValueError(f"d={d} exceeds the budget of {STATE_MAX_D} for the d!-term state")


def build_supersinglet(d: int) -> SupersingletState:
    if d < 2:
        raise ValueError("antisymmetric state needs d >= 2")
    check_state_budget(d)
    return SupersingletState(d, {p: _cycle_sign(p) for p in permutations(range(d))})


@dataclass(frozen=True)
class Amplitude:
    """Exact amplitude coeff / sqrt(scale), scale = d! * prod of squared norms."""

    coeff: Fraction
    scale: Fraction

    @property
    def probability(self) -> Fraction:
        return self.coeff * self.coeff / self.scale

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0


def _multiset_expansion(vectors: list[Vector]) -> Expansion:
    """E[s][pi] = prod_i vectors[s_i][pi(i)] on the non-decreasing s, nonzero products only.

    Every party picks from the same vectors, so row s of one member multiset,
    relabelled (_arrangements), gives every other.  The recursion
    _expand_products visits each nonzero (s, pi) once, never a tuple whose
    products all vanish, so a missing s is a zero row.  Each row lists its
    permutations in lexicographic order; products stay int for int vectors.
    """
    d = len(vectors[0])
    # [j]: (position, entry) of the members nonzero at level j
    nonzero = [[(p, v[j]) for p, v in enumerate(vectors) if v[j] != 0] for j in range(d)]
    expansion: Expansion = {}
    _expand_products(nonzero, 0, 0, 0, 1, [0] * d, [0] * d, expansion)
    return expansion


def _expand_products(nonzero: list[list[tuple[int, Scalar]]], i: int, used: int, low: int,
                     prod: Scalar, s: list[int], pi: list[int], expansion: Expansion) -> None:
    """Add to expansion each nonzero product extending parties 0..i-1's picks; depth d.

    Party i tries each unused level in ascending order, and each member
    nonzero there at a position at least low, the previous party's.
    """
    # s[:i], pi[:i]: their positions and levels; used: those levels, one bit each
    if i == len(nonzero):
        expansion.setdefault(tuple(s), {})[tuple(pi)] = prod
        return
    for level, members in enumerate(nonzero):
        if used >> level & 1:
            continue
        pi[i] = level
        for p, x in members:
            if p >= low:
                s[i] = p
                _expand_products(nonzero, i + 1, used | 1 << level, p, prod * x, s, pi, expansion)


def _arrangements(s: tuple[int, ...]) -> dict[tuple[int, ...], Permutation]:
    """Each distinct arrangement b = s o sigma (b_i = s_sigma(i)) of a sorted s, with one sigma.

    They come in lexicographic order.  E[s o sigma][pi o sigma] = E[s][pi] for
    every sigma giving b, so row b is row s with column pi moved to pi o sigma.
    """
    return dict(zip(permutations(s), permutations(range(len(s)))))


def amplitude(state: SupersingletState, party_vectors: list[Vector]) -> Amplitude:
    """Overlap of one product of rational party vectors with the state.

    coeff = sum over terms pi of terms[pi] * prod_i (v_i)_{pi(i)}, the radicand
    scale = d! * prod ||v_i||^2.  For the canonical sign map the coefficient
    equals det(rows = party vectors); reading the terms keeps the evaluation
    honest for deliberately corrupted sign maps too.
    """
    d = state.d
    if len(party_vectors) != d:
        raise ValueError(f"expected {d} party vectors, got {len(party_vectors)}")
    for v in party_vectors:
        if len(v) != d:
            raise ValueError(f"party vector of dimension {len(v)}, expected {d}")
    coeff = sum(x * math.prod(map(getitem, party_vectors, pi)) for pi, x in state.terms.items())
    scale = math.factorial(d) * math.prod(norm_squared(v) for v in party_vectors)
    return Amplitude(coeff=Fraction(coeff), scale=Fraction(scale))


@dataclass(frozen=True)
class ProductBasisExpansion:
    """Expansion of the state in a product basis b_{t_0} x ... x b_{t_{d-1}}.

    coefficients holds the d! injective outcome tuples.  The state is
    antisymmetric up to a nonzero factor, so in an orthogonal basis every
    tuple with a repeated index has amplitude zero and every injective one a
    nonzero amplitude.
    """

    d: int
    coefficients: dict[Permutation, Amplitude]

    def total_probability(self) -> Fraction:
        return sum((a.probability for a in self.coefficients.values()), Fraction(0))


def _antisymmetric_constant(state: SupersingletState, d: int) -> Scalar | None:
    """c when terms[pi] * sign(pi) is one nonzero constant c over all d! permutations, else None.

    d is the dimension the caller needs: a state of another d is None, and so
    is one that lacks a term.  The state's keys are permutations of
    range(state.d), so the signs are read off them and no sign vector is built.
    """
    if state.d != d or len(state.terms) != math.factorial(d):
        return None
    signed = {x * _cycle_sign(pi) for pi, x in state.terms.items()}
    if len(signed) != 1 or 0 in signed:
        return None
    (c,) = signed
    return c


def reexpand_in_basis(state: SupersingletState, basis: list[Vector]) -> ProductBasisExpansion:
    """Rewrite the state in an orthogonal (not necessarily normalized) basis.

    The state must be c * sign for one nonzero constant c: terms[pi] * sign(pi)
    = c over all d! permutations, and any other state is rejected.  Its
    overlap with b_{t_0} x ... x b_{t_{d-1}} is then c * det of those rows:
    c * sign(t) * det(basis) = terms[t] * det(basis) for each of the d!
    injective tuples t, and zero for a tuple with a repeated index (two equal
    rows), so nothing is lost.
    """
    d = state.d
    if len(basis) != d:
        raise ValueError(f"expected a basis of {d} vectors, got {len(basis)}")
    if _antisymmetric_constant(state, d) is None:
        raise ValueError("re-expansion needs an antisymmetric state: terms[pi] * sign(pi) "
                         "must be one nonzero constant over all permutations")
    for i, v in enumerate(basis):
        if len(v) != d:
            raise ValueError(f"basis vector {i} has dimension {len(v)}, expected {d}")
    norms = [norm_squared(v) for v in basis]
    for i in range(d):
        if norms[i] == 0:
            raise ValueError(f"basis vector {i} is zero")
        for j in range(i + 1, d):
            if inner_product(basis[i], basis[j]) != 0:
                raise ValueError(f"basis vectors {i} and {j} are not orthogonal")
    det = determinant(basis)
    scale = Fraction(math.factorial(d) * math.prod(norms))
    coefficients = {t: Amplitude(coeff=state.terms[t] * det, scale=scale)
                    for t in permutations(range(d))}
    return ProductBasisExpansion(d=d, coefficients=coefficients)


@dataclass(frozen=True)
class InvarianceReport:
    """Deviations of the d-fold tensor power action from the two candidates.

    max_deviation_det is against det(U) * state (the representation-theoretic
    identity, exact for any unitary); max_deviation_identity is against the
    state itself (holds exactly on the special unitary group only).  Both are
    reported so a determinant phase away from 1 is visible, never silently
    absorbed.
    """

    d: int
    determinant: complex
    max_deviation_det: float
    max_deviation_identity: float
    tolerance: float

    @property
    def invariant(self) -> bool:
        return self.max_deviation_identity <= self.tolerance


def _dense_state(state: SupersingletState) -> np.ndarray:
    import numpy as np

    s = np.zeros((state.d,) * state.d, dtype=complex)
    w = 1.0 / math.sqrt(math.factorial(state.d))
    for p, x in state.terms.items():
        s[p] = x * w
    return s


def check_unitary_invariance(state: SupersingletState, U: np.ndarray,
                             tolerance: float = 1e-10) -> InvarianceReport:
    """Apply U tensored d times to the dense state; ValueError unless U is finite and unitary."""
    import numpy as np

    d = state.d
    if d < 2 or d > DENSE_CHECK_MAX_D:
        raise ValueError(f"dense invariance check supports 2 <= d <= {DENSE_CHECK_MAX_D}")
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    U = np.asarray(U, dtype=complex)
    if U.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got shape {U.shape}")
    if not np.isfinite(U).all():
        raise ValueError("matrix has a non-finite entry")
    unitarity = np.max(np.abs(U.conj().T @ U - np.eye(d)))
    if unitarity > tolerance:
        raise ValueError(f"matrix is not unitary within tolerance: deviation {unitarity:.3e}")
    s = _dense_state(state)
    out = s
    for axis in range(d):
        out = np.tensordot(U, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    det = complex(np.linalg.det(U))
    return InvarianceReport(
        d=d,
        determinant=det,
        max_deviation_det=float(np.max(np.abs(out - det * s))),
        max_deviation_identity=float(np.max(np.abs(out - s))),
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class ExactInvarianceReport:
    d: int
    determinant: Fraction
    equals_det_times_state: bool
    equals_state: bool


def _signed_permutation_image(state: SupersingletState, M: list[Vector]) -> dict[Permutation, Scalar]:
    """Components of M tensored d times applied to the state, on the injective tuples.

    Row i of M must be s_i * e_{sigma(i)} with s_i = +-1 and the columns
    sigma(i) distinct, every entry an exact integer; any other matrix raises
    ValueError.  Such an M only
    relabels and signs the levels: the component on t, the state's overlap
    with rows t_0..t_{d-1} of M, is prod_i s_{t_i} * terms[sigma o t], and on
    an injective t that sign product is prod_i s_i.
    """
    d = state.d
    if len(M) != d or any(len(r) != d for r in M):
        raise ValueError(f"expected a {d}x{d} matrix")
    if not all(isinstance(x, Rational) and x.denominator == 1 for r in M for x in r):
        raise ValueError("expected a signed permutation matrix of exact integer entries")
    # sigma(i) for each row with exactly one nonzero entry, and that entry +-1
    nonzero = [[(c, x) for c, x in enumerate(r) if x != 0] for r in M]
    sigma = [nz[0][0] for nz in nonzero if len(nz) == 1 and nz[0][1] in (1, -1)]
    if sorted(sigma) != list(range(d)):
        raise ValueError("expected a signed permutation matrix: row i = +-e_sigma(i), sigma a bijection")
    sign = math.prod(r[c] for r, c in zip(M, sigma))
    return {t: sign * state.terms.get(tuple(sigma[i] for i in t), 0) for t in permutations(range(d))}


def check_unitary_invariance_exact(state: SupersingletState, M: list[Vector]) -> ExactInvarianceReport:
    """Exact tensor-power action of a signed permutation matrix M (rows).

    The image component on every injective outcome tuple t, read off by
    relabeling (_signed_permutation_image), is compared exactly with
    det(M) * terms[t] and with terms[t].  Tuples with a repeated index are
    not compared: sigma o t is then no permutation, so their component
    vanishes for any state on permutations.
    """
    image = _signed_permutation_image(state, M)
    det = determinant([list(r) for r in M])
    pairs = [(component, state.terms.get(t, 0)) for t, component in image.items()]
    return ExactInvarianceReport(
        d=state.d,
        determinant=det,
        equals_det_times_state=all(component == det * term for component, term in pairs),
        equals_state=all(component == term for component, term in pairs),
    )


def random_special_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-ish random unitary with the determinant phase divided out."""
    import numpy as np

    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / d)


def random_signed_permutation(d: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Integer signed permutation matrix (rows), exactly orthogonal."""
    import numpy as np

    rng = np.random.default_rng(seed)
    perm = rng.permutation(d)
    signs = rng.choice((-1, 1), size=d)
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        rows[i][int(perm[i])] = int(signs[i])
    return tuple(tuple(r) for r in rows)
