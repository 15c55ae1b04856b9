"""The totally antisymmetric state of d parties with d levels.

The state is stored sparsely as a map permutation -> sign with the 1/sqrt(d!)
normalization kept implicit.  Amplitudes, outcome tables, self-test rows and
re-expansions read one product expansion E[a][pi] = prod_i v_{a_i}[pi(i)];
an amplitude is row E[a] dotted with the sign map over a symbolic square
root, so probabilities are exact rationals.  Floats enter only in the dense
tensor-power invariance check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .exact_linalg import Scalar, determinant, inner_product, norm_squared

Permutation = tuple[int, ...]
Vector = tuple[Scalar, ...]
Expansion = dict[tuple[int, ...], dict[Permutation, Scalar]]

DENSE_CHECK_MAX_D = 6


def levi_civita(p: Permutation) -> int:
    """Sign of a permutation of range(d): +1 even, -1 odd."""
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation of range({len(p)}): {p!r}")
    inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class SupersingletState:
    """Totally antisymmetric d-party state, terms[pi] = sign(pi), 1/sqrt(d!) implicit."""

    d: int
    terms: dict[Permutation, int]

    def __post_init__(self) -> None:
        # the product expansion has no other level maps: it would ignore the key
        for pi in self.terms:
            if sorted(pi) != list(range(self.d)):
                raise ValueError(f"term {pi!r} is not a permutation of range({self.d})")


def build_supersinglet(d: int) -> SupersingletState:
    if d < 2:
        raise ValueError("antisymmetric state needs d >= 2")
    terms = {p: levi_civita(p) for p in permutations(range(d))}
    return SupersingletState(d=d, terms=terms)


@dataclass(frozen=True)
class Amplitude:
    """Exact amplitude coeff / sqrt(scale), scale = d! * prod of squared norms."""

    coeff: Fraction
    scale: Fraction

    @property
    def probability(self) -> Fraction:
        return self.coeff * self.coeff / self.scale

    def as_float(self) -> float:
        return float(self.coeff) / math.sqrt(float(self.scale))

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0


def _product_expansion(choices: list[list[Vector]], injective: bool = False) -> Expansion:
    """E[a][pi] = prod_i choices[i][a_i][pi(i)] for every nonzero product.

    Party i picks the vector at position a_i of choices[i] and a level pi(i),
    the levels distinct (and the positions, with injective).  One recursion
    over (party, unused level, member nonzero at that level) visits each
    nonzero (a, pi) once and never a tuple whose products all vanish, so a
    missing a is a zero row.  Products stay int for integer vectors.
    """
    d = len(choices)
    # nonzero[i][j]: (position, entry, position bit) of the members of choices[i] nonzero at j
    nonzero = [[[(p, v[j], 1 << d + p if injective else 0) for p, v in enumerate(vs) if v[j] != 0]
                for j in range(d)] for vs in choices]
    expansion: Expansion = {}
    a, pi = [0] * d, [0] * d

    def rec(i: int, used: int, prod: Scalar) -> None:
        # used: levels taken in bits 0..d-1, positions taken from bit d on
        if i == d:
            expansion.setdefault(tuple(a), {})[tuple(pi)] = prod
            return
        for level in range(d):
            if used >> level & 1:
                continue
            pi[i] = level
            for p, x, taken in nonzero[i][level]:
                if not used & taken:
                    a[i] = p
                    rec(i + 1, used | 1 << level | taken, prod * x)

    rec(0, 0, 1)
    return expansion


def _overlap(state: SupersingletState, row: dict[Permutation, Scalar]) -> Scalar:
    """sum_pi terms[pi] * row[pi], the unnormalized amplitude of an expansion row."""
    return sum(state.terms.get(pi, 0) * x for pi, x in row.items())


def amplitude(state: SupersingletState, party_vectors: list[Vector]) -> Amplitude:
    """Overlap of one product of rational party vectors with the state.

    coeff = sum over terms pi of sign(pi) * prod_i (v_i)_{pi(i)}, the radicand
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
    row = _product_expansion([[v] for v in party_vectors]).get((0,) * d, {})
    scale = math.factorial(d) * math.prod(norm_squared(v) for v in party_vectors)
    return Amplitude(coeff=Fraction(_overlap(state, row)), scale=Fraction(scale))


@dataclass(frozen=True)
class ProductBasisExpansion:
    """Expansion of the state in a product basis b_{t_0} x ... x b_{t_{d-1}}.

    coefficients holds every outcome tuple with nonzero amplitude; for an
    orthogonal basis these are exactly the d! injective tuples.
    """

    d: int
    basis: tuple[Vector, ...]
    coefficients: dict[Permutation, Amplitude]

    def probabilities(self) -> dict[Permutation, Fraction]:
        return {t: a.probability for t, a in self.coefficients.items()}

    def total_probability(self) -> Fraction:
        return sum((a.probability for a in self.coefficients.values()), Fraction(0))


def reexpand_in_basis(state: SupersingletState, basis: list[Vector]) -> ProductBasisExpansion:
    """Rewrite the state in an orthogonal (not necessarily normalized) basis.

    Outcome tuples with a repeated index carry amplitude zero (repeated
    determinant rows) and are omitted; only the d! injective tuples are read
    from the basis's product expansion and stored.
    """
    d = state.d
    if len(basis) != d:
        raise ValueError(f"expected a basis of {d} vectors, got {len(basis)}")
    norms = [norm_squared(v) for v in basis]
    for i in range(d):
        if len(basis[i]) != d:
            raise ValueError(f"basis vector {i} has dimension {len(basis[i])}, expected {d}")
        if norms[i] == 0:
            raise ValueError(f"basis vector {i} is zero")
        for j in range(i + 1, d):
            if inner_product(basis[i], basis[j]) != 0:
                raise ValueError(f"basis vectors {i} and {j} are not orthogonal")
    expansion = _product_expansion([basis] * d, injective=True)
    scale = Fraction(math.factorial(d) * math.prod(norms))
    coefficients = {
        t: Amplitude(coeff=Fraction(_overlap(state, expansion.get(t, {}))), scale=scale)
        for t in permutations(range(d))
    }
    return ProductBasisExpansion(d=d, basis=tuple(tuple(v) for v in basis), coefficients=coefficients)


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


def _dense_state(d: int) -> np.ndarray:
    s = np.zeros((d,) * d, dtype=complex)
    w = 1.0 / math.sqrt(math.factorial(d))
    for p in permutations(range(d)):
        s[p] = levi_civita(p) * w
    return s


def check_unitary_invariance(d: int, U: np.ndarray, tolerance: float = 1e-10) -> InvarianceReport:
    """Apply U tensored d times to the dense state and measure the deviations."""
    if d < 2 or d > DENSE_CHECK_MAX_D:
        raise ValueError(f"dense invariance check supports 2 <= d <= {DENSE_CHECK_MAX_D}")
    U = np.asarray(U, dtype=complex)
    if U.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got shape {U.shape}")
    unitarity = np.max(np.abs(U.conj().T @ U - np.eye(d)))
    if unitarity > tolerance:
        raise ValueError(f"matrix is not unitary within tolerance: deviation {unitarity:.3e}")
    s = _dense_state(d)
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


def check_unitary_invariance_exact(state: SupersingletState, M: list[Vector]) -> ExactInvarianceReport:
    """Exact tensor-power action for a rational orthogonal matrix M (rows).

    The image component on outcome tuple t is the state's overlap with row t
    of the product expansion over the rows of M, compared exactly with
    det(M) * terms[t] and with terms[t] on every injective tuple t.  Tuples
    with a repeated index are not compared: their component vanishes for an
    antisymmetric state, and under a signed permutation matrix for any state
    on permutations.
    """
    d = state.d
    rows = [list(r) for r in M]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValueError(f"expected a {d}x{d} matrix")
    # M^T M = I, checked exactly entrywise
    for i in range(d):
        for j in range(d):
            dot = sum(Fraction(rows[k][i]) * Fraction(rows[k][j]) for k in range(d))
            if dot != (1 if i == j else 0):
                raise ValueError(f"matrix columns {i},{j} fail exact orthonormality")
    det = Fraction(determinant(rows))
    expansion = _product_expansion([rows] * d, injective=True)
    pairs = [
        (_overlap(state, expansion.get(t, {})), state.terms.get(t, 0))
        for t in permutations(range(d))
    ]
    return ExactInvarianceReport(
        d=d,
        determinant=det,
        equals_det_times_state=all(component == det * term for component, term in pairs),
        equals_state=all(component == term for component, term in pairs),
    )


def random_special_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-ish random unitary with the determinant phase divided out."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / d)


def random_signed_permutation(d: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Integer signed permutation matrix (rows), exactly orthogonal."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d)
    signs = rng.choice((-1, 1), size=d)
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        rows[i][int(perm[i])] = int(signs[i])
    return tuple(tuple(r) for r in rows)
