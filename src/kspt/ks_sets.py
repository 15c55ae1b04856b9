"""Kochen-Specker vector sets: orthogonality graphs, contexts, colorability.

A vector set is a list of integer rays in dimension d.  Its orthogonality
graph joins exactly the orthogonal pairs, and a context is a d-clique, a set
of d mutually orthogonal rays forming a measurement basis.  A set has the KS
property when no 0/1 assignment to the rays gives every context exactly one
1 while never putting two 1s on an orthogonal pair.

Each set builds its orthogonality graph once, on first use, and every
consumer reads that graph.  Adjacency is held as one integer bitmask per
vertex, and a context as the bitmask of its members; check_context is the
one test that a context is an orthogonal basis of its set.  Contexts are
found by pivoted Bron-Kerbosch on the adjacency masks, which is exact here
because every d-clique is a maximal clique.  The colorability search is a
depth-first search over contexts: branch on which member of an unsatisfied
context receives the 1, propagate forced 0s along edges, and propagate
forced 1s for contexts left with a single viable member.  Propagation is
incremental: the 1s and 0s are two bitmasks handed down the search, so
backtracking restores nothing, and a vertex fixed to 0 revisits only the
contexts that hold it, each with two ANDs.  Condition (i) can be read with
all graph edges (default) or only with pairs that co-occur in a supplied
context; the two readings coincide on complete sets.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .exact_linalg import (
    is_orthogonal,
    orthocomplement_basis,
    primitive,
)

Context = tuple[int, ...]
Edge = tuple[int, int]

MAX_ROUNDS = 32


@dataclass(frozen=True)
class VectorSet:
    """A labeled list of distinct integer/rational rays in dimension dim."""

    dim: int
    vectors: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        rays = set()
        for v in self.vectors:
            if len(v) != self.dim:
                raise ValueError(f"vector {v} does not have dimension {self.dim}")
            ray = primitive(v)
            if not any(ray):
                raise ValueError(f"zero vector {v} is not a ray")
            if ray in rays:
                raise ValueError(f"duplicate ray {v}")
            rays.add(ray)
        if self.labels is not None and len(self.labels) != len(self.vectors):
            raise ValueError("label count does not match vector count")

    @property
    def n(self) -> int:
        return len(self.vectors)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else f"v{i}"

    @cached_property
    def graph(self) -> OrthogonalityGraph:
        """The orthogonality graph, built on first use and kept."""
        return build_orthogonality_graph(self)


@dataclass(frozen=True)
class OrthogonalityGraph:
    n: int
    edges: frozenset[Edge]

    def neighbors(self, i: int) -> frozenset[int]:
        return frozenset(_bits(self._masks[i]))

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        # bit j of mask i is set iff (i, j) or (j, i) is an edge
        masks = [0] * self.n
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return tuple(masks)


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class KSDecision:
    verdict: str  # "uncolorable" or "colorable"
    witness: tuple[int, ...] | None
    nodes: int = 0

    @property
    def uncolorable(self) -> bool:
        return self.verdict == "uncolorable"


def build_orthogonality_graph(vset: VectorSet) -> OrthogonalityGraph:
    """Edge (i,j) iff the exact inner product of rays i and j is zero."""
    edges = set()
    for i in range(vset.n):
        for j in range(i + 1, vset.n):
            if is_orthogonal(vset.vectors[i], vset.vectors[j]):
                edges.add((i, j))
    return OrthogonalityGraph(n=vset.n, edges=frozenset(edges))


def enumerate_contexts(vset: VectorSet) -> list[Context]:
    """All d-cliques of the orthogonality graph, in lexicographic order.

    Mutually orthogonal nonzero rays are linearly independent, so no clique
    can exceed size d and every d-clique is a full measurement basis.  The
    search depends on this: every d-clique is then a maximal clique, and
    Bron-Kerbosch finds each maximal clique exactly once.  The candidates P
    (adjacent to the whole clique, not yet tried) and the tried vertices X
    are bitmasks; the pivot is the vertex of P | X with the most neighbours
    in P (Tomita), and a branch stops once the clique plus P is smaller
    than d.
    """
    adj = vset.graph._masks
    d = vset.dim
    out: list[Context] = []

    def expand(clique: list[int], p: int, x: int) -> None:
        if len(clique) + p.bit_count() < d:
            return
        if len(clique) == d - 1:
            # no two candidates are adjacent (that would be a (d+1)-clique),
            # so each one completes its own context
            out.extend(tuple(sorted(clique + [v])) for v in _bits(p))
            return
        pivot = max(_bits(p | x), key=lambda u: (p & adj[u]).bit_count())
        for v in _bits(p & ~adj[pivot]):
            expand(clique + [v], p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand([], (1 << vset.n) - 1, 0)
    out.sort()
    return out


def check_context(vset: VectorSet, ctx: Context) -> None:
    """Raise ValueError unless ctx is an orthogonal basis drawn from vset.

    The checks run in order: d distinct members, every member in [0, n)
    (before any mask lookup, so a negative index cannot alias a vertex),
    then pairwise orthogonality from the graph's masks.
    """
    d, n = vset.dim, vset.n
    if len(ctx) != d or len(set(ctx)) != d:
        raise ValueError(f"context {ctx} must have {d} distinct members")
    if any(not 0 <= v < n for v in ctx):
        raise ValueError(f"context {ctx} has a member outside [0, {n})")
    adj = vset.graph._masks
    mask = sum(1 << v for v in ctx)
    if any(mask & ~adj[v] != 1 << v for v in ctx):
        raise ValueError(f"context {ctx} is not an orthogonal basis")


def _condition_masks(
    vset: VectorSet, contexts: list[Context], edges_from_contexts_only: bool
) -> tuple[int, ...]:
    """Per vertex, the mask of the vertices condition (i) forbids beside a 1.

    All graph neighbours by default; with edges_from_contexts_only, only the
    vertices that share a context with it.
    """
    if not edges_from_contexts_only:
        return vset.graph._masks
    nbr = [0] * vset.n
    for ctx in contexts:
        mask = sum(1 << v for v in ctx)
        for v in ctx:
            nbr[v] |= mask
    return tuple(m & ~(1 << v) for v, m in enumerate(nbr))


def validate_assignment(
    vset: VectorSet,
    contexts: list[Context],
    assignment: tuple[int, ...],
    edges_from_contexts_only: bool = False,
) -> bool:
    """Check conditions (i) and (ii) for a 0/1 assignment directly."""
    if len(assignment) != vset.n or any(b not in (0, 1) for b in assignment):
        return False
    for ctx in contexts:
        check_context(vset, ctx)
    nbr = _condition_masks(vset, contexts, edges_from_contexts_only)
    ones = sum(1 << v for v, b in enumerate(assignment) if b)
    if any(nbr[v] & ones for v in _bits(ones)):
        return False
    return all(sum(assignment[v] for v in ctx) == 1 for ctx in contexts)


def check_ks_property(
    vset: VectorSet,
    contexts: list[Context],
    edges_from_contexts_only: bool = False,
) -> KSDecision:
    """Decide colorability by DFS over contexts with unit propagation.

    Unit propagation is monotone, so the closure it reaches, or the conflict,
    does not depend on the order in which forced moves are made; the search
    branches on contexts in sorted order and on members in context order.
    """
    if not contexts:
        raise ValueError("KS property is undefined without contexts")
    n = vset.n
    for ctx in contexts:
        check_context(vset, ctx)

    order = sorted(contexts)
    members = [sum(1 << v for v in ctx) for ctx in order]
    # holding[u]: the member masks of the contexts that hold u
    holding: list[list[int]] = [[] for _ in range(n)]
    for ctx, m in zip(order, members):
        for v in ctx:
            holding[v].append(m)
    nbr = _condition_masks(vset, contexts, edges_from_contexts_only)
    nodes = 0

    def propagate(v: int, ones: int, zeros: int) -> tuple[int, int] | None:
        # set v to 1 and close under the forced moves: the neighbours of a 1
        # are 0, and a context with no 1 and one member not 0 forces it to 1.
        # A forced vertex joins ones at once, so no later visit forces it again.
        ones |= 1 << v
        queue = [v]
        while queue:
            v = queue.pop()
            if nbr[v] & ones:
                return None
            new = nbr[v] & ~zeros
            zeros |= new
            for u in _bits(new):
                for m in holding[u]:
                    if not m & ones:
                        left = m & ~zeros
                        if not left & (left - 1):
                            if not left:
                                return None
                            ones |= left
                            queue.append(left.bit_length() - 1)
        return ones, zeros

    def dfs(idx: int, ones: int, zeros: int) -> tuple[int, ...] | None:
        nonlocal nodes
        while idx < len(order) and members[idx] & ones:
            idx += 1
        if idx == len(order):
            return tuple(ones >> i & 1 for i in range(n))
        for v in order[idx]:
            if zeros >> v & 1:
                continue
            nodes += 1
            closed = propagate(v, ones, zeros)
            if closed is not None:
                witness = dfs(idx + 1, *closed)
                if witness is not None:
                    return witness
        return None

    witness = dfs(0, 0, 0)
    if witness is None:
        return KSDecision(verdict="uncolorable", witness=None, nodes=nodes)
    if not validate_assignment(vset, contexts, witness, edges_from_contexts_only):
        raise RuntimeError(f"colorable witness {witness} fails conditions (i) and (ii)")
    return KSDecision(verdict="colorable", witness=witness, nodes=nodes)


def parity_certificate(vset: VectorSet, contexts: list[Context]) -> bool:
    """Structural uncolorability certificate for even-membership odd-count sets.

    If every vertex lies in an even number of contexts and the number of
    contexts is odd, summing the chosen 1s over all contexts counts each
    chosen vertex an even number of times, yet exactly-one-per-context forces
    the odd total |contexts|.  Returns True when this argument applies.
    """
    counts = [0] * vset.n
    for ctx in contexts:
        for v in ctx:
            counts[v] += 1
    return len(contexts) % 2 == 1 and all(c % 2 == 0 for c in counts if c)


def check_completeness(vset: VectorSet) -> tuple[bool, list[Edge]]:
    """Does every orthogonal pair extend to a full d-clique within the set?"""
    covered: set[Edge] = set()
    for ctx in enumerate_contexts(vset):
        for pair in itertools.combinations(sorted(ctx), 2):
            covered.add(pair)
    uncovered = sorted(e for e in vset.graph.edges if e not in covered)
    return (not uncovered, uncovered)


def complete_set(vset: VectorSet) -> VectorSet:
    """Extend a set until every orthogonal pair lies in a full context.

    Round by round, every currently uncovered edge (in lexicographic order)
    gets the orthocomplement basis of its two rays appended (canonical
    primitive representatives, deduplicated against the set so far).  Raises
    if the closure does not stabilize within MAX_ROUNDS.
    """
    vectors = list(vset.vectors)
    labels = list(vset.labels) if vset.labels is not None else None
    rays = {primitive(v) for v in vectors}
    added = 0
    for _ in range(MAX_ROUNDS):
        current = VectorSet(dim=vset.dim, vectors=tuple(vectors), labels=tuple(labels) if labels else None)
        complete, uncovered = check_completeness(current)
        if complete:
            return current
        for i, j in uncovered:
            for ray in orthocomplement_basis([vectors[i], vectors[j]], vset.dim):
                if ray not in rays:
                    rays.add(ray)
                    vectors.append(ray)
                    if labels is not None:
                        labels.append(f"c{added}")
                    added += 1
    raise RuntimeError(f"set completion did not stabilize within {MAX_ROUNDS} rounds")


def to_json_dict(vset: VectorSet, contexts: list[Context] | None = None) -> dict:
    """Interchange form: integer vectors, optional labels and contexts."""
    doc: dict = {"dim": vset.dim, "vectors": [list(v) for v in vset.vectors]}
    if vset.labels is not None:
        doc["labels"] = list(vset.labels)
    if contexts is not None:
        doc["contexts"] = [list(c) for c in contexts]
    return doc


def _json_int(x: object) -> int:
    # int() would truncate 0.5 and 1.9 and parse "3": a typo would load as another set
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected a JSON integer, got {x!r}")
    return x


def from_json_dict(doc: dict) -> tuple[VectorSet, list[Context] | None]:
    """Read the interchange form; dim, vector entries and context indices must be integers.

    Every listed context must pass check_context: an orthogonal basis of the set.
    """
    try:
        dim = _json_int(doc["dim"])
        vectors = tuple(tuple(_json_int(x) for x in v) for v in doc["vectors"])
        labels = tuple(str(s) for s in doc["labels"]) if "labels" in doc else None
        contexts = None
        if "contexts" in doc:
            contexts = [tuple(_json_int(i) for i in c) for c in doc["contexts"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed vector-set document: {exc}") from exc
    vset = VectorSet(dim=dim, vectors=vectors, labels=labels)
    for ctx in contexts or ():
        check_context(vset, ctx)
    return vset, contexts
