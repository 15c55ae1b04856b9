"""Kochen-Specker vector sets: orthogonality graphs, contexts, colorability.

A vector set is a list of integer rays in dimension d.  Its orthogonality
graph joins exactly the orthogonal pairs, and a context is a d-clique, a set
of d mutually orthogonal rays forming a measurement basis.  A set has the KS
property when no 0/1 assignment to the rays gives every context exactly one
1 while never putting two 1s on an orthogonal pair.

The colorability search is a depth-first search over contexts: branch on
which member of an unsatisfied context receives the 1, propagate forced 0s
along edges, and propagate forced 1s for contexts left with a single viable
member.  Condition (i) can be read with all graph edges (default) or only
with pairs that co-occur in a supplied context; the two readings coincide on
complete sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .exact_linalg import (
    inner_product,
    is_orthogonal,
    orthocomplement_basis,
    primitive,
)

Context = tuple[int, ...]
Edge = tuple[int, int]


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


@dataclass(frozen=True)
class OrthogonalityGraph:
    n: int
    edges: frozenset[Edge]

    def neighbors(self, i: int) -> frozenset[int]:
        return self._adjacency[i]

    @cached_property
    def _adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)


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


def enumerate_contexts(vset: VectorSet, graph: OrthogonalityGraph | None = None) -> list[Context]:
    """All d-cliques of the orthogonality graph, in lexicographic order.

    Mutually orthogonal nonzero rays are linearly independent, so no clique
    can exceed size d and every d-clique is a full measurement basis.
    """
    if graph is None:
        graph = build_orthogonality_graph(vset)
    adj = [set(graph.neighbors(i)) for i in range(vset.n)]
    d = vset.dim
    out: list[Context] = []

    def extend(clique: list[int], candidates: list[int]) -> None:
        if len(clique) == d:
            out.append(tuple(clique))
            return
        for v in candidates:
            extend(clique + [v], [u for u in candidates if u > v and u in adj[v]])

    extend([], list(range(vset.n)))
    return out


def _condition_edges(
    graph: OrthogonalityGraph, contexts: list[Context], edges_from_contexts_only: bool
) -> frozenset[Edge]:
    if not edges_from_contexts_only:
        return graph.edges
    edges = set()
    for ctx in contexts:
        for i, j in itertools.combinations(sorted(ctx), 2):
            edges.add((i, j))
    return frozenset(edges)


def validate_assignment(
    vset: VectorSet,
    contexts: list[Context],
    assignment: tuple[int, ...],
    edges_from_contexts_only: bool = False,
) -> bool:
    """Check conditions (i) and (ii) for a 0/1 assignment directly."""
    if len(assignment) != vset.n or any(b not in (0, 1) for b in assignment):
        return False
    graph = build_orthogonality_graph(vset)
    for i, j in _condition_edges(graph, contexts, edges_from_contexts_only):
        if assignment[i] == 1 and assignment[j] == 1:
            return False
    for ctx in contexts:
        if sum(assignment[i] for i in ctx) != 1:
            return False
    return True


def check_ks_property(
    vset: VectorSet,
    contexts: list[Context],
    edges_from_contexts_only: bool = False,
) -> KSDecision:
    """Decide colorability by DFS over contexts with unit propagation."""
    if not contexts:
        raise ValueError("KS property is undefined without contexts")
    graph = build_orthogonality_graph(vset)
    for ctx in contexts:
        if len(set(ctx)) != vset.dim:
            raise ValueError(f"context {ctx} does not have {vset.dim} distinct members")
        for i, j in itertools.combinations(sorted(ctx), 2):
            if (i, j) not in graph.edges:
                raise ValueError(f"context {ctx} is not mutually orthogonal")

    edges = _condition_edges(graph, contexts, edges_from_contexts_only)
    nbr: list[set[int]] = [set() for _ in range(vset.n)]
    for i, j in edges:
        nbr[i].add(j)
        nbr[j].add(i)
    order = sorted(contexts)
    nodes = 0

    def propagate(ones: set[int], zeros: set[int]) -> bool:
        # forced moves: a context with no viable member fails, with exactly
        # one viable member forces it to 1
        changed = True
        while changed:
            changed = False
            for ctx in order:
                if any(v in ones for v in ctx):
                    continue
                viable = [v for v in ctx if v not in zeros]
                if not viable:
                    return False
                if len(viable) == 1:
                    v = viable[0]
                    ones.add(v)
                    for u in nbr[v]:
                        if u in ones:
                            return False
                        zeros.add(u)
                    changed = True
        return True

    def dfs(idx: int, ones: set[int], zeros: set[int]) -> tuple[int, ...] | None:
        nonlocal nodes
        while idx < len(order) and any(v in ones for v in order[idx]):
            idx += 1
        if idx == len(order):
            return tuple(1 if i in ones else 0 for i in range(vset.n))
        for v in order[idx]:
            if v in zeros:
                continue
            nodes += 1
            new_ones = set(ones)
            new_zeros = set(zeros)
            new_ones.add(v)
            conflict = False
            for u in nbr[v]:
                if u in new_ones:
                    conflict = True
                    break
                new_zeros.add(u)
            if conflict:
                continue
            if not propagate(new_ones, new_zeros):
                continue
            witness = dfs(idx + 1, new_ones, new_zeros)
            if witness is not None:
                return witness
        return None

    witness = dfs(0, set(), set())
    if witness is None:
        return KSDecision(verdict="uncolorable", witness=None, nodes=nodes)
    assert validate_assignment(vset, contexts, witness, edges_from_contexts_only)
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
    graph = build_orthogonality_graph(vset)
    covered: set[Edge] = set()
    for ctx in enumerate_contexts(vset, graph):
        for pair in itertools.combinations(sorted(ctx), 2):
            covered.add(pair)
    uncovered = sorted(e for e in graph.edges if e not in covered)
    return (not uncovered, uncovered)


def complete_set(vset: VectorSet, max_rounds: int = 32) -> VectorSet:
    """Extend a set until every orthogonal pair lies in a full context.

    Round by round, every currently uncovered edge (in lexicographic order)
    gets the orthocomplement basis of its two rays appended (canonical
    primitive representatives, deduplicated against the set so far).  Raises
    if the closure does not stabilize within max_rounds.
    """
    vectors = list(vset.vectors)
    labels = list(vset.labels) if vset.labels is not None else None
    rays = {primitive(v) for v in vectors}
    added = 0
    for _ in range(max_rounds):
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
    raise RuntimeError(
        f"set completion did not stabilize within {max_rounds} rounds; "
        "raise max_rounds if the closure is expected to be large"
    )


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
    """Read the interchange form; dim, vector entries and context indices must be integers."""
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
    if contexts is not None:
        for ctx in contexts:
            if len(ctx) != dim or not all(0 <= i < vset.n for i in ctx):
                raise ValueError(f"malformed context {ctx}")
    return vset, contexts
