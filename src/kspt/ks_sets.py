"""Kochen-Specker vector sets: orthogonality graphs, contexts, colorability.

A vector set is a list of integer rays in dimension d.  Its orthogonality
graph joins exactly the orthogonal pairs, and a context is a d-clique, a set
of d mutually orthogonal rays forming a measurement basis.  A set has the KS
property when no 0/1 assignment to the rays gives every context exactly one
1 while never putting two 1s on an orthogonal pair.

Each set builds its orthogonality graph once, on first use, and every
consumer reads that graph; complete_set grows each round's graph from the
last.  The graph is held only as one integer bitmask per vertex, its
neighbours, and a context as the bitmask of its members.  Sets and systems
refuse, for every caller, a dim or context member that is not an index (an
integer, not a bool) and an entry that is not exact, and store tuples of
plain ints, a Fraction entry as given.  A set holds each vector's primitive
ray and finds a ray's index by it.  Whatever does not depend on a vector's
scale (the graph, the contexts, the game, the self-test) reads the rays;
only what prints or stores a vector reads vectors.  A system keeps its
context neighbours, per vertex the mask of the vertices sharing a context
with it; a vertex's edges outside that mask lie in no context.
ContextSystem.of runs check_context, the one test that a context is an
orthogonal basis of its set, once on each listed context and on no
enumerated one; check_context reads the set's graph once it is built, and
the system's consumers trust the system.  Contexts are listed on the
adjacency masks relabelled in the order of the rays (enumerate_contexts).
Walks recurse only where d bounds the depth, as here.  The colorability
search is a depth-first search over contexts: branch on which member of an
unsatisfied context receives the 1, propagate forced 0s along edges, and
propagate forced 1s for contexts left with a single viable member.  It goes
one level deep per context, so it keeps a stack of frames, each a state and
the untried members of its branching context.  A state is a few integer
bitmasks, so backtracking restores nothing: the vertices fixed to 1 and to
0, the contexts holding a 1, and each context's count of members not fixed
to 0, bit-sliced into one mask over the contexts per bit of the count.  A
vertex fixed to 0 subtracts the mask of its contexts from every count with a
ripple borrow, and one pass over the masks finds the contexts with no 1 left
with one viable member (a forced 1) or none (a conflict).  Condition (i) can
be read with all graph edges (default) or only with the system's context
neighbours; the two readings coincide on complete sets.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Rational

from .exact_linalg import inner_product, orthocomplement_basis, primitive

Context = tuple[int, ...]
Edge = tuple[int, int]

MAX_ROUNDS = 32


@dataclass(frozen=True)
class VectorSet:
    """A labeled list of distinct rays in dimension dim, and rays[i] = primitive(vectors[i])."""

    dim: int
    vectors: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None
    rays: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.dim, bool) or not isinstance(self.dim, Integral) or self.dim < 2:
            raise ValueError(f"dimension {self.dim!r} is not an integer of at least 2")
        # stored as tuples, so a set built from lists hashes and compares as one
        dim, vectors, index = int(self.dim), list(map(tuple, self.vectors)), {}
        for i, v in enumerate(vectors):
            if len(v) != dim:
                raise ValueError(f"vector {v} does not have dimension {dim}")
            if not all(type(x) is int for x in v):  # an all-int vector is kept as it is
                for x in v:
                    if isinstance(x, bool) or not isinstance(x, Rational):
                        raise ValueError(f"vector {v} has an entry {x!r} that is not an exact rational")
                vectors[i] = v = tuple(int(x) if isinstance(x, Integral) else x for x in v)
            ray = primitive(v)
            if not any(ray):
                raise ValueError(f"zero vector {v} is not a ray")
            if ray in index:
                raise ValueError(f"duplicate ray {v}")
            index[ray] = i  # {primitive ray: vector index}
        labels = None if self.labels is None else tuple(self.labels)
        if labels is not None and len(labels) != len(vectors):
            raise ValueError("label count does not match vector count")
        vars(self).update(dim=dim, vectors=tuple(vectors), labels=labels,
                          rays=tuple(index), _ray_index=index)

    @property
    def n(self) -> int:
        return len(self.vectors)

    def index_of(self, vector: Sequence) -> int | None:
        """The index of the set's ray through vector, else None; ValueError as the constructor's."""
        return self._ray_index.get(VectorSet(self.dim, (vector,)).rays[0])

    @cached_property
    def graph(self) -> tuple[int, ...]:
        """The orthogonality graph's adjacency masks, built on first use and kept."""
        return build_orthogonality_graph(self)


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


def build_orthogonality_graph(vset: VectorSet) -> tuple[int, ...]:
    """The adjacency masks: bit j of mask i is set iff rays i and j have exact inner product 0."""
    return _grown_graph((), vset)


def _grown_graph(masks: tuple[int, ...], vset: VectorSet) -> tuple[int, ...]:
    """The orthogonality graph of vset, given masks, that of its first len(masks) rays.

    Only the pairs with a ray past len(masks) cost an inner product.
    """
    rays = vset.rays
    adj = list(masks)
    for j in range(len(masks), vset.n):
        row = 0
        for i in range(j):
            if inner_product(rays[i], rays[j]) == 0:
                row |= 1 << i
                adj[i] |= 1 << j
        adj.append(row)
    return tuple(adj)


def enumerate_contexts(vset: VectorSet) -> list[Context]:
    """All d-cliques of the orthogonality graph, in lexicographic order.

    Mutually orthogonal nonzero rays are linearly independent, so no clique
    can exceed size d and every d-clique is a full measurement basis.  The
    k-cliques inside a candidate mask p are each v of p followed by the
    (k - 1)-cliques of the members of p above v adjacent to v, and each
    (p, k) is listed once per call: the candidates of a clique are the rays
    orthogonal to its span, which many cliques share.  They are shared in
    the listing only when the vertices come in an order fixed by the rays,
    so the vertices are ranked by primitive ray and the adjacency masks
    relabelled once; the listing does not depend on how the set numbers its
    rays.  Each clique comes out in the set's indices, sorted.
    """
    n, adj = vset.n, vset.graph
    order = sorted(range(n), key=vset.rays.__getitem__)  # order[rank] = vertex
    bit = [0] * n
    for r, v in enumerate(order):
        bit[v] = 1 << r
    ranked = [sum(map(bit.__getitem__, _bits(adj[v]))) for v in order]
    return sorted([tuple(sorted(c)) for c in _cliques(ranked, order, (1 << n) - 1, vset.dim, {})])


def _cliques(adj: Sequence[int], label: Sequence[int], p: int, k: int,
             listed: dict[tuple[int, int], list[Context]]) -> list[Context]:
    """The k-cliques (k >= 2) inside candidate mask p, as labels; each (p, k) listed once.

    adj and p are over ranks, and each member of a clique is given as its
    label[rank].  Depth <= k - 2.
    """
    out = listed.get((p, k))
    if out is not None:
        return out
    out = listed[p, k] = []
    for v in _bits(p):
        p ^= 1 << v  # p now holds the candidates above v
        q = p & adj[v]
        u = label[v]
        if k == 2:
            out += [(u, label[w]) for w in _bits(q)]
        elif q.bit_count() >= k - 1:
            out += [(u, *c) for c in _cliques(adj, label, q, k - 1, listed)]
    return out


def _as_indices(ctx: Iterable) -> Context:
    """ctx's members as a tuple of ints; ValueError on one that is not an integer or is a bool."""
    ctx = tuple(ctx)
    for v in ctx:
        if type(v) is not int:  # an exact int needs no call; a numpy integer is converted
            if bad := [u for u in ctx if isinstance(u, bool) or not isinstance(u, Integral)]:
                raise ValueError(f"context {ctx} has a member {bad[0]!r} that is not an index")
            return tuple(map(int, ctx))
    return ctx


def check_context(vset: VectorSet, ctx: Context) -> int:
    """Raise ValueError unless ctx is an orthogonal basis drawn from vset.

    Returns the bitmask of its members.  The checks run in order: every
    member an index (an integer, not a bool), d distinct members, every
    member in [0, n) (before any ray or mask is read, so a negative index
    cannot alias a vertex), then orthogonality: each member's row of the
    set's adjacency masks if vset.graph is built, else the exact inner
    product of each of the d(d-1)/2 member ray pairs.
    """
    d, n = vset.dim, vset.n
    ctx = _as_indices(ctx)
    if len(ctx) != d or len(set(ctx)) != d:
        raise ValueError(f"context {ctx} must have {d} distinct members")
    mask = 0
    for v in ctx:
        if not 0 <= v < n:
            raise ValueError(f"context {ctx} has a member outside [0, {n})")
        mask |= 1 << v
    adj = vars(vset).get("graph")
    if any(mask & ~adj[v] != 1 << v for v in ctx) if adj is not None else any(
        inner_product(vset.rays[u], vset.rays[v]) for u, v in itertools.combinations(ctx, 2)
    ):
        raise ValueError(f"context {ctx} is not an orthogonal basis")
    return mask


@dataclass(frozen=True, init=False)
class ContextSystem:
    """A set's contexts, each an orthogonal basis of it, made by ContextSystem.of."""

    vset: VectorSet
    contexts: tuple[Context, ...]

    @classmethod
    def of(cls, vset: VectorSet, contexts: Sequence[Context] | None = None) -> ContextSystem:
        """Each listed context through check_context once, stored as ints, else the enumerated ones.

        The set's graph is built first when it costs fewer inner products than
        all the listed contexts' member pairs, so check_context reads it.
        """
        if contexts is None:
            return cls._trusted(vset, enumerate_contexts(vset))
        d, n = vset.dim, vset.n
        if len(contexts) * d * (d - 1) > n * (n - 1):
            vset.graph  # built and kept, for check_context to read
        listed = []
        for ctx in contexts:
            check_context(vset, ctx)
            listed.append(_as_indices(ctx))
        return cls._trusted(vset, listed)

    @classmethod
    def _trusted(cls, vset: VectorSet, contexts: Iterable[Context]) -> ContextSystem:
        """The system of contexts already known to be orthogonal bases of vset."""
        system = object.__new__(cls)
        vars(system).update(vset=vset, contexts=tuple(map(tuple, contexts)))
        return system

    @property
    def d(self) -> int:
        return self.vset.dim

    @property
    def m(self) -> int:
        return len(self.contexts)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        bit = [1 << v for v in range(self.vset.n)]
        return tuple(sum(map(bit.__getitem__, ctx)) for ctx in self.contexts)

    @cached_property
    def neighbours(self) -> tuple[int, ...]:
        """Per vertex, the mask of the other vertices that share a context with it."""
        nbr = [0] * self.vset.n
        for mask in self.masks:
            for v in _bits(mask):
                nbr[v] |= mask
        return tuple(m & ~(1 << v) for v, m in enumerate(nbr))

    def mask_of(self, ctx: Context) -> int | None:
        """The mask of ctx if its members, in any order, are one of the contexts, else None."""
        # a non-index raises ValueError as in check_context, a member outside
        # [0, n) has no bit and is refused before it is shifted, and a repeat
        # carries d powers of two into fewer than d set bits: no context
        if len(ctx) != self.vset.dim:
            return None
        ctx = _as_indices(ctx)
        if min(ctx) < 0 or max(ctx) >= self.vset.n:
            return None
        return mask if (mask := sum(1 << v for v in ctx)) in self.masks else None


def validate_assignment(
    system: ContextSystem, assignment: tuple[int, ...], edges_from_contexts_only: bool = False
) -> bool:
    """Check conditions (i) and (ii) for a 0/1 assignment directly."""
    if len(assignment) != system.vset.n or any(b not in (0, 1) for b in assignment):
        return False
    nbr = system.neighbours if edges_from_contexts_only else system.vset.graph
    ones = sum(1 << v for v, b in enumerate(assignment) if b)
    if any(nbr[v] & ones for v in _bits(ones)):
        return False
    return all((m & ones).bit_count() == 1 for m in system.masks)


def _holding_masks(contexts: list[Context], n: int) -> list[int]:
    """Per vertex u in [0, n), the mask of the contexts holding u: bit i for contexts[i]."""
    rows = [bytearray((len(contexts) + 7) // 8) for _ in range(n)]
    for i, ctx in enumerate(contexts):
        byte, bit = i >> 3, 1 << (i & 7)
        for v in ctx:
            rows[v][byte] |= bit
    return [int.from_bytes(row, "little") for row in rows]


def check_ks_property(
    system: ContextSystem, edges_from_contexts_only: bool = False
) -> KSDecision:
    """Decide colorability by DFS over the system's contexts with unit propagation.

    Unit propagation is monotone, so the closure it reaches, or the conflict,
    does not depend on the order in which forced moves are made; the search
    branches on contexts in sorted order and on members in context order.
    """
    vset, contexts, masks = system.vset, system.contexts, system.masks
    if not contexts:
        raise ValueError("KS property is undefined without contexts")
    n, d = vset.n, vset.dim
    # the contexts in sorted order and their masks, sorted through an index
    # list so that no (context, mask) pair is made per context
    index = sorted(range(len(contexts)), key=contexts.__getitem__)
    order = [contexts[i] for i in index]
    members = [masks[i] for i in index]
    held = _holding_masks(order, n)  # bit i of held[u]: the i-th sorted context holds u
    nbr = system.neighbours if edges_from_contexts_only else vset.graph
    every = (1 << len(order)) - 1
    # free[j]: the contexts whose count of members not fixed to 0 has bit j
    # set, one mask per bit; every count starts at d
    start = tuple(every if d >> j & 1 else 0 for j in range(d.bit_length()))

    def propagate(
        v: int, ones: int, zeros: int, sat: int, free: tuple[int, ...]
    ) -> tuple[int, int, int, tuple[int, ...]] | None:
        # set v to 1 and close under the forced moves: the neighbours of a 1
        # are 0, and a context with no 1 and one member not 0 forces it to 1.
        # sat is the mask of the contexts holding a 1.
        free = list(free)
        ones |= 1 << v
        sat |= held[v]
        queue = [v]
        while queue:
            for v in queue:
                if nbr[v] & ones:
                    return None
                new = nbr[v] & ~zeros
                zeros |= new
                for u in _bits(new):
                    # subtract held[u] from every count, borrowing plane to plane
                    borrow = held[u]
                    for j, plane in enumerate(free):
                        free[j] = plane ^ borrow
                        borrow &= ~plane
                        if not borrow:
                            break
            queue = []
            high = 0
            for plane in free[1:]:
                high |= plane
            unsat = every & ~sat
            if unsat & ~(free[0] | high):
                return None  # a context with no 1 and every member 0
            units = unsat & free[0] & ~high
            while units:
                # the first unit's one free member, which may settle others
                u = (members[(units & -units).bit_length() - 1] & ~zeros).bit_length() - 1
                ones |= 1 << u
                sat |= held[u]
                units &= ~sat
                queue.append(u)
        return ones, zeros, sat, tuple(free)

    # per branching level, a closed state and its branching members left to try
    stack = [((0, 0, 0, start), iter(order[0]))]
    nodes = 0
    while stack:
        state, untried = stack[-1]
        for v in untried:
            nodes += 1
            closed = propagate(v, *state)
            if closed is not None:
                break
        else:
            stack.pop()
            continue
        ones, zeros, sat, _ = closed
        unsat = every & ~sat
        if not unsat:
            break
        ctx = order[(unsat & -unsat).bit_length() - 1]
        stack.append((closed, iter([v for v in ctx if not zeros >> v & 1])))
    else:
        return KSDecision(verdict="uncolorable", witness=None, nodes=nodes)
    witness = tuple(ones >> i & 1 for i in range(n))
    if not validate_assignment(system, witness, edges_from_contexts_only):
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
    """Does every orthogonal pair extend to a full d-clique within the set?

    The uncovered pairs (i, j), i < j, in lexicographic order: per vertex i,
    its graph neighbours above i outside the neighbours of the system of
    enumerated contexts.
    """
    covered = ContextSystem._trusted(vset, enumerate_contexts(vset)).neighbours
    uncovered = [
        (i, j) for i, row in enumerate(vset.graph) for j in _bits(row & ~covered[i]) if i < j
    ]
    return (not uncovered, uncovered)


def complete_set(vset: VectorSet) -> VectorSet:
    """Extend a set until every orthogonal pair lies in a full context.

    Round by round, every currently uncovered edge (in lexicographic order)
    gets the orthocomplement basis of its two rays appended (canonical
    primitive representatives, deduplicated against the round's set and each
    other; a labelled set's added rays are named c0, c1, ...).  Each
    round's orthogonality graph is the last one's plus the pairs with an added
    ray.  Raises ValueError if the closure does not stabilize within
    MAX_ROUNDS.
    """
    vectors, graph = vset.vectors, ()
    for _ in range(MAX_ROUNDS):
        labels = None if vset.labels is None else (
            vset.labels + tuple(f"c{k}" for k in range(len(vectors) - vset.n)))
        current = VectorSet(dim=vset.dim, vectors=vectors, labels=labels)
        # the last round's graph grown by the rays added since, stored where
        # the cached VectorSet.graph would put it
        graph = vars(current)["graph"] = _grown_graph(graph, current)
        complete, uncovered = check_completeness(current)
        if complete:
            return current
        vectors += tuple(dict.fromkeys(
            ray for i, j in uncovered
            for ray in orthocomplement_basis([current.rays[i], current.rays[j]], vset.dim)
            if ray not in current._ray_index
        ))
    raise ValueError(f"set completion did not stabilize within {MAX_ROUNDS} rounds")


def to_json_dict(vset: VectorSet, contexts: Iterable[Context] | None = None) -> dict:
    """Interchange form: integer vectors, optional labels and contexts."""
    doc: dict = {"dim": vset.dim, "vectors": [list(v) for v in vset.vectors]}
    if vset.labels is not None:
        doc["labels"] = list(vset.labels)
    if contexts is not None:
        doc["contexts"] = [list(c) for c in contexts]
    return doc


def _json_labels(x: object) -> tuple[str, ...]:
    # str() would read "ab" as two labels and null as "None"
    if not isinstance(x, list) or not all(isinstance(s, str) for s in x):
        raise ValueError(f"expected a JSON list of strings, got {x!r}")
    return tuple(x)


def parse_decimal(text: str) -> int | None:
    # 0 or ASCII digits, no sign, space, underscore or leading zero: int()
    # would read +18, " 18 ", 1_8, Arabic-Indic digits and 018 all as 18
    return int(text) if re.fullmatch(r"0|[1-9][0-9]*", text) else None


def system_from_json_dict(doc: dict) -> tuple[VectorSet, ContextSystem | None]:
    """Read the interchange form; VectorSet and ContextSystem.of check all but shape and labels."""
    try:
        dim = doc["dim"]
        vectors = tuple(map(tuple, doc["vectors"]))
        labels = _json_labels(doc["labels"]) if "labels" in doc else None
        contexts = None if "contexts" not in doc else list(map(tuple, doc["contexts"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed vector-set document: {exc}") from exc
    vset = VectorSet(dim=dim, vectors=vectors, labels=labels)
    return vset, None if contexts is None else ContextSystem.of(vset, contexts)


def from_json_dict(doc: dict) -> tuple[VectorSet, list[Context] | None]:
    """system_from_json_dict, the checked contexts returned as a list."""
    vset, system = system_from_json_dict(doc)
    return vset, None if system is None else list(system.contexts)
