"""Exact classical optimum over binary vertex assignments, by branch and bound.

The search maximizes sum_x table[pattern_x(v)], one score table for every
context, over all 2^n assignments v, where bit j of pattern_x(v) is the v-bit
of vertex members[x][j].  It is a depth-first search in Python integers:

- vertices are fixed from n - 1 down to 0, bit 0 before bit 1, so leaves are
  reached in increasing v;
- a node's bound is a sum over contexts of the largest table entry over the
  patterns that agree with the context's fixed members.  All contexts share
  one table, so one lookup ub[fixed_mask][fixed_bits] serves each of them;
- fixing a vertex updates the bound through the contexts holding it, and
  backtracking undoes the update;
- a child whose bound is at most the best leaf score so far is pruned.  A
  leaf's bound is its score, so a leaf that is reached has a strictly larger
  score than the best so far and replaces it.

Ties go to the smallest maximizing v.  Let v* be the smallest maximizer and
OPT its score.  Every leaf reached before v* is a smaller v, so it scores
below OPT and the best stays below OPT until v*; every node on the path to v*
has bound >= OPT, so that path is never pruned and v* is reached; no later
leaf scores above OPT, so v* is kept.  Pruning discards only subtrees whose
leaves score at most the best so far, which could not replace it.  An explicit stack replaces recursion, so the depth is
not bounded by Python's recursion limit.
"""

from __future__ import annotations

LANE = "branch-and-bound"


def compiled_available() -> bool:
    """Always False: the search is pure Python.  The bench fingerprint reads it."""
    return False


def _pattern_bounds(table: list[int]) -> list[list[int]]:
    """ub[mask][bits]: the largest table[p] over p with p & mask == bits.

    Built by freeing one bit at a time, each entry the larger of its two
    children, in O(4^d) cells for a table of 2^d entries.  Entries whose bits
    lie outside mask are filled but never read.
    """
    full = len(table) - 1
    ub = [None] * len(table)
    ub[full] = list(table)
    for mask in range(full - 1, -1, -1):
        free = ~mask & (mask + 1)  # lowest bit not in mask
        child = ub[mask | free]
        ub[mask] = [max(child[bits], child[bits | free]) for bits in range(full + 1)]
    return ub


def best_assignment(
    members: list[tuple[int, ...]], table: list[int], n: int
) -> tuple[int, int]:
    """Maximize sum_x table[pattern_x(v)] over v in [0, 2^n).

    Bit j of context x's pattern is the v-bit of members[x][j].  The caller
    guarantees what GameSpec and its score table decide: n >= 0, at least one
    context, each of d distinct members in [0, n) for one d, and a table of
    2^d integers.  Returns (best_score, best_v), best_v the smallest maximizer.
    """
    ub = _pattern_bounds(table)
    # holding[u]: per context x holding vertex u, its bit at u and the bound
    # rows before and after u is fixed (its members above u are fixed first)
    holding = [[] for _ in range(n)]
    for x, ctx in enumerate(members):
        for j, u in enumerate(ctx):
            mask = sum(1 << k for k, w in enumerate(ctx) if w > u)
            holding[u].append((x, 1 << j, ub[mask], ub[mask | 1 << j]))

    bits = [0] * len(members)  # fixed pattern bits per context
    bound = [len(members) * ub[0][0]] + [0] * n  # bound[i]: i vertices fixed
    tried = [0] * n  # tried[i]: children of depth i tried so far
    best_score = len(members) * min(table) - 1  # below every leaf
    best_v = v = 0
    i = 0
    while i >= 0:
        if i == n:
            # all contexts are fixed, so the bound is the leaf's score, and
            # it was entered only with a bound above best_score
            best_score, best_v = bound[n], v
            i -= 1
            continue
        u = n - 1 - i
        b = tried[i]
        if b == 2:
            tried[i] = 0
            if v >> u & 1:
                v ^= 1 << u
                for x, bit, _, _ in holding[u]:
                    bits[x] ^= bit
            i -= 1
            continue
        tried[i] = b + 1
        child = bound[i]
        for x, bit, old, new in holding[u]:
            child += new[bits[x] | bit * b] - old[bits[x]]
        if child > best_score:
            if b:
                v |= 1 << u
                for x, bit, _, _ in holding[u]:
                    bits[x] |= bit
            bound[i + 1] = child
            i += 1
    return best_score, best_v
