"""Exact classical optimum of the game over binary vertex assignments.

A context with k of its d members set to 1 scores d - |k - 1|, a score table
of d + 1 entries, so the optimum minimizes the loss sum_x |k_x - 1| over all
2^n assignments v.  A depth-first branch and bound on the context masks of
``ks_sets._holding_masks`` fixes vertices from n - 1 down to 0, bit 0 first,
so leaves come in increasing v.
With sat the contexts holding a fixed 1 and closed[i] those whose members
are all fixed at depth i, a context loses at least k - 1 when k >= 1, at
least 0 when it has no 1 and a free member, and 1 when every member is
fixed to 0.  So a node's loss is at least

    (sum over fixed 1s of the contexts holding it) - |sat| + |closed[i] & ~sat|,

exactly so at a leaf.  A child is entered only if its bound is below the
least leaf loss so far: a pruned subtree holds no leaf that could replace
the best, and a leaf that is reached does.  The work, not n, is bounded:
past MAX_NODES nodes entered the search raises ValueError.

Ties go to the smallest maximizing v.  Let v* be the smallest minimizer and
L* its loss.  Every leaf reached before v* is a smaller v, so it loses more
than L* and the best stays above L* until v*; every node on the path to v*
has bound <= L*, so that path is never pruned and v* is reached; no later
leaf loses less than L*, so v* is kept.  An explicit stack replaces
recursion, so the depth is not bounded by Python's recursion limit.
"""

from __future__ import annotations

from .ks_sets import _holding_masks

LANE = "branch-and-bound"
MAX_NODES = 1 << 22  # nodes entered; merged6 takes 1,841,064


def compiled_available() -> bool:
    """Always False: the search is pure Python.  The bench fingerprint reads it."""
    return False


def best_assignment(
    members: list[tuple[int, ...]], table: list[int], n: int
) -> tuple[int, int]:
    """Maximize sum_x table[k_x(v)] over v in [0, 2^n).

    k_x(v) is the number of members of context x at 1 in v.  The caller's
    checked ContextSystem and the game's refusal of an empty one guarantee
    n >= 0, at least one context, each of d distinct members in [0, n) for
    one d >= 1.  table is the game's own score table [d - |k - 1| for k in
    range(d + 1)]; any other is a fault (RuntimeError).  Entering more than
    MAX_NODES nodes raises ValueError.  Returns (best_score, best_v), best_v
    the smallest maximizer.
    """
    m, d = len(members), len(members[0])
    if table != [d - abs(k - 1) for k in range(d + 1)]:
        raise RuntimeError(f"the search takes only the game's score table for d = {d}")
    budget = MAX_NODES
    held = _holding_masks(members, n)
    counts = [mask.bit_count() for mask in held]
    # closed[i]: the contexts whose members are all fixed once i vertices are
    closed = [0] * (n + 1)
    for x, ctx in enumerate(members):
        closed[n - min(ctx)] |= 1 << x
    for i in range(n):
        closed[i + 1] |= closed[i]

    sat = [0] * (n + 1)  # sat[i]: contexts holding a 1 with i vertices fixed
    ones = [0] * (n + 1)  # ones[i]: the fixed 1s' context counts, summed
    tried = [0] * n  # tried[i]: children of depth i tried so far
    best_loss = m * d + 1  # above every leaf
    best_v = v = i = 0
    loss = closed[0].bit_count()  # the bound of the node last entered
    while i >= 0:
        if i == n:
            # the bound of a leaf is its loss, and it was entered only with a
            # bound below best_loss
            best_loss, best_v = loss, v
            i -= 1
            continue
        u = n - 1 - i
        b = tried[i]
        if b == 2:
            tried[i] = 0
            v &= ~(1 << u)
            i -= 1
            continue
        tried[i] = b + 1
        s, k = sat[i], ones[i]
        if b:
            s |= held[u]
            k += counts[u]
        loss = k - s.bit_count() + (closed[i + 1] & ~s).bit_count()
        if loss < best_loss:
            budget -= 1
            if budget < 0:
                raise ValueError(f"the exact classical search entered more than its budget "
                                 f"of {MAX_NODES} nodes (n = {n} vertices, m = {m} contexts)")
            v |= b << u
            sat[i + 1], ones[i + 1] = s, k
            i += 1
    return m * d - best_loss, best_v
