"""Exhaustive scan over binary vertex assignments, by split enumeration.

The scan maximizes sum_x table[pattern_x(v)], one score table for every
context, over all 2^n assignments v, where bit j of pattern_x(v) is the v-bit
of vertex members[x][j].  It splits v = (h << k) | low, k = min(n, SPLIT_BITS):

- every context's pattern over the 2^k low values is computed once, as an
  index vector;
- contexts whose members all lie below k are summed once into a base vector;
- for each h, every other context adds one gather, table[lowpat | highpat(h)],
  where highpat(h) is a plain int offset.

Ties go to the smallest maximizing v: argmax returns the first maximizer of a
block, blocks run in increasing h, and a later block wins only with a strictly
larger score.  Vertices keep their input order, so no index remapping exists.
"""

from __future__ import annotations

import numpy as np

SPLIT_BITS = 16
LANE = "numpy"


def compiled_available() -> bool:
    """Always False: the scan has one numpy kernel.  The bench fingerprint reads it."""
    return False


def best_assignment(
    members: list[tuple[int, ...]], table: list[int], n: int
) -> tuple[int, int]:
    """Maximize sum_x table[pattern_x(v)] over v in [0, 2^n).

    Bit j of context x's pattern is the v-bit of members[x][j].  The caller
    guarantees what GameSpec and its score table decide: n >= 0, at least one
    context, each of d distinct members in [0, n) for one d, and a table of
    2^d entries.  Returns (best_score, best_v), best_v the smallest maximizer.
    """
    table = np.asarray(table, dtype=np.int64)
    k = min(n, SPLIT_BITS)
    low = np.arange(1 << k, dtype=np.intp)
    base = np.zeros(1 << k, dtype=np.int64)
    split = []
    for ctx in members:
        lowpat = np.zeros(1 << k, dtype=np.intp)
        high = []
        for j, vertex in enumerate(ctx):
            if vertex < k:
                lowpat |= ((low >> vertex) & 1) << j
            else:
                high.append((vertex - k, j))
        if high:
            split.append((lowpat, high))
        else:
            base += table[lowpat]

    best_score = best_v = None
    for h in range(1 << (n - k)):
        total = base.copy()
        for lowpat, high in split:
            offset = sum(((h >> bit) & 1) << j for bit, j in high)
            # low and high pattern bits are disjoint, so lowpat | offset is
            # lowpat + offset: gather from a shifted view, with no OR pass
            total += table[offset:][lowpat]
        idx = int(np.argmax(total))
        score = int(total[idx])
        if best_score is None or score > best_score:
            best_score, best_v = score, (h << k) | idx
    return best_score, best_v
