import random

import numpy as np
import pytest

from kspt import scan


def brute_force_best(members, tables, n):
    best_score = -1
    best_v = 0
    for v in range(1 << n):
        total = 0
        for x, ctx in enumerate(members):
            pattern = 0
            for j, vertex in enumerate(ctx):
                pattern |= ((v >> vertex) & 1) << j
            total += tables[x][pattern]
        if total > best_score:
            best_score = total
            best_v = v
    return best_score, best_v


def vectorized_best(members, tables, n):
    """Reference scan: every pattern built bit by bit over all 2^n assignments."""
    vs = np.arange(1 << n, dtype=np.int64)
    total = np.zeros(1 << n, dtype=np.int64)
    for ctx, table in zip(members, tables):
        pattern = np.zeros(1 << n, dtype=np.int64)
        for j, vertex in enumerate(ctx):
            pattern |= ((vs >> vertex) & 1) << j
        total += np.asarray(table, dtype=np.int64)[pattern]
    # argmax returns the first maximizer, i.e. the smallest v
    idx = int(np.argmax(total))
    return int(total[idx]), idx


def random_instance(rng, n, m, d):
    """m contexts of size d, drawn entirely low, straddling or entirely high.

    Low and high are the two sides of the scan's split at min(n, SPLIT_BITS);
    for n <= SPLIT_BITS every context lies low.
    """
    k = min(n, scan.SPLIT_BITS)
    lows, highs = list(range(k)), list(range(k, n))
    kinds = ["low"]
    if highs:
        kinds.append("straddle")
    if len(highs) >= d:
        kinds.append("high")
    members = []
    for _ in range(m):
        kind = rng.choice(kinds)
        if kind == "low":
            ctx = rng.sample(lows, d)
        elif kind == "high":
            ctx = rng.sample(highs, d)
        else:
            n_high = rng.randint(1, min(d - 1, len(highs)))
            ctx = rng.sample(highs, n_high) + rng.sample(lows, d - n_high)
            rng.shuffle(ctx)
        members.append(tuple(ctx))
    tables = [[rng.randint(0, d) for _ in range(1 << d)] for _ in range(m)]
    return members, tables


def test_lanes_match_brute_force_on_random_instances():
    rng = random.Random(42)
    for n in range(3, 20):
        d = rng.randint(2, min(4, n))
        members, tables = random_instance(rng, n, m=rng.randint(1, 6), d=d)
        expected = vectorized_best(members, tables, n)
        if n <= 10:
            assert expected == brute_force_best(members, tables, n)
        assert scan.best_assignment(members, tables, n) == expected


def test_ties_resolve_to_the_smallest_assignment():
    # constant tables make every assignment optimal; the winner must be v=0
    assert scan.best_assignment([(0, 1)], [[1, 1, 1, 1]], 6) == (1, 0)


def test_split_boundary_tie_is_won_in_a_high_block():
    # the maximum needs v16 != v17, so block h=0 cannot reach it; the
    # maximizers are v16 xor v17 = 1 and v4 = 1, with v18 free (the
    # straddling context ties over it), so the smallest is h=1 with low 1<<4
    members = [(16, 17), (18, 4), (0, 1)]
    tables = [[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]]
    expected = (3, (1 << 16) | (1 << 4))
    assert vectorized_best(members, tables, 19) == expected
    assert scan.best_assignment(members, tables, 19) == expected


def test_input_validation():
    with pytest.raises(ValueError):
        scan.best_assignment([], [], 4)
    with pytest.raises(ValueError):
        scan.best_assignment([(0, 1), (0,)], [[0] * 4, [0] * 2], 4)
    with pytest.raises(ValueError):
        scan.best_assignment([(0, 1)], [[0] * 3], 4)
    with pytest.raises(ValueError):
        scan.best_assignment([(0, 1)], [[0] * 4], -1)
    # member indices outside [0, n), and a repeated member
    with pytest.raises(ValueError):
        scan.best_assignment([(0, 5)], [[0, 1, 2, 3]], 3)
    with pytest.raises(ValueError):
        scan.best_assignment([(0, 3)], [[0, 1, 2, 3]], 3)
    with pytest.raises(ValueError):
        scan.best_assignment([(0, -1)], [[0, 1, 2, 3]], 3)
    with pytest.raises(ValueError):
        scan.best_assignment([(0, 0)], [[0, 1, 2, 3]], 3)
    # one table per context
    with pytest.raises(ValueError):
        scan.best_assignment([(0, 1), (1, 2)], [[0] * 4], 3)
