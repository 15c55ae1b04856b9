import random

import numpy as np

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
    table = [rng.randint(0, d) for _ in range(1 << d)]
    return members, table


def test_lanes_match_brute_force_on_random_instances():
    rng = random.Random(42)
    for n in range(3, 20):
        d = rng.randint(2, min(4, n))
        m = rng.randint(1, 6)
        members, table = random_instance(rng, n, m=m, d=d)
        expected = vectorized_best(members, [table] * m, n)
        if n <= 10:
            assert expected == brute_force_best(members, [table] * m, n)
        assert scan.best_assignment(members, table, n) == expected


def test_ties_resolve_to_the_smallest_assignment():
    # a constant table makes every assignment optimal; the winner must be v=0
    assert scan.best_assignment([(0, 1)], [1, 1, 1, 1], 6) == (1, 0)


def test_split_boundary_tie_is_won_in_a_high_block():
    # with the xor table the maximum 3 needs v16 != v17, so block h=0 cannot
    # reach it; it also needs v18 != v4 and v0 != v1, and the smallest such
    # v is h=1 (v16 = 1, v18 = 0) with low (1 << 4) | 1
    members = [(16, 17), (18, 4), (0, 1)]
    table = [0, 1, 1, 0]
    expected = (3, (1 << 16) | (1 << 4) | 1)
    assert vectorized_best(members, [table] * 3, 19) == expected
    assert scan.best_assignment(members, table, 19) == expected

