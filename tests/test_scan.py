import random
import sys

import numpy as np
import pytest

from kspt import scan
from kspt.catalog import catalog_ceg18


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
    """m contexts of d distinct members drawn from range(n)."""
    return [tuple(rng.sample(range(n), d)) for _ in range(m)]


def game_table(d):
    """The game's score table by count: a context with k ones scores d - |k - 1|."""
    return [d - abs(k - 1) for k in range(d + 1)]


def pattern_table(d):
    """The same scores per member pattern p, for the oracles: game_table(d)[popcount(p)]."""
    table = game_table(d)
    return [table[bin(p).count("1")] for p in range(1 << d)]


def test_lanes_match_brute_force_on_random_instances():
    # the game table on random contexts; the brute force only where its
    # Python loop is cheap
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(1, 16)
        d = rng.randint(1, min(5, n))
        m = rng.randint(1, 10)
        members = random_instance(rng, n, m=m, d=d)
        patterns = pattern_table(d)
        expected = vectorized_best(members, [patterns] * m, n)
        if n <= 10:
            assert expected == brute_force_best(members, [patterns] * m, n)
        assert scan.best_assignment(members, game_table(d), n) == expected


def test_relabeled_ceg18_witnesses_are_pinned():
    # ceg18 under two seeded vertex permutations; the pins were recorded from
    # the exhaustive scan, so the search must reach the same smallest maximizer
    _, tetrads = catalog_ceg18()
    for seed, best_v in ((1, 209), (7, 53)):
        perm = list(range(18))
        random.Random(seed).shuffle(perm)
        members = [tuple(perm[i] for i in ctx) for ctx in tetrads]
        expected = vectorized_best(members, [pattern_table(4)] * len(members), 18)
        assert expected == (35, best_v)
        assert scan.best_assignment(members, game_table(4), 18) == expected


def test_search_deeper_than_the_recursion_limit():
    # the search keeps its own stack, so n past Python's recursion limit is
    # only a matter of nodes.  Every context (0, j) holds vertex 0, which is
    # fixed last: no context closes before the last level, whose 1 gives
    # loss 0 at v = 1, and every later 1 then costs a loss, so about 2n
    # nodes are entered
    n = sys.getrecursionlimit() + 100
    members = [(0, j) for j in range(1, n)]
    assert scan.best_assignment(members, game_table(2), n) == (2 * (n - 1), 1)


def test_ties_resolve_to_the_smallest_assignment():
    # vertices 1..5 lie in no context and (0, 1) scores 2 with exactly one
    # 1, so v = 1, 2, 3 | 4, ... all tie; the winner must be v = 1
    assert vectorized_best([(0, 1)], [pattern_table(2)], 6) == (2, 1)
    assert scan.best_assignment([(0, 1)], game_table(2), 6) == (2, 1)


def test_split_boundary_tie_is_won_in_a_high_block():
    # for d = 2 the game table is the xor table plus one, so the maximum 6
    # needs v16 != v17, v18 != v4 and v0 != v1, and the smallest such v is
    # (1 << 16) | (1 << 4) | 1
    members = [(16, 17), (18, 4), (0, 1)]
    table = pattern_table(2)
    assert table == [1, 2, 2, 1]
    expected = (6, (1 << 16) | (1 << 4) | 1)
    assert vectorized_best(members, [table] * 3, 19) == expected
    assert scan.best_assignment(members, game_table(2), 19) == expected


@pytest.mark.parametrize(
    "table",
    [[1, 1, 1, 1], [0, 1, 1, 0], [1, 2, 2], [1, 2, 2, 1, 0], [2, 3, 3, 2, 3, 2, 2, 1],
     [1, 2, 2, 1], [2, 3, 2, 1]],
)
def test_only_the_game_table_is_searched(table):
    # d = 2 contexts: the game table is [1, 2, 1], by count; anything else,
    # the per-pattern tables [1, 2, 2, 1] and [2, 3, 3, 2, 3, 2, 2, 1] and the
    # d = 3 game table [2, 3, 2, 1] included, is a program fault: the table
    # never comes from input
    with pytest.raises(RuntimeError, match="score table"):
        scan.best_assignment([(0, 1), (1, 2)], table, 3)


@pytest.mark.parametrize(
    "members, n",
    [
        ([(0, 1, 2)] * 4, 5),  # one context repeated
        ([(0, 1, 2), (2, 1, 0), (1, 0, 2)], 3),  # one context in three orders
        ([(0, 1), (2, 3), (4, 5), (6, 7)], 8),  # disjoint contexts
        ([(3, 7), (5, 9)], 12),  # vertices in no context, below and above
        ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)] * 2, 6),  # every 3-subset of 4, twice
        ([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 2, 6)], 9),  # three shared members
    ],
)
def test_search_matches_the_scan_when_contexts_share_members(members, n):
    d = len(members[0])
    patterns = pattern_table(d)
    expected = vectorized_best(members, [patterns] * len(members), n)
    assert expected == brute_force_best(members, [patterns] * len(members), n)
    assert scan.best_assignment(members, game_table(d), n) == expected
