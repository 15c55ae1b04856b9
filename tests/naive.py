"""Naive oracles for the library's searches.

naive_classical_value: the fully naive classical optimum.  Each of the first
d-1 parties picks an arbitrary function from contexts to vertex indices (no
restriction to the context's members), the last party an arbitrary binary
vertex assignment; nothing is shared with the library's decomposed scan
except the winning predicate.  Exponential in every direction, so only for
tiny specs.

naive_ks_search: the colorability search with set-based state that rescans
every context on every propagation pass.  It branches exactly as
check_ks_property does (contexts in sorted order, members in context order),
so the two must agree on the verdict, the node count and the witness.
"""

from fractions import Fraction
from itertools import combinations, product

from kspt.game import GameSpec, winning_predicate
from kspt.ks_sets import build_orthogonality_graph


def naive_classical_value(spec: GameSpec) -> Fraction:
    n = spec.vset.n
    m = spec.m
    d = spec.d
    party_maps = list(product(range(n), repeat=m))
    best = Fraction(0)
    for maps in product(party_maps, repeat=d - 1):
        for vbits in range(1 << n):
            wins = 0
            for x in range(m):
                a = tuple(maps[i][x] for i in range(d - 1))
                for y in spec.contexts[x]:
                    if winning_predicate(spec, x, y, a, (vbits >> y) & 1):
                        wins += 1
            value = Fraction(wins, m * d)
            if value > best:
                best = value
    return best


def naive_ks_search(vset, contexts, edges_from_contexts_only=False):
    """(verdict, nodes, witness) of the depth-first colorability search."""
    if edges_from_contexts_only:
        edges = {pair for ctx in contexts for pair in combinations(sorted(ctx), 2)}
    else:
        edges = build_orthogonality_graph(vset).edges
    nbr = [set() for _ in range(vset.n)]
    for i, j in edges:
        nbr[i].add(j)
        nbr[j].add(i)
    order = sorted(contexts)
    nodes = 0

    def propagate(ones, zeros):
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

    def dfs(idx, ones, zeros):
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
            if any(u in new_ones for u in nbr[v]):
                continue
            new_zeros.update(nbr[v])
            if not propagate(new_ones, new_zeros):
                continue
            witness = dfs(idx + 1, new_ones, new_zeros)
            if witness is not None:
                return witness
        return None

    witness = dfs(0, set(), set())
    return ("uncolorable" if witness is None else "colorable"), nodes, witness
