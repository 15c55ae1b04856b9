"""Naive oracles for the library's searches.

naive_classical_value: the fully naive classical optimum.  Each of the first
d-1 parties picks an arbitrary function from contexts to vertex indices (no
restriction to the context's members), the last party an arbitrary binary
vertex assignment; nothing is shared with the library's classical search
except the winning predicate.  Exponential in every direction, so only for
tiny specs.

naive_edges: the orthogonality graph as its set of pairs (i, j), i < j, whose
inner product, summed entry by entry from the raw vectors, is zero; nothing
is read from the library's graph.

naive_uncovered: the pairs of naive_edges that lie in none of the given
contexts, sorted, the list check_completeness must return.

naive_ks_search: the colorability search with set-based state that rescans
every context on every propagation pass.  It branches exactly as
check_ks_property does (contexts in sorted order, members in context order),
so the two must agree on the verdict, the node count and the witness.

naive_levi_civita: the sign of a permutation from its inversions, counted
pair by pair, the O(d^2) count the cycle walk of levi_civita replaced.

naive_amplitude_coeff and naive_row / naive_constraint_rows: the product
expansion computed the long way, with no member multiset and no relabelling.
The amplitude loops over every term of the state, one product per term;
naive_row expands one outcome tuple by its own support-constrained recursion
into a dense row, and naive_constraint_rows walks all d^d outcome tuples of
a context, one naive_row each, keeping the tuples whose row is not
identically zero.  densify turns a row's (column, value) pairs back into
that dense tuple.

naive_best_choice: _best_choice over every first-party output in
C_x^(d-1), repeated members and unsorted orders included; the lexicographically
first maximizer, with its score.

naive_joint_distribution: p(a, b | x, y) from all d^d outcome tuples of the
context, each amplitude from naive_amplitude_coeff on the vectors as stored,
each probability a Fraction.

naive_row_echelon: the dense fraction-free elimination that row_echelon
replaced.  Every row is a dense primitive integer list and the pivot is the
first row nonzero in the column, so its echelon rows differ from the sparse
kernel's, but its pivot columns, and the null space back-substituted from
them, must agree.  It takes and returns rows in row_echelon's formats.

union_row_echelon: row_echelon as it stepped before each step wrote its
row afresh: the new row is built over the union of both rows' columns,
a * row[j] - b * prow[j] with missing entries read as 0, and then made
primitive.  Same rows, same order, same arithmetic, so its echelon rows and
pivots must equal row_echelon's exactly.

naive_gram_schmidt: the rational Gram-Schmidt that the fraction-free one
replaced.  Every vector is projected in Fractions, w - (w.u / u.u) u, and
only the finished orthogonal vectors are made primitive, so the two must
return the same rays.
"""

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, permutations, product

from kspt.exact_linalg import primitive
from kspt.game import GameSpec, winning_predicate
from kspt.ks_sets import check_context
from kspt.selftest import ConstraintRow


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


def naive_best_choice(spec: GameSpec, x, bit):
    ctx = spec.contexts[x]

    def score(a):
        return sum(1 for y in ctx if winning_predicate(spec, x, y, a, bit[y]))

    best_a = max(product(sorted(ctx), repeat=spec.d - 1), key=score)
    return score(best_a), best_a


def naive_edges(vset):
    """{(i, j): i < j, sum_k v_i[k] v_j[k] == 0}, from the raw vectors."""
    vectors = vset.vectors
    return {
        (i, j)
        for i, j in combinations(range(len(vectors)), 2)
        if sum(a * b for a, b in zip(vectors[i], vectors[j])) == 0
    }


def naive_uncovered(vset, contexts):
    """The orthogonal pairs i < j that lie in none of contexts, sorted."""
    members = [set(ctx) for ctx in contexts]
    return sorted(e for e in naive_edges(vset) if not any(set(e) <= ctx for ctx in members))


def naive_ks_search(vset, contexts, edges_from_contexts_only=False):
    """(verdict, nodes, witness) of the depth-first colorability search."""
    if edges_from_contexts_only:
        edges = {pair for ctx in contexts for pair in combinations(sorted(ctx), 2)}
    else:
        edges = naive_edges(vset)
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


def naive_levi_civita(p):
    """(-1) ** (number of pairs i < j with p[i] > p[j])."""
    inversions = sum(p[i] > p[j] for i, j in combinations(range(len(p)), 2))
    return -1 if inversions % 2 else 1


def naive_amplitude_coeff(state, party_vectors):
    """sum over the state's terms pi of terms[pi] * prod_i v_i[pi(i)]."""
    coeff = 0
    for pi, sign in state.terms.items():
        prod = sign
        for i, level in enumerate(pi):
            prod *= party_vectors[i][level]
        coeff += prod
    return coeff


def naive_joint_distribution(spec, x, y, state):
    """{(a, b): p} over every tuple of C_x^d, b = 1 when the last member is y."""
    d, ctx = spec.d, spec.contexts[x]
    dist = {}
    for t in product(ctx, repeat=d):
        vectors = [spec.vset.vectors[i] for i in t]
        coeff = naive_amplitude_coeff(state, vectors)
        scale = math.factorial(d) * math.prod(sum(c * c for c in v) for v in vectors)
        key = (t[:-1], int(t[-1] == y))
        dist[key] = dist.get(key, Fraction(0)) + Fraction(coeff * coeff, scale)
    return {key: p for key, p in dist.items() if p != 0}


def naive_row(vectors):
    """Dense row r[pi] = prod_i v_i[pi(i)] over the lexicographic permutations."""
    d = len(vectors)
    perm_index = {p: i for i, p in enumerate(permutations(range(d)))}
    supports = [tuple(j for j, x in enumerate(v) if x != 0) for v in vectors]
    row = [0] * len(perm_index)
    assign = [0] * d

    def rec(i, used, coeff):
        if i == d:
            row[perm_index[tuple(assign)]] += coeff
            return
        for level in supports[i]:
            if used & (1 << level):
                continue
            assign[i] = level
            rec(i + 1, used | (1 << level), coeff * vectors[i][level])

    rec(0, 0, 1)
    return row


def densify(row, ncols):
    """The dense tuple of a row given as (column, value) pairs or a mapping."""
    entries = dict(row)
    return tuple(entries.get(j, 0) for j in range(ncols))


def naive_constraint_rows(vset, context, context_id=0):
    """pqs_constraint_rows from every tuple of product(context, repeat=d)."""
    d = vset.dim
    check_context(vset, context)
    allowed = set(permutations(context))
    merged = {}
    for a in product(context, repeat=d):
        if a in allowed:
            continue
        row = naive_row([vset.vectors[i] for i in a])
        if any(row):
            key = tuple((j, x) for j, x in enumerate(primitive(row)) if x != 0)
            merged.setdefault(key, []).append((context_id, a))
    return [ConstraintRow(entries=k, provenance=tuple(p)) for k, p in merged.items()]


def _primitive_ints(row):
    den = math.lcm(1, *(Fraction(x).denominator for x in row))
    ints = [int(x * den) for x in row]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def naive_row_echelon(rows):
    """({column: nonzero} echelon rows, pivot columns), pivoting on the first nonzero row.

    Mapping rows are densified up to their largest column.
    """
    rows = [r if isinstance(r, Mapping) else dict(enumerate(r)) for r in rows]
    ncols = max((max(r, default=-1) + 1 for r in rows), default=0)
    work = [_primitive_ints(densify(r, ncols)) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        p = work[r][c]
        for i in range(r + 1, len(work)):
            m = work[i][c]
            if m == 0:
                continue
            g = math.gcd(p, m)
            a, b = p // g, m // g
            work[i] = _primitive_ints([a * x - b * y for x, y in zip(work[i], work[r])])
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [{j: x for j, x in enumerate(row) if x != 0} for row in work[:r]], pivots


def union_row_echelon(rows):
    """(echelon rows, pivots) of {column: nonzero} primitive integer rows, every row read."""
    basis = {}
    for row in rows:
        while row:
            c = min(row)
            if (prow := basis.get(c)) is None:
                basis[c] = row
                break
            g = math.gcd(prow[c], row[c])
            a, b = prow[c] // g, row[c] // g
            new = {j: v for j in row.keys() | prow.keys()
                   if (v := a * row.get(j, 0) - b * prow.get(j, 0))}
            row = dict(zip(new, _primitive_ints(list(new.values()))))
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def naive_gram_schmidt(vectors):
    """Pairwise-orthogonal primitive rays spanning vectors, projected in Fractions."""
    ortho = []
    for v in vectors:
        w = [Fraction(x) for x in v]
        for u in ortho:
            c = sum(a * b for a, b in zip(w, u)) / sum(a * a for a in u)
            w = [wi - c * ui for wi, ui in zip(w, u)]
        if any(w):
            ortho.append(tuple(w))
    return [primitive(u) for u in ortho]
