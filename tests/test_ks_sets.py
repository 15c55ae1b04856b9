import gc
import itertools
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from kspt.catalog import (
    CEG18_TETRADS,
    catalog_ceg18,
    catalog_conway_kochen31,
    catalog_peres24,
    load_builtin,
    merged_peres,
    merged_window_bases,
)
from kspt.ks_sets import (
    ContextSystem,
    VectorSet,
    build_orthogonality_graph,
    check_completeness,
    check_context,
    check_ks_property,
    complete_set,
    enumerate_contexts,
    from_json_dict,
    parity_certificate,
    to_json_dict,
    validate_assignment,
)
from kspt.cli import run
from kspt.game import classical_value_report, verify_perfect_strategy
from kspt.selftest import assemble_and_solve, general_d_selftest
from kspt.supersinglet import SupersingletState, _multiset_expansion, build_supersinglet

from naive import naive_edges, naive_ks_search, naive_uncovered


def test_vector_set_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        VectorSet(dim=3, vectors=((1, 0, 0), (0, 1)))


def test_vector_set_rejects_zero_vector():
    with pytest.raises(ValueError):
        VectorSet(dim=2, vectors=((1, 0), (0, 0)))


def test_vector_set_rejects_duplicate_ray():
    with pytest.raises(ValueError):
        VectorSet(dim=2, vectors=((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        VectorSet(dim=2, vectors=((1, 1), (-1, -1)))


def test_vector_set_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        VectorSet(dim=1, vectors=((1,),))


def test_vector_set_rejects_label_count_mismatch():
    with pytest.raises(ValueError):
        VectorSet(dim=2, vectors=((1, 0), (0, 1)), labels=("a",))


def test_vector_set_refuses_a_dim_or_entry_that_is_not_an_integer():
    # the set owns its input: a Python caller gets the refusal a document gets,
    # not AttributeError from primitive or a bool stored as an entry
    with pytest.raises(ValueError, match="dimension 2.0 is not an integer of at least 2"):
        VectorSet(2.0, ((1, 0), (0, 1)))
    for bad in (True, "2"):
        with pytest.raises(ValueError, match="is not an integer"):
            VectorSet(bad, ((1, 0), (0, 1)))
    for entry in (0.5, "a", True):
        with pytest.raises(ValueError, match="that is not an exact rational"):
            VectorSet(2, ((1, 0), (entry, 1)))
    # a Fraction and a numpy integer are exact, and load as the same rays
    assert VectorSet(2, ((1, 0), (0, Fraction(1, 2)))).n == 2
    assert VectorSet(np.int64(2), ((1, 0), (0, np.int64(3)))).dim == 2


def test_context_members_must_be_indices():
    # 0.0 and "0" used to raise TypeError, and False was stored as vertex 0
    peres = catalog_peres24()
    system = ContextSystem.of(peres)
    for member in (0.0, "0", False):
        bad = (member, 1, 2, 3)
        with pytest.raises(ValueError, match="that is not an index"):
            ContextSystem.of(peres, [bad])
        with pytest.raises(ValueError, match="that is not an index"):
            system.mask_of(bad)
    # a numpy integer is an index
    listed = tuple(np.int64(v) for v in system.contexts[0])
    assert ContextSystem.of(peres, [listed]).masks == (system.masks[0],)
    assert system.mask_of(listed) == system.masks[0]


def test_canonical_basis_graph_is_complete():
    vset = VectorSet(dim=4, vectors=tuple(tuple(1 if j == i else 0 for j in range(4)) for i in range(4)))
    assert build_orthogonality_graph(vset) == (0b1110, 0b1101, 0b1011, 0b0111)


def test_vector_set_builds_its_graph_once():
    vset = catalog_peres24()
    assert vset.graph is vset.graph
    assert vset.graph == build_orthogonality_graph(vset)


def test_orthogonality_graph_edge_counts():
    ceg, _ = catalog_ceg18()
    for vset, count in ((ceg, 63), (catalog_peres24(), 108), (catalog_conway_kochen31(), 71)):
        assert len(naive_edges(vset)) == count
        assert sum(mask.bit_count() for mask in build_orthogonality_graph(vset)) == 2 * count


def test_context_counts():
    ceg, _ = catalog_ceg18()
    assert len(enumerate_contexts(ceg)) == 9
    assert len(enumerate_contexts(catalog_peres24())) == 24
    assert len(enumerate_contexts(catalog_conway_kochen31())) == 17


def test_enumerated_contexts_match_curated_tetrads():
    ceg, tetrads = catalog_ceg18()
    assert sorted(enumerate_contexts(ceg)) == sorted(tetrads)
    assert tuple(tetrads) == CEG18_TETRADS


def test_contexts_agree_with_networkx_cliques():
    for vset in (
        catalog_ceg18()[0],
        catalog_peres24(),
        catalog_conway_kochen31(),
        merged_peres(5),
        merged_peres(6),
        merged_peres(10),
    ):
        g = nx.Graph()
        g.add_nodes_from(range(vset.n))
        g.add_edges_from(naive_edges(vset))
        cliques = {
            tuple(sorted(c)) for c in nx.find_cliques(g) if len(c) == vset.dim
        }
        # same cliques, each once, in lexicographic order
        assert enumerate_contexts(vset) == sorted(cliques)


def _networkx_contexts(vset):
    g = nx.Graph()
    g.add_nodes_from(range(vset.n))
    g.add_edges_from(naive_edges(vset))
    return sorted(tuple(sorted(c)) for c in nx.find_cliques(g) if len(c) == vset.dim)


# e0, e1 and two more orthogonal pairs in the plane, and (3, 1) orthogonal to none
DIM2 = VectorSet(dim=2, vectors=((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, -1), (3, 1)))


def test_contexts_agree_with_networkx_cliques_on_larger_and_planar_sets():
    # merged7 and merged8 list edges at clique size 5 and 6; in dimension 2
    # that level is the root, where every edge is a context
    for vset in (merged_peres(7), merged_peres(8), DIM2):
        assert enumerate_contexts(vset) == _networkx_contexts(vset)
    assert enumerate_contexts(DIM2) == [(0, 1), (2, 3), (4, 5)]


def _permuted(vset, seed):
    # the vertices relabelled by a seeded shuffle, as the benchmark draws its
    # documents; new_of[old index] = new index
    order = list(range(vset.n))
    random.Random(seed).shuffle(order)
    new_of = [0] * vset.n
    for new, old in enumerate(order):
        new_of[old] = new
    return VectorSet(dim=vset.dim, vectors=tuple(vset.vectors[old] for old in order)), new_of


def test_contexts_agree_with_networkx_cliques_under_relabelling():
    # the listing runs in the order of the primitive rays, whatever order
    # the set gives its vertices
    ck31_completed = complete_set(catalog_conway_kochen31())
    for vset in (merged_peres(7), merged_peres(8), merged_peres(10), ck31_completed, DIM2):
        contexts = enumerate_contexts(vset)
        for seed in (1, 7):
            relabelled, new_of = _permuted(vset, seed)
            expected = sorted(tuple(sorted(new_of[v] for v in ctx)) for ctx in contexts)
            assert enumerate_contexts(relabelled) == expected
            assert expected == _networkx_contexts(relabelled)


def test_fewer_rays_than_the_dimension_give_no_contexts():
    for vset in (
        VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0))),
        VectorSet(dim=4, vectors=((1, 0, 0, 0),)),
        VectorSet(dim=5, vectors=()),
    ):
        assert enumerate_contexts(vset) == []


def test_maximal_cliques_smaller_than_d_are_not_contexts():
    # {0, 1, 2} is the one triad; {0, 3} is a maximal clique of size 2, and
    # (0, 1, 1) spans no edge with (0, 1, 0) or (0, 0, 1)
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)))
    assert enumerate_contexts(vset) == [(0, 1, 2)]


def test_search_matches_the_rescan_oracle_on_random_context_subsets():
    rng = random.Random(2024)
    verdicts = set()
    for vset in (
        catalog_ceg18()[0],
        catalog_peres24(),
        catalog_conway_kochen31(),
        merged_peres(6),
    ):
        contexts = enumerate_contexts(vset)
        for _ in range(50):
            k = rng.randint(1, len(contexts))
            # a shuffled subset, each context's members shuffled too: the
            # search must branch on sorted contexts and on members as given
            subset = [tuple(rng.sample(ctx, len(ctx))) for ctx in rng.sample(contexts, k)]
            system = ContextSystem.of(vset, subset)
            for only in (False, True):
                decision = check_ks_property(system, edges_from_contexts_only=only)
                expected = naive_ks_search(vset, subset, only)
                assert (decision.verdict, decision.nodes, decision.witness) == expected
                verdicts.add(decision.verdict)
    assert verdicts == {"colorable", "uncolorable"}


def _oracle_checked_verdicts(vset, contexts):
    """The verdicts under both readings of condition (i), each search checked
    against the rescan oracle: verdict, node count and witness."""
    verdicts = []
    system = ContextSystem.of(vset, contexts)
    for only in (False, True):
        decision = check_ks_property(system, edges_from_contexts_only=only)
        expected = naive_ks_search(vset, contexts, only)
        assert (decision.verdict, decision.nodes, decision.witness) == expected
        verdicts.append(decision.verdict)
    return tuple(verdicts)


UNCOLORABLE = ("uncolorable", "uncolorable")
COLORABLE = ("colorable", "colorable")


def test_search_matches_the_rescan_oracle_on_full_merged_sets():
    # hundreds to thousands of contexts: the per-context masks span many
    # machine words, and at d = 8 = 0b1000 a first 0 borrows through every
    # bit of each count
    for d in (7, 8, 10):
        vset = merged_peres(d)
        assert _oracle_checked_verdicts(vset, enumerate_contexts(vset)) == UNCOLORABLE
    merged10 = merged_peres(10)
    contexts = enumerate_contexts(merged10)
    assert _oracle_checked_verdicts(merged10, contexts[:3088]) == COLORABLE
    assert _oracle_checked_verdicts(merged10, contexts[-1000:]) == COLORABLE


def test_search_matches_the_rescan_oracle_on_edge_cases():
    # dimension 2, where every context is one edge
    assert _oracle_checked_verdicts(DIM2, enumerate_contexts(DIM2)) == COLORABLE
    # a context listed twice, in a refuted and in a colorable family
    ceg, tetrads = catalog_ceg18()
    assert _oracle_checked_verdicts(ceg, tetrads + tetrads[:1]) == UNCOLORABLE
    peres = catalog_peres24()
    contexts = enumerate_contexts(peres)
    assert _oracle_checked_verdicts(peres, contexts[:11] + contexts[3:5]) == COLORABLE
    # vertices in no context: (3, 1) in the plane, and ck31's rays outside
    # its first five triads
    assert _oracle_checked_verdicts(DIM2, [(4, 5), (0, 1)]) == COLORABLE
    ck = catalog_conway_kochen31()
    assert _oracle_checked_verdicts(ck, enumerate_contexts(ck)[:5]) == COLORABLE


def test_check_ks_property_requires_contexts():
    vset = VectorSet(dim=2, vectors=((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        check_ks_property(ContextSystem.of(vset, []))


def test_check_ks_property_rejects_nonorthogonal_context():
    vset = VectorSet(dim=2, vectors=((1, 0), (1, 1)))
    with pytest.raises(ValueError, match="not an orthogonal basis"):
        check_ks_property(ContextSystem.of(vset, [(0, 1)]))
    # wrong size, a repeated member, and members outside the set: -2 would
    # alias vertex 0
    canonical = VectorSet(dim=2, vectors=((1, 0), (0, 1)))
    for ctx, reason in (
        ((1,), "distinct members"),
        ((0, 1, 0), "distinct members"),
        ((0, 0), "distinct members"),
        ((0, 2), r"outside \[0, 2\)"),
        ((2, 0), r"outside \[0, 2\)"),
        ((-1, 0), r"outside \[0, 2\)"),
        ((1, -2), r"outside \[0, 2\)"),
    ):
        with pytest.raises(ValueError, match=reason):
            check_ks_property(ContextSystem.of(canonical, [(0, 1), ctx]))


def test_colorable_witness_is_checked_without_assert(monkeypatch):
    # the certificate check must survive python -O, which strips asserts
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    system = ContextSystem.of(vset, [(0, 1, 2)])
    assert check_ks_property(system).verdict == "colorable"
    monkeypatch.setattr("kspt.ks_sets.validate_assignment", lambda *args, **kw: False)
    with pytest.raises(RuntimeError, match="fails conditions"):
        check_ks_property(system)


def test_catalogs_are_uncolorable():
    ceg, tetrads = catalog_ceg18()
    assert check_ks_property(ContextSystem.of(ceg, tetrads)).uncolorable
    assert check_ks_property(ContextSystem.of(catalog_peres24())).uncolorable
    assert check_ks_property(ContextSystem.of(catalog_conway_kochen31())).uncolorable


def test_context_edges_only_reading_of_condition_i():
    # The parity argument for the 18-ray set needs only exactly-one-per-context,
    # so the relaxed reading stays uncolorable; the 24-ray set is complete, so
    # both readings see the same edges.
    ceg, tetrads = catalog_ceg18()
    assert check_ks_property(ContextSystem.of(ceg, tetrads), edges_from_contexts_only=True).uncolorable
    peres = ContextSystem.of(catalog_peres24())
    assert check_ks_property(peres, edges_from_contexts_only=True).uncolorable
    # The 31-ray set is incomplete: orthogonal pairs outside every triad carry
    # its uncolorability, so dropping them admits a coloring.  The witness must
    # then violate the full-graph reading on exactly such a pair.
    ck = ContextSystem.of(catalog_conway_kochen31())
    decision = check_ks_property(ck, edges_from_contexts_only=True)
    assert decision.verdict == "colorable"
    assert validate_assignment(ck, decision.witness, edges_from_contexts_only=True)
    assert not validate_assignment(ck, decision.witness, edges_from_contexts_only=False)


def test_canonical_basis_is_colorable_with_valid_witness():
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    system = ContextSystem.of(vset)
    decision = check_ks_property(system)
    assert decision.verdict == "colorable"
    assert decision.witness is not None
    assert sum(decision.witness) == 1
    assert validate_assignment(system, decision.witness)


def test_check_context_returns_the_member_mask():
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)))
    assert check_context(vset, (2, 0, 1)) == 0b111
    peres = catalog_peres24()
    for ctx in enumerate_contexts(peres):
        assert check_context(peres, ctx) == sum(1 << v for v in ctx)


def test_check_context_reads_the_graph_and_the_pairs_alike():
    # check_context reads the adjacency masks once the set's graph is built,
    # else the member ray pairs; verdict, message and mask must not depend on it
    vectors = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, -1))
    fresh, built = VectorSet(dim=3, vectors=vectors), VectorSet(dim=3, vectors=vectors)
    built.graph
    candidates = [*itertools.permutations(range(5), 3), (0, 1), (0, 0, 1), (0, 1, 5), (-1, 3, 4)]
    outcomes = []
    for ctx in candidates:
        verdicts = []
        for vset in (fresh, built):
            try:
                verdicts.append(check_context(vset, ctx))
            except ValueError as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1]
        outcomes.append(verdicts[0])
    # the two bases in every order are accepted, and each refusal is met
    assert outcomes.count(0b111) == outcomes.count(0b11001) == 6
    for reason in ("not an orthogonal basis", "distinct members", "outside [0, 5)"):
        assert any(reason in str(v) for v in outcomes)
    assert "graph" not in vars(fresh)  # so the fresh set was read pair by pair


def test_context_system_is_made_by_of_and_derives_its_masks():
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, -1)))
    with pytest.raises(TypeError):
        ContextSystem(vset, ((0, 1, 2),))
    for system in (ContextSystem.of(vset), ContextSystem.of(vset, [(2, 1, 0), (0, 4, 3)])):
        assert system.masks == tuple(sum(1 << v for v in ctx) for ctx in system.contexts)
    assert ContextSystem.of(vset).contexts == ((0, 1, 2), (0, 3, 4))


def test_context_system_keeps_its_neighbour_masks():
    # neighbours[v]: the other vertices sharing a context with v, built once
    # and read by both the search and its witness check
    ck = ContextSystem.of(catalog_conway_kochen31())
    want = [0] * ck.vset.n
    for ctx in ck.contexts:
        for u, v in itertools.permutations(ctx, 2):
            want[u] |= 1 << v
    assert check_ks_property(ck, edges_from_contexts_only=True).verdict == "colorable"
    assert vars(ck)["neighbours"] == tuple(want)


def test_list_contexts_store_and_decide_like_tuples():
    ceg, tetrads = catalog_ceg18()
    system = ContextSystem.of(ceg, tetrads)
    mixed = ContextSystem.of(ceg, [list(tetrads[0]), *tetrads[1:]])
    assert mixed == system and all(type(ctx) is tuple for ctx in mixed.contexts)
    for relaxed in (False, True):
        assert check_ks_property(mixed, relaxed) == check_ks_property(system, relaxed)


def test_list_built_vector_set_equals_and_hashes_like_tuples():
    listed = VectorSet(2, [[1, 0], [0, 1]], ["a", "b"])
    built = VectorSet(2, ((1, 0), (0, 1)), ("a", "b"))
    assert listed == built and hash(listed) == hash(built)
    assert listed.vectors == ((1, 0), (0, 1)) and listed.labels == ("a", "b")


def _numpy(ctx):
    return tuple(np.int64(v) for v in ctx)


def test_mask_of_reads_numpy_members_past_63_as_ints():
    # 1 << np.int64(64) is 0, so a numpy context with a member >= 64 found no mask
    system = ContextSystem.of(merged_peres(7))
    ctx = next(c for c in system.contexts if max(c) >= 64)
    assert system.mask_of(ctx) is not None
    assert system.mask_of(_numpy(ctx)) == system.mask_of(ctx)


def test_a_built_graph_checks_numpy_members_past_63():
    # read off the graph, mask & ~adj[v] overflowed on np.int64 members >= 64
    vset = merged_peres(10)
    vset.graph
    ctx = next(c for c in enumerate_contexts(vset) if max(c) >= 64)
    system = ContextSystem.of(vset, [_numpy(ctx)])
    assert system.contexts == (ctx,)
    assert all(type(v) is int for v in system.contexts[0])


def test_a_numpy_dim_is_stored_as_an_int():
    # a numpy dim used to reach the search, which called d.bit_length()
    vset = VectorSet(np.int64(3), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert check_ks_property(ContextSystem.of(vset)).witness == (1, 0, 0)
    assert type(vset.dim) is int


def test_numpy_members_give_an_int_witness():
    vset = VectorSet(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    witness = check_ks_property(ContextSystem.of(vset, [_numpy((0, 1, 2))])).witness
    assert witness == (1, 0, 0)
    assert all(type(b) is int for b in witness)


def test_numpy_entries_and_members_serialise():
    canonical = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    vset = VectorSet(np.int64(3), tuple(map(_numpy, canonical)))
    system = ContextSystem.of(vset, [_numpy((2, 0, 1))])
    doc = json.loads(json.dumps(to_json_dict(vset, system.contexts)))
    assert doc == {"dim": 3, "vectors": [list(v) for v in canonical], "contexts": [[2, 0, 1]]}
    assert all(type(x) is int for v in vset.vectors for x in v)


def test_index_of_refuses_an_inexact_entry():
    vset = catalog_peres24()
    for entry in (0.5, "a", True):
        with pytest.raises(ValueError, match="that is not an exact rational"):
            vset.index_of((entry, 0, 0, 0))


def test_a_rescaled_set_agrees_wherever_scale_is_not_printed(capsys, tmp_path):
    ck = catalog_conway_kochen31()
    scaled = [tuple(-3 * x for x in v) if i % 3 == 0 else v for i, v in enumerate(ck.vectors)]
    copy = VectorSet(3, [tuple(Fraction(x, 2) for x in v) if i == 1 else v
                         for i, v in enumerate(scaled)], ck.labels)
    assert copy.vectors != ck.vectors and copy.rays == ck.rays
    # one index for the negated, scaled and Fraction spellings of a ray
    spellings = ((0, 1, 1), (0, -1, -1), (0, 7, 7), (0, Fraction(1, 3), Fraction(1, 3)))
    assert {copy.index_of(v) for v in spellings} == {4}
    assert copy.index_of((1, 2, 3)) is None
    assert copy.graph == ck.graph
    system, copied = ContextSystem.of(ck), ContextSystem.of(copy)
    assert copied.contexts == system.contexts
    assert check_ks_property(copied) == check_ks_property(system)
    assert classical_value_report(copied) == classical_value_report(system)
    corrupted = dict(build_supersinglet(3).terms)
    corrupted[(0, 1, 2)] = 2
    for state in (None, SupersingletState(3, corrupted)):
        assert verify_perfect_strategy(copied, state) == verify_perfect_strategy(system, state)
    rows, copied_rows = assemble_and_solve(system), assemble_and_solve(copied)
    assert (copied_rows.rows, copied_rows.rank) == (rows.rows, rows.rank)
    # state expand prints the given vectors' scale: the integer copy's, not the rays'
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(to_json_dict(VectorSet(3, scaled))), encoding="utf-8")
    x = next(x for x, ctx in enumerate(system.contexts) if 0 in ctx)
    scales = []
    for argv in (["--set", str(path)], ["--builtin", "ck31"]):
        assert run(["state", "expand", *argv, "--context", str(x)]) == 0
        scales.append({t["scale"] for t in json.loads(capsys.readouterr().out)["results"]["terms"]})
    assert scales == [{"54/1"}, {"6/1"}]  # 3! * |(-3, 0, 0)|^2 and 3!


def test_mask_of_refuses_a_member_past_the_set_before_shifting():
    # 1 << 10**8 would take 12.5 MB; a member outside [0, n) matches no context
    system = ContextSystem.of(catalog_conway_kochen31())
    tracemalloc.start()
    try:
        assert system.mask_of((0, 1, 10**8)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert system.mask_of((0, 1, 31)) is None
    assert system.mask_of((0, 1, -1)) is None
    assert system.mask_of(system.contexts[0][::-1]) == system.masks[0]


def test_validate_assignment_rejects_bad_inputs():
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    system = ContextSystem.of(vset, [(0, 1, 2)])
    assert validate_assignment(system, (1, 0, 0))
    # two orthogonal 1s
    assert not validate_assignment(system, (1, 1, 0))
    # context sums to zero
    assert not validate_assignment(system, (0, 0, 0))
    # wrong length and non-binary entries
    assert not validate_assignment(system, (1, 0))
    assert not validate_assignment(system, (2, 0, 0))
    # a context that is not a basis of the set: -3 would alias vertex 0
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        validate_assignment(ContextSystem.of(vset, [(-3, 1, 2)]), (1, 0, 0))


def test_edges_from_contexts_only_relaxes_condition_i():
    # e0, e1, e2 plus a fourth ray orthogonal to e0 only; the lone edge
    # (0, 3) sits in no 3-clique, so the contexts-only reading permits
    # assignments the full-graph reading forbids.
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)))
    system = ContextSystem.of(vset, [(0, 1, 2)])
    assignment = (1, 0, 0, 1)
    assert validate_assignment(system, assignment, edges_from_contexts_only=True)
    assert not validate_assignment(system, assignment, edges_from_contexts_only=False)


def test_parity_certificate_applies_to_even_membership_sets():
    ceg, tetrads = catalog_ceg18()
    assert parity_certificate(ceg, tetrads)
    peres = catalog_peres24()
    assert not parity_certificate(peres, enumerate_contexts(peres))


def test_completeness_goldens():
    ceg, _ = catalog_ceg18()
    complete, uncovered = check_completeness(ceg)
    assert not complete
    assert len(uncovered) == 9
    assert check_completeness(catalog_peres24()) == (True, [])
    ck_complete, ck_uncovered = check_completeness(catalog_conway_kochen31())
    assert not ck_complete
    assert len(ck_uncovered) == 20


def test_completeness_matches_the_naive_oracle_in_order():
    # the order of the uncovered pairs is the order in which ks complete adds
    # rays, so the list itself is compared, not only its length
    ck31, ceg18 = catalog_conway_kochen31(), catalog_ceg18()[0]
    sets = [ceg18, ck31, catalog_peres24(), merged_peres(5), merged_peres(6)]
    sets += [_permuted(vset, seed)[0] for vset in (ck31, ceg18) for seed in (1, 7)]
    for vset in sets:
        uncovered = naive_uncovered(vset, _networkx_contexts(vset))
        assert check_completeness(vset) == (not uncovered, uncovered)


def test_complete_set_grows_the_graph_of_a_fresh_build():
    for vset in (catalog_ceg18()[0], catalog_conway_kochen31()):
        completed = complete_set(vset)
        assert completed.graph == build_orthogonality_graph(completed)
        assert enumerate_contexts(completed) == _networkx_contexts(completed)


def test_complete_set_is_identity_on_complete_sets():
    peres = catalog_peres24()
    assert complete_set(peres).vectors == peres.vectors


def test_complete_set_adds_missing_partners():
    vset = VectorSet(dim=4, vectors=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)))
    completed = complete_set(vset)
    assert completed.vectors[: vset.n] == vset.vectors
    assert (0, 0, 1, -1) in completed.vectors
    assert check_completeness(completed)[0]


def test_complete_set_keeps_labels_and_names_added_rays_in_order():
    assert complete_set(VectorSet(dim=3, vectors=(), labels=())).labels == ()
    ck31 = catalog_conway_kochen31()
    completed = complete_set(ck31)
    assert completed.labels == ck31.labels + tuple(f"c{k}" for k in range(completed.n - ck31.n))


def test_complete_set_closure_of_ceg18():
    ceg, _ = catalog_ceg18()
    completed = complete_set(ceg)
    assert completed.vectors[: ceg.n] == ceg.vectors
    assert completed.n == 44
    assert check_completeness(completed)[0]


def test_json_round_trip():
    ceg, tetrads = catalog_ceg18()
    doc = to_json_dict(ceg, tetrads)
    text = json.dumps(doc)
    vset, contexts = from_json_dict(json.loads(text))
    assert vset == ceg
    assert contexts == tetrads


def test_json_round_trip_without_contexts_or_labels():
    vset = VectorSet(dim=2, vectors=((1, 0), (0, 1)))
    doc = to_json_dict(vset)
    assert "labels" not in doc and "contexts" not in doc
    back, contexts = from_json_dict(doc)
    assert back == vset
    assert contexts is None


def test_from_json_dict_rejects_malformed_documents():
    with pytest.raises(ValueError):
        from_json_dict({"vectors": [[1, 0]]})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "vectors": [["a", "b"]]})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "vectors": [[1, 0], [0, 1]], "contexts": [[0]]})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "vectors": [[1, 0], [0, 1]], "contexts": [[0, 5]]})
    # only JSON integers: int() would read 0.5 and 1.9 as 0 and 1, "1" as 1
    with pytest.raises(ValueError):
        from_json_dict({"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0.5, 1.9]]})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2.0, "vectors": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "vectors": [[1, 0], [0, True]]})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "vectors": [[1, 0], [0, "1"]]})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "vectors": [[1, 0], [0, 1]], "contexts": [[0, 1.0]]})
    # a context or label list of the wrong shape
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "vectors": [[1, 0], [0, 1]], "contexts": [5]})
    # a listed context must be an orthogonal basis: (1, 1, 0) is not orthogonal to e1
    with pytest.raises(ValueError):
        from_json_dict({
            "dim": 3,
            "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
            "contexts": [[0, 1, 3]],
        })
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "vectors": [[1, 0], [0, 1]], "labels": 5})
    # labels are a list of strings: "ab" is not ["a", "b"], null is not "None"
    for labels in ("ab", [1, None], ["a", 2], {"a": 1}):
        with pytest.raises(ValueError, match="malformed"):
            from_json_dict({"dim": 2, "vectors": [[1, 0], [0, 1]], "labels": labels})


def test_load_builtin_names_and_merged_family():
    vset, contexts = load_builtin("ceg18")
    assert contexts is not None and len(contexts) == 9
    vset, contexts = load_builtin("peres24")
    assert vset.n == 24 and contexts is None
    assert load_builtin("merged5")[0].n == 39
    for name in ("merged", "merged0", "unknown", "merged05", "merged+5", "merged 5", "merged\u0665"):
        with pytest.raises(ValueError, match="unknown builtin set"):
            load_builtin(name)


def test_merged_family_shapes():
    with pytest.raises(ValueError):
        merged_peres(3)
    m4 = merged_peres(4)
    assert m4.n == 24
    m5 = merged_peres(5)
    assert m5.n == 39
    assert merged_peres(6).n == 54
    # every merged set contains the full canonical basis
    for d, vset in ((4, m4), (5, m5)):
        for t in range(d):
            assert tuple(1 if j == t else 0 for j in range(d)) in vset.vectors


def test_merged_window_bases_are_orthogonal_bases():
    for d in (4, 5, 6):
        vset = merged_peres(d)
        bases = merged_window_bases(d)
        assert len(bases) == 2 * (d - 3)
        edges = naive_edges(vset)
        for ctx in bases:
            assert len(set(ctx)) == d
            for i, j in itertools.combinations(sorted(ctx), 2):
                assert (i, j) in edges


def test_every_context_is_mutually_orthogonal():
    for vset, contexts in (
        catalog_ceg18(),
        (catalog_peres24(), enumerate_contexts(catalog_peres24())),
        (catalog_conway_kochen31(), enumerate_contexts(catalog_conway_kochen31())),
    ):
        edges = naive_edges(vset)
        for ctx in contexts:
            for i, j in itertools.combinations(sorted(ctx), 2):
                assert (i, j) in edges


def _cycles_left_by(call) -> int:
    """Objects only the cyclic collector frees after call(), gc disabled around it."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_recursive_searches_leave_no_reference_cycles():
    # no search holds itself through a closure: once the call returns, its
    # state must go with plain reference counting
    vset = merged_peres(8)
    system = ContextSystem.of(vset)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert _cycles_left_by(lambda: check_ks_property(system)) == 0
    assert _cycles_left_by(lambda: enumerate_contexts(vset)) == 0
    assert _cycles_left_by(lambda: _multiset_expansion(basis)) == 0
    assert _cycles_left_by(lambda: general_d_selftest(4)) == 0


def test_search_deeper_than_the_recursion_limit():
    # the search keeps its own stack, so branching on more contexts than
    # Python's recursion limit is only a matter of nodes.  The contexts are
    # disjoint d = 2 pairs (1, k), (k, -1): the first member of each takes
    # the 1 and closes it, one node per context
    m = sys.getrecursionlimit() + 100
    vset = VectorSet(dim=2, vectors=tuple(r for k in range(1, m + 1) for r in ((1, k), (k, -1))))
    contexts = [(2 * i, 2 * i + 1) for i in range(m)]
    system = ContextSystem.of(vset, contexts)
    for only in (False, True):
        decision = check_ks_property(system, edges_from_contexts_only=only)
        assert decision.verdict == "colorable"
        assert decision.nodes == len(contexts)
        assert validate_assignment(system, decision.witness, edges_from_contexts_only=only)
