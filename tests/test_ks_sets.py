import itertools
import json
import random

import networkx as nx
import pytest

from kspt.catalog import (
    CEG18_TETRADS,
    catalog_ceg18,
    catalog_conway_kochen31,
    catalog_peres24,
    load_builtin,
    load_fixture,
    merged_peres,
    merged_window_bases,
)
from kspt.ks_sets import (
    VectorSet,
    build_orthogonality_graph,
    check_completeness,
    check_ks_property,
    complete_set,
    enumerate_contexts,
    from_json_dict,
    parity_certificate,
    to_json_dict,
    validate_assignment,
)

from naive import naive_ks_search


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


def test_vector_set_labels_default():
    vset = VectorSet(dim=2, vectors=((1, 0), (0, 1)))
    assert vset.label(0) == "v0"
    labeled = VectorSet(dim=2, vectors=((1, 0), (0, 1)), labels=("x", "y"))
    assert labeled.label(1) == "y"


def test_canonical_basis_graph_is_complete():
    vset = VectorSet(dim=4, vectors=tuple(tuple(1 if j == i else 0 for j in range(4)) for i in range(4)))
    graph = build_orthogonality_graph(vset)
    assert graph.edges == frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})
    assert graph.neighbors(0) == frozenset({1, 2, 3})


def test_vector_set_builds_its_graph_once():
    vset = catalog_peres24()
    assert vset.graph is vset.graph
    assert vset.graph == build_orthogonality_graph(vset)


def test_orthogonality_graph_edge_counts():
    ceg, _ = catalog_ceg18()
    assert len(build_orthogonality_graph(ceg).edges) == 63
    assert len(build_orthogonality_graph(catalog_peres24()).edges) == 108
    assert len(build_orthogonality_graph(catalog_conway_kochen31()).edges) == 71


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
        graph = build_orthogonality_graph(vset)
        g = nx.Graph()
        g.add_nodes_from(range(vset.n))
        g.add_edges_from(graph.edges)
        cliques = {
            tuple(sorted(c)) for c in nx.find_cliques(g) if len(c) == vset.dim
        }
        # same cliques, each once, in lexicographic order
        assert enumerate_contexts(vset) == sorted(cliques)


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
            for only in (False, True):
                decision = check_ks_property(vset, subset, edges_from_contexts_only=only)
                expected = naive_ks_search(vset, subset, only)
                assert (decision.verdict, decision.nodes, decision.witness) == expected
                verdicts.add(decision.verdict)
    assert verdicts == {"colorable", "uncolorable"}


def test_check_ks_property_requires_contexts():
    vset = VectorSet(dim=2, vectors=((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        check_ks_property(vset, [])


def test_check_ks_property_rejects_nonorthogonal_context():
    vset = VectorSet(dim=2, vectors=((1, 0), (1, 1)))
    with pytest.raises(ValueError, match="not an orthogonal basis"):
        check_ks_property(vset, [(0, 1)])
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
            check_ks_property(canonical, [(0, 1), ctx])


def test_colorable_witness_is_checked_without_assert(monkeypatch):
    # the certificate check must survive python -O, which strips asserts
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert check_ks_property(vset, [(0, 1, 2)]).verdict == "colorable"
    monkeypatch.setattr("kspt.ks_sets.validate_assignment", lambda *args, **kw: False)
    with pytest.raises(RuntimeError, match="fails conditions"):
        check_ks_property(vset, [(0, 1, 2)])


def test_catalogs_are_uncolorable():
    ceg, tetrads = catalog_ceg18()
    assert check_ks_property(ceg, tetrads).uncolorable
    peres = catalog_peres24()
    assert check_ks_property(peres, enumerate_contexts(peres)).uncolorable
    ck = catalog_conway_kochen31()
    assert check_ks_property(ck, enumerate_contexts(ck)).uncolorable


def test_context_edges_only_reading_of_condition_i():
    # The parity argument for the 18-ray set needs only exactly-one-per-context,
    # so the relaxed reading stays uncolorable; the 24-ray set is complete, so
    # both readings see the same edges.
    ceg, tetrads = catalog_ceg18()
    assert check_ks_property(ceg, tetrads, edges_from_contexts_only=True).uncolorable
    peres = catalog_peres24()
    assert check_ks_property(
        peres, enumerate_contexts(peres), edges_from_contexts_only=True
    ).uncolorable
    # The 31-ray set is incomplete: orthogonal pairs outside every triad carry
    # its uncolorability, so dropping them admits a coloring.  The witness must
    # then violate the full-graph reading on exactly such a pair.
    ck = catalog_conway_kochen31()
    ck_contexts = enumerate_contexts(ck)
    decision = check_ks_property(ck, ck_contexts, edges_from_contexts_only=True)
    assert decision.verdict == "colorable"
    assert validate_assignment(ck, ck_contexts, decision.witness, edges_from_contexts_only=True)
    assert not validate_assignment(ck, ck_contexts, decision.witness, edges_from_contexts_only=False)


def test_canonical_basis_is_colorable_with_valid_witness():
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    contexts = enumerate_contexts(vset)
    decision = check_ks_property(vset, contexts)
    assert decision.verdict == "colorable"
    assert decision.witness is not None
    assert sum(decision.witness) == 1
    assert validate_assignment(vset, contexts, decision.witness)


def test_validate_assignment_rejects_bad_inputs():
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    contexts = [(0, 1, 2)]
    assert validate_assignment(vset, contexts, (1, 0, 0))
    # two orthogonal 1s
    assert not validate_assignment(vset, contexts, (1, 1, 0))
    # context sums to zero
    assert not validate_assignment(vset, contexts, (0, 0, 0))
    # wrong length and non-binary entries
    assert not validate_assignment(vset, contexts, (1, 0))
    assert not validate_assignment(vset, contexts, (2, 0, 0))
    # a context that is not a basis of the set: -3 would alias vertex 0
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        validate_assignment(vset, [(-3, 1, 2)], (1, 0, 0))


def test_edges_from_contexts_only_relaxes_condition_i():
    # e0, e1, e2 plus a fourth ray orthogonal to e0 only; the lone edge
    # (0, 3) sits in no 3-clique, so the contexts-only reading permits
    # assignments the full-graph reading forbids.
    vset = VectorSet(dim=3, vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)))
    contexts = [(0, 1, 2)]
    assignment = (1, 0, 0, 1)
    assert validate_assignment(vset, contexts, assignment, edges_from_contexts_only=True)
    assert not validate_assignment(vset, contexts, assignment, edges_from_contexts_only=False)


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


def test_complete_set_is_identity_on_complete_sets():
    peres = catalog_peres24()
    assert complete_set(peres).vectors == peres.vectors


def test_complete_set_adds_missing_partners():
    vset = VectorSet(dim=4, vectors=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)))
    completed = complete_set(vset)
    assert completed.vectors[: vset.n] == vset.vectors
    assert (0, 0, 1, -1) in completed.vectors
    assert check_completeness(completed)[0]


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


def test_json_fixtures_match_the_source_catalogs():
    ceg, tetrads = catalog_ceg18()
    assert load_fixture("ceg18") == to_json_dict(ceg, tetrads)
    assert load_fixture("peres24") == to_json_dict(catalog_peres24())
    assert load_fixture("conway_kochen31") == to_json_dict(catalog_conway_kochen31())


def test_load_builtin_names_and_merged_family():
    vset, contexts = load_builtin("ceg18")
    assert contexts is not None and len(contexts) == 9
    vset, contexts = load_builtin("peres24")
    assert vset.n == 24 and contexts is None
    with pytest.raises(KeyError):
        load_builtin("merged")
    with pytest.raises(KeyError):
        load_builtin("unknown")


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
        graph = build_orthogonality_graph(vset)
        for ctx in bases:
            assert len(set(ctx)) == d
            for i, j in itertools.combinations(sorted(ctx), 2):
                assert (i, j) in graph.edges


def test_every_context_is_mutually_orthogonal():
    for vset, contexts in (
        catalog_ceg18(),
        (catalog_peres24(), enumerate_contexts(catalog_peres24())),
        (catalog_conway_kochen31(), enumerate_contexts(catalog_conway_kochen31())),
    ):
        graph = build_orthogonality_graph(vset)
        for ctx in contexts:
            for i, j in itertools.combinations(sorted(ctx), 2):
                assert (i, j) in graph.edges
