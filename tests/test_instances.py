import pytest

from oracles import degrees
from stochcover.errors import ParameterError
from stochcover.graphs import bipartition
from stochcover.instances import (
    FAMILIES,
    from_family,
    gen_clique,
    gen_er,
    gen_er_bipartite,
    gen_layered_counterexample,
    gen_perfect_matching,
    gen_regular_bipartite,
    gen_sdn,
)


def test_sdn_reference_counts():
    d = gen_sdn(3, 5, 6)
    g = d.graph
    assert g.n == 72
    assert g.m == 6 * 3 + 2 * 6 * 5  # 78
    core = d.roles["core"]
    pend = d.roles["pendants"]
    assert len(core) == 12 and len(pend) == 60
    degs = degrees(g)
    assert all(degs[v] == 3 + 5 for v in core)
    assert all(degs[v] == 1 for v in pend)


def test_sdn_complete_core_when_d_equals_n():
    g = gen_sdn(4, 0, 4).graph
    assert g.m == 16
    left_neighbors = {frozenset(g.neighbours()[i]) for i in range(4)}
    assert left_neighbors == {frozenset(range(4, 8))}


def test_sdn_rejects_overlarge_degree():
    with pytest.raises(ParameterError):
        gen_sdn(5, 1, 4)


def test_layered_reference_counts():
    d = gen_layered_counterexample(8, 4)
    g = d.graph
    assert g.n == 8
    assert g.m == 14
    for u in d.roles["matched_u"]:
        assert degrees(g)[u] == 4 // 2 + 1
    assert bipartition(g) is not None


def test_layered_matching_part_is_disjoint():
    d = gen_layered_counterexample(20, 8)
    us = d.roles["matched_u"]
    vs = d.roles["matched_v"]
    assert len(us) == len(vs) == (20 - 8) // 2
    assert not (set(us) & set(vs))


def test_layered_parity_validation():
    with pytest.raises(ParameterError):
        gen_layered_counterexample(9, 4)
    with pytest.raises(ParameterError):
        gen_layered_counterexample(8, 3)


def test_regular_bipartite_degrees():
    g = gen_regular_bipartite(20, 3).graph
    assert set(degrees(g)) == {3}
    with pytest.raises(ParameterError):
        gen_regular_bipartite(10, 6)
    with pytest.raises(ParameterError):
        gen_regular_bipartite(9, 2)


def test_clique_and_perfect_matching():
    assert gen_clique(5).graph.m == 10
    pm = gen_perfect_matching(10).graph
    assert pm.m == 5
    assert set(degrees(pm)) == {1}


def test_er_families_are_seed_deterministic():
    a = gen_er_bipartite(8, 9, 0.3, seed=4).graph
    b = gen_er_bipartite(8, 9, 0.3, seed=4).graph
    c = gen_er_bipartite(8, 9, 0.3, seed=5).graph
    assert a.edges == b.edges
    assert a.edges != c.edges
    x = gen_er(15, 0.2, seed=1).graph
    y = gen_er(15, 0.2, seed=1).graph
    assert x.edges == y.edges
    for u, v in gen_er_bipartite(8, 9, 0.3, seed=4).graph.edges:
        assert (u < 8) != (v < 8)


def test_from_family_dispatch_and_errors():
    d = from_family("clique", {"n": 4}, seed=0)
    assert d.graph.m == 6
    with pytest.raises(ParameterError):
        from_family("nope", {}, seed=0)
    with pytest.raises(ParameterError):
        from_family("clique", {}, seed=0)  # missing n
    assert set(FAMILIES) == {
        "sdn",
        "layered",
        "regular_bipartite",
        "clique",
        "perfect_matching",
        "er_bipartite",
        "er",
    }


def test_descriptor_labels_are_stable():
    d = from_family("sdn", {"d": 2, "s": 2, "cap_n": 4}, seed=1)
    assert d.label() == from_family("sdn", {"d": 2, "s": 2, "cap_n": 4}, seed=1).label()
    assert d.graph.edges == from_family("sdn", {"d": 2, "s": 2, "cap_n": 4}, seed=1).graph.edges
