import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import adjacency, component_labels, degrees
from stochcover import rng
from stochcover.errors import StructuralError
from stochcover.graphs import (
    Graph,
    Realization,
    bipartition,
    format_graph_text,
    parse_graph_text,
    read_graph_text,
    write_graph_text,
)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 10))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=12)) if possible else []
    return Graph(n, tuple(edges))


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(StructuralError):
        Graph(3, ((0, 0),))
    with pytest.raises(StructuralError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(StructuralError):
        Graph(2, ((0, 5),))


def test_adjacency_and_degrees_agree():
    g = Graph(4, ((0, 1), (1, 2), (1, 3)))
    adj = adjacency(g)
    assert [len(adj[v]) for v in range(g.n)] == degrees(g) == [1, 3, 1, 1]
    assert g.incident_edges(1) == (0, 1, 2)
    assert [nbr for nbr, _e in adj[1]] == [0, 2, 3]


@given(small_graphs(), st.integers(0, 3))
def test_incident_edges_and_ids_follow_the_adjacency(g, isolated):
    # the argsorted incidence lists and the per-vertex id tables, against
    # (neighbour, edge) lists built one edge at a time
    g = Graph(g.n + isolated, g.edges)
    for v, row in enumerate(adjacency(g)):
        assert g.incident_edges(v) == tuple(e for _w, e in row)
        assert g.ids_by_neighbour[v] == dict(row)


@given(small_graphs(), st.data())
def test_neighbours_follow_the_masked_edges_in_edge_order(g, data):
    bits = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    masks = [np.ones(g.m, dtype=bool), np.zeros(g.m, dtype=bool), np.array(bits, dtype=bool)]
    for mask in (None, *masks):
        keep = np.ones(g.m, dtype=bool) if mask is None else mask
        expected = [[] for _ in range(g.n)]
        for e, (u, v) in enumerate(g.edges):
            if keep[e]:
                expected[u].append(v)
                expected[v].append(u)
        assert [list(row) for row in g.neighbours(mask)] == expected
    # the lists of all edges are built once and shared
    assert g.neighbours() is g.neighbours()
    assert g.neighbours(np.ones(g.m, dtype=bool)) is g.neighbours()


def test_neighbours_refuse_a_mask_of_the_wrong_length():
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(StructuralError):
        g.neighbours(np.array([True]))


@given(small_graphs(), st.integers(0, 3))
def test_bipartition_numbers_components_by_lowest_vertex(g, isolated):
    # extra vertices with no edge are components of their own
    g = Graph(g.n + isolated, g.edges)
    sides = bipartition(g)
    if sides is None:
        return
    assert sides.component.tolist() == component_labels(g)
    with pytest.raises(ValueError):
        sides.component[0] = 1


@given(small_graphs())
def test_degree_of_mask_full_matches_degrees(g):
    mask = np.ones(g.m, dtype=bool)
    assert g.degree_of_mask(mask).tolist() == degrees(g)


def test_bipartition_even_cycle_and_odd_cycle():
    even = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    sides = bipartition(even)
    assert sides is not None
    assert sides.side[0] == 0
    odd = Graph(3, ((0, 1), (1, 2), (2, 0)))
    assert bipartition(odd) is None
    # an odd cycle in a later component, after an isolated vertex
    assert bipartition(Graph(6, ((0, 1), (3, 4), (4, 5), (5, 3)))) is None
    two = bipartition(Graph(6, ((1, 4), (2, 5), (5, 4))))
    assert two.component.tolist() == [0, 1, 1, 2, 1, 1]


def test_bipartition_is_cached_and_read_only():
    even = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    sides = bipartition(even)
    assert bipartition(even) is sides
    with pytest.raises(ValueError):
        sides.side[0] = 1
    odd = Graph(3, ((0, 1), (1, 2), (2, 0)))
    assert bipartition(odd) is None
    assert bipartition(odd) is None


def test_oriented_endpoints_follow_the_side_contents():
    g = Graph(4, ((0, 1), (2, 1), (2, 3)))
    side = bipartition(g).side
    assert g.oriented_endpoints(side) == ([0, 2, 2], [1, 1, 3])
    flipped = 1 - side
    assert g.oriented_endpoints(flipped) == ([1, 1, 3], [0, 2, 2])
    flipped[:] = side  # same array object, new contents
    assert g.oriented_endpoints(flipped) == ([0, 2, 2], [1, 1, 3])
    # edge (2, 3) has both ends on side 1 here, and (0, 1) both on side 0 below
    for bad in (np.array([0, 1, 1, 1]), np.array([0, 0, 1, 0])):
        with pytest.raises(StructuralError):
            g.oriented_endpoints(bad)


@given(small_graphs())
def test_bipartition_separates_every_edge(g):
    sides = bipartition(g)
    if sides is None:
        return
    for u, v in g.edges:
        assert sides.side[u] != sides.side[v]


def test_realization_bounds():
    g = Graph(2, ((0, 1),))
    with pytest.raises(StructuralError):
        Realization(g, np.ones(2, dtype=bool), 1.0)
    r = Realization(g, rng.bernoulli_mask(0, g.m, 1.0), 1.0)
    assert int(np.count_nonzero(r.mask)) == 1


def test_text_format_round_trip_with_hint_and_comments():
    g = Graph(4, ((0, 2), (1, 3)), bipartite_hint=2)
    text = format_graph_text(g, comments=["hello"])
    back = parse_graph_text(text)
    assert back.n == g.n and back.edges == g.edges
    assert back.bipartite_hint == 2
    assert text.startswith("# hello\n4 2\n")


@given(small_graphs())
def test_text_format_round_trip_property(g):
    back = parse_graph_text(format_graph_text(g))
    assert back.n == g.n
    assert {tuple(sorted(e)) for e in back.edges} == {tuple(sorted(e)) for e in g.edges}


def test_parse_rejects_bad_headers():
    with pytest.raises(StructuralError):
        parse_graph_text("2 1\n")  # promised one edge, gave none
    with pytest.raises(StructuralError):
        parse_graph_text("not a header\n")


def test_file_round_trip(tmp_path):
    g = Graph(3, ((0, 1), (1, 2)))
    path = str(tmp_path / "g.txt")
    write_graph_text(g, path)
    assert read_graph_text(path).edges == g.edges
    buf = io.StringIO(format_graph_text(g))
    assert read_graph_text(buf).edges == g.edges
