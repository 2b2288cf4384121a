import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import degrees
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
    assert [len(g.adjacency[v]) for v in range(g.n)] == degrees(g) == [1, 3, 1, 1]
    assert g.incident_edges(1) == (0, 1, 2)
    assert [nbr for nbr, _e in g.adjacency[1]] == [0, 2, 3]


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
