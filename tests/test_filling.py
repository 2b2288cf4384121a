import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stochcover.errors import ParameterError, StructuralError
from stochcover.filling import (
    SATURATION_TOL,
    filling,
    filling_on_mask,
    general_vc_cover,
    general_vc_plan,
    truncate_at,
)
from stochcover.graphs import Graph


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=14)) if possible else []
    return Graph(n, tuple(edges))


def test_triangle_fills_to_halves(triangle):
    run = filling(triangle)
    assert np.allclose(run.assignment.values, 0.5)
    assert run.saturated.all()
    assert np.allclose(run.death, 0.5)


def test_star_center_saturates_alone():
    g = Graph(4, ((0, 1), (0, 2), (0, 3)))
    run = filling(g)
    assert np.allclose(run.assignment.values, 1.0 / 3.0)
    assert run.saturated.tolist() == [True, False, False, False]
    # leaves never saturate; their death time records the end of the run
    assert np.allclose(run.death[1:], run.elapsed)


def test_path_two_edges():
    g = Graph(3, ((0, 1), (1, 2)))
    run = filling(g)
    assert np.allclose(run.assignment.values, 0.5)
    assert run.saturated.tolist() == [False, True, False]


def test_zero_budget_vertices_die_immediately():
    g = Graph(2, ((0, 1),))
    run = filling(g, np.array([0.0, 1.0]))
    assert run.death[0] == 0.0
    assert run.saturated[0]
    assert run.assignment.values[0] == 0.0


def test_budget_validation():
    g = Graph(2, ((0, 1),))
    with pytest.raises(ParameterError):
        filling(g, 1.5)
    with pytest.raises(ParameterError):
        filling(g, np.array([-0.1, 0.5]))


@given(small_graphs(), st.floats(0.05, 1.0))
def test_assignment_is_always_feasible(g, budget):
    run = filling(g, budget)
    sums = run.assignment.vertex_sums()
    assert (sums <= budget + 10 * SATURATION_TOL).all()
    assert (run.assignment.values >= 0).all()


@given(small_graphs())
def test_every_edge_has_a_saturated_endpoint(g):
    run = filling(g)
    for u, v in g.edges:
        assert run.saturated[u] or run.saturated[v]


def test_truncate_caps_values(triangle):
    run = filling(triangle)
    capped = truncate_at(run, 0.2)
    assert np.allclose(capped.values, 0.2)
    full = truncate_at(run, 2.0)
    assert np.allclose(full.values, 0.5)


def test_masked_filling_ignores_missing_edges():
    g = Graph(3, ((0, 1), (1, 2)))
    run = filling_on_mask(g, np.array([True, False]), np.ones(3))
    assert run.assignment.values[1] == 0.0
    assert run.assignment.values[0] == 1.0


def test_general_plan_shapes_and_cover():
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    plan = general_vc_plan(g, epsilon=0.5, p=0.5)
    assert plan.t == (1 / 64) * 0.125 * 0.5
    # tiny t: nobody commits, every edge queried
    assert plan.queried.all()
    answers = np.array([True, False, True, False])
    cover = general_vc_cover(plan, answers)
    for e, realized in enumerate(answers):
        if realized:
            u, v = g.edges[e]
            assert cover[u] or cover[v]


def test_general_plan_covers_unqueried_edges_always():
    # force a large t so some vertices commit and some edges go unqueried
    g = Graph(4, ((0, 1), (0, 2), (0, 3)))
    plan = general_vc_plan(g, epsilon=0.5, p=0.5, t=1.0)
    assert plan.committed.any()
    unqueried = ~plan.queried
    cover = general_vc_cover(plan, np.zeros(int(plan.queried.sum()), dtype=bool))
    for e in np.nonzero(unqueried)[0]:
        u, v = g.edges[e]
        assert cover[u] or cover[v]


def test_general_cover_rejects_wrong_answer_length():
    g = Graph(2, ((0, 1),))
    plan = general_vc_plan(g, 0.5, 0.5)
    with pytest.raises(StructuralError):
        general_vc_cover(plan, np.array([True, False]))


@given(small_graphs(), st.floats(0.01, 0.3))
def test_queried_degree_bounded(g, t):
    plan = general_vc_plan(g, epsilon=1.0, p=1.0, t=t)
    if g.m:
        qdeg = g.degree_of_mask(plan.queried).max()
        assert qdeg <= math.ceil(1.0 / t)


def test_parameter_validation():
    g = Graph(2, ((0, 1),))
    with pytest.raises(ParameterError):
        general_vc_plan(g, 0.0, 0.5)
    with pytest.raises(ParameterError):
        general_vc_plan(g, 0.5, 0.0)
