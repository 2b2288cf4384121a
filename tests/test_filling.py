import heapq
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _reference_filling_on_mask,
    reference_general_vc_cover,
    reference_general_vc_plan,
)
from stochcover.errors import ParameterError, StructuralError
from stochcover import filling, rng
from stochcover.evaluator import _TAG_TRIAL
from stochcover.filling import (
    SATURATION_TOL,
    _death_times,
    general_vc_cover,
    general_vc_plan,
    saturated_on_lists,
    saturated_on_mask,
)
from stochcover.graphs import Graph
from stochcover.instances import gen_clique, gen_er, gen_layered_counterexample, gen_regular_bipartite
from stochcover.strategies import StrategyParams, plan_strategy, respond_strategy


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=14)) if possible else []
    return Graph(n, tuple(edges))


def saturated_on_all(g, budgets=1.0):
    """The vertices that the run on all of g's edges saturates."""
    return saturated_on_mask(g, np.ones(g.m, dtype=bool), budgets)


def death_times(g):
    """The plan's sweep run to its end: t = 2 lies above every event time."""
    return _death_times(g, 2.0)


def edge_values(g, death):
    """An edge's value is min(death u, death v)."""
    return np.minimum(death[g.edge_u], death[g.edge_v])


def vertex_sums(g, values):
    sums = np.zeros(g.n, dtype=np.float64)
    np.add.at(sums, g.edge_u, values)
    np.add.at(sums, g.edge_v, values)
    return sums


def test_triangle_fills_to_halves(triangle):
    death = death_times(triangle)
    assert np.allclose(edge_values(triangle, death), 0.5)
    assert np.allclose(death, 0.5)
    assert saturated_on_all(triangle).all()


def test_star_center_saturates_alone():
    g = Graph(4, ((0, 1), (0, 2), (0, 3)))
    death = death_times(g)
    assert np.allclose(edge_values(g, death), 1.0 / 3.0)
    assert saturated_on_all(g).tolist() == [True, False, False, False]
    # leaves never saturate; still alive when the sweep stops, they get death time t
    assert death[1:].tolist() == [2.0, 2.0, 2.0]


def test_path_two_edges():
    g = Graph(3, ((0, 1), (1, 2)))
    assert np.allclose(edge_values(g, death_times(g)), 0.5)
    assert saturated_on_all(g).tolist() == [False, True, False]


def test_zero_budget_vertices_die_immediately():
    # vertex 0 saturates at time 0, so vertex 1's only edge never grows
    g = Graph(2, ((0, 1),))
    assert saturated_on_all(g, np.array([0.0, 1.0])).tolist() == [True, False]


def test_budget_validation():
    g = Graph(2, ((0, 1),))
    with pytest.raises(ParameterError):
        saturated_on_all(g, 1.5)
    with pytest.raises(ParameterError):
        saturated_on_all(g, np.array([-0.1, 0.5]))
    # a NaN is refused wherever it stands, not only when it comes first
    path = Graph(3, ((0, 1), (1, 2)))
    for budgets in ([math.nan, 0.5, 0.5], [0.5, math.nan, 0.5]):
        with pytest.raises(ParameterError):
            saturated_on_all(path, np.array(budgets))


@given(small_graphs(), st.floats(0.05, 2.0))
def test_assignment_is_always_feasible(g, t):
    death = _death_times(g, t)
    values = edge_values(g, death)
    assert (vertex_sums(g, values) <= 1.0 + 10 * SATURATION_TOL).all()
    assert (values >= 0).all() and (death <= t).all()


@given(small_graphs())
def test_every_edge_has_a_saturated_endpoint(g):
    sat = saturated_on_all(g)
    for u, v in g.edges:
        assert sat[u] or sat[v]


def test_masked_filling_ignores_missing_edges():
    g = Graph(3, ((0, 1), (1, 2)))
    mask = np.array([True, False])
    # vertex 2's only edge is missing, so its budget never fills
    assert saturated_on_mask(g, mask, np.ones(3)).tolist() == [True, True, False]
    with pytest.raises(StructuralError):
        saturated_on_mask(g, np.array([True]), 1.0)


def test_plan_caps_edge_values_at_t(triangle):
    # every edge of the triangle fills to 0.5; capped at 0.2 each vertex keeps 0.6
    low = general_vc_plan(triangle, epsilon=0.5, p=0.5, t=0.2)
    assert np.allclose(low.residual_budget, 0.6)
    assert not low.committed.any() and low.queried.all()
    # a cap above 0.5 leaves the values whole: every vertex is committed
    high = general_vc_plan(triangle, epsilon=0.5, p=0.5, t=2.0)
    assert np.allclose(high.residual_budget, 0.0)
    assert high.committed.all() and not high.queried.any()


def test_general_plan_shapes_and_cover():
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    plan = general_vc_plan(g, epsilon=0.5, p=0.5)
    assert plan.t == (1 / 64) * 0.125 * 0.5
    # tiny t: nobody commits, every edge queried
    assert plan.queried.all()
    realized = np.array([True, False, True, False])
    cover = general_vc_cover(g, plan, realized)
    for e, present in enumerate(realized):
        if present:
            u, v = g.edges[e]
            assert cover[u] or cover[v]


def test_general_plan_covers_unqueried_edges_always():
    # force a large t so some vertices commit and some edges go unqueried
    g = Graph(4, ((0, 1), (0, 2), (0, 3)))
    plan = general_vc_plan(g, epsilon=0.5, p=0.5, t=1.0)
    assert plan.committed.any()
    unqueried = ~plan.queried
    cover = general_vc_cover(g, plan, np.zeros(g.m, dtype=bool))
    for e in np.nonzero(unqueried)[0]:
        u, v = g.edges[e]
        assert cover[u] or cover[v]


def test_general_cover_rejects_wrong_answer_length():
    g = Graph(2, ((0, 1),))
    plan = plan_strategy("general_vc", g, StrategyParams(p=0.5))
    with pytest.raises(StructuralError):
        respond_strategy(plan, np.array([True, False]))


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


@st.composite
def er_graphs(draw):
    n = draw(st.integers(2, 14))
    prob = draw(st.floats(0.1, 0.9))
    return gen_er(n, prob, seed=draw(st.integers(0, 10**6))).graph


@given(er_graphs(), st.data())
def test_plan_and_cover_match_the_reference(g, data):
    # None takes the epsilon^3 p / 64 default; an edge value of the uncapped
    # run (every event time is one) puts t exactly on a commit threshold or
    # on an event, or one ulp either side; large floats commit whole
    # regions, and those above 1 let the run end before t.
    whole = reference_general_vc_plan(g, 0.5, 0.5, t=1.0).capped.values
    thresholds = sorted(
        {float(x) for v in whole.tolist() for x in (np.nextafter(v, 0.0), v, np.nextafter(v, 2.0))}
    ) or [1.0]
    t = data.draw(
        st.one_of(
            st.none(), st.floats(1e-3, 1.0), st.floats(1.0, 4.0), st.sampled_from(thresholds)
        )
    )
    overrides = {} if t is None else {"t": t}
    plan = plan_strategy("general_vc", g, StrategyParams(p=0.5, epsilon=0.5, overrides=overrides))
    ours = plan.payload
    ref = reference_general_vc_plan(g, 0.5, 0.5, t=t)
    assert ours.t == ref.t
    assert np.array_equal(ours.queried, ref.queried)
    assert np.array_equal(ours.committed, ref.committed)
    assert ours.residual_budget.tobytes() == ref.residual_budget.tobytes()
    q = int(ref.queried.sum())
    answers = np.array(data.draw(st.lists(st.booleans(), min_size=q, max_size=q)), dtype=bool)
    cover = respond_strategy(plan, answers).cover
    assert np.array_equal(cover, reference_general_vc_cover(ref, answers))


def test_plan_matches_the_reference_where_vertices_die_before_t():
    # the core vertices of layered(4400,40) have degree 2,200, above 1/t =
    # 2,048 at the default t, so they die before the plan's sweep stops
    g = gen_layered_counterexample(4400, 40, seed=1).graph
    plan = general_vc_plan(g, 0.5, 0.25)
    ref = reference_general_vc_plan(g, 0.5, 0.25)
    assert np.array_equal(plan.committed, ref.committed)
    assert np.array_equal(plan.queried, ref.queried)
    assert plan.residual_budget.tobytes() == ref.residual_budget.tobytes()
    assert int(plan.committed.sum()) == 40 and int(plan.queried.sum()) == 2180


@st.composite
def filling_cases(draw):
    """A graph, an edge mask and budgets for both sweeps.

    Either an er graph with per-vertex budgets (levels including 0, uniform
    floats, or a general_vc plan's residual budgets), or a clique or
    regular bipartite graph with one budget, where whole classes of
    vertices die in the same event.
    """
    if draw(st.booleans()):
        g = draw(er_graphs())
        if draw(st.booleans()):
            t = draw(st.floats(1e-3, 1.0))
            budgets = general_vc_plan(g, 0.5, 0.5, t=t).residual_budget
        else:
            level = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
            budgets = np.array(draw(st.lists(level, min_size=g.n, max_size=g.n)))
    else:
        g = draw(
            st.one_of(
                st.builds(lambda k: gen_clique(k).graph, st.integers(2, 11)),
                st.integers(1, 8).flatmap(
                    lambda half: st.builds(
                        lambda d: gen_regular_bipartite(2 * half, d).graph, st.integers(1, half)
                    )
                ),
            )
        )
        budgets = draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        mask = np.ones(g.m, dtype=bool)
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)), dtype=bool)
    return g, mask, budgets


@given(filling_cases())
@settings(max_examples=200)
def test_heap_sweep_saturates_the_same_vertices(case):
    g, mask, budgets = case
    reference = _reference_filling_on_mask(g, mask, budgets).saturated
    assert np.array_equal(saturated_on_mask(g, mask, budgets), reference)


def test_heap_sweep_on_plan_budgets_at_scale():
    # the residual budgets of a plan are equal on vertices of equal degree,
    # so many vertices tie
    g = gen_layered_counterexample(400, 40, seed=1).graph
    budgets = general_vc_plan(g, 0.5, 0.25).residual_budget
    for k in range(20):
        mask = rng.bernoulli_mask(k, g.m, 0.25)
        reference = _reference_filling_on_mask(g, mask, budgets).saturated
        assert np.array_equal(saturated_on_mask(g, mask, budgets), reference)


def test_heap_sweep_on_the_general_er_plan():
    # the benchmark's non-bipartite workload: er(50,0.1) s0 at p=0.3,
    # epsilon=0.5, over the evaluator's first 400 realizations at seed 13
    g = gen_er(50, 0.1, seed=0).graph
    plan = general_vc_plan(g, 0.5, 0.3)
    ref = reference_general_vc_plan(g, 0.5, 0.3)
    q_idx = np.flatnonzero(plan.queried)
    for k in range(400):
        mask = rng.bernoulli_mask(rng.derive_seed(13, _TAG_TRIAL, k), g.m, 0.3)
        realized = mask & plan.queried
        saturated = saturated_on_mask(g, realized, plan.residual_budget)
        assert np.array_equal(
            saturated, _reference_filling_on_mask(g, realized, plan.residual_budget).saturated
        )
        assert np.array_equal(
            plan.committed | saturated, reference_general_vc_cover(ref, mask[q_idx])
        )


def _star_of_stars(leaves: list[int]) -> Graph:
    """A centre joined to one hub per entry of `leaves`, each hub to that many leaves."""
    edges = []
    n = 1 + len(leaves)
    for hub, count in enumerate(leaves, start=1):
        edges.append((0, hub))
        edges += [(hub, leaf) for leaf in range(n, n + count)]
        n += count
    return Graph(n, tuple(edges))


def _layered_at_plan_budgets():
    g = gen_layered_counterexample(400, 40, seed=1).graph
    return g, general_vc_plan(g, 0.5, 0.25).residual_budget


@pytest.mark.parametrize(
    "case",
    [
        # a hub dies first and stops all its leaves: most entries go dead
        lambda: (_star_of_stars([12, 9, 9, 5, 3, 1, 0]), 1.0),
        lambda: (_star_of_stars([20] * 6 + [4] * 3), 1.0),
        lambda: (_star_of_stars(list(range(15))), 0.5),
        _layered_at_plan_budgets,
    ],
)
def test_heap_sweep_with_mostly_dead_entries(case):
    # vertices whose rate falls to 0 leave dead heap entries, dropped in bulk
    # once they are more than half the heap; the sweep must still saturate
    # the reference's vertices, each once, in order of the reference's deaths
    g, budgets = case()
    heapify = mock.patch.object(filling.heapq, "heapify", wraps=heapq.heapify)
    rebuilds = 0
    for k in range(8):
        mask = np.ones(g.m, dtype=bool) if k == 0 else rng.bernoulli_mask(k, g.m, 0.25)
        reference = _reference_filling_on_mask(g, mask, budgets)
        with heapify as heapifies:
            got = saturated_on_lists(g.neighbours(mask), np.broadcast_to(budgets, (g.n,)).tolist())
        rebuilds += heapifies.call_count - 1  # the first heapify builds the heap
        assert len(set(got)) == len(got)
        assert np.flatnonzero(reference.saturated).tolist() == sorted(got)
        deaths = reference.death[got]
        assert np.all(deaths[1:] >= deaths[:-1])
    assert rebuilds > 0


def test_heap_sweep_validates_like_the_iterative_sweep():
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ParameterError):
        saturated_on_mask(g, np.ones(2, dtype=bool), 1.5)
    with pytest.raises(StructuralError):
        saturated_on_mask(g, np.array([True]), 1.0)
    # a zero budget saturates even without edges
    assert saturated_on_mask(g, np.zeros(2, dtype=bool), np.array([0.0, 1.0, 1.0])).tolist() == [
        True,
        False,
        False,
    ]
