import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_min_vertex_cover, is_valid_cover, is_valid_matching
from stochcover import rng
from stochcover.errors import ApplicabilityError, ParameterError, StructuralError
from stochcover.instances import gen_er, gen_er_bipartite, gen_regular_bipartite
from stochcover.strategies import (
    STRATEGY_IDS,
    _TAG_MC,
    StrategyParams,
    exact_cover_on_mask,
    mc_realization_count,
    plan_strategy,
    respond_strategy,
    strategy_kind,
)

CHEAP_OVERRIDES = {"partition_t": 100, "partition_rounds": 4, "s": 2}


def run_once(strategy, graph, params, real_seed):
    plan = plan_strategy(strategy, graph, params)
    mask = rng.bernoulli_mask(real_seed, graph.m, params.p)
    answer = respond_strategy(plan, mask[plan.queried_indices])
    return plan, mask, answer


def assert_contract(graph, plan, mask, answer):
    """The unconditional contract: protect unqueried edges no matter what,
    plus whatever the realization kept among the queried ones."""
    must_cover = ~plan.queried | mask
    if answer.kind == "cover":
        assert is_valid_cover(graph, answer.cover, edge_mask=must_cover)
    else:
        assert is_valid_matching(graph, answer.matched_edges, mask=mask)


def test_registry_shape():
    assert set(STRATEGY_IDS) == {
        "general_vc",
        "bipartite_vc",
        "mc_matching",
        "one_plus_eps_vc",
        "random_query_baseline",
        "query_nothing",
        "query_everything",
    }
    assert strategy_kind("mc_matching") == "matching"
    assert strategy_kind("general_vc") == "cover"
    with pytest.raises(ParameterError):
        strategy_kind("nope")


def test_params_validation():
    with pytest.raises(ParameterError):
        StrategyParams(p=0.0)
    with pytest.raises(ParameterError):
        StrategyParams(p=1.5)


def test_params_reject_a_misspelled_override():
    # through the Python API as through the CLI: a key no strategy reads
    # must not be dropped silently
    with pytest.raises(ParameterError, match="partition_T"):
        StrategyParams(p=0.5, overrides={"partition_T": 100})
    with pytest.raises(ParameterError):
        StrategyParams(p=0.5, overrides={"partition_t": 100, "t_constant": 0.5})
    assert StrategyParams(p=0.5, overrides={"partition_t": 100}).over("partition_t", None) == 100


def test_bipartite_only_strategies_reject_general_graphs():
    g = gen_er(7, 0.6, seed=3).graph  # dense enough to contain an odd cycle
    params = StrategyParams(p=0.5, epsilon=0.5, seed=1, overrides=CHEAP_OVERRIDES)
    for s in ("bipartite_vc", "mc_matching", "one_plus_eps_vc"):
        with pytest.raises(ApplicabilityError):
            plan_strategy(s, g, params)


def test_respond_checks_answer_length():
    g = gen_er_bipartite(4, 4, 0.5, seed=1).graph
    plan = plan_strategy("query_everything", g, StrategyParams(p=0.5))
    with pytest.raises(StructuralError):
        respond_strategy(plan, np.zeros(g.m - 1, dtype=bool))


def test_plans_are_deterministic():
    g = gen_er_bipartite(6, 6, 0.35, seed=2).graph
    params = StrategyParams(p=0.4, epsilon=0.4, seed=7, overrides=CHEAP_OVERRIDES)
    for s in STRATEGY_IDS:
        a = plan_strategy(s, g, params)
        b = plan_strategy(s, g, params)
        assert np.array_equal(a.queried, b.queried), s


@settings(max_examples=25, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGY_IDS),
    na=st.integers(2, 6),
    nb=st.integers(2, 6),
    prob=st.floats(0.2, 0.9),
    p=st.floats(0.1, 1.0),
    gseed=st.integers(0, 50),
    rseed=st.integers(0, 10**6),
)
def test_answers_honor_contract_bipartite(strategy, na, nb, prob, p, gseed, rseed):
    g = gen_er_bipartite(na, nb, prob, seed=gseed).graph
    params = StrategyParams(p=p, epsilon=0.5, seed=gseed, overrides=CHEAP_OVERRIDES)
    plan, mask, answer = run_once(strategy, g, params, rseed)
    assert_contract(g, plan, mask, answer)


@settings(max_examples=25, deadline=None)
@given(
    strategy=st.sampled_from(
        ["general_vc", "random_query_baseline", "query_nothing", "query_everything"]
    ),
    n=st.integers(2, 9),
    prob=st.floats(0.2, 0.8),
    p=st.floats(0.1, 1.0),
    gseed=st.integers(0, 50),
    rseed=st.integers(0, 10**6),
)
def test_answers_honor_contract_general(strategy, n, prob, p, gseed, rseed):
    g = gen_er(n, prob, seed=gseed).graph
    params = StrategyParams(p=p, epsilon=0.5, seed=gseed, overrides=CHEAP_OVERRIDES)
    plan, mask, answer = run_once(strategy, g, params, rseed)
    assert_contract(g, plan, mask, answer)


def test_general_vc_degree_bound():
    g = gen_er(20, 0.3, seed=9).graph
    params = StrategyParams(p=0.3, epsilon=0.5, seed=2)
    plan = plan_strategy("general_vc", g, params)
    assert plan.max_per_vertex_queries <= math.ceil(1.0 / plan.payload.t)
    forced = plan_strategy("general_vc", g, StrategyParams(p=0.3, overrides={"t": 1.0}))
    assert forced.max_per_vertex_queries <= 1


def test_mc_matching_degree_bound_and_r():
    g = gen_er_bipartite(10, 10, 0.4, seed=5).graph
    params = StrategyParams(p=0.3, seed=3)
    plan = plan_strategy("mc_matching", g, params)
    _side, r = plan.payload
    assert r == mc_realization_count(0.3)
    assert plan.max_per_vertex_queries <= r
    fixed = plan_strategy("mc_matching", g, StrategyParams(p=0.3, seed=3, overrides={"R": 2}))
    assert fixed.payload[1] == 2
    assert fixed.max_per_vertex_queries <= 2


def test_mc_realization_count_examples():
    assert mc_realization_count(1.0) == 1  # log term vanishes, floor of one
    assert mc_realization_count(0.5) == 6
    assert mc_realization_count(0.1) == 93
    with pytest.raises(ParameterError):
        mc_realization_count(0.0)


def test_one_plus_eps_payload_and_inner_override():
    # one_plus_eps_vc queries exactly the mc_matching plan it is composed of:
    # a seed derived from the caller's, R_constant 12, and none of the
    # caller's overrides; its payload answers from S = the unqueried edges
    g = gen_er_bipartite(6, 6, 0.4, seed=8).graph
    for seed, overrides in ((1, {}), (7, {}), (1, {"R": 1})):
        plan = plan_strategy(
            "one_plus_eps_vc", g, StrategyParams(p=0.5, epsilon=0.5, seed=seed, overrides=overrides)
        )
        inner_params = StrategyParams(
            p=0.5, epsilon=0.5, seed=rng.derive_seed(seed, _TAG_MC), overrides={"R_constant": 12.0}
        )
        inner = plan_strategy("mc_matching", g, inner_params)
        assert np.array_equal(plan.queried, inner.queried)
        assert np.array_equal(plan.payload.s_mask, ~plan.queried)
    # the R override would have changed the query set had it reached mc_matching
    one_r = plan_strategy(
        "mc_matching", g, StrategyParams(p=0.5, seed=inner_params.seed, overrides={"R": 1})
    )
    assert not np.array_equal(one_r.queried, plan.queried)
    with pytest.raises(ParameterError):
        plan_strategy("one_plus_eps_vc", g, StrategyParams(p=0.5, epsilon=0.0))


def test_random_baseline_bounded_degree():
    g = gen_regular_bipartite(16, 4, seed=2).graph
    plan = plan_strategy("random_query_baseline", g, StrategyParams(p=0.5, seed=4, overrides={"s": 2}))
    # a vertex sees its own picks plus whatever its neighbors picked
    assert plan.max_per_vertex_queries <= 4
    assert plan.total_queries >= g.n  # each vertex contributed something


def test_query_nothing_is_an_exact_base_cover():
    # a plan that queries nothing, on a general and on a bipartite graph,
    # answers every trial with one read-only cover: the whole graph's exact one
    for g in (gen_er(8, 0.4, seed=6).graph, gen_er_bipartite(5, 5, 0.5, seed=2).graph):
        whole = exact_cover_on_mask(g, np.ones(g.m, dtype=bool))[0]
        for sid, overrides in (("query_nothing", {}), ("random_query_baseline", {"s": 0})):
            plan = plan_strategy(sid, g, StrategyParams(p=0.5, overrides=overrides))
            assert plan.total_queries == 0
            answers = [respond_strategy(plan, np.zeros(0, dtype=bool)) for _trial in range(3)]
            cover = answers[0].cover
            assert all(answer.cover is cover for answer in answers)
            assert not cover.flags.writeable
            assert np.array_equal(cover, whole)
            assert answers[0].size == brute_min_vertex_cover(g)
            assert is_valid_cover(g, cover)


def test_query_everything_is_an_exact_realized_cover():
    g = gen_er_bipartite(5, 5, 0.5, seed=2).graph
    plan = plan_strategy("query_everything", g, StrategyParams(p=0.4))
    mask = rng.bernoulli_mask(77, g.m, 0.4)
    answer = respond_strategy(plan, mask)
    assert answer.size == brute_min_vertex_cover(g, mask)
    assert is_valid_cover(g, answer.cover, edge_mask=mask)
