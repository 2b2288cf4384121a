import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_min_vertex_cover,
    is_valid_cover,
    is_valid_matching,
    reference_mvc_general,
    reference_random_query_mask,
)
from stochcover import rng
from stochcover.errors import ApplicabilityError, CapacityError, ParameterError, StructuralError
from stochcover.graphs import Graph, bipartition
from stochcover.instances import (
    gen_er,
    gen_er_bipartite,
    gen_layered_counterexample,
    gen_regular_bipartite,
)
from stochcover.strategies import (
    GENERAL_OPT_BUDGET,
    STRATEGY_IDS,
    _TAG_MC,
    StrategyParams,
    _answerer,
    _Trial,
    _vertex_mask,
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


@pytest.mark.parametrize(
    "overrides",
    [{"R": -3}, {"R_constant": -5.0}, {"R_constant": 0.0}, {"R_constant": math.inf},
     {"R_constant": math.nan}, {"R_constant": 1e308}],
    ids=["R_negative", "constant_negative", "constant_zero", "constant_inf", "constant_nan",
         "count_overflows"],
)
def test_mc_matching_refuses_a_negative_r_or_a_bad_r_constant(overrides):
    # R = 0 is allowed, like s = 0: it queries nothing; a bad constant used
    # to run as one realization or overflow in ceil
    g = gen_er_bipartite(6, 6, 0.4, seed=8).graph
    with pytest.raises(ParameterError):
        plan_strategy("mc_matching", g, StrategyParams(p=0.3, overrides=overrides))
    none = plan_strategy("mc_matching", g, StrategyParams(p=0.3, overrides={"R": 0}))
    assert none.payload[1] == 0 and not none.queried.any()
    with pytest.raises(ParameterError):
        mc_realization_count(1.0, math.inf)  # inf * ln(1) is nan


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


@pytest.mark.parametrize("s", [0, 1, 3, 7])
def test_random_baseline_queries_the_per_vertex_reference(s):
    # one block of uniforms for every vertex, against one seeded Fisher-Yates
    # sample per vertex; the benchmark's three graphs, and one with isolated
    # vertices and degrees below s
    graphs = (
        gen_layered_counterexample(400, 40, seed=1).graph,
        gen_er_bipartite(30, 30, 0.2, seed=7).graph,
        gen_er(50, 0.1, seed=0).graph,
        Graph(7, ((0, 1), (1, 2), (1, 3), (4, 2))),
    )
    for g in graphs:
        for seed in (0, 21, 2**64 - 1):
            params = StrategyParams(p=0.5, seed=seed, overrides={"s": s})
            plan = plan_strategy("random_query_baseline", g, params)
            assert np.array_equal(plan.queried, reference_random_query_mask(g, s, seed))


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


def _refusal(solve):
    try:
        solve()
    except CapacityError as exc:
        return str(exc)
    return None


def test_general_baseline_covers_s_and_the_trials_realization():
    # on a general graph the baseline answers from the trial's own lists
    # plus the S edges its mask does not realize: an exact cover of
    # S | mask that leaves those lists (at the all-True mask, the graph's
    # shared tuples) as they were
    cases = [(gen_er(30, 0.12, seed=gseed).graph, s) for gseed in (0, 3) for s in (1, 2)]
    cases += [(gen_er(40, 0.1, seed=5).graph, s) for s in (1, 2)]
    for g, s in cases:
        assert bipartition(g) is None
        plan = plan_strategy("random_query_baseline", g, StrategyParams(p=0.3, overrides={"s": s}))
        s_mask = ~plan.queried
        assert s_mask.any() and plan.queried.any()
        answer = _answerer(plan)
        masks = [np.ones(g.m, dtype=bool), np.zeros(g.m, dtype=bool), plan.queried.copy()]
        for k in range(30):
            mask = rng.bernoulli_mask(k, g.m, (0.15, 0.3, 0.6)[k % 3])
            masks += [mask, mask & plan.queried]  # the second realizes no S edge
        for mask in masks:
            trial = _Trial(g, mask)
            cover = _vertex_mask(g.n, answer(trial))
            assert is_valid_cover(g, cover, edge_mask=s_mask | mask)
            size = reference_mvc_general(g, s_mask | mask, GENERAL_OPT_BUDGET)[1]
            assert np.count_nonzero(cover) == size
            assert respond_strategy(plan, mask[plan.queried_indices]).size == size
            assert [list(row) for row in trial.neighbours()] == [
                list(row) for row in g.neighbours(mask)
            ]


def test_general_baseline_refuses_as_the_union_would():
    # the evaluator's refused_answer case: the answer refuses exactly the
    # masks whose S | mask the exact cover refuses, with the same message
    g = gen_er(80, 0.04, seed=2).graph
    plan = plan_strategy("random_query_baseline", g, StrategyParams(p=0.3, seed=3))
    s_mask = ~plan.queried
    answer = _answerer(plan)
    refused = 0
    for k in range(60):
        mask = rng.bernoulli_mask(k, g.m, 0.3)
        expected = _refusal(lambda: _Trial(g, s_mask | mask).exact_cover())
        assert _refusal(lambda: answer(_Trial(g, mask))) == expected
        refused += expected is not None
    assert 0 < refused < 60
