import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_max_matching,
    policy_matching_sizes,
    reference_estimate_marginals,
)
from stochcover import partition as partition_module, rng
from stochcover.errors import ApplicabilityError, ParameterError, StructuralError
from stochcover.graphs import EdgePartition, Graph, bipartition
from stochcover.instances import gen_er, gen_er_bipartite, gen_perfect_matching
from stochcover.partition import (
    BLOCK_CELLS,
    MatchingPolicy,
    PartitionConfig,
    PolicyComponent,
    build_partition,
    estimate_marginals,
    heavy_edges,
    heavy_threshold,
    outcome_to_text,
    policy_objective,
)


def all_s_policy(graph):
    comp = PolicyComponent(in_q=(False,) * graph.m)
    return MatchingPolicy(graph, ((1.0, comp),))


def test_objective_and_threshold():
    assert policy_objective(np.array([1.0, 1.0]), 0.5) == pytest.approx(1.0)
    assert policy_objective(np.zeros(3), 0.9) == 0.0
    assert heavy_threshold(0.5, 0.3) == pytest.approx(0.075)


def test_policy_validation():
    g = Graph(3, ((0, 1), (1, 2)))
    comp = PolicyComponent(in_q=(False, False))
    with pytest.raises(StructuralError):
        MatchingPolicy(g, ())
    with pytest.raises(StructuralError):
        MatchingPolicy(g, ((0.5, comp), (0.4, comp)))
    with pytest.raises(StructuralError):
        MatchingPolicy(g, ((1.0, PolicyComponent(in_q=(False,))),))


def test_with_exclusions_merges():
    g = Graph(3, ((0, 1), (1, 2)))
    pol = all_s_policy(g).with_exclusions(frozenset({1}))
    pol = pol.with_exclusions(frozenset({0}))
    assert pol.components[0][1].exclude == frozenset({0, 1})


def test_config_validation():
    with pytest.raises(ParameterError):
        PartitionConfig(epsilon=0.0, p=0.5)
    with pytest.raises(ParameterError):
        PartitionConfig(epsilon=0.5, p=0.0)
    with pytest.raises(ParameterError):
        PartitionConfig(epsilon=0.5, p=0.5, max_rounds=0)
    with pytest.raises(ParameterError):
        PartitionConfig(epsilon=0.5, p=0.5, samples_per_round=10)
    # the default sample count divides by (epsilon^2 p)^2, which underflows here
    with pytest.raises(ParameterError):
        PartitionConfig(epsilon=1e-200, p=0.5).resolved_samples(10)
    # here (epsilon^2 p)^2 is subnormal, and the count overflows to infinity
    with pytest.raises(ParameterError):
        PartitionConfig(epsilon=1e-77, p=0.5).resolved_samples(10)
    assert PartitionConfig(epsilon=1e-200, p=0.5, samples_per_round=100).resolved_samples(10) == 100


def test_estimate_marginals_validation():
    g = Graph(3, ((0, 1), (1, 2)))
    part = EdgePartition(g, np.zeros(2, dtype=bool))
    other = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ParameterError):
        estimate_marginals(all_s_policy(g), part, g, 0.5, 0, seed=1)
    with pytest.raises(StructuralError):
        estimate_marginals(all_s_policy(other), EdgePartition(other, np.zeros(2, dtype=bool)), g, 0.5, 100, seed=1)
    # a policy of another graph with as many edges, on this graph's partition
    h = Graph(4, ((0, 2), (1, 2), (1, 3)))
    foreign = all_s_policy(Graph(4, ((0, 2), (1, 3), (0, 3))))
    with pytest.raises(StructuralError):
        estimate_marginals(foreign, EdgePartition(h, np.zeros(3, dtype=bool)), h, 0.5, 100, seed=1)


def test_pure_s_policy_is_deterministic():
    # with nothing queried the realization never matters, so every estimate
    # is exactly 0 or 1 and the total equals the maximum matching size
    g = gen_er_bipartite(5, 5, 0.4, seed=2).graph
    part = EdgePartition(g, np.zeros(g.m, dtype=bool))
    q = estimate_marginals(all_s_policy(g), part, g, 0.5, 300, seed=7)
    assert set(np.unique(q)) <= {0.0, 1.0}
    assert q.sum() == pytest.approx(brute_max_matching(g))


def test_marginal_sum_matches_enumerated_expectation():
    # queried edges flip per draw; the policy still returns a maximum
    # matching of its view, so the marginals must sum to E[max matching]
    g = Graph(5, ((0, 3), (1, 3), (1, 4), (2, 4)))
    in_q = np.array([True, False, True, True])
    part = EdgePartition(g, in_q)
    comp = PolicyComponent(in_q=tuple(bool(b) for b in in_q))
    pol = MatchingPolicy(g, ((1.0, comp),))
    p, t = 0.6, 4000
    q = estimate_marginals(pol, part, g, p, t, seed=11)

    expected = 0.0
    for bits in range(1 << g.m):
        mask = np.array([(bits >> e) & 1 == 1 for e in range(g.m)])
        k = int(mask.sum())
        view = ~in_q | (mask & in_q)
        expected += (p**k) * ((1 - p) ** (g.m - k)) * brute_max_matching(g, view)
    se = 3.0 * math.sqrt(2.0 * 2.0 / t)  # matching size is at most 2 here
    assert abs(q.sum() - expected) <= se


def test_mixture_marginals_average():
    g = gen_perfect_matching(8, seed=0).graph
    part = EdgePartition(g, np.zeros(g.m, dtype=bool))
    comp_s = PolicyComponent(in_q=(False,) * g.m)
    comp_q = PolicyComponent(in_q=(True,) * g.m)
    mix = MatchingPolicy(g, ((0.5, comp_s), (0.5, comp_q)))
    p, t = 0.4, 20000
    q = estimate_marginals(mix, part, g, p, t, seed=3)
    # component s matches every edge always, component q only when realized
    half_width = math.sqrt(2.0 * math.log(g.n) / t)
    assert np.allclose(q, 0.5 * 1.0 + 0.5 * p, atol=3 * half_width)


def test_edgeless_graph_terminates_immediately():
    g = Graph(4, ())
    out = build_partition(g, PartitionConfig(epsilon=0.5, p=0.5, samples_per_round=100))
    assert out.termination == "case1"
    assert out.rounds_used == 1
    assert out.partition.q_size == 0
    assert out.mu_hat == 0.0


def test_single_edge_moves_into_q():
    g = Graph(2, ((0, 1),))
    out = build_partition(g, PartitionConfig(epsilon=0.5, p=0.5, samples_per_round=200, seed=5))
    assert out.termination == "case1"
    assert out.partition.q_size == 1
    assert out.diagnostics["max_s_marginal"] == 0.0


def test_perfect_matching_all_edges_queried():
    g = gen_perfect_matching(20, seed=0).graph
    out = build_partition(g, PartitionConfig(epsilon=0.5, p=0.5, samples_per_round=400, seed=2))
    assert out.termination == "case1"
    assert out.partition.q_size == g.m
    # every edge had marginal 1 in round one, far above the threshold, so the
    # second round (all of Q) is the last one kept
    assert len(out.objective_trace) == 2


def test_case1_can_exclude_a_light_heavy_edge():
    # star sharing nothing with a large matching: after the first growth
    # round one S star edge keeps marginal 1, but its mass is below
    # epsilon * p * mu, so the builder stops and excludes it instead
    edges = [(0, k) for k in range(1, 6)]
    edges += [(6 + 2 * i, 7 + 2 * i) for i in range(19)]
    g = Graph(44, tuple(edges))
    cfg = PartitionConfig(epsilon=0.4, p=0.4, samples_per_round=500, seed=9)
    out = build_partition(g, cfg)
    assert out.termination == "case1"
    excluded = set()
    for _w, comp in out.policy.components:
        excluded |= comp.exclude
    assert excluded, "expected the surviving heavy star edge to be excluded"
    assert all(not out.partition.in_q[e] for e in excluded)
    assert out.diagnostics["max_s_marginal"] <= heavy_threshold(0.4, 0.4)


def test_surviving_s_edges_stay_light_on_fresh_samples():
    # criterion 4's surviving-S bound, on an outcome that leaves S non-empty:
    # the star of the previous test keeps unqueried edges, and its surviving
    # heavy edge must stay light on fresh draws because the policy drops it
    edges = [(0, k) for k in range(1, 6)]
    edges += [(6 + 2 * i, 7 + 2 * i) for i in range(19)]
    g = Graph(44, tuple(edges))
    eps, p, t = 0.4, 0.4, 2000
    out = build_partition(g, PartitionConfig(epsilon=eps, p=p, samples_per_round=500, seed=9))
    s_edges = np.nonzero(~out.partition.in_q)[0]
    assert len(s_edges) > 0
    q = estimate_marginals(out.policy, out.partition, g, p, t, seed=1234)
    half_width = math.sqrt(2.0 * math.log(g.n) / t)
    assert max(q[e] for e in s_edges) <= heavy_threshold(eps, p) + 3.0 * half_width


def test_objective_trace_reported_per_kept_round():
    g = gen_er_bipartite(6, 6, 0.3, seed=1).graph
    cfg = PartitionConfig(epsilon=0.3, p=0.5, samples_per_round=800, seed=4)
    out = build_partition(g, cfg)
    assert 1 <= len(out.objective_trace) <= cfg.max_rounds
    assert out.rounds_used >= len(out.objective_trace)
    assert all(math.isfinite(x) for x in out.objective_trace)


def test_degree_cap_respected():
    g = gen_er_bipartite(8, 8, 0.5, seed=3).graph
    cfg = PartitionConfig(epsilon=0.3, p=0.5, samples_per_round=400, seed=1, max_rounds=6)
    out = build_partition(g, cfg)
    cap = cfg.max_rounds * out.diagnostics["per_round_degree_cap"]
    assert int(g.degree_of_mask(out.partition.in_q).max()) <= cap


def test_build_is_seed_deterministic():
    g = gen_er_bipartite(6, 6, 0.4, seed=6).graph
    cfg = PartitionConfig(epsilon=0.4, p=0.5, samples_per_round=300, seed=12)
    a = build_partition(g, cfg)
    b = build_partition(g, cfg)
    assert outcome_to_text(a) == outcome_to_text(b)


def test_heavy_edges_only_looks_at_s():
    g = gen_perfect_matching(6, seed=0).graph
    part = EdgePartition(g, np.array([True, False, False]))
    heavy = heavy_edges(np.array([0.9, 0.9, 0.01]), part, 0.5, 0.5)
    assert heavy.tolist() == [1]


def test_policy_matching_sizes_never_beats_exact():
    g = gen_er_bipartite(7, 7, 0.35, seed=8).graph
    out = build_partition(g, PartitionConfig(epsilon=0.3, p=0.5, samples_per_round=500, seed=3))
    mean_pol, mean_opt = policy_matching_sizes(out.policy, out.partition, g, 0.5, 400, seed=21)
    assert mean_pol <= mean_opt + 1e-9
    assert mean_opt > 0


def test_policy_matching_sizes_needs_bipartite():
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    part = EdgePartition(g, np.zeros(3, dtype=bool))
    comp = PolicyComponent(in_q=(False, False, False))
    pol = MatchingPolicy(g, ((1.0, comp),))
    with pytest.raises(StructuralError):
        policy_matching_sizes(pol, part, g, 0.5, 10, seed=0)


def test_builder_refuses_a_non_bipartite_graph():
    g = gen_er(14, 0.3, seed=5).graph
    assert bipartition(g) is None
    with pytest.raises(ApplicabilityError):
        build_partition(g, PartitionConfig(epsilon=0.5, p=0.5, samples_per_round=100))
    part = EdgePartition(g, np.zeros(g.m, dtype=bool))
    with pytest.raises(ApplicabilityError):
        estimate_marginals(all_s_policy(g), part, g, 0.5, 100, seed=1)


# --- the block-drawn round against the per-draw reference ----------------------


@st.composite
def mixture_policies(draw, graph):
    """1-3 components, each with Q empty, full or random and a random exclude."""
    m = graph.m
    bits = st.lists(st.booleans(), min_size=m, max_size=m)
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        in_q = draw(st.one_of(st.just([False] * m), st.just([True] * m), bits))
        exclude = draw(st.sets(st.integers(0, m - 1), max_size=3))
        comps.append(PolicyComponent(in_q=tuple(in_q), exclude=frozenset(exclude)))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(comps), max_size=len(comps)))
    weights = [r / sum(raw) for r in raw]
    return MatchingPolicy(graph, tuple(zip(weights, comps)))


@st.composite
def round_cases(draw):
    nl = draw(st.integers(1, 6))
    nr = draw(st.integers(1, 6))
    possible = [(u, nl + v) for u in range(nl) for v in range(nr)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, min_size=1, max_size=24))
    g = Graph(nl + nr, tuple(edges), bipartite_hint=nl)
    policy = draw(mixture_policies(g))
    p = draw(st.sampled_from([0.05, 0.3, 1.0]))
    # draws per block: the real constant's, or a small count so that t spans
    # several blocks and usually ends in a partial one
    rows = draw(st.one_of(st.just(max(1, BLOCK_CELLS // g.m)), st.integers(1, 40)))
    t = draw(st.integers(1, 300))
    return g, policy, p, rows, t, draw(st.integers(0, 2**64 - 1))


def _assert_round_matches_reference(g, policy, p, rows, t, seed):
    part = EdgePartition(g, np.zeros(g.m, dtype=bool))
    with mock.patch.object(partition_module, "BLOCK_CELLS", rows * g.m):
        q = estimate_marginals(policy, part, g, p, t, seed)
    assert np.array_equal(q, reference_estimate_marginals(policy, g, p, t, seed))


@given(round_cases())
@settings(max_examples=80)
def test_round_matches_the_per_draw_reference(case):
    # bitwise the same marginals as one bernoulli_mask and one fresh
    # warm-started matching per draw
    _assert_round_matches_reference(*case)


def test_round_matches_the_reference_across_real_blocks():
    # several blocks at the real block size, ending in a partial one
    g = gen_er_bipartite(30, 30, 0.2, seed=7).graph
    rows = BLOCK_CELLS // g.m
    in_q = rng.bernoulli_mask(3, g.m, 0.5)
    comps = (
        (0.25, PolicyComponent(in_q=(False,) * g.m)),
        (0.75, PolicyComponent(in_q=tuple(bool(b) for b in in_q), exclude=frozenset({4, 9}))),
    )
    t = 2 * rows + rows // 2
    _assert_round_matches_reference(g, MatchingPolicy(g, comps), 0.3, rows, t, seed=17)


def test_searches_only_draws_that_realize_a_searched_components_q_edge():
    # one fixed component (Q empty, so S's matching answers every draw) and
    # one searched one: Hopcroft-Karp runs once for each draw that picks the
    # searched component and realizes at least one of its Q-edges, and for
    # no other draw
    g = gen_er_bipartite(30, 30, 0.2, seed=7).graph
    in_q = rng.bernoulli_mask(3, g.m, 0.5)
    comps = (
        (0.4, PolicyComponent(in_q=(False,) * g.m)),
        (0.6, PolicyComponent(in_q=tuple(bool(b) for b in in_q))),
    )
    side = bipartition(g).side
    assert [partition_module._ComponentRunner(g, side, c).fixed for _w, c in comps] == [True, False]
    p, t, seed = 0.01, 700, 5
    cum = np.cumsum([w for w, _c in comps])
    picked = searched = 0
    for s in range(t):
        mask = rng.bernoulli_mask(rng.derive_seed(seed, partition_module._TAG_SAMPLE, s), g.m, p)
        u = rng.uniform_at(rng.derive_seed(seed, partition_module._TAG_COMPONENT, s), 0)
        if np.searchsorted(cum, u, side="right") == 1:
            picked += 1
            searched += bool((mask & in_q).any())
    assert 0 < searched < picked < t
    part = EdgePartition(g, np.zeros(g.m, dtype=bool))
    hk = partition_module._hopcroft_karp
    with mock.patch.object(partition_module, "_hopcroft_karp", wraps=hk) as spy:
        estimate_marginals(MatchingPolicy(g, comps), part, g, p, t, seed)
    assert spy.call_count == searched


# Peak bytes traced during one 2,000-draw round on erb(30,30,0.2) at p=0.3:
# the block of draws and its uint64 temporaries, one draw's matching and the
# counts.  Measured with 8,192-cell blocks: 222 KiB with Q empty, 219 KiB
# with 95 of 172 edges in Q and 241 KiB with 162.  The bound is the largest
# plus 25%.  65,536-cell blocks read 1,623-1,641 KiB on the same rounds.
ROUND_PEAK_BYTES = 302 * 1024


@pytest.mark.parametrize("q_share", [0.0, 0.5, 0.97])
def test_round_memory_stays_bounded(q_share):
    g = gen_er_bipartite(30, 30, 0.2, seed=7).graph
    in_q = rng.bernoulli_mask(5, g.m, q_share)
    part = EdgePartition(g, in_q)
    policy = MatchingPolicy(g, ((1.0, PolicyComponent(in_q=tuple(bool(b) for b in in_q))),))
    bipartition(g)  # the graph's cached sides are not part of the round
    tracemalloc.start()
    try:
        estimate_marginals(policy, part, g, 0.3, 2000, seed=11)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ROUND_PEAK_BYTES
