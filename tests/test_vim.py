import math

import numpy as np
import pytest

from oracles import conditional_match_probs
from stochcover.errors import CapacityError, ParameterError, StructuralError
from stochcover.graphs import Graph, Realization, bipartition
from stochcover.instances import gen_clique, gen_er_bipartite, gen_perfect_matching
from stochcover.matching import Matching, hk_on_mask
from stochcover.vim import (
    ALG_HK,
    EdgeStatusProfile,
    ExactRowCache,
    ProposalRow,
    ProposalTable,
    VimOutcome,
    independence_stats,
    profile_of,
    run_base_matcher,
    run_vim_trials,
    vim_round,
)


def full_mask(g):
    return np.ones(g.m, dtype=bool)


def test_profile_of_reads_incident_edges():
    g = Graph(3, ((0, 1), (0, 2), (1, 2)))
    prof = profile_of(g, 0, np.array([True, False, True]))
    assert prof.edge_indices == (0, 1)
    assert prof.realized == (True, False)
    with pytest.raises(StructuralError):
        EdgeStatusProfile(0, (0, 1), (True,))


def test_row_validation_and_normalization():
    with pytest.raises(StructuralError):
        ProposalRow(0, (0, 1), (0.6, 0.6))
    with pytest.raises(StructuralError):
        ProposalRow(0, (0,), (-0.1,))
    row = ProposalRow.from_estimates(0, (0, 1), np.array([0.7, 0.8]))
    assert math.fsum(row.probs) == pytest.approx(1.0)
    assert row.probs[0] == pytest.approx(0.7 / 1.5)
    row = ProposalRow.from_estimates(0, (0, 1), np.array([-0.05, 0.5]))
    assert row.probs == (0.0, 0.5)


def test_table_rejects_duplicate_vertices():
    r = ProposalRow(0, (0,), (0.5,))
    with pytest.raises(StructuralError):
        ProposalTable((r, ProposalRow(0, (0,), (0.2,))))
    assert ProposalTable((r,)).rows == (r,)


def test_outcome_rejects_unproposed_edges():
    g = Graph(2, ((0, 1),))
    with pytest.raises(StructuralError):
        VimOutcome(Matching(g, (0,)), ())
    VimOutcome(Matching(g, (0,)), ((0, 0),))  # fine when proposed


def test_base_matchers_agree_on_size():
    g = gen_er_bipartite(5, 5, 0.5, seed=4).graph
    side = bipartition(g).side
    for bits in range(0, 1 << g.m, 257):  # sparse sweep over masks
        mask = np.array([(bits >> e) & 1 == 1 for e in range(g.m)])
        _p, _pe, target = hk_on_mask(g, side, mask)
        assert len(run_base_matcher(ALG_HK, g, mask, side)) == target
    with pytest.raises(ParameterError):
        run_base_matcher("greedy_maximal", g, full_mask(g), side)


def test_hk_matcher_requires_bipartite():
    g = gen_clique(3).graph
    with pytest.raises(StructuralError):
        run_base_matcher(ALG_HK, g, full_mask(g))


def test_conditional_probs_absent_edge_is_zero():
    g = Graph(2, ((0, 1),))
    prof = EdgeStatusProfile(0, (0,), (False,))
    row = conditional_match_probs(ALG_HK, g, 0.5, 0, prof, 200, seed=1)
    assert row.probs == (0.0,)


def test_conditional_probs_certain_edge_is_one():
    g = Graph(2, ((0, 1),))
    prof = EdgeStatusProfile(0, (0,), (True,))
    row = conditional_match_probs(ALG_HK, g, 1.0, 0, prof, 200, seed=1)
    assert row.probs == (1.0,)


def test_conditional_probs_path_end_vertex():
    # end vertex of a path proposes its only edge whenever it is realized,
    # because Hopcroft-Karp matches vertex 0 first, along its lowest-index edge
    g = Graph(3, ((0, 1), (1, 2)))
    prof = EdgeStatusProfile(0, (0,), (True,))
    row = conditional_match_probs(ALG_HK, g, 0.5, 0, prof, 500, seed=3)
    assert row.probs == (1.0,)
    exact = ExactRowCache(ALG_HK, g, 0.5).row(prof)
    assert exact.probs == (1.0,)


def test_conditional_probs_validation():
    # a profile must list exactly the vertex's incident edges
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(StructuralError):
        ExactRowCache(ALG_HK, g, 0.5).row(EdgeStatusProfile(0, (1,), (True,)))


def test_exact_rows_match_sampled_rows():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    p = 0.6
    cache = ExactRowCache(ALG_HK, g, p)
    for v in (0, 2):
        for realized in ((True,), (False,)) if v == 0 else ((True, True), (True, False)):
            prof = EdgeStatusProfile(v, tuple(g.incident_edges(v)), realized)
            exact = cache.row(prof)
            sampled = conditional_match_probs(ALG_HK, g, p, v, prof, 20000, seed=9)
            for a, b in zip(exact.probs, sampled.probs):
                assert abs(a - b) <= 3 * math.sqrt(0.25 / 20000) + 1e-12


def test_exact_rows_are_memoized():
    g = Graph(3, ((0, 1), (1, 2)))
    cache = ExactRowCache(ALG_HK, g, 0.5)
    prof = profile_of(g, 0, full_mask(g))
    assert cache.row(prof) is cache.row(prof)


def test_exact_row_capacity_limit():
    g = gen_er_bipartite(6, 6, 1.0).graph  # K(6,6): any vertex leaves 30 free edges
    cache = ExactRowCache(ALG_HK, g, 0.5)
    with pytest.raises(CapacityError):
        cache.row(profile_of(g, 0, full_mask(g)))


def test_exact_rows_ignore_other_components():
    # vertex 0's row only depends on its own component, so the 40 edges
    # elsewhere, above the enumeration cap of 20, must not be enumerated
    edges = [(0, 1)] + [(2 + 2 * i, 3 + 2 * i) for i in range(40)]
    g = Graph(82, tuple(edges))
    cache = ExactRowCache(ALG_HK, g, 0.3)
    row = cache.row(EdgeStatusProfile(0, (0,), (True,)))
    assert row.probs == (1.0,)


def test_vim_round_lowest_proposer_wins():
    g = Graph(3, ((0, 2), (1, 2)))
    rows = (ProposalRow(0, (0,), (1.0,)), ProposalRow(1, (1,), (1.0,)))
    out = vim_round(Realization(g, full_mask(g), 1.0), ProposalTable(rows), seed=0)
    assert out.matching.edges == (0,)
    assert set(out.proposals) == {(0, 0), (1, 1)}


def test_vim_round_zero_rows_match_nothing():
    g = Graph(2, ((0, 1),))
    rows = (ProposalRow(0, (0,), (0.0,)),)
    out = vim_round(Realization(g, full_mask(g), 1.0), ProposalTable(rows), seed=4)
    assert out.matching.size == 0
    assert out.proposals == ()


def test_vim_round_sampling_frequencies():
    g = Graph(3, ((0, 1), (0, 2)))
    row = ProposalRow(0, (0, 1), (0.3, 0.4))
    counts = {0: 0, 1: 0, None: 0}
    trials = 5000
    for s in range(trials):
        out = vim_round(Realization(g, full_mask(g), 1.0), ProposalTable((row,)), seed=s)
        if out.proposals:
            counts[out.proposals[0][1]] += 1
        else:
            counts[None] += 1
    tol = 3 * math.sqrt(0.25 / trials)
    assert abs(counts[0] / trials - 0.3) <= tol
    assert abs(counts[1] / trials - 0.4) <= tol
    assert abs(counts[None] / trials - 0.3) <= tol


def test_trial_stats_basic_dominance():
    g = gen_er_bipartite(5, 5, 0.4, seed=2).graph
    stats = run_vim_trials(g, ALG_HK, 0.5, 3000, seed=17)
    # a vertex only lands in the proposal matching if it proposed
    for v in stats.a_vertices:
        assert stats.vim_match_freq[v] <= stats.propose_freq[v] + 1e-12
    # the proposal matching lives inside the realized graph
    assert stats.mean_vim_size <= stats.mean_base_size + 1e-12
    assert stats.mean_vim_size >= (1.0 - 1.0 / math.e) * stats.mean_base_size - 0.05
    with pytest.raises(ParameterError):
        run_vim_trials(g, ALG_HK, 0.5, 0, seed=1)


def test_independence_stats_disjoint_edges():
    g = gen_perfect_matching(4, seed=0).graph
    trials = 20000
    pairs = independence_stats(g, ALG_HK, 0.5, trials, seed=23)
    assert len(pairs) == 2  # the two cross pairs, own edges excluded
    for _v, _u, cov in pairs:
        assert abs(cov) <= 3 * math.sqrt(0.25 / trials) + 0.005


def test_adjacent_pair_is_genuinely_correlated():
    # control for the independence check: on a single edge at p=1/2 the
    # proposer and its partner move together, covariance near 1/4
    g = Graph(2, ((0, 1),))
    stats = run_vim_trials(g, ALG_HK, 0.5, 4000, seed=31)
    cov = stats.pair_joint_freq[0, 0] - stats.propose_freq[0] * stats.vim_match_freq[1]
    assert cov > 0.2
