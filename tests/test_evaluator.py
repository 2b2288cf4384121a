import io
import multiprocessing
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_min_vertex_cover,
    expected_stats_by_enumeration,
    reference_evaluate_strategies,
)
from stochcover import partition, rng
from stochcover.errors import CapacityError, ParameterError
from stochcover.evaluator import (
    CSV_COLUMNS,
    _TAG_TRIAL,
    _start_method,
    evaluate_strategies,
    exact_expected_stats,
    validity_check,
    write_csv,
)
from stochcover.graphs import Graph, Realization
from stochcover.instances import (
    gen_clique,
    gen_er,
    gen_er_bipartite,
    gen_layered_counterexample,
    gen_perfect_matching,
)
from stochcover.strategies import (
    GENERAL_OPT_BUDGET,
    STRATEGY_IDS,
    StrategyAnswer,
    StrategyParams,
    exact_cover_on_mask,
    plan_strategy,
    respond_strategy,
)


def test_validity_check_covers():
    g = Graph(3, ((0, 1), (1, 2)))
    real = Realization(g, np.array([True, True]), 0.5)
    good = StrategyAnswer("cover", cover=np.array([False, True, False]))
    assert validity_check(good, real) == 0
    bad = StrategyAnswer("cover", cover=np.array([True, False, False]))
    assert validity_check(bad, real) == 1  # edge (1,2) realized and exposed
    nothing = StrategyAnswer("cover", cover=np.zeros(3, dtype=bool))
    assert validity_check(nothing, real) == 2
    empty = Realization(g, np.zeros(2, dtype=bool), 0.5)
    assert validity_check(nothing, empty) == 0


def test_validity_check_matchings():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    real = Realization(g, np.array([True, False, True]), 0.5)
    assert validity_check(StrategyAnswer("matching", matched_edges=(0, 2)), real) == 0
    assert validity_check(StrategyAnswer("matching", matched_edges=(1,)), real) == 1
    overlap = Realization(g, np.ones(3, dtype=bool), 0.5)
    assert validity_check(StrategyAnswer("matching", matched_edges=(0, 1)), overlap) == 1


def test_exact_stats_triangle_frozen():
    g = gen_clique(3).graph
    stats = exact_expected_stats(g, 0.5)
    assert stats["E_mu"] == pytest.approx(0.875)  # Pr[at least one edge]
    assert stats["E_nu"] == pytest.approx(1.0)


def test_exact_stats_degenerate_inputs():
    g = gen_perfect_matching(6, seed=0).graph
    assert exact_expected_stats(g, 0.0) == {"E_nu": 0.0, "E_mu": 0.0}
    at_one = exact_expected_stats(g, 1.0)
    assert at_one["E_nu"] == 3.0 and at_one["E_mu"] == 3.0
    assert exact_expected_stats(Graph(3, ()), 0.7) == {"E_nu": 0.0, "E_mu": 0.0}
    with pytest.raises(ParameterError):
        exact_expected_stats(g, 1.5)
    big = gen_er_bipartite(10, 10, 0.5, seed=1).graph
    assert big.m > 20
    with pytest.raises(CapacityError):
        exact_expected_stats(big, 0.5)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 5),
    prob=st.floats(0.3, 0.9),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 30),
)
def test_exact_stats_match_full_enumeration(n, prob, p, seed):
    g = gen_er(n, prob, seed=seed).graph
    stats = exact_expected_stats(g, p)
    e_nu, e_mu = expected_stats_by_enumeration(g, p)
    assert stats["E_nu"] == pytest.approx(e_nu, abs=1e-9)
    assert stats["E_mu"] == pytest.approx(e_mu, abs=1e-9)


def test_query_everything_ratio_is_exactly_one():
    g = gen_er_bipartite(6, 6, 0.4, seed=3).graph
    rep = evaluate_strategies(["query_everything"], g, StrategyParams(p=0.3), 200, seed=5)[0]
    assert rep.ratio == 1.0
    assert rep.ratio_ci95 == 0.0
    assert rep.validity_failures == 0


def test_matching_strategy_ratio_at_most_one():
    g = gen_er_bipartite(6, 6, 0.4, seed=3).graph
    rep = evaluate_strategies(["mc_matching"], g, StrategyParams(p=0.3, seed=2), 300, seed=5)[0]
    assert rep.ratio is not None and rep.ratio <= 1.0
    assert rep.validity_failures == 0


def test_common_random_numbers_across_calls():
    g = gen_er_bipartite(5, 5, 0.45, seed=9).graph
    params = StrategyParams(p=0.4, seed=1)
    a = evaluate_strategies(["query_nothing"], g, params, 150, seed=42)[0]
    b = evaluate_strategies(["query_everything"], g, params, 150, seed=42)[0]
    # same realizations and same exact solver, so the cover optima agree
    assert a.mean_opt == b.mean_opt
    again = evaluate_strategies(["query_nothing"], g, params, 150, seed=42)[0]
    assert again.csv_row()[:-1] == a.csv_row()[:-1]


def test_thread_count_does_not_change_results():
    g = gen_er_bipartite(6, 6, 0.35, seed=4).graph
    params = StrategyParams(p=0.4, seed=3)
    ids = ["query_nothing", "mc_matching", "query_everything"]
    rows1 = [r.csv_row()[:-1] for r in evaluate_strategies(ids, g, params, 400, seed=11)]
    rows8 = [
        r.csv_row()[:-1]
        for r in evaluate_strategies(ids, g, params, 400, seed=11, threads=8)
    ]
    assert rows1 == rows8


@pytest.mark.parametrize(
    "graph",
    [gen_er_bipartite(6, 6, 0.4, seed=3).graph, gen_er(12, 0.3, seed=1).graph],
    ids=["bipartite", "general"],
)
def test_query_everything_answers_with_the_optimum_solve(graph):
    plan = plan_strategy("query_everything", graph, StrategyParams(p=0.3))
    for k in range(40):
        mask = rng.bernoulli_mask(rng.derive_seed(5, _TAG_TRIAL, k), graph.m, 0.3)
        answer = respond_strategy(plan, mask)
        # the optimum, as the evaluator reads it, is the cover the answer solved
        cover, opt = exact_cover_on_mask(graph, mask)
        assert cover is answer.cover
        assert answer.size == opt == brute_min_vertex_cover(graph, mask)


def test_exact_cover_memo_is_shared_and_read_only():
    g = gen_er_bipartite(6, 6, 0.4, seed=3).graph
    mask = rng.bernoulli_mask(9, g.m, 0.5)
    cover, size = exact_cover_on_mask(g, mask)
    with pytest.raises(ValueError):
        cover[0] = not cover[0]
    again, again_size = exact_cover_on_mask(g, mask.copy())
    assert again is cover and again_size == size
    other, _size = exact_cover_on_mask(g, ~mask)
    assert other is not cover


def test_exact_cover_refusal_is_never_kept():
    g = gen_er(120, 0.1, seed=2).graph
    full = np.ones(g.m, dtype=bool)
    assert np.count_nonzero(g.degree_of_mask(full)) > GENERAL_OPT_BUDGET
    small = np.zeros(g.m, dtype=bool)
    small[:3] = True
    exact_cover_on_mask(g, small)
    for _ in range(3):
        with pytest.raises(CapacityError):
            exact_cover_on_mask(g, full)


def test_thread_count_does_not_change_shared_solves(corpus):
    # a general graph, whose responds and optima share branch and bound
    # solves, and a bipartite one, whose baseline shares a prebuilt S
    er26 = corpus["er(n=26,edge_prob=0.1)s5"].graph
    layered = gen_layered_counterexample(60, 12, seed=1).graph
    ids = ["general_vc", "random_query_baseline", "query_everything"]
    params = StrategyParams(p=0.4, seed=3)
    for g in (er26, layered):
        rows1 = [r.csv_row()[:-1] for r in evaluate_strategies(ids, g, params, 300, seed=11)]
        rows8 = [
            r.csv_row()[:-1]
            for r in evaluate_strategies(ids, g, params, 300, seed=11, threads=8)
        ]
        assert rows1 == rows8


def test_capacity_latch_drops_optimum_columns():
    # non-bipartite, with far more than GENERAL_OPT_BUDGET active vertices
    # in every realization, so the exact optimum is refused and latched off
    g = gen_er(120, 0.1, seed=2).graph
    rep = evaluate_strategies(["general_vc"], g, StrategyParams(p=0.5), 50, seed=7)[0]
    assert rep.mean_opt is None and rep.ratio is None and rep.ratio_ci95 is None
    assert rep.mean_answer > 0
    row = rep.csv_row()
    assert row[CSV_COLUMNS.index("mean_opt")] == ""
    assert row[CSV_COLUMNS.index("ratio")] == ""


def test_no_optimum_mode():
    g = gen_er_bipartite(4, 4, 0.5, seed=1).graph
    rep = evaluate_strategies(
        ["query_everything"], g, StrategyParams(p=0.5), 50, seed=3, compute_optimum=False
    )[0]
    assert rep.mean_opt is None and rep.ratio is None


def test_evaluator_validation():
    g = gen_er_bipartite(4, 4, 0.5, seed=1).graph
    with pytest.raises(ParameterError):
        evaluate_strategies(["query_nothing"], g, StrategyParams(p=0.5), 0, seed=1)
    with pytest.raises(ParameterError):
        evaluate_strategies(["query_nothing"], g, StrategyParams(p=0.5), 10, seed=1, threads=0)


def test_csv_shape_and_encoding():
    g = gen_er_bipartite(4, 4, 0.5, seed=6).graph
    reps = evaluate_strategies(
        ["query_nothing", "query_everything"],
        g,
        StrategyParams(p=0.25, epsilon=0.5),
        60,
        seed=9,
        instance="demo",
    )
    buf = io.StringIO()
    write_csv(reps, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "demo"
    assert first[1] == "query_nothing"
    assert first[2] == repr(0.25)
    assert first[-1].isdigit()  # wall_ms is rounded to whole milliseconds


def _rows(reports):
    return [r.csv_row()[:-1] for r in reports]  # wall_ms is timing, not output


GENERAL_IDS = ["general_vc", "random_query_baseline", "query_nothing", "query_everything"]

# (graph, strategies, params, trials, seed, trials per block or None for the default)
BLOCK_CASES = {
    "all_strategies": (
        gen_er_bipartite(6, 6, 0.35, seed=4).graph,
        list(STRATEGY_IDS),
        StrategyParams(p=0.4, seed=3, overrides={"partition_t": 300}),
        150,
        11,
        None,
    ),
    "general": (
        gen_er(26, 0.1, seed=5).graph,
        GENERAL_IDS,
        StrategyParams(p=0.4, seed=3),
        120,
        7,
        None,
    ),
    "capacity_latch": (
        gen_er(120, 0.1, seed=2).graph,
        ["general_vc"],
        StrategyParams(p=0.5),
        50,
        7,
        None,
    ),
    # only trial 14 exceeds the exact solver's budget, so with workers the
    # latch trips in a block other than the last
    "early_latch": (
        gen_er(80, 0.04, seed=2).graph,
        ["general_vc"],
        StrategyParams(p=0.3),
        40,
        7,
        None,
    ),
    "edgeless": (
        Graph(5, ()),
        GENERAL_IDS + ["mc_matching"],
        StrategyParams(p=0.5),
        20,
        2,
        None,
    ),
    "one_trial": (
        gen_er_bipartite(6, 6, 0.35, seed=4).graph,
        ["query_nothing", "mc_matching", "query_everything"],
        StrategyParams(p=0.4, seed=3),
        1,
        5,
        None,
    ),
    # three trials per block, so 100 trials end in a partial block
    "uneven_blocks": (
        gen_er_bipartite(6, 6, 0.35, seed=4).graph,
        ["general_vc", "mc_matching", "random_query_baseline", "query_everything"],
        StrategyParams(p=0.4, seed=3),
        100,
        9,
        3,
    ),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_kernel_matches_the_per_trial_loop(case, threads):
    graph, ids, params, trials, seed, rows = BLOCK_CASES[case]
    expected = _rows(reference_evaluate_strategies(ids, graph, params, trials, seed))
    cells = partition.BLOCK_CELLS if rows is None else rows * graph.m
    with mock.patch.object(partition, "BLOCK_CELLS", cells):
        got = _rows(evaluate_strategies(ids, graph, params, trials, seed, threads=threads))
    assert got == expected


def test_worker_processes_are_gone_after_the_call():
    graph, ids, params, trials, seed, _rows_per_block = BLOCK_CASES["general"]
    evaluate_strategies(ids, graph, params, trials, seed, threads=3)
    assert multiprocessing.active_children() == []


def test_workers_spawn_beside_other_threads():
    # a fork would copy whatever lock the other thread holds, so the pool
    # spawns its workers instead, and the reports stay the same
    graph, ids, params, trials, seed, _rows_per_block = BLOCK_CASES["general"]
    expected = _rows(evaluate_strategies(ids, graph, params, trials, seed))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert _start_method() == "spawn"
        got = _rows(evaluate_strategies(ids, graph, params, trials, seed, threads=2))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert got == expected
    assert multiprocessing.active_children() == []

