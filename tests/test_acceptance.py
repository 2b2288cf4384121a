"""Release acceptance suite: one test per numbered criterion.

End-to-end Monte-Carlo checks at fixed seeds, heavier than the unit
tests.  Expensive batches (the corpus-wide validity sweep, the partition
builds) live in session fixtures so later criteria can reuse them.  Each
test prints a one-line summary; pytest shows it with -rA or on failure.

Criterion 8a asserts the random-query baseline's 3.0 floor on the
layered family at a p chosen from its closed form.  On layered(n, N) with
s=3, each of the P=(n-N)/2 hidden pair edges goes unqueried with
probability c=(18/21)^2=0.735; given the plan's q queried pair edges the
baseline answers N+(P-q)+q*p, while E[OPT] <= N+P*p.  At n=400, N=40,
p=0.25 that is only 184.2/85=2.17 averaged over plans, and the ratio
levels off at (c+(1-c)p)/p=3.20 as n grows, so the floor is out of reach
there.  At p=0.05 it is 174.6/49=3.56 averaged over plans and 3.21 even
for a plan three standard deviations unlucky (q=66), so 8a runs there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from stochcover import rng
from stochcover.errors import ApplicabilityError
from stochcover.evaluator import (
    EvalReport,
    evaluate_strategies,
    exact_expected_stats,
)
from stochcover.graphs import Graph, bipartition
from stochcover.instances import (
    gen_clique,
    gen_er,
    gen_er_bipartite,
    gen_layered_counterexample,
    gen_perfect_matching,
    gen_regular_bipartite,
    gen_sdn,
)
from stochcover.matching import hk_on_mask, mvc_bipartite_on_mask, mvc_general_on_mask
from stochcover.partition import (
    PartitionConfig,
    build_partition,
    estimate_marginals,
)
from stochcover.strategies import (
    StrategyParams,
    mc_realization_count,
    plan_strategy,
)
from stochcover.vim import ALG_HK, independence_stats, run_vim_trials

from oracles import (
    brute_max_matching,
    brute_min_vertex_cover,
    is_valid_cover,
    policy_matching_sizes,
)


@dataclass(frozen=True)
class CorpusEntry:
    label: str
    graph: Graph
    bipartite: bool


COVER_STRATEGIES = (
    "general_vc",
    "bipartite_vc",
    "one_plus_eps_vc",
    "random_query_baseline",
    "query_nothing",
)
# The cover strategies that plan only on a bipartite graph and refuse any other.
BIPARTITE_ONLY = ("bipartite_vc", "one_plus_eps_vc")

# Shared evaluation config for criteria 1-3.  The partition overrides keep
# the sampling phase desk-scale; validity is independent of sample counts.
C1_PARAMS = StrategyParams(
    p=0.3,
    epsilon=0.5,
    seed=13,
    overrides={"partition_t": 2000, "partition_rounds": 12},
)
C1_TRIALS = 10_000
C1_EVAL_SEED = 500


@pytest.fixture(scope="session")
def corpus() -> list[CorpusEntry]:
    entries = [
        CorpusEntry("sdn(2,2,4)", gen_sdn(2, 2, 4, seed=1).graph, True),
        CorpusEntry("sdn(3,5,6)", gen_sdn(3, 5, 6, seed=1).graph, True),
        CorpusEntry("layered(60,12)", gen_layered_counterexample(60, 12, seed=1).graph, True),
        CorpusEntry("rb(20,3)", gen_regular_bipartite(20, 3, seed=1).graph, True),
        CorpusEntry("rb(40,5)", gen_regular_bipartite(40, 5, seed=1).graph, True),
        CorpusEntry("pm(40)", gen_perfect_matching(40, seed=0).graph, True),
        CorpusEntry("pm(10)", gen_perfect_matching(10, seed=0).graph, True),
        CorpusEntry("erb(30,30,0.2)", gen_er_bipartite(30, 30, 0.2, seed=7).graph, True),
        CorpusEntry("erb(6,6,0.25)", gen_er_bipartite(6, 6, 0.25, seed=3).graph, True),
        CorpusEntry("er(50,0.1)", gen_er(50, 0.1, seed=0).graph, False),
        CorpusEntry("er(16,0.3)", gen_er(16, 0.3, seed=5).graph, False),
        CorpusEntry("clique(12)", gen_clique(12).graph, False),
        CorpusEntry("clique(5)", gen_clique(5).graph, False),
    ]
    assert len(entries) >= 12
    return entries


def _applicable(entry: CorpusEntry) -> list[str]:
    return [s for s in COVER_STRATEGIES if entry.bipartite or s not in BIPARTITE_ONLY]


@pytest.fixture(scope="session")
def c1_reports(corpus) -> dict[str, list[EvalReport]]:
    """Corpus-wide validity sweep; optima are skipped, only answers matter."""
    out: dict[str, list[EvalReport]] = {}
    for entry in corpus:
        out[entry.label] = evaluate_strategies(
            _applicable(entry),
            entry.graph,
            C1_PARAMS,
            C1_TRIALS,
            seed=C1_EVAL_SEED,
            instance=entry.label,
            compute_optimum=False,
        )
    return out


@pytest.fixture(scope="session")
def c3_plans(corpus):
    """Plans whose structure criterion 3 inspects, built at the c1 config."""
    plans = {}
    for entry in corpus:
        plans[(entry.label, "general_vc")] = plan_strategy(
            "general_vc", entry.graph, C1_PARAMS
        )
        if entry.bipartite:
            plans[(entry.label, "mc_matching")] = plan_strategy(
                "mc_matching", entry.graph, C1_PARAMS
            )
            plans[(entry.label, "bipartite_vc")] = plan_strategy(
                "bipartite_vc", entry.graph, C1_PARAMS
            )
    return plans


C4_EPS = 0.3
C4_P = 0.5
C4_T = 20_000


@pytest.fixture(scope="session")
def c4_outcomes(corpus):
    built = []
    for entry in corpus:
        if not entry.bipartite or entry.graph.n > 40:
            continue
        cfg = PartitionConfig(epsilon=C4_EPS, p=C4_P, samples_per_round=C4_T, seed=7)
        built.append((entry, build_partition(entry.graph, cfg)))
    return built


def test_criterion_01_cover_validity(corpus, c1_reports):
    total = 0
    cells = 0
    for entry in corpus:
        for rep in c1_reports[entry.label]:
            total += rep.validity_failures
            cells += 1
            assert rep.validity_failures == 0, (entry.label, rep.strategy)
        if not entry.bipartite:
            for strat in BIPARTITE_ONLY:
                with pytest.raises(ApplicabilityError):
                    plan_strategy(strat, entry.graph, C1_PARAMS)
    assert cells >= 12 * 3
    print(
        f"criterion 1: 0 validity failures over {cells} strategy/instance cells"
        f" x {C1_TRIALS} trials (corpus of {len(corpus)})"
    )


def test_criterion_02_general_ratio():
    bound = math.ceil(64.0 / (0.5**3 * 0.3))
    lines = []
    for label, graph in (
        ("erb(30,30,0.2)", gen_er_bipartite(30, 30, 0.2, seed=7).graph),
        ("er(50,0.1)", gen_er(50, 0.1, seed=0).graph),
    ):
        rep = evaluate_strategies(
            ["general_vc"],
            graph,
            StrategyParams(p=0.3, epsilon=0.5, seed=9),
            C1_TRIALS,
            seed=99,
            instance=label,
        )[0]
        assert rep.validity_failures == 0
        assert rep.ratio is not None and rep.ratio <= 2.6, (label, rep.ratio)
        assert rep.max_pv_queries <= bound, (label, rep.max_pv_queries)
        lines.append(f"{label} ratio={rep.ratio:.4f} max_pv={rep.max_pv_queries}")
    print(f"criterion 2: {'; '.join(lines)} (ratio cap 2.6, per-vertex cap {bound})")


def test_criterion_03_degree_bounds(corpus, c3_plans, c4_outcomes):
    checked = 0
    for entry in corpus:
        plan = c3_plans[(entry.label, "general_vc")]
        cap = math.ceil(1.0 / plan.payload.t)
        assert plan.max_per_vertex_queries <= cap, entry.label
        checked += 1
        if not entry.bipartite:
            continue
        mc = c3_plans[(entry.label, "mc_matching")]
        _side, r = mc.payload
        assert mc.max_per_vertex_queries <= r, entry.label
        outcome = c3_plans[(entry.label, "bipartite_vc")].payload.extra
        per_round = math.ceil(1.0 / (C1_PARAMS.epsilon**2 * C1_PARAMS.p))
        q_deg = entry.graph.degree_of_mask(outcome.partition.in_q)
        limit = outcome.rounds_used * per_round
        assert int(q_deg.max(initial=0)) <= limit, entry.label
        checked += 2
    for entry, outcome in c4_outcomes:
        per_round = math.ceil(1.0 / (C4_EPS**2 * C4_P))
        q_deg = entry.graph.degree_of_mask(outcome.partition.in_q)
        assert int(q_deg.max(initial=0)) <= outcome.rounds_used * per_round
        checked += 1
    print(f"criterion 3: {checked} exact degree-bound checks, zero tolerance")


def test_criterion_04_partition_properties(c4_outcomes):
    assert len(c4_outcomes) == 6
    tau = C4_EPS * C4_EPS * C4_P
    floor = 1.0 - 2.0 * C4_EPS - 0.05
    lines = []
    for entry, out in c4_outcomes:
        g = entry.graph
        hw = math.sqrt(2.0 * math.log(max(g.n, 2)) / C4_T)
        est = estimate_marginals(out.policy, out.partition, g, C4_P, C4_T, seed=1234)
        surviving = [est[e] for e in range(g.m) if not out.partition.in_q[e]]
        worst = max(surviving, default=0.0)
        assert worst <= tau + 3.0 * hw, (entry.label, worst)

        slack = 2.0 * g.m * hw
        trace = out.objective_trace
        for i in range(len(trace) - 1):
            assert trace[i + 1] <= trace[i] + slack, (entry.label, i, trace)

        pol, opt = policy_matching_sizes(out.policy, out.partition, g, C4_P, C4_T, seed=77)
        assert pol >= floor * opt, (entry.label, pol, opt)
        lines.append(f"{entry.label} worstS={worst:.3f} pol/opt={pol / max(opt, 1e-12):.3f}")
    print(f"criterion 4: {'; '.join(lines)} (tau={tau}, floor={floor:.2f})")


def test_partition_with_surviving_s_holds_criterion_04_bound():
    """Criterion 4's surviving-S bound, on a partition that leaves S nonempty.

    Criterion 4's outcomes query every edge, so their S is empty.  This is
    `partition_erb`'s bipartite_vc plan, which leaves a few edges in S; every
    one of them must stay below tau + 3 sqrt(2 ln n / t) on a fresh
    estimate at its own sample count.
    """
    graph = gen_er_bipartite(30, 30, 0.2, seed=7).graph
    eps, p, t = 0.5, 0.3, 2000
    params = StrategyParams(
        p=p, epsilon=eps, seed=13, overrides={"partition_t": t, "partition_rounds": 12}
    )
    out = plan_strategy("bipartite_vc", graph, params).payload.extra
    s_edges = np.flatnonzero(~out.partition.in_q)
    assert len(s_edges) > 0
    tau = eps * eps * p
    bound = tau + 3.0 * math.sqrt(2.0 * math.log(max(graph.n, 2)) / t)
    est = estimate_marginals(out.policy, out.partition, graph, p, t, seed=1234)
    worst = float(est[s_edges].max())
    assert worst <= bound, (worst, bound)
    print(
        f"surviving S: {len(s_edges)} of {graph.m} edges unqueried,"
        f" worst marginal {worst:.4f} (bound {bound:.4f})"
    )


def test_criterion_05_bipartite_ratio(corpus):
    params = StrategyParams(
        p=0.5,
        epsilon=0.1,
        seed=11,
        overrides={"partition_t": 4000, "partition_rounds": 12},
    )
    worst = 0.0
    for entry in corpus:
        if not entry.bipartite:
            continue
        rep = evaluate_strategies(
            ["bipartite_vc"], entry.graph, params, C1_TRIALS, seed=101, instance=entry.label
        )[0]
        assert rep.validity_failures == 0
        assert rep.ratio is not None
        assert rep.ratio <= 2.0, (entry.label, rep.ratio)  # hard fallback
        assert rep.ratio <= 1.45, (entry.label, rep.ratio)  # empirical target
        worst = max(worst, rep.ratio)
    print(f"criterion 5: worst bipartite ratio {worst:.4f} (target 1.45, hard cap 2.0)")


def test_criterion_06_mc_matching_ratio(corpus):
    worst = math.inf
    for p in (0.1, 0.3):
        params = StrategyParams(p=p, epsilon=0.5, seed=5)
        r = mc_realization_count(p)
        for entry in corpus:
            if not entry.bipartite:
                continue
            rep = evaluate_strategies(
                ["mc_matching"], entry.graph, params, C1_TRIALS, seed=55, instance=entry.label
            )[0]
            assert rep.ratio is not None
            assert rep.ratio >= 0.70, (entry.label, p, r, rep.ratio)
            worst = min(worst, rep.ratio)
    print(f"criterion 6: worst matching ratio {worst:.4f} over p in {{0.1, 0.3}} (floor 0.70)")


def test_criterion_07_vim_properties():
    graphs = [
        ("pm(10)", gen_perfect_matching(10, seed=0).graph, 0.5),
        ("path4", Graph(4, ((0, 1), (1, 2), (2, 3))), 0.5),
        ("rb(8,2)", gen_regular_bipartite(8, 2, seed=1).graph, 0.5),
        ("erb(4,4,0.45)", gen_er_bipartite(4, 4, 0.45, seed=2).graph, 0.5),
        ("sdn(2,1,3)", gen_sdn(2, 1, 3, seed=1).graph, 0.3),
    ]
    trials = 100_000
    cov_tol = 3.0 * math.sqrt(0.25 / trials)
    pair_count = 0
    worst_cov = 0.0
    for label, g, p in graphs:
        assert g.n <= 30
        stats = run_vim_trials(g, ALG_HK, p, trials, seed=2024)
        # (i) size guarantee, conservative SE bound for matching sizes
        se_size = math.sqrt((g.n / 2.0) / trials)
        assert stats.mean_vim_size >= (1.0 - 1.0 / math.e) * stats.mean_base_size - 3.0 * se_size, label
        # (ii) A side: matching only on proposal; proposal rate tracks the base rate
        for v in stats.a_vertices:
            assert stats.vim_match_freq[v] <= stats.propose_freq[v] + 1e-12, (label, v)
            assert abs(stats.propose_freq[v] - stats.base_match_freq[v]) <= 3.0 * math.sqrt(
                0.5 / trials
            ), (label, v)
        # (iii) B side never gains probability
        for u in stats.b_vertices:
            assert stats.vim_match_freq[u] <= stats.base_match_freq[u] + 3.0 * math.sqrt(
                0.25 / trials
            ), (label, u)
        # (iv) independence across the sides, all non-adjacent pairs
        pairs = independence_stats(g, ALG_HK, p, trials, seed=2024, stats=stats)
        assert pairs
        for v, u, cov in pairs:
            assert abs(cov) <= cov_tol, (label, v, u, cov)
            worst_cov = max(worst_cov, abs(cov))
        pair_count += len(pairs)
        if label == "path4":
            # the ends of the path are at distance 3
            assert [(v, u) for v, u, _ in pairs] == [(0, 3)]
    print(
        f"criterion 7: {pair_count} non-adjacent pairs, worst |cov|="
        f"{worst_cov:.5f} vs {cov_tol:.5f}; size and per-vertex bounds held"
    )


def test_criterion_08a_baseline_separation():
    """Baseline floor 3.0 on layered(400, 40) at p=0.05, general_vc cap 2.6.

    Both are ratio checks.  The general_vc cap is met with a plan that
    queries all 7780 edges: at eps=0.5, p=0.05 a vertex is committed only at
    ceil(64/(eps^3 p)) = 10,240 incident edges, and no vertex has more than
    200, so general_vc water-fills the fully observed realization and stays
    near 1.00 (1.025 on the pinned seeds).  It is no evidence of query
    efficiency.
    """
    desc = gen_layered_counterexample(400, 40, seed=1)
    graph = desc.graph
    # p is picked from the closed form in the module docstring, not a run.
    params = StrategyParams(p=0.05, epsilon=0.5, seed=21, overrides={"s": 3})
    trials = 2000
    rep_rqb, rep_gen = evaluate_strategies(
        ["random_query_baseline", "general_vc"],
        graph,
        params,
        trials,
        seed=808,
        instance="layered(400,40)",
    )
    cap_n = len(desc.roles["core_side1"]) + len(desc.roles["core_side2"])
    pair_count = len(desc.roles["matched_u"])
    pair_ends = set(desc.roles["matched_u"]) | set(desc.roles["matched_v"])
    plan = plan_strategy("random_query_baseline", graph, params)
    q = sum(
        1
        for e in plan.queried_indices
        if graph.edges[e][0] in pair_ends and graph.edges[e][1] in pair_ends
    )
    # Core vertices cover every core edge; each unqueried pair edge must be
    # covered outright, each queried one only when it is realized.
    p = params.p
    predicted = cap_n + (pair_count - q) + q * p
    answer_tol = 3.0 * math.sqrt(q * p * (1.0 - p) / trials)
    print(
        f"criterion 8a: random_query_baseline ratio={rep_rqb.ratio:.4f}"
        f" (ci95 {rep_rqb.ratio_ci95:.4f}), mean answer {rep_rqb.mean_answer:.3f}"
        f" vs {predicted:.3f} predicted (q={q}), general_vc ratio={rep_gen.ratio:.4f}"
    )
    assert rep_gen.validity_failures == 0 and rep_rqb.validity_failures == 0
    assert rep_gen.ratio is not None and rep_gen.ratio <= 2.6
    assert abs(rep_rqb.mean_answer - predicted) <= answer_tol, (
        f"baseline mean answer {rep_rqb.mean_answer:.3f} is not within {answer_tol:.3f} of"
        f" N+(P-q)+q*p = {predicted:.3f} with N={cap_n}, P={pair_count}, q={q}"
    )
    assert rep_rqb.ratio is not None
    assert rep_rqb.ratio >= 3.0, (
        f"baseline ratio {rep_rqb.ratio:.4f} +/- {rep_rqb.ratio_ci95:.4f} sits below the"
        " 3.0 separation floor: with s=3 of 21 incident edges queried per pair vertex,"
        " a fraction c=(18/21)^2=0.735 of the hidden matching is never queried and must"
        " be covered outright, so the ratio is about (N+P(c+(1-c)p))/(N+Pp) ="
        " 174.6/49=3.56 at p=0.05 (3.21 for a plan with q=66); at p=0.25 it would be"
        " 2.17 and level off at (c+(1-c)p)/p=3.20 as n grows"
    )


def test_criterion_08b_query_nothing_ratio():
    rep = evaluate_strategies(
        ["query_nothing"],
        gen_perfect_matching(40, seed=0).graph,
        StrategyParams(p=0.5, epsilon=0.5, seed=22),
        C1_TRIALS,
        seed=909,
        instance="pm(40)",
    )[0]
    assert rep.ratio is not None
    assert 1.9 <= rep.ratio <= 2.1, rep.ratio
    print(f"criterion 8b: query_nothing ratio {rep.ratio:.4f} in [1.9, 2.1]")


def _mc_stats(graph: Graph, p: float, trials: int, seed: int):
    """Sampled E[nu], E[mu] with their standard errors, exact per trial."""
    sides = bipartition(graph)
    sum_nu = sum_nu2 = sum_mu = sum_mu2 = 0.0
    for k in range(trials):
        mask = rng.bernoulli_mask(rng.derive_seed(seed, k), graph.m, p)
        if sides is not None:
            _pair, _pedge, mu = hk_on_mask(graph, sides.side, mask)
            _cover, nu = mvc_bipartite_on_mask(graph, sides.side, mask)
        else:
            mu = brute_max_matching(graph, mask)
            _cover, nu = mvc_general_on_mask(graph, mask)
        sum_nu += nu
        sum_nu2 += nu * nu
        sum_mu += mu
        sum_mu2 += mu * mu
    mean_nu = sum_nu / trials
    mean_mu = sum_mu / trials
    se_nu = math.sqrt(max(sum_nu2 / trials - mean_nu**2, 0.0) / trials)
    se_mu = math.sqrt(max(sum_mu2 / trials - mean_mu**2, 0.0) / trials)
    return mean_nu, se_nu, mean_mu, se_mu


def test_criterion_09_oracle_cross_checks(corpus):
    p = 0.4
    trials = 100_000
    small = [e for e in corpus if e.graph.m <= 12]
    assert small and any(not e.bipartite for e in small)
    for entry in small:
        exact = exact_expected_stats(entry.graph, p)
        mean_nu, se_nu, mean_mu, se_mu = _mc_stats(entry.graph, p, trials, seed=3030)
        assert abs(mean_nu - exact["E_nu"]) <= 3.0 * max(se_nu, 1e-9), entry.label
        assert abs(mean_mu - exact["E_mu"]) <= 3.0 * max(se_mu, 1e-9), entry.label

    konig_checks = 0
    for entry in corpus:
        if not entry.bipartite:
            continue
        sides = bipartition(entry.graph)
        for k in range(200):
            mask = rng.bernoulli_mask(rng.derive_seed(4040, entry.graph.m, k), entry.graph.m, 0.35)
            _pair, _pedge, mu = hk_on_mask(entry.graph, sides.side, mask)
            cover, nu = mvc_bipartite_on_mask(entry.graph, sides.side, mask)
            assert nu == mu, (entry.label, k)
            assert is_valid_cover(entry.graph, cover, edge_mask=mask), (entry.label, k)
            konig_checks += 1

    bb_checks = 0
    for entry in corpus:
        if entry.graph.n > 14:
            continue
        for k in range(60):
            mask = rng.bernoulli_mask(rng.derive_seed(5050, entry.graph.m, k), entry.graph.m, 0.45)
            _cover, nu = mvc_general_on_mask(entry.graph, mask)
            assert nu == brute_min_vertex_cover(entry.graph, mask), (entry.label, k)
            bb_checks += 1
    assert bb_checks > 0
    print(
        f"criterion 9: {len(small)} enumeration cross-checks at {trials} trials;"
        f" Koenig equality on {konig_checks} realizations; branch-and-bound matched"
        f" brute force on {bb_checks} realizations"
    )


def test_criterion_10_determinism():
    graph = gen_er_bipartite(30, 30, 0.2, seed=7).graph
    strategies = ["general_vc", "bipartite_vc", "mc_matching", "query_nothing"]
    params = StrategyParams(p=0.3, epsilon=0.5, seed=13, overrides={"partition_t": 500})

    def run(threads: int):
        reports = evaluate_strategies(
            strategies, graph, params, 2000, seed=600, instance="erb(30,30,0.2)", threads=threads
        )
        return [rep.csv_row()[:-1] for rep in reports]  # wall_ms is timing, not output

    first = run(1)
    assert run(1) == first, "same-seed repeat diverged"
    assert run(8) == first, "thread count changed output"
    print(f"criterion 10: {len(first)} CSV rows byte-identical at threads 1 and 8")


def test_criterion_11_general_vc_withholds_queries():
    """general_vc at its default constant, on a graph where vertices commit.

    At eps=0.9, p=0.5 the truncation time is t = eps^3 p / 64, so a vertex
    needs at least ceil(1/t) = 176 incident edges to commit; the 40 core
    vertices of layered(400, 40) have 200 each, and the other 360 have 21.  The plan then queries only the edges
    with no committed endpoint, and the answer is the committed set plus
    whatever the residual run saturates on the realized queried edges.
    """
    graph = gen_layered_counterexample(400, 40, seed=1).graph
    eps = 0.9
    params = StrategyParams(p=0.5, epsilon=eps, seed=21)
    payload = plan_strategy("general_vc", graph, params).payload
    rep = evaluate_strategies(
        ["general_vc"], graph, params, 200, seed=808, instance="layered(400,40)"
    )[0]
    committed = int(payload.committed.sum())
    print(
        f"criterion 11: general_vc on layered(400,40) eps={eps} p=0.5 commits {committed}"
        f" vertices, queries {rep.total_queries} of {graph.m} edges (max {rep.max_pv_queries}"
        f" per vertex), ratio {rep.ratio:.4f} (ci95 {rep.ratio_ci95:.4f})"
    )
    assert committed >= 1
    assert rep.total_queries <= 0.05 * graph.m, (rep.total_queries, graph.m)
    assert rep.max_pv_queries <= math.ceil(1.0 / payload.t), rep.max_pv_queries
    assert rep.validity_failures == 0
    assert rep.ratio is not None and rep.ratio <= 2.0 + eps, rep.ratio
