"""Monte-Carlo strategy evaluation against per-trial exact optima.

One evaluation = plan once, then for each trial draw a realization, hand
the strategy only the answers for its queried edges, check the answer
against the full realization, and solve the realization exactly for the
reference optimum.  The optimum comes from `strategies.exact_cover_on_mask`,
which keeps its last solve, so a strategy that answered the same trial with
an exact cover of the whole realization (any plan that queried every edge)
has already paid for it.  Trials use seeds derived from (seed, trial
index), so a report is reproducible bit for bit at any thread count, and
separate evaluations with the same seed see the same realizations (common
random numbers).

For tiny graphs there is also a full-enumeration oracle giving exact
expected optimum sizes, used to cross-check the Monte-Carlo pipeline.
"""
from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from .errors import CapacityError, ParameterError
from .graphs import Graph, Realization, bipartition
from .strategies import (
    QueryPlan,
    StrategyAnswer,
    StrategyParams,
    exact_cover_on_mask,
    plan_strategy,
    respond_strategy,
    strategy_kind,
)
from . import rng

__all__ = [
    "CSV_COLUMNS",
    "EvalReport",
    "validity_check",
    "evaluate_strategies",
    "exact_expected_stats",
    "write_csv",
]

_TAG_TRIAL = 41

CSV_COLUMNS = (
    "instance",
    "strategy",
    "p",
    "epsilon",
    "trials",
    "seed",
    "mean_answer",
    "mean_opt",
    "ratio",
    "ratio_ci95",
    "max_pv_queries",
    "total_queries",
    "validity_failures",
    "wall_ms",
)


@dataclass(frozen=True)
class EvalReport:
    instance: str
    strategy: str
    p: float
    epsilon: float
    trials: int
    seed: int
    mean_answer: float
    mean_opt: Optional[float]
    ratio: Optional[float]
    ratio_ci95: Optional[float]
    max_pv_queries: int
    total_queries: int
    validity_failures: int
    wall_ms: float

    def csv_row(self) -> list[str]:
        def num(x) -> str:
            if x is None:
                return ""
            if isinstance(x, float):
                return repr(x)
            return str(x)

        return [
            self.instance,
            self.strategy,
            num(self.p),
            num(self.epsilon),
            str(self.trials),
            str(self.seed),
            num(self.mean_answer),
            num(self.mean_opt),
            num(self.ratio),
            num(self.ratio_ci95),
            str(self.max_pv_queries),
            str(self.total_queries),
            str(self.validity_failures),
            str(int(round(self.wall_ms))),
        ]


def validity_check(answer: StrategyAnswer, realization: Realization) -> int:
    """Count violations of the unconditional-answer contract.

    Covers: realized edges with neither endpoint chosen.  Matchings: edges
    that are unrealized, plus edges sharing a vertex with an earlier one.
    """
    g = realization.parent
    mask = realization.mask
    if answer.kind == "cover":
        if g.m == 0:
            return 0
        cov = answer.cover
        bad = mask & ~(cov[g.edge_u] | cov[g.edge_v])
        return int(np.count_nonzero(bad))
    violations = 0
    used: set[int] = set()
    for e in answer.matched_edges:
        u, v = g.edges[e]
        if not mask[e] or u in used or v in used:
            violations += 1
        used.add(u)
        used.add(v)
    return violations


def _ratio_ci95(answers: np.ndarray, opts: np.ndarray) -> Optional[float]:
    """Delta-method 95% half-width for mean(answers)/mean(opts)."""
    n = len(answers)
    ybar = math.fsum(opts) / n
    if ybar == 0 or n < 2:
        return None
    xbar = math.fsum(answers) / n
    r = xbar / ybar
    dx = answers - xbar
    dy = opts - ybar
    var_x = math.fsum(dx * dx) / (n - 1)
    var_y = math.fsum(dy * dy) / (n - 1)
    cov_xy = math.fsum(dx * dy) / (n - 1)
    var_r = (var_x - 2.0 * r * cov_xy + r * r * var_y) / (n * ybar * ybar)
    return 1.96 * math.sqrt(max(var_r, 0.0))


class _OptimumSolver:
    """Per-realization exact nu / mu with a one-way infeasibility latch."""

    def __init__(self, graph: Graph):
        self.graph = graph
        sides = bipartition(graph)
        self.side = sides.side if sides is not None else None
        self.infeasible_nu = False
        self.infeasible_mu = self.side is None  # no general matching solver here

    def solve(self, mask: np.ndarray, need_nu: bool, need_mu: bool) -> tuple[int, int]:
        """(nu, mu) of one realization; 0 for a value not needed or out of reach.

        On a bipartite graph one exact cover gives both, since nu = mu
        there (Konig's theorem).  Otherwise mu is out of reach, and nu comes
        from the exact general cover (reductions, then branch and bound on
        the kernel) until a mask first exceeds GENERAL_OPT_BUDGET active
        vertices.
        """
        if self.side is not None:
            size = exact_cover_on_mask(self.graph, mask)[1]
            return (size if need_nu else 0), (size if need_mu else 0)
        if not need_nu or self.infeasible_nu:
            return 0, 0
        try:
            return exact_cover_on_mask(self.graph, mask)[1], 0
        except CapacityError:
            self.infeasible_nu = True
            return 0, 0


def evaluate_strategies(
    strategy_ids: Sequence[str],
    graph: Graph,
    params: StrategyParams,
    trials: int,
    seed: int,
    instance: str = "instance",
    compute_optimum: bool = True,
    threads: int = 1,
) -> list[EvalReport]:
    """Evaluate several strategies on shared per-trial realizations.

    All strategies see identical realizations, and per-trial optima are
    solved once and shared, so ratio differences between rows are not
    Monte-Carlo artifacts.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    if threads < 1:
        raise ParameterError("threads must be at least 1")
    t_start = time.perf_counter()
    plans: list[QueryPlan] = [plan_strategy(sid, graph, params) for sid in strategy_ids]

    kinds = [strategy_kind(sid) for sid in strategy_ids]
    need_nu = compute_optimum and any(k == "cover" for k in kinds)
    need_mu = compute_optimum and any(k == "matching" for k in kinds)
    solver = _OptimumSolver(graph)

    k_strats = len(plans)
    answer_sizes = np.zeros((k_strats, trials), dtype=np.float64)
    violations = np.zeros((k_strats, trials), dtype=np.int64)
    nu_vals = np.zeros(trials, dtype=np.float64)
    mu_vals = np.zeros(trials, dtype=np.float64)
    q_indices = [plan.queried_indices for plan in plans]

    def run_trial(k: int) -> None:
        mask = rng.bernoulli_mask(rng.derive_seed(seed, _TAG_TRIAL, k), graph.m, params.p)
        real = Realization(graph, mask, params.p)
        for j, plan in enumerate(plans):
            ans = respond_strategy(plan, mask[q_indices[j]])
            answer_sizes[j, k] = ans.size
            violations[j, k] = validity_check(ans, real)
        if need_nu or need_mu:
            nu_vals[k], mu_vals[k] = solver.solve(mask, need_nu, need_mu)

    if threads == 1:
        for k in range(trials):
            run_trial(k)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_trial, range(trials)))

    reports = []
    for j, sid in enumerate(strategy_ids):
        kind = kinds[j]
        opts = nu_vals if kind == "cover" else mu_vals
        infeasible = solver.infeasible_nu if kind == "cover" else solver.infeasible_mu
        mean_answer = math.fsum(answer_sizes[j]) / trials
        if compute_optimum and not infeasible:
            mean_opt: Optional[float] = math.fsum(opts) / trials
            ratio = mean_answer / mean_opt if mean_opt else None
            ci = _ratio_ci95(answer_sizes[j], opts) if mean_opt else None
        else:
            mean_opt = ratio = ci = None
        wall = (time.perf_counter() - t_start) * 1000.0
        reports.append(
            EvalReport(
                instance=instance,
                strategy=sid,
                p=params.p,
                epsilon=params.epsilon,
                trials=trials,
                seed=seed,
                mean_answer=mean_answer,
                mean_opt=mean_opt,
                ratio=ratio,
                ratio_ci95=ci,
                max_pv_queries=plans[j].max_per_vertex_queries,
                total_queries=plans[j].total_queries,
                validity_failures=int(violations[j].sum()),
                wall_ms=wall,
            )
        )
    return reports


def exact_expected_stats(graph: Graph, p: float) -> dict[str, float]:
    """Exact E[nu(G_p)] and E[mu(G_p)] by weighted enumeration, m <= 20.

    Bottom-up over edge subsets: both quantities satisfy one-edge
    recurrences (branch on the lowest-index present edge), so each subset
    costs O(1) given its sub-subsets.
    """
    m = graph.m
    if m > 20:
        raise CapacityError(f"exact enumeration over 2^{m} subsets refused")
    if not (0.0 <= p <= 1.0):
        raise ParameterError("p must lie in [0, 1]")
    if m == 0:
        return {"E_nu": 0.0, "E_mu": 0.0}

    # per-edge bitmasks of conflicting edges (sharing an endpoint)
    touch_u = [0] * graph.n
    for e, (u, v) in enumerate(graph.edges):
        touch_u[u] |= 1 << e
        touch_u[v] |= 1 << e
    conflict = [touch_u[u] | touch_u[v] for (u, v) in graph.edges]
    endpoint_masks = [(touch_u[u], touch_u[v]) for (u, v) in graph.edges]

    size = 1 << m
    mu = [0] * size
    nu = [0] * size
    lowbit_index = [0] * size
    for mask in range(1, size):
        e = (mask & -mask).bit_length() - 1
        lowbit_index[mask] = e
        bit = 1 << e
        mu[mask] = max(mu[mask & ~bit], 1 + mu[mask & ~conflict[e]])
        um, vm = endpoint_masks[e]
        nu[mask] = 1 + min(nu[mask & ~um], nu[mask & ~vm])

    weights = [0.0] * (m + 1)
    for k in range(m + 1):
        weights[k] = (p**k) * ((1.0 - p) ** (m - k))
    e_nu = math.fsum(weights[mask.bit_count()] * nu[mask] for mask in range(size))
    e_mu = math.fsum(weights[mask.bit_count()] * mu[mask] for mask in range(size))
    return {"E_nu": e_nu, "E_mu": e_mu}


def write_csv(reports: Sequence[EvalReport], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        writer.writerow(report.csv_row())
