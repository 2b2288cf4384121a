"""Monte-Carlo strategy evaluation against per-trial exact optima.

One evaluation = plan once, then for each trial draw a realization, hand
the strategy only the answers for its queried edges, check the answer
against the full realization, and solve the realization exactly for the
reference optimum.  Trials run in contiguous blocks of at most
`partition.BLOCK_CELLS` edge cells: one kernel draws a block's
realizations in one call, answers them, checks every cover answer of the
block at once, and solves the optima.  The blocks run in this process, or
with `threads` > 1 in that many worker processes, which get the plans once
when they start.

Each trial has one optimum, the size of an exact minimum vertex cover of
its realization, and every row reads it.  A matching row reads it too: the
one matching strategy, `mc_matching`, refuses non-bipartite graphs, and on
a bipartite graph the maximum matching has the size of the minimum cover
(Konig's theorem).  On a general graph the exact cover is refused above a
vertex budget; from the first refusal on, the optimum columns stay empty.
The optimum comes from `strategies.exact_cover_on_mask`, which keeps its
last solve, so a strategy that answered the same trial with an exact cover
of the whole realization (any plan that queried every edge) has already
paid for it.  Trials use seeds derived from (seed, trial
index), so a report is reproducible bit for bit at any block size and
worker count, and separate evaluations with the same seed see the same
realizations (common random numbers).

For tiny graphs there is also a full-enumeration oracle giving exact
expected optimum sizes, used to cross-check the Monte-Carlo pipeline.
"""
from __future__ import annotations

import csv
import math
import threading
import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence, TextIO

import numpy as np

from .errors import CapacityError, ParameterError
from .graphs import Graph, Realization
from .strategies import (
    QueryPlan,
    StrategyAnswer,
    StrategyParams,
    _respond,
    exact_cover_on_mask,
    plan_strategy,
    strategy_kind,
)
from . import partition, rng

__all__ = [
    "CSV_COLUMNS",
    "EvalReport",
    "validity_check",
    "evaluate_strategies",
    "exact_expected_stats",
    "write_csv",
]

_TAG_TRIAL = 41


@dataclass(frozen=True)
class EvalReport:
    """One strategy's evaluation; its fields, in order, are the CSV columns."""

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
        return [_csv_cell(name, getattr(self, name)) for name in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in fields(EvalReport))


def _csv_cell(name: str, value) -> str:
    """One CSV cell: empty for None, repr for a float, str otherwise.

    `wall_ms` is written in whole milliseconds.
    """
    if name == "wall_ms":
        value = int(round(value))
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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


@dataclass(frozen=True)
class _Trials:
    """What every trial block reads, built once by the caller."""

    graph: Graph
    plans: tuple[QueryPlan, ...]
    kinds: tuple[str, ...]
    p: float
    seed: int
    need_opt: bool


@dataclass(frozen=True)
class _BlockResult:
    sizes: np.ndarray  # (plans, rows) answer sizes
    violations: np.ndarray  # (plans, rows)
    opt: np.ndarray  # (rows,) exact optimum per trial
    infeasible: bool  # some trial's exact optimum was refused


def _trial_blocks(trials: int, m: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous [k0, k1) trial blocks of at most BLOCK_CELLS edge cells.

    With several workers a block also holds at most ceil(trials / threads)
    trials, so that every worker gets one.
    """
    rows = max(1, partition.BLOCK_CELLS // max(m, 1))
    if threads > 1:
        rows = min(rows, -(-trials // threads))
    return [(k0, min(trials, k0 + rows)) for k0 in range(0, trials, rows)]


def _run_block(setup: _Trials, k0: int, k1: int) -> _BlockResult:
    """Draw, answer, check and solve trials k0..k1-1.

    Row r of the block's draw is trial k0 + r's realization, the one
    `rng.bernoulli_mask(rng.derive_seed(seed, _TAG_TRIAL, k0 + r), m, p)`
    gives.  Cover answers are stacked and checked for the whole block at
    once; matching answers are checked one by one.  The optimum is the
    exact cover size; once a trial's is refused (`CapacityError`), the
    block solves no more.
    """
    graph = setup.graph
    masks = rng.uniform_rows(rng.derive_seeds(setup.seed, _TAG_TRIAL, k0, k1), graph.m) < setup.p
    rows = k1 - k0
    sizes = np.zeros((len(setup.plans), rows), dtype=np.int64)
    violations = np.zeros((len(setup.plans), rows), dtype=np.int64)
    covers = {
        j: np.zeros((rows, graph.n), dtype=bool)
        for j, kind in enumerate(setup.kinds)
        if kind == "cover"
    }
    opt = np.zeros(rows, dtype=np.float64)
    infeasible = False
    for r, mask in enumerate(masks):
        real = None
        for j, plan in enumerate(setup.plans):
            ans = _respond(plan, mask & plan.queried)
            if j in covers:
                covers[j][r] = ans.cover
                continue
            if real is None:
                real = Realization(graph, mask, setup.p)
            sizes[j, r] = ans.size
            violations[j, r] = validity_check(ans, real)
        if setup.need_opt and not infeasible:
            try:
                opt[r] = exact_cover_on_mask(graph, mask)[1]
            except CapacityError:
                infeasible = True
    eu, ev = graph.edge_u, graph.edge_v
    for j, cover in covers.items():
        sizes[j] = np.count_nonzero(cover, axis=1)
        violations[j] = np.count_nonzero(masks & ~(cover[:, eu] | cover[:, ev]), axis=1)
    return _BlockResult(sizes, violations, opt, infeasible)


# The trials a worker process serves, set once by the pool's initializer.
_worker_setup: Optional[_Trials] = None


def _init_worker(setup: _Trials) -> None:
    global _worker_setup
    _worker_setup = setup


def _run_worker_block(bounds: tuple[int, int]) -> _BlockResult:
    return _run_block(_worker_setup, *bounds)


def _start_method() -> str:
    """Fork while this process runs a single thread, spawn otherwise.

    A forked worker starts in milliseconds with the trials already in its
    memory; a spawned one imports the package and unpickles them, which
    costs about half a second.  But a fork copies every lock as it stands,
    so a lock that another thread holds at that moment stays held in the
    worker for good.
    """
    import multiprocessing

    if threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def _run_in_workers(
    setup: _Trials, blocks: list[tuple[int, int]], workers: int
) -> list[_BlockResult]:
    """The blocks' results in block order, from `workers` worker processes.

    Every worker is gone when this returns.  The pool's modules (about
    1 MiB) are imported here, so a run in one process never loads them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(_start_method()),
        initializer=_init_worker,
        initargs=(setup,),
    ) as pool:
        return list(pool.map(_run_worker_block, blocks))


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
    Monte-Carlo artifacts.  `threads` is the number of worker processes
    the trial blocks are spread over; at 1 they run in this process.  The
    reports do not depend on it.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    if threads < 1:
        raise ParameterError("threads must be at least 1")
    t_start = time.perf_counter()
    plans = tuple(plan_strategy(sid, graph, params) for sid in strategy_ids)

    kinds = tuple(strategy_kind(sid) for sid in strategy_ids)
    setup = _Trials(graph, plans, kinds, params.p, seed, compute_optimum)
    blocks = _trial_blocks(trials, graph.m, threads)
    if threads == 1:
        results = [_run_block(setup, k0, k1) for k0, k1 in blocks]
    else:
        results = _run_in_workers(setup, blocks, min(threads, len(blocks)))

    answer_sizes = np.zeros((len(plans), trials), dtype=np.float64)
    violations = np.zeros((len(plans), trials), dtype=np.int64)
    opts = np.zeros(trials, dtype=np.float64)
    infeasible = False
    for (k0, k1), res in zip(blocks, results):
        answer_sizes[:, k0:k1] = res.sizes
        violations[:, k0:k1] = res.violations
        opts[k0:k1] = res.opt
        infeasible |= res.infeasible

    reports = []
    for j, sid in enumerate(strategy_ids):
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
