"""Spans around the calls into each layer, and the traced workload loops.

The package is not instrumented.  Instead the traced loops below repeat
the loops of `evaluator.evaluate_strategies` and `vim.run_vim_trials` call
for call, with a span around every call into a layer's public function.
To prove they run the same program, each loop recomputes the mean answer
and mean optimum (the mean base and VIM sizes for `vim_small`) from its own
calls, and the caller compares them with the checked-in expected rows.

A span records name, start, end and the index of its parent span.  Spans
stay in memory and are written out once, when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import itertools
import math
import statistics
import time

import numpy as np

from stochcover import rng, vim
from stochcover.errors import CapacityError
# The private seed tags let the traced loops draw exactly the realizations
# that evaluate_strategies and run_vim_trials draw.
from stochcover.evaluator import _TAG_TRIAL, validity_check
from stochcover.graphs import EdgePartition, Realization, bipartition
from stochcover.matching import hk_on_mask, konig_cover_from_pairs, mvc_general_on_mask
from stochcover.partition import MatchingPolicy, PolicyComponent, estimate_marginals
from stochcover.strategies import (
    GENERAL_OPT_BUDGET,
    STRATEGY_IDS,
    plan_strategy,
    respond_strategy,
    strategy_kind,
)

from workloads import EvalWorkload, VimWorkload

_now = time.perf_counter_ns

# At most this many realized masks get the Hopcroft-Karp / Konig probe.
PROBE_MASKS = 200
PARTITION_PROBE_ROUNDS = 3


class Tracer:
    """In-memory span recorder: `with tracer.span(name): ...`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._open: list[int] = []
        self._name = ""

    def span(self, name: str) -> "Tracer":
        self._name = name
        return self

    def __enter__(self) -> "Tracer":
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([self._name, _now(), 0, parent])
        return self

    def __exit__(self, *exc) -> None:
        self.spans[self._open.pop()][2] = _now()

    def durations(self) -> list[int]:
        return [end - start for _name, start, end, _parent in self.spans]

    def self_times(self) -> list[int]:
        out = self.durations()
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def children_of(self, name: str) -> dict[int, list[int]]:
        """Per span called `name`, the indices of its direct children."""
        roots = {i: [] for i, s in enumerate(self.spans) if s[0] == name}
        for i, s in enumerate(self.spans):
            if s[3] in roots:
                roots[s[3]].append(i)
        return roots


# --- evaluation workloads ---------------------------------------------------


def traced_evaluate(wl: EvalWorkload, graph, trial_seed: int, tr: Tracer,
                    trials: int | None = None):
    """`evaluate_strategies` call for call.

    Returns (outputs by strategy id, the partition outcome of the
    `bipartite_vc` plan or None).  The outputs are the mean answer, mean
    optimum and validity failures, recomputed from this function's own calls.
    """
    trials = wl.trials if trials is None else trials
    params = wl.params()
    plans = []
    for sid in wl.strategies:
        with tr.span(f"strategies.plan.{sid}"):
            plans.append(plan_strategy(sid, graph, params))
    kinds = [strategy_kind(sid) for sid in wl.strategies]
    need_nu = any(k == "cover" for k in kinds)
    need_mu = any(k == "matching" for k in kinds)
    with tr.span("graphs.bipartition"):
        sides = bipartition(graph)
    side = sides.side if sides is not None else None
    infeasible_nu = False
    answers = np.zeros((len(plans), trials), dtype=np.float64)
    violations = [0] * len(plans)
    nu_vals = np.zeros(trials, dtype=np.float64)
    mu_vals = np.zeros(trials, dtype=np.float64)
    q_indices = [plan.queried_indices for plan in plans]
    respond_names = [f"strategies.respond.{sid}" for sid in wl.strategies]
    for k in range(trials):
        with tr.span("trial"):
            with tr.span("rng.draw"):
                mask = rng.bernoulli_mask(rng.derive_seed(trial_seed, _TAG_TRIAL, k), graph.m, wl.p)
            real = Realization(graph, mask, wl.p)
            for j, plan in enumerate(plans):
                with tr.span(respond_names[j]):
                    ans = respond_strategy(plan, mask[q_indices[j]])
                answers[j, k] = ans.size
                with tr.span("evaluator.validity"):
                    violations[j] += validity_check(ans, real)
            if need_nu and not infeasible_nu:
                with tr.span("evaluator.opt"):
                    try:
                        if side is not None:
                            nu_vals[k] = hk_on_mask(graph, side, mask)[2]
                        else:
                            nu_vals[k] = mvc_general_on_mask(graph, mask, GENERAL_OPT_BUDGET)[1]
                    except CapacityError:
                        infeasible_nu = True
            if need_mu:
                with tr.span("evaluator.opt"):
                    mu_vals[k] = hk_on_mask(graph, side, mask)[2]
    means = {}
    for j, sid in enumerate(wl.strategies):
        opts = nu_vals if kinds[j] == "cover" else mu_vals
        infeasible = infeasible_nu if kinds[j] == "cover" else side is None
        mean_opt = None if infeasible else math.fsum(opts) / trials
        means[sid] = {
            "mean_answer": math.fsum(answers[j]) / trials,
            "mean_opt": mean_opt,
            "validity_failures": violations[j],
        }
    outcome = next((p.payload.extra for p in plans if p.strategy == "bipartite_vc"), None)
    return means, outcome


def partition_counts(outcome) -> dict:
    """The exact counts of `build_partition`, from a `bipartite_vc` plan's outcome."""
    return {
        "rounds_used": outcome.rounds_used,
        "rounds_kept": len(outcome.objective_trace),
        "swaps": outcome.diagnostics["swaps"],
        "samples_per_round": outcome.diagnostics["samples_per_round"],
    }


def probe_matching(graph, masks, tr: Tracer) -> None:
    """Hopcroft-Karp then Konig on the first realized masks of a workload."""
    sides = bipartition(graph)
    if sides is None:
        return
    for mask in itertools.islice(masks, PROBE_MASKS):
        with tr.span("matching.hk"):
            pair, _pedge, _size = hk_on_mask(graph, sides.side, mask)
        with tr.span("matching.konig"):
            konig_cover_from_pairs(graph, sides.side, mask, pair, strict=True)


def probe_partition_round(graph, wl: EvalWorkload, tr: Tracer) -> None:
    """`estimate_marginals` rounds from an empty query set: a build's first round."""
    t = int(wl.overrides["partition_t"])
    policy = MatchingPolicy(graph, ((1.0, PolicyComponent(in_q=(False,) * graph.m)),))
    empty = EdgePartition(graph, np.zeros(graph.m, dtype=bool))
    for r in range(PARTITION_PROBE_ROUNDS):
        with tr.span("partition.round"):
            estimate_marginals(policy, empty, graph, wl.p, t, rng.derive_seed(wl.seed, r))


# --- vim --------------------------------------------------------------------


def traced_vim(wl: VimWorkload, graphs, trial_seed: int, tr: Tracer) -> dict:
    """`run_vim_trials` per graph, call for call; returns mean sizes by graph."""
    trials = wl.trials
    means = {}
    for spec, g in zip(wl.graphs, graphs):
        with tr.span("graphs.bipartition"):
            sides = bipartition(g)
        a_vs = np.nonzero(sides.side == 0)[0]
        cache = vim.ExactRowCache(vim.ALG_HK, g, spec.p)
        base_total = 0
        vim_total = 0
        for s in range(trials):
            with tr.span("trial"):
                with tr.span("rng.draw"):
                    mask = rng.bernoulli_mask(rng.derive_seed(trial_seed, vim._TAG_TRIAL, s), g.m, spec.p)
                with tr.span("vim.base_matcher"):
                    matched = vim.run_base_matcher(vim.ALG_HK, g, mask, cache.side)
                with tr.span("vim.row"):
                    rows = tuple(cache.row(vim.profile_of(g, int(v), mask)) for v in a_vs)
                real = Realization(g, mask, spec.p)
                table = vim.ProposalTable(rows)
                with tr.span("vim.round"):
                    outcome = vim.vim_round(
                        real, table, rng.derive_seed(trial_seed, vim._TAG_PROPOSE, s)
                    )
            base_total += len(matched)
            vim_total += outcome.matching.size
        means[spec.label] = {
            "mean_base_size": base_total / float(trials),
            "mean_vim_size": vim_total / float(trials),
        }
    return means


# --- per-layer metrics ------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tr: Tracer, untraced_s: float, counts: dict) -> tuple[dict, dict]:
    """(metrics by name, self time in ns by span name over the loops).

    `untraced_s` is the median untraced entry call; `counts` holds the
    counts of `build_partition`, empty when the workload builds no partition.
    """
    durs = tr.durations()
    selfs = tr.self_times()
    by_name: dict[str, list[int]] = {}
    loop_of = [-1] * len(tr.spans)  # index of the enclosing "loop" span, or -1
    for i, (name, _start, _end, parent) in enumerate(tr.spans):
        by_name.setdefault(name, []).append(durs[i])
        loop_of[i] = i if name == "loop" else (loop_of[parent] if parent >= 0 else -1)

    # per-trial totals of the spans directly under each "trial" span
    per_trial: dict[str, list[int]] = {}
    for kids in tr.children_of("trial").values():
        total: dict[str, int] = {}
        for i in kids:
            total[tr.spans[i][0]] = total.get(tr.spans[i][0], 0) + durs[i]
        for name, ns in total.items():
            per_trial.setdefault(name, []).append(ns)

    # per-loop totals, i.e. per traced entry call
    per_loop: dict[str, dict[int, int]] = {}
    self_ns: dict[str, int] = {}
    for i, (name, _start, _end, _parent) in enumerate(tr.spans):
        if loop_of[i] >= 0:
            loop_totals = per_loop.setdefault(name, {})
            loop_totals[loop_of[i]] = loop_totals.get(loop_of[i], 0) + durs[i]
            self_ns[name] = self_ns.get(name, 0) + selfs[i]

    def trial_us(name):
        return _median(per_trial.get(name, [])) / 1e3

    def call_ms(name):
        return _median(by_name.get(name, [])) / 1e6

    def loop_ms(name):
        return _median(list(per_loop.get(name, {}).values())) / 1e6

    m = {"rng.draw_us": trial_us("rng.draw")}
    for sid in STRATEGY_IDS:
        m[f"strategies.plan.{sid}_ms"] = call_ms(f"strategies.plan.{sid}")
        m[f"strategies.respond.{sid}_us"] = trial_us(f"strategies.respond.{sid}")
    m["evaluator.validity_us"] = trial_us("evaluator.validity")
    m["evaluator.opt_us"] = trial_us("evaluator.opt")
    m["graphs.bipartition_ms"] = call_ms("graphs.bipartition")
    m["matching.hk_us"] = call_ms("matching.hk") * 1e3
    m["matching.konig_us"] = call_ms("matching.konig") * 1e3
    m["partition.round_ms"] = call_ms("partition.round")
    t = counts.get("samples_per_round", 0)
    m["partition.sample_us"] = m["partition.round_ms"] * 1e3 / t if t else 0.0
    used = counts.get("rounds_used", 0)
    kept = counts.get("rounds_kept", 0)
    m["partition.rounds_used"] = used
    m["partition.rounds_kept"] = kept
    m["partition.swaps"] = counts.get("swaps", 0)
    m["partition.kept_ratio"] = kept / used if used else 0.0
    m["vim.base_matcher_us"] = trial_us("vim.base_matcher")
    m["vim.row_us"] = trial_us("vim.row")
    m["vim.row_per_call_ms"] = loop_ms("vim.row")
    m["vim.round_us"] = trial_us("vim.round")
    loops = per_loop.get("loop", {})
    m["trace.overhead"] = loop_ms("loop") / 1e3 / untraced_s
    uncovered = self_ns.get("loop", 0) + self_ns.get("trial", 0)
    m["trace.unattributed"] = uncovered / sum(loops.values()) if loops else 0.0
    return m, self_ns
