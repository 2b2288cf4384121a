"""The four benchmark workloads, their entry calls and the expected-row check.

Every workload is closed-loop and single-threaded: one process calls the
workload's entry point, waits for it, checks the output, and calls again.

The instance, the strategy parameters and the plan seed are fixed per
workload, so every run does the same planning work.  The benchmark's
``--seed`` picks the trial-realization stream: stream ``seed % STREAMS`` of
the workload, whose expected rows are checked in under ``expected/``.
Stream 0 uses the plan seed for the trials too, so apart from the
instance label and ``wall_ms`` its rows equal the CSV of ``stochcover
compare --graph <instance file> --seed <plan seed>`` with the same settings.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from stochcover.evaluator import evaluate_strategies, write_csv
from stochcover.graphs import Graph
from stochcover.instances import (
    gen_er,
    gen_er_bipartite,
    gen_layered_counterexample,
    gen_perfect_matching,
    gen_regular_bipartite,
    gen_sdn,
)
from stochcover.strategies import StrategyParams
from stochcover.vim import ALG_HK, independence_stats, run_vim_trials

STREAMS = 16
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Columns whose value is a timing, not an output: never compared.
TIMING_COLUMNS = frozenset({"wall_ms"})


@dataclass(frozen=True)
class EvalWorkload:
    """One `evaluate_strategies` + `write_csv` call on a fixed instance."""

    name: str
    make: Callable[[], Any]  # returns an InstanceDescriptor
    strategies: tuple[str, ...]
    p: float
    epsilon: float
    seed: int  # plan seed, and the trial seed of stream 0
    trials: int
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def params(self) -> StrategyParams:
        return StrategyParams(
            p=self.p, epsilon=self.epsilon, seed=self.seed, overrides=dict(self.overrides)
        )

    def setup(self) -> tuple[Graph, str]:
        desc = self.make()
        return desc.graph, desc.label()

    def trial_seed(self, seed: int) -> int:
        return self.seed + seed % STREAMS

    def run(self, inputs: tuple[Graph, str], seed: int) -> list[dict]:
        """The timed entry call: evaluate, write the CSV, return its rows."""
        graph, label = inputs
        reports = evaluate_strategies(
            self.strategies,
            graph,
            self.params(),
            self.trials,
            self.trial_seed(seed),
            instance=label,
            threads=1,
        )
        buf = io.StringIO()
        write_csv(reports, buf)
        return list(csv.DictReader(io.StringIO(buf.getvalue())))


@dataclass(frozen=True)
class VimGraph:
    label: str
    make: Callable[[], Any]
    p: float


@dataclass(frozen=True)
class VimWorkload:
    """`run_vim_trials` + `independence_stats` on each of a few tiny graphs."""

    name: str
    graphs: tuple[VimGraph, ...]
    seed: int
    trials: int

    def setup(self) -> list[Graph]:
        return [g.make().graph for g in self.graphs]

    def trial_seed(self, seed: int) -> int:
        return self.seed + seed % STREAMS

    def run(self, inputs: list[Graph], seed: int) -> list[dict]:
        """The timed entry call: trial stats and covariances, one row per graph."""
        trials = self.trials
        s = self.trial_seed(seed)
        rows = []
        for spec, graph in zip(self.graphs, inputs):
            stats = run_vim_trials(graph, ALG_HK, spec.p, trials, s)
            cov = independence_stats(graph, ALG_HK, spec.p, trials, s, stats=stats)
            rows.append(vim_row(spec.label, stats, cov))
        return rows


def vim_row(label: str, stats, cov) -> dict:
    """Every `VimTrialStats` field plus the covariance list, as JSON values."""
    return {
        "graph": label,
        "trials": stats.trials,
        "a_vertices": list(stats.a_vertices),
        "b_vertices": list(stats.b_vertices),
        "mean_base_size": stats.mean_base_size,
        "mean_vim_size": stats.mean_vim_size,
        "base_match_freq": stats.base_match_freq.tolist(),
        "propose_freq": stats.propose_freq.tolist(),
        "vim_match_freq": stats.vim_match_freq.tolist(),
        "pair_joint_freq": stats.pair_joint_freq.tolist(),
        "covariances": [[v, u, c] for v, u, c in cov],
    }


# Trial counts keep each entry call short (0.3-0.6 s; partition_erb about
# 2.5 s, nearly all of it the partition build) on a 2-core x86 VM, so that
# one run makes many calls and their median is steady on a shared machine.
WORKLOADS: dict[str, EvalWorkload | VimWorkload] = {
    w.name: w
    for w in (
        # Trial-dominated: planning is a few percent; exact Hopcroft-Karp, Konig
        # and bipartition run on 7780-edge masks every trial.
        EvalWorkload(
            name="trials_layered",
            make=lambda: gen_layered_counterexample(400, 40, seed=1),
            strategies=("random_query_baseline", "general_vc", "query_everything", "query_nothing"),
            p=0.25,
            epsilon=0.5,
            seed=21,
            trials=20,
            overrides={"s": 3},
        ),
        # Plan-dominated: the partition build (criterion 1's settings) makes
        # thousands of warm-started matchings on a 172-edge graph, where
        # per-call overhead dominates.  Also covers the matching answer kind.
        EvalWorkload(
            name="partition_erb",
            make=lambda: gen_er_bipartite(30, 30, 0.2, seed=7),
            strategies=("bipartite_vc", "one_plus_eps_vc", "mc_matching"),
            p=0.3,
            epsilon=0.5,
            seed=13,
            trials=150,
            overrides={"partition_t": 2000, "partition_rounds": 12},
        ),
        # Non-bipartite: branch and bound and filling do the work, Hopcroft-Karp
        # and partition are bypassed, so a matching change should not move it.
        EvalWorkload(
            name="general_er",
            make=lambda: gen_er(50, 0.1, seed=0),
            strategies=("general_vc", "random_query_baseline", "query_nothing", "query_everything"),
            p=0.3,
            epsilon=0.5,
            seed=13,
            trials=400,
        ),
        # The vim layer, on criterion 7's graphs; the sdn row-cache fill is most
        # of each call.
        VimWorkload(
            name="vim_small",
            graphs=(
                VimGraph("pm(10)", lambda: gen_perfect_matching(10, seed=0), 0.5),
                VimGraph("rb(8,2)", lambda: gen_regular_bipartite(8, 2, seed=1), 0.5),
                VimGraph("sdn(2,1,3)", lambda: gen_sdn(2, 1, 3, seed=1), 0.3),
            ),
            seed=2024,
            trials=600,
        ),
    )
}


def expected_path(name: str) -> Path:
    return EXPECTED_DIR / f"{name}.json"


def load_expected(name: str, trial_seed: int) -> list[dict]:
    with open(expected_path(name), encoding="utf-8") as fh:
        return json.load(fh)["streams"][str(trial_seed)]


def row_failures(expected: list[dict], actual: list[dict]) -> int:
    """Number of expected rows the actual output fails.

    Columns are compared by name, so columns the actual rows add are
    ignored and timing columns never count.  A row also fails when it
    reports validity failures, and every expected row without an actual
    counterpart fails.
    """
    failed = 0
    for k, exp in enumerate(expected):
        if k >= len(actual):
            failed += 1
            continue
        act = actual[k]
        same = all(
            col in act and act[col] == value
            for col, value in exp.items()
            if col not in TIMING_COLUMNS
        )
        if not same or act.get("validity_failures", "0") != "0":
            failed += 1
    return failed


def strip_timing(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in row.items() if k not in TIMING_COLUMNS} for row in rows]


def graph_sizes(workload, inputs) -> list[dict]:
    """n and m of every graph a workload runs on, for the run metadata."""
    if isinstance(workload, VimWorkload):
        return [
            {"graph": spec.label, "n": g.n, "m": g.m}
            for spec, g in zip(workload.graphs, inputs)
        ]
    graph, label = inputs
    return [{"graph": label, "n": graph.n, "m": graph.m}]

