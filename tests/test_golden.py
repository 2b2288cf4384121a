"""Every strategy's CSV output and a set of partition artifacts, pinned byte for byte.

`golden_rows.csv` holds the rows of the cases below in every column but
`wall_ms`, which is timing.  The evaluation must write exactly those bytes
in one process and on three worker processes.  `golden_partitions.txt`
holds, for each of PARTITION_CASES, the builder's `outcome_to_text`
artifact and its sorted diagnostics.  Both files are the program's output
as it stood when they were written, by

    PYTHONPATH=src python tests/test_golden.py > tests/golden_rows.csv
    PYTHONPATH=src python tests/test_golden.py partitions > tests/golden_partitions.txt

A change to either is a change to what the program reports, and has to be
argued as one.
"""
import csv
import functools
import io
import sys
from pathlib import Path

import pytest

from stochcover.evaluator import CSV_COLUMNS, evaluate_strategies
from stochcover.instances import from_family
from stochcover.partition import (
    PartitionConfig,
    build_partition,
    outcome_to_text,
)
from stochcover.strategies import STRATEGY_IDS, StrategyParams

GOLDEN = Path(__file__).resolve().parent / "golden_rows.csv"
GOLDEN_PARTITIONS = Path(__file__).resolve().parent / "golden_partitions.txt"

GENERAL_IDS = ("general_vc", "random_query_baseline", "query_nothing", "query_everything")

# (family, family params, graph seed, strategies, strategy params, trials, trial seed)
CASES = [
    ("er_bipartite", {"na": 8, "nb": 8, "edge_prob": 0.4}, 2, STRATEGY_IDS,
     StrategyParams(p=0.4, seed=3, overrides={"partition_t": 200}), 60, 11),
    ("layered", {"n": 60, "cap_n": 12}, 1, STRATEGY_IDS,
     StrategyParams(p=0.25, seed=5, overrides={"partition_t": 100}), 30, 7),
    ("sdn", {"d": 3, "s": 5, "cap_n": 6}, 1, STRATEGY_IDS,
     StrategyParams(p=0.3, epsilon=0.4, seed=2, overrides={"partition_t": 100}), 40, 13),
    ("regular_bipartite", {"n": 20, "d": 3}, 1, STRATEGY_IDS,
     StrategyParams(p=0.5, seed=4, overrides={"partition_t": 100}), 40, 17),
    ("perfect_matching", {"n": 10}, 0, STRATEGY_IDS,
     StrategyParams(p=0.6, seed=6, overrides={"partition_t": 100}), 50, 19),
    ("er", {"n": 30, "edge_prob": 0.15}, 3, GENERAL_IDS,
     StrategyParams(p=0.4, seed=3), 60, 23),
    ("er", {"n": 26, "edge_prob": 0.1}, 5, GENERAL_IDS,
     StrategyParams(p=0.3, seed=1, overrides={"t": 0.2}), 60, 29),
    ("er", {"n": 50, "edge_prob": 0.1}, 4, GENERAL_IDS,
     StrategyParams(p=0.5, seed=8, overrides={"s": 9}), 40, 31),
    # every realization exceeds the exact general solver's budget
    ("er", {"n": 120, "edge_prob": 0.1}, 2, ("general_vc",),
     StrategyParams(p=0.5), 30, 37),
    ("er_bipartite", {"na": 8, "nb": 8, "edge_prob": 0.4}, 2, ("random_query_baseline",),
     StrategyParams(p=0.4, seed=3, overrides={"s": 0}), 40, 41),
    ("er", {"n": 26, "edge_prob": 0.1}, 5, ("random_query_baseline",),
     StrategyParams(p=0.4, seed=3, overrides={"s": 0}), 40, 43),
]


def golden_text(threads: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS[:-1])
    for family, fparams, gseed, ids, params, trials, seed in CASES:
        desc = from_family(family, fparams, gseed)
        reports = evaluate_strategies(
            ids, desc.graph, params, trials, seed, instance=desc.label(), threads=threads
        )
        for report in reports:
            writer.writerow(report.csv_row()[:-1])
    return buf.getvalue()


def test_golden_columns_leave_out_only_the_timing():
    assert CSV_COLUMNS[-1] == "wall_ms"


@pytest.mark.parametrize("threads", [1, 3])
def test_rows_match_the_golden_file(threads):
    assert golden_text(threads) == GOLDEN.read_text()


ERB8 = ("er_bipartite", {"na": 8, "nb": 8, "edge_prob": 0.3})
ERB12 = ("er_bipartite", {"na": 12, "nb": 10, "edge_prob": 0.2})
ERB30 = ("er_bipartite", {"na": 30, "nb": 30, "edge_prob": 0.2})
LAYERED = ("layered", {"n": 60, "cap_n": 12})
SMALL = (
    ("perfect_matching", {"n": 10}, 0),
    ("sdn", {"d": 2, "s": 1, "cap_n": 3}, 1),
    ("regular_bipartite", {"n": 10, "d": 3}, 2),
)

# (family, family params, graph seed, epsilon, p, plan seed, max_rounds); every
# build draws 200 samples a round.  The two layered builds hit MAX_SWAPS: the
# first ends round_cap after 24 rounds, the second case1 after 22.
PARTITION_CASES = [
    *((*ERB8, s, 0.5, 0.3, 0, 12) for s in range(8)),
    *((*ERB12, s, 0.3, 0.5, 1, 12) for s in range(8)),
    *((*ERB8, s, 0.9, 0.9, 1, 1 + s % 2) for s in range(4)),
    *((*ERB12, s, 0.4, 0.6, 0, 2) for s in range(4)),
    *(case for fam in SMALL
      for case in ((*fam, 0.5, 0.3, 0, 12), (*fam, 0.3, 0.5, 1, 2), (*fam, 0.7, 0.7, 0, 1))),
    (*ERB30, 7, 0.5, 0.3, 0, 12),
    (*ERB30, 7, 0.3, 0.5, 1, 12),
    (*ERB30, 7, 0.9, 0.9, 1, 3),
    (*LAYERED, 1, 0.5, 0.3, 0, 12),
    (*LAYERED, 1, 0.3, 0.5, 0, 12),
]


@functools.lru_cache(maxsize=None)
def golden_builds():
    """(case, graph, outcome) for every case of PARTITION_CASES."""
    builds = []
    for case in PARTITION_CASES:
        family, fparams, gseed, eps, p, plan_seed, rounds = case
        graph = from_family(family, fparams, gseed).graph
        cfg = PartitionConfig(
            epsilon=eps, p=p, max_rounds=rounds, samples_per_round=200, seed=plan_seed
        )
        builds.append((case, graph, build_partition(graph, cfg)))
    return tuple(builds)


def build_line(case) -> str:
    family, fparams, gseed, eps, p, plan_seed, rounds = case
    fp = " ".join(f"{k}={v}" for k, v in fparams.items())
    return (f"build {family} {fp} seed={gseed} epsilon={eps} p={p}"
            f" plan_seed={plan_seed} max_rounds={rounds}\n")


def golden_partitions_text() -> str:
    buf = io.StringIO()
    for case, _g, out in golden_builds():
        buf.write(build_line(case))
        buf.write(outcome_to_text(out))
        for key in sorted(out.diagnostics):
            buf.write(f"diagnostics {key} {out.diagnostics[key]!r}\n")
    return buf.getvalue()


def test_partitions_match_the_golden_file():
    assert golden_partitions_text() == GOLDEN_PARTITIONS.read_text()


def assert_degree_bound(graph, out):
    # a vertex's marginals sum to at most 1 and a heavy edge's exceed
    # tau, so each growth step adds at most per_round_degree_cap edges there
    steps = len(out.objective_trace) - 1
    cap = out.diagnostics["per_round_degree_cap"]
    assert int(graph.degree_of_mask(out.partition.in_q).max(initial=0)) <= steps * cap


def test_golden_builds_grow_q_by_at_most_one_cap_a_round():
    for _case, graph, out in golden_builds():
        assert_degree_bound(graph, out)


@pytest.mark.parametrize("eps, p", [(0.9, 0.9), (0.95, 0.95), (0.99, 0.99)])
@pytest.mark.parametrize(
    "family, fparams, gseed", [SMALL[2], (*ERB30, 7), (*LAYERED, 1)], ids=["rb", "erb30", "layered"]
)
def test_q_grows_by_at_most_one_cap_a_round_near_tau_one(family, fparams, gseed, eps, p):
    graph = from_family(family, fparams, gseed).graph
    for plan_seed in range(3):
        cfg = PartitionConfig(epsilon=eps, p=p, max_rounds=6, samples_per_round=200, seed=plan_seed)
        assert_degree_bound(graph, build_partition(graph, cfg))


if __name__ == "__main__":
    if sys.argv[1:] == ["partitions"]:
        sys.stdout.write(golden_partitions_text())
    else:
        text = golden_text(1)
        assert golden_text(3) == text
        sys.stdout.write(text)
