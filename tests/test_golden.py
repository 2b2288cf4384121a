"""Every strategy's CSV output, pinned byte for byte.

`golden_rows.csv` holds the rows of the cases below in every column but
`wall_ms`, which is timing.  The evaluation must write exactly those bytes
in one process and on three worker processes.  The file is the program's
output as it stood when the file was written, by

    PYTHONPATH=src python tests/test_golden.py > tests/golden_rows.csv

A change to it is a change to what the program reports, and has to be
argued as one.
"""
import csv
import io
import sys
from pathlib import Path

import pytest

from stochcover.evaluator import CSV_COLUMNS, evaluate_strategies
from stochcover.instances import from_family
from stochcover.strategies import STRATEGY_IDS, StrategyParams

GOLDEN = Path(__file__).resolve().parent / "golden_rows.csv"

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


if __name__ == "__main__":
    text = golden_text(1)
    assert golden_text(3) == text
    sys.stdout.write(text)
