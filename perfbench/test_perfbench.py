"""Tests of the benchmark itself: the expected-row check and the exact counts.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import copy

import run

run._import_program()

from tracing import Tracer, partition_counts, traced_evaluate  # noqa: E402
from workloads import WORKLOADS, load_expected, row_failures  # noqa: E402


def _rows():
    wl = WORKLOADS["general_er"]
    return load_expected(wl.name, wl.trial_seed(0))


def test_expected_rows_pass_themselves():
    rows = _rows()
    assert row_failures(rows, copy.deepcopy(rows)) == 0


def test_changed_mean_answer_fails_its_row():
    rows = _rows()
    actual = copy.deepcopy(rows)
    actual[1]["mean_answer"] = repr(float(actual[1]["mean_answer"]) + 1e-9)
    assert row_failures(rows, actual) == 1


def test_validity_failures_or_a_missing_row_fail():
    rows = _rows()
    actual = copy.deepcopy(rows)
    actual[0]["validity_failures"] = "1"
    assert row_failures(rows, actual) == 1
    assert row_failures(rows, copy.deepcopy(rows)[:-1]) == 1


def test_wall_ms_and_appended_columns_do_not_fail():
    rows = _rows()
    actual = copy.deepcopy(rows)
    for k, row in enumerate(actual):
        row["wall_ms"] = str(1000 + k)
        row["plan_ms"] = "3.5"
        row["query_fraction"] = "0.25"
    assert row_failures(rows, actual) == 0


def test_partition_counts_repeat_exactly_at_reduced_trials():
    wl = WORKLOADS["partition_erb"]
    seen = []
    for _ in range(2):
        graph, _label = wl.setup()
        _means, outcome = traced_evaluate(wl, graph, wl.trial_seed(0), Tracer(), trials=5)
        counts = partition_counts(outcome)
        seen.append((counts["rounds_used"], counts["rounds_kept"], counts["swaps"]))
    assert seen == [(8, 3, 5), (8, 3, 5)]
