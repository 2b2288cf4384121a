"""Regenerate the checked-in expected rows under ``expected/``.

Usage, from the repository root:

    python3 perfbench/make_expected.py [workload ...]

Runs each workload's entry call once per trial stream and stores every
output column except timing columns.  Run it only when the program's
outputs are meant to change, and say so where the change is recorded.
"""
from __future__ import annotations

import json
import sys

import run

run._import_program()

from workloads import EXPECTED_DIR, STREAMS, WORKLOADS, expected_path, graph_sizes, strip_timing  # noqa: E402


def main(names: list[str]) -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        inputs = wl.setup()
        streams = {}
        for index in range(STREAMS):
            rows = wl.run(wl.setup(), index)
            streams[str(wl.trial_seed(index))] = strip_timing(rows)
        doc = {
            "workload": name,
            "trials": wl.trials,
            "graphs": graph_sizes(wl, inputs),
            "streams": streams,
        }
        with open(expected_path(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {STREAMS} streams -> {expected_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
