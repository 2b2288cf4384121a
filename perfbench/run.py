"""Benchmark entry point for stochcover.

Usage, from the repository root:

    python3 perfbench/run.py --workload trials_layered --seed 0 --seconds 30 --trace 0

The program under test is imported from ``src/`` next to this directory,
never from an installed copy; without it the run exits with an error and
prints no result.

With ``--trace 0`` the run times the workload's entry call closed-loop for
``--seconds`` seconds, checks every output row against the checked-in
expected rows, and reports the end-to-end metrics as medians over calls.
With ``--trace 1`` it alternates untraced calls with traced ones (see
``tracing.py``) and reports the per-layer metrics instead.  Human-readable
lines start with ``#``; the last line of standard output is the JSON
result.  Run metadata and the result (and, when traced, every span) are
also written to ``.bench_out/`` in the current directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")

# Before each entry call, set-up runs repeatedly for this long (at least
# once) and the call gets the last inputs.  Spreading set-up samples over
# the whole run keeps their median steady even when one set-up takes well
# under a millisecond and the machine's speed drifts during the run.
SETUP_BURST_S = 0.04


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import stochcover
    except ImportError as exc:
        raise SystemExit(f"error: cannot import stochcover from {SRC}: {exc}")
    if not Path(stochcover.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: stochcover was imported from {stochcover.__file__}, not {SRC}")


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _timed_setup(wl, samples: list[float]):
    """Set the workload up repeatedly for SETUP_BURST_S; returns the last inputs."""
    end = time.perf_counter() + SETUP_BURST_S
    while True:
        t0 = time.perf_counter()
        inputs = wl.setup()
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        if t1 >= end:
            return inputs


def _untraced_call(wl, seed: int, expected: list[dict], setup: list[float], tally: dict):
    """Set-up, then one timed and checked entry call; returns (wall s, cpu s)."""
    from workloads import row_failures

    inputs = _timed_setup(wl, setup)
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        rows = wl.run(inputs, seed)
    except Exception as exc:  # a raising call is a failed call, not a crash
        print(f"# error: entry call raised {exc!r}", file=sys.stderr)
        rows = []
    w1 = time.perf_counter()
    c1 = time.process_time()
    tally["attempted"] += len(expected)
    tally["failed"] += row_failures(expected, rows)
    return w1 - w0, c1 - c0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seed: int, seconds: float, expected: list[dict]):
    setup: list[float] = []
    tally = {"attempted": 0, "failed": 0}
    wall: list[float] = []
    cpu: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        w, c = _untraced_call(wl, seed, expected, setup, tally)
        wall.append(w)
        cpu.append(c)
        if time.perf_counter() + w > deadline:
            break
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "eval_s": (statistics.median(wall), "s"),
        "eval_cpu_s": (statistics.median(cpu), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    extra = {"calls": len(wall), "setup_calls": len(setup)}
    return metrics, tally, extra, None


def _traced_failures(wl, expected: list[dict], means: dict) -> int:
    """Expected rows whose outputs the traced loop's own calls do not reproduce."""
    from workloads import EvalWorkload

    failed = 0
    for row in expected:
        if isinstance(wl, EvalWorkload):
            got = means[row["strategy"]]
            opt = "" if got["mean_opt"] is None else repr(got["mean_opt"])
            ok = (
                repr(got["mean_answer"]) == row["mean_answer"]
                and opt == row["mean_opt"]
                and got["validity_failures"] == 0
            )
        else:
            got = means[row["graph"]]
            ok = all(got[k] == row[k] for k in ("mean_base_size", "mean_vim_size"))
        failed += not ok
    return failed


def run_traced(wl, seed: int, seconds: float, expected: list[dict]):
    from stochcover import rng, vim
    from stochcover.evaluator import _TAG_TRIAL
    from tracing import (
        Tracer,
        partition_counts,
        per_layer_metrics,
        probe_matching,
        probe_partition_round,
        traced_evaluate,
        traced_vim,
    )
    from workloads import EvalWorkload

    tr = Tracer()
    setup: list[float] = []
    tally = {"attempted": 0, "failed": 0}
    untraced: list[float] = []
    loops = 0
    counts: dict = {}
    trial_seed = wl.trial_seed(seed)
    deadline = time.perf_counter() + seconds
    while True:
        w, _c = _untraced_call(wl, seed, expected, setup, tally)
        untraced.append(w)
        inputs = wl.setup()
        t0 = time.perf_counter()
        with tr.span("loop"):
            if isinstance(wl, EvalWorkload):
                means, outcome = traced_evaluate(wl, inputs[0], trial_seed, tr)
            else:
                means = traced_vim(wl, inputs, trial_seed, tr)
                outcome = None
        loop_s = time.perf_counter() - t0
        loops += 1
        tally["attempted"] += len(expected)
        tally["failed"] += _traced_failures(wl, expected, means)
        if outcome is not None:
            counts = partition_counts(outcome)
        if time.perf_counter() + w + loop_s > deadline:
            break

    # probes run after the loops, outside the loop time
    if isinstance(wl, EvalWorkload):
        graph = inputs[0]
        masks = (
            rng.bernoulli_mask(rng.derive_seed(trial_seed, _TAG_TRIAL, k), graph.m, wl.p)
            for k in range(wl.trials)
        )
        probe_matching(graph, masks, tr)
        if "bipartite_vc" in wl.strategies:
            probe_partition_round(graph, wl, tr)
    else:
        for spec, g in zip(wl.graphs, inputs):
            masks = (
                rng.bernoulli_mask(rng.derive_seed(trial_seed, vim._TAG_TRIAL, s), g.m, spec.p)
                for s in range(wl.trials)
            )
            probe_matching(g, masks, tr)

    per_layer, self_ns = per_layer_metrics(tr, statistics.median(untraced), counts)
    metrics = {name: (value, _unit(name)) for name, value in per_layer.items()}
    extra = {
        "traced_loops": loops,
        "untraced_calls": len(untraced),
        "spans": len(tr.spans),
        "self_ms_by_span": {k: v / 1e6 for k, v in sorted(self_ns.items(), key=lambda kv: -kv[1])},
    }
    return metrics, tally, extra, tr


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.startswith("trace.") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np
    from workloads import WORKLOADS, graph_sizes, load_expected

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    expected = load_expected(wl.name, wl.trial_seed(args.seed))
    run = run_traced if args.trace else run_untraced
    metrics, tally, extra, tracer = run(wl, args.seed, args.seconds, expected)

    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "trial_seed": wl.trial_seed(args.seed),
        "trials": wl.trials,
        "seconds": args.seconds,
        "trace": args.trace,
        "graphs": graph_sizes(wl, wl.setup()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "machine": platform.machine(),
        **extra,
    }
    failed_share = tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0
    result = {
        "correct": tally["failed"] == 0 and tally["attempted"] > 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": tracer.spans}, fh)

    print("# meta " + json.dumps({k: v for k, v in meta.items() if k != "self_ms_by_span"}))
    if tracer is not None:
        loop_ms = sum(e - s for n, s, e, _p in tracer.spans if n == "loop") / 1e6
        print(f"# self time by span over {extra['traced_loops']} traced loop(s), {loop_ms:.1f} ms:")
        for name, ms in list(extra["self_ms_by_span"].items())[:12]:
            print(f"#   {name:<40} {ms:12.2f} ms")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_share = {tally['failed']}/{tally['attempted']} = {failed_share:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
