"""Command-line front door.

Subcommands: generate (instance files), run and compare (evaluate
strategies, one CSV row per strategy; the two names share one code path, in
which every strategy sees the same realizations and each trial's optimum is
solved once), oracle (exact expected optimum sizes for tiny graphs),
partition (build and serialize a query partition).

Configuration can come from a flat key=value file via --config; explicit
flags always win.  The only environment variable honored is SC_SEED, used
when neither flag nor config supplies a seed.  Strategy overrides
(--override KEY=VALUE, or override.KEY=VALUE in a config file) take the
keys of `strategies.OVERRIDE_KEYS` and are cast to the types listed there;
an unknown key is an error.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import StochCoverError
from .evaluator import evaluate_strategies, exact_expected_stats, write_csv
from .graphs import Graph, read_graph_text, write_graph_text
from .instances import FAMILIES, from_family
from .partition import MAX_ROUNDS, PartitionConfig, build_partition, outcome_to_text
from .strategies import OVERRIDE_KEYS, STRATEGY_IDS, StrategyParams

__all__ = ["main"]

_FAMILY_FLAGS = ("d", "s", "cap_n", "n", "na", "nb", "edge_prob")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stochcover",
        description="Non-adaptive edge-query strategies on stochastic graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")

    def add_family(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", choices=sorted(FAMILIES), default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--s", type=int, default=None)
        p.add_argument("--cap-n", dest="cap_n", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--na", type=int, default=None)
        p.add_argument("--nb", type=int, default=None)
        p.add_argument("--edge-prob", dest="edge_prob", type=float, default=None)

    gen = sub.add_parser("generate", help="write an instance to a graph file")
    add_family(gen)
    add_seed(gen)
    gen.add_argument("--out", required=True)

    for name in ("run", "compare"):
        cmd = sub.add_parser(name, help=f"{name} strategies, emit CSV")
        cmd.add_argument("--graph", default=None, help="graph text file")
        add_family(cmd)
        cmd.add_argument(
            "--strategy",
            action="append",
            default=None,
            help="strategy id (repeat or comma-separate); known: "
            + ", ".join(STRATEGY_IDS),
        )
        cmd.add_argument("--p", type=float, default=None)
        cmd.add_argument("--epsilon", type=float, default=None)
        cmd.add_argument("--trials", type=int, default=None)
        add_seed(cmd)
        cmd.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker processes for the trials (default 1: none); every"
            " column but wall_ms is identical for any value",
        )
        cmd.add_argument("--no-optimum", action="store_true", help="skip per-trial optima")
        cmd.add_argument(
            "--override",
            action="append",
            default=None,
            metavar="KEY=VALUE",
            help="strategy override, e.g. partition_t=2000 (repeatable)",
        )
        cmd.add_argument("--config", default=None, help="key=value config file")
        cmd.add_argument("--out", default=None, help="CSV path (default stdout)")

    orc = sub.add_parser("oracle", help="exact expected optima for a tiny graph")
    orc.add_argument("--graph", required=True)
    orc.add_argument("--p", type=float, required=True)

    part = sub.add_parser("partition", help="build and serialize a query partition")
    part.add_argument("--graph", required=True)
    part.add_argument("--epsilon", type=float, required=True)
    part.add_argument("--p", type=float, required=True)
    part.add_argument("--samples", type=int, default=None)
    part.add_argument("--rounds", type=int, default=MAX_ROUNDS)
    add_seed(part)
    part.add_argument("--out", default=None, help="output path (default stdout)")

    return top


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise StochCoverError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _resolve_seed(flag_value: Optional[int], config: dict[str, str]) -> int:
    if flag_value is not None:
        return flag_value
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get("SC_SEED")
    if env is not None:
        return int(env)
    return 0


def _parse_overrides(pairs: list[str]) -> dict:
    """Cast each KEY=VALUE; StrategyParams rejects an unknown key."""
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise StochCoverError(f"override {pair!r} is not KEY=VALUE")
        key, value = pair.split("=", 1)
        key = key.strip()
        out[key] = OVERRIDE_KEYS.get(key, str)(value.strip())
    return out


def _family_params(args: argparse.Namespace, config: dict[str, str]) -> dict[str, float]:
    params: dict[str, float] = {}
    for name in _FAMILY_FLAGS:
        value = getattr(args, name, None)
        if value is None and name in config:
            value = float(config[name]) if name == "edge_prob" else int(config[name])
        if value is not None:
            params[name] = value
    return params


def _load_graph(args: argparse.Namespace, config: dict[str, str], seed: int) -> tuple[Graph, str]:
    graph_path = args.graph if args.graph is not None else config.get("graph")
    family = args.family if args.family is not None else config.get("family")
    if graph_path is not None and family is not None:
        raise StochCoverError("give either --graph or --family, not both")
    if graph_path is not None:
        label = os.path.splitext(os.path.basename(graph_path))[0]
        return read_graph_text(graph_path), label
    if family is not None:
        desc = from_family(family, _family_params(args, config), seed)
        return desc.graph, desc.label()
    raise StochCoverError("a graph is required: --graph FILE or --family NAME")


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed, {})
    if args.family is None:
        raise StochCoverError("generate needs --family")
    desc = from_family(args.family, _family_params(args, {}), seed)
    params = ",".join(f"{k}={v:g}" for k, v in desc.params)
    sidecar = f"family={desc.family} params={params} seed={desc.seed}"
    write_graph_text(desc.graph, args.out, comments=[sidecar])
    print(f"wrote {desc.graph.n} vertices, {desc.graph.m} edges to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _read_config(args.config) if args.config else {}
    seed = _resolve_seed(args.seed, config)
    graph, label = _load_graph(args, config, seed)

    raw_strategies = args.strategy
    if raw_strategies is None and "strategy" in config:
        raw_strategies = [config["strategy"]]
    if not raw_strategies:
        raise StochCoverError("at least one --strategy is required")
    strategy_ids: list[str] = []
    for chunk in raw_strategies:
        strategy_ids.extend(s.strip() for s in chunk.split(",") if s.strip())

    def pick(flag, key, cast, default):
        if flag is not None:
            return flag
        if key in config:
            return cast(config[key])
        return default

    p = pick(args.p, "p", float, None)
    if p is None:
        raise StochCoverError("--p is required")
    epsilon = pick(args.epsilon, "epsilon", float, 0.5)
    trials = pick(args.trials, "trials", int, 1000)
    threads = pick(args.threads, "threads", int, 1)
    override_pairs = list(args.override or [])
    for key, value in config.items():
        if key.startswith("override."):
            pair = f"{key[len('override.'):]}={value}"
            if not any(flag.split("=", 1)[0] == pair.split("=", 1)[0] for flag in override_pairs):
                override_pairs.append(pair)
    overrides = _parse_overrides(override_pairs)
    params = StrategyParams(p=p, epsilon=epsilon, seed=seed, overrides=overrides)

    reports = evaluate_strategies(
        strategy_ids, graph, params, trials, seed,
        instance=label, compute_optimum=not args.no_optimum, threads=threads,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_csv(reports, fh)
    else:
        write_csv(reports, sys.stdout)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    graph = read_graph_text(args.graph)
    stats = exact_expected_stats(graph, args.p)
    print(f"E_nu={stats['E_nu']} E_mu={stats['E_mu']}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    graph = read_graph_text(args.graph)
    seed = _resolve_seed(args.seed, {})
    cfg = PartitionConfig(
        epsilon=args.epsilon,
        p=args.p,
        max_rounds=args.rounds,
        samples_per_round=args.samples,
        seed=seed,
    )
    outcome = build_partition(graph, cfg)
    text = outcome_to_text(outcome)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"partition: {outcome.partition.q_size}/{graph.m} edges queried, "
            f"{outcome.termination} after {outcome.rounds_used} rounds -> {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command in ("run", "compare"):
            return _cmd_run(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "partition":
            return _cmd_partition(args)
        raise StochCoverError(f"unknown command {args.command!r}")
    except (StochCoverError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
