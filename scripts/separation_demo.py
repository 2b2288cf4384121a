"""Ratio growth of the random-query baseline on the layered family.

Usage:
    python3 scripts/separation_demo.py [--trials T] [--seed SEED] [--out FILE.csv]

Runs random_query_baseline (s incident samples per vertex) against
general_vc on layered instances of growing size, same realizations for
both.  The baseline's ratio climbs with n at fixed core size N while the
water-filling strategy stays flat near 1: most of the hidden perfect
matching is never sampled by the baseline, so its responder must cover
those edges unconditionally.

Prints one table row per (instance, strategy); --out also writes the
evaluator's CSV rows.
"""

from __future__ import annotations

import argparse
import sys

from stochcover.evaluator import evaluate_strategies, write_csv
from stochcover.instances import gen_layered_counterexample
from stochcover.strategies import StrategyParams

SIZES = ((100, 40), (200, 40), (400, 40), (800, 40))
STRATEGIES = ("random_query_baseline", "general_vc")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--p", type=float, default=0.25)
    ap.add_argument("--s", type=int, default=3, help="incident samples per vertex")
    ap.add_argument("--out", help="also write evaluator CSV rows here")
    args = ap.parse_args(argv)

    params = StrategyParams(
        p=args.p, epsilon=0.5, seed=args.seed, overrides={"s": args.s}
    )
    all_reports = []
    print(f"{'instance':<18} {'strategy':<22} {'ratio':>7} {'answer':>8} {'opt':>8}")
    for n, core in SIZES:
        graph = gen_layered_counterexample(n, core, seed=args.seed).graph
        reports = evaluate_strategies(
            list(STRATEGIES),
            graph,
            params,
            args.trials,
            seed=args.seed + 1,
            instance=f"layered({n},{core})",
        )
        for rep in reports:
            print(
                f"{rep.instance:<18} {rep.strategy:<22} {rep.ratio:>7.3f}"
                f" {rep.mean_answer:>8.2f} {rep.mean_opt:>8.2f}"
            )
            all_reports.append(rep)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_csv(all_reports, fh)
        print(f"wrote {len(all_reports)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
