"""Matching quality versus query budget for the mock-realization strategy.

Usage:
    python3 scripts/query_budget_sweep.py [--trials T] [--seed SEED] [--out FILE.csv]

Sweeps the number of mock realizations R whose maximum matchings get
unioned into the query set, and reports the expected matching size
recovered inside the realized queries as a fraction of the true optimum,
together with the query cost that buys it.  The default R used elsewhere,
ceil(4 ln(1/p)/p), is marked with a star.
"""

from __future__ import annotations

import argparse
import sys

from stochcover.evaluator import evaluate_strategies, write_csv
from stochcover.instances import gen_er_bipartite
from stochcover.strategies import StrategyParams, mc_realization_count


def _cell(value) -> str:
    """A ratio or its half-width to three places, or "-" where the report has none.

    The ratio is missing when the mean optimum is 0, its interval below two
    trials.
    """
    return "-" if value is None else f"{value:.3f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--na", type=int, default=30, help="vertices per side")
    ap.add_argument("--edge-prob", type=float, default=0.2)
    ap.add_argument("--out", help="also write evaluator CSV rows here")
    args = ap.parse_args(argv)

    graph = gen_er_bipartite(args.na, args.na, args.edge_prob, seed=args.seed).graph
    all_reports = []
    print(f"{'p':>4} {'R':>4} {'ratio':>7} {'ci95':>7} {'max_pv':>7} {'total_q':>8}")
    for p in (0.1, 0.3, 0.5):
        default_r = mc_realization_count(p)
        sweep = sorted({1, 2, 4, 8, max(1, default_r // 2), default_r, 2 * default_r})
        for r in sweep:
            params = StrategyParams(
                p=p, epsilon=0.5, seed=args.seed, overrides={"R": r}
            )
            rep = evaluate_strategies(
                ["mc_matching"],
                graph,
                params,
                args.trials,
                seed=args.seed + 1,
                instance=f"erb({args.na},{args.na},{args.edge_prob})",
            )[0]
            star = " *" if r == default_r else ""
            print(
                f"{p:>4} {r:>4} {_cell(rep.ratio):>7} {_cell(rep.ratio_ci95):>7}"
                f" {rep.max_pv_queries:>7} {rep.total_queries:>8}{star}"
            )
            all_reports.append(rep)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_csv(all_reports, fh)
        print(f"wrote {len(all_reports)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
