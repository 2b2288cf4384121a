"""Non-adaptive query strategies behind one plan/respond interface.

A strategy first commits to a queried edge set from the base graph alone
(plan), then receives realized/unrealized answers for exactly those edges
and produces either a vertex cover or a matching (respond).  Respond never
sees the realization of unqueried edges, which is what makes the whole
pipeline non-adaptive: covers must therefore protect every unqueried edge
unconditionally.

Catalog:
  general_vc            water-filling commit set, works on any graph
  bipartite_vc          partition builder + exact cover of realized-Q union S
  mc_matching           union of maximum matchings over seeded mock realizations
  one_plus_eps_vc       mc_matching's query set with R tripled + exact cover
  random_query_baseline s random incident edges per vertex + exact cover
  query_nothing         no queries, cover of the whole base graph
  query_everything      query all edges, exact cover of the realization

The cover strategies other than general_vc share one responder: an exact
cover of realized-Q union S, where S is the unqueried edges.
query_everything (S empty) and query_nothing (Q empty) are its two ends.
With Q empty (query_nothing, or random_query_baseline at s = 0) the answer
is the same on every trial, so the plan solves it once and every response
returns that read-only cover.  Otherwise, on a bipartite graph, the plan
prepares S once (its adjacency and a maximum matching), and each response
adds the realized Q-edges to a copy of that adjacency and warm-starts from
that matching.  Every other case (a general graph, or S empty) answers with
`exact_cover_on_mask`, which keeps the last mask it solved on the graph.
With S empty that mask is the realization itself, so the evaluator's
optimum of the same realization costs no second solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Optional

import numpy as np

from .errors import ApplicabilityError, ParameterError, StructuralError
from .filling import GeneralVcPlan, general_vc_cover, general_vc_plan
from .graphs import Graph, bipartition
from .matching import BipartiteBase, hk_on_mask, mvc_bipartite_on_mask, mvc_general_on_mask
from .partition import PartitionConfig, build_partition
from . import rng

__all__ = [
    "StrategyParams",
    "QueryPlan",
    "StrategyAnswer",
    "STRATEGY_IDS",
    "exact_cover_on_mask",
    "strategy_kind",
    "plan_strategy",
    "respond_strategy",
    "mc_realization_count",
]

_TAG_MC = 31
_TAG_RQB = 32
_TAG_PARTITION = 33

GENERAL_OPT_BUDGET = 64  # non-isolated-vertex cap for exact general covers

# Every override key a strategy reads, with the type a text value casts to.
OVERRIDE_KEYS = {
    "t": float,  # general_vc: truncation time, in place of epsilon^3 * p / 64
    "R": int,  # mc_matching: mock realization count
    "R_constant": float,  # mc_matching: the constant in ceil(R_constant ln(1/p) / p)
    "s": int,  # random_query_baseline: incident edges sampled per vertex
    "partition_t": int,  # bipartite_vc: samples per partition round
    "partition_rounds": int,  # bipartite_vc: partition round cap
}


@dataclass(frozen=True)
class StrategyParams:
    p: float
    epsilon: float = 0.5
    seed: int = 0
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < self.p <= 1.0):
            raise ParameterError("p must lie in (0, 1]")
        unknown = sorted(set(self.overrides) - set(OVERRIDE_KEYS))
        if unknown:
            raise ParameterError(
                f"unknown override {unknown[0]!r}; known: {', '.join(sorted(OVERRIDE_KEYS))}"
            )

    def over(self, key: str, default):
        return self.overrides.get(key, default)


@dataclass(frozen=True)
class QueryPlan:
    strategy: str
    graph: Graph
    params: StrategyParams
    queried: np.ndarray
    payload: Any = None

    @cached_property
    def queried_indices(self) -> np.ndarray:
        idx = np.nonzero(self.queried)[0]
        idx.flags.writeable = False
        return idx

    @property
    def total_queries(self) -> int:
        return int(np.count_nonzero(self.queried))

    @property
    def max_per_vertex_queries(self) -> int:
        if self.graph.m == 0 or not self.queried.any():
            return 0
        return int(self.graph.degree_of_mask(self.queried).max())


@dataclass(frozen=True)
class StrategyAnswer:
    kind: str  # "cover" | "matching"
    cover: Optional[np.ndarray] = None
    matched_edges: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("cover", "matching"):
            raise StructuralError(f"unknown answer kind {self.kind!r}")
        if self.kind == "cover" and self.cover is None:
            raise StructuralError("cover answer without a cover")

    @property
    def size(self) -> int:
        if self.kind == "cover":
            return int(np.count_nonzero(self.cover))
        return len(self.matched_edges)


def _require_bipartite(graph: Graph, strategy: str) -> np.ndarray:
    sides = bipartition(graph)
    if sides is None:
        raise ApplicabilityError(f"{strategy} requires a bipartite graph")
    return sides.side


def exact_cover_on_mask(graph: Graph, mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact minimum vertex cover of the edges selected by `mask`, and its size.

    Hopcroft-Karp and Konig from a cold start on a bipartite graph, the
    reductions and branch and bound of `mvc_general_on_mask` up to
    GENERAL_OPT_BUDGET active vertices otherwise (above it
    CapacityError, every time).  The last result is kept on the graph,
    keyed by the mask's bytes, and the cover is read-only: a response and
    the evaluator's optimum of one realization share a single solve.
    """
    key = np.asarray(mask, dtype=bool).tobytes()
    memo = graph.__dict__.get("_exact_cover")
    if memo is not None and memo[0] == key:
        return memo[1], memo[2]
    sides = bipartition(graph)
    if sides is not None:
        cover, size = mvc_bipartite_on_mask(graph, sides.side, mask)
    else:
        cover, size = mvc_general_on_mask(graph, mask, GENERAL_OPT_BUDGET)
    cover.flags.writeable = False
    graph.__dict__["_exact_cover"] = (key, cover, size)
    return cover, size


@dataclass(frozen=True)
class _HalfStochasticPayload:
    """State for strategies answering with an exact cover of realized-Q union S."""

    s_mask: np.ndarray  # S, the unqueried edges
    s_base: Optional[BipartiteBase]  # S prepared once, on a bipartite graph with S and Q nonempty
    fixed: Optional[np.ndarray]  # the one read-only answer when Q is empty
    extra: Any


def _half_stochastic_plan(
    strategy: str,
    graph: Graph,
    params: StrategyParams,
    queried: np.ndarray,
    extra: Any = None,
) -> QueryPlan:
    """Plan answered by `_respond_half_stochastic`, with S = the unqueried edges.

    With Q empty every response is the exact cover of S, the whole graph,
    so it is solved here once.  Otherwise, on a bipartite graph, S's
    adjacency and a maximum matching of S are built here once and start
    every respond call.
    """
    s_mask = ~queried
    sides = bipartition(graph)
    s_base = fixed = None
    if not queried.any():
        fixed = exact_cover_on_mask(graph, s_mask)[0]
    elif sides is not None and s_mask.any():
        s_base = BipartiteBase(graph, sides.side, s_mask)
    payload = _HalfStochasticPayload(s_mask, s_base, fixed, extra)
    return QueryPlan(strategy, graph, params, queried, payload)


def _respond_half_stochastic(
    plan: QueryPlan, realized_mask: np.ndarray
) -> StrategyAnswer:
    payload: _HalfStochasticPayload = plan.payload
    if payload.fixed is not None:
        cover = payload.fixed
    elif payload.s_base is not None:
        cover = payload.s_base.cover(realized_mask)
    else:
        # with S empty this is the realization, whose solve the optimum shares
        cover, _size = exact_cover_on_mask(plan.graph, payload.s_mask | realized_mask)
    return StrategyAnswer("cover", cover=cover)


# --- general_vc ---------------------------------------------------------------


def _plan_general_vc(graph: Graph, params: StrategyParams) -> QueryPlan:
    plan = general_vc_plan(graph, params.epsilon, params.p, t=params.over("t", None))
    return QueryPlan("general_vc", graph, params, plan.queried, plan)


def _respond_general_vc(plan: QueryPlan, realized_mask: np.ndarray) -> StrategyAnswer:
    inner: GeneralVcPlan = plan.payload
    return StrategyAnswer("cover", cover=general_vc_cover(plan.graph, inner, realized_mask))


# --- bipartite_vc -------------------------------------------------------------


def _plan_bipartite_vc(graph: Graph, params: StrategyParams) -> QueryPlan:
    _require_bipartite(graph, "bipartite_vc")
    cfg = PartitionConfig(
        epsilon=params.epsilon,
        p=params.p,
        max_rounds=int(params.over("partition_rounds", 50)),
        samples_per_round=params.over("partition_t", None),
        seed=rng.derive_seed(params.seed, _TAG_PARTITION),
    )
    outcome = build_partition(graph, cfg)
    queried = outcome.partition.in_q.copy()
    return _half_stochastic_plan("bipartite_vc", graph, params, queried, extra=outcome)


# --- mc_matching --------------------------------------------------------------


def mc_realization_count(p: float, r_constant: float = 4.0) -> int:
    """Number of mock realizations whose matchings get unioned into Q."""
    if not (0.0 < p <= 1.0):
        raise ParameterError("p must lie in (0, 1]")
    return max(1, int(math.ceil(r_constant * math.log(1.0 / p) / p)))


def _plan_mc_matching(graph: Graph, params: StrategyParams) -> QueryPlan:
    side = _require_bipartite(graph, "mc_matching")
    r_override = params.over("R", None)
    if r_override is not None:
        r = int(r_override)
    else:
        r = mc_realization_count(params.p, float(params.over("R_constant", 4.0)))
    queried = np.zeros(graph.m, dtype=bool)
    for i in range(r):
        mock = rng.bernoulli_mask(
            rng.derive_seed(params.seed, _TAG_MC, i), graph.m, params.p
        )
        _pair, pedge, _size = hk_on_mask(graph, side, mock)
        for e in pedge:
            if e >= 0:
                queried[e] = True
    return QueryPlan("mc_matching", graph, params, queried, (side, r))


def _respond_mc_matching(plan: QueryPlan, realized_mask: np.ndarray) -> StrategyAnswer:
    side, _r = plan.payload
    _pair, pedge, _size = hk_on_mask(plan.graph, side, realized_mask)
    matched = tuple(sorted({e for e in pedge if e >= 0}))
    return StrategyAnswer("matching", matched_edges=matched)


# --- one_plus_eps_vc ----------------------------------------------------------


def _plan_one_plus_eps_vc(graph: Graph, params: StrategyParams) -> QueryPlan:
    """The mc_matching query set with R tripled, answered like bipartite_vc.

    The mock realizations are drawn under a seed derived from the caller's,
    and the caller's overrides do not reach them.
    """
    _require_bipartite(graph, "one_plus_eps_vc")
    if params.epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    mc_params = StrategyParams(
        p=params.p,
        epsilon=params.epsilon,
        seed=rng.derive_seed(params.seed, _TAG_MC),
        overrides={"R_constant": 12.0},
    )
    queried = _plan_mc_matching(graph, mc_params).queried
    return _half_stochastic_plan("one_plus_eps_vc", graph, params, queried)


# --- random_query_baseline ----------------------------------------------------


def _plan_random_query_baseline(graph: Graph, params: StrategyParams) -> QueryPlan:
    s = int(params.over("s", 3))
    if s < 0:
        raise ParameterError("s must be nonnegative")
    queried = np.zeros(graph.m, dtype=bool)
    for v in range(graph.n):
        incident = graph.incident_edges(v)
        if not incident:
            continue
        picked = rng.sample_without_replacement(
            rng.derive_seed(params.seed, _TAG_RQB, v), incident, min(s, len(incident))
        )
        for e in picked:
            queried[e] = True
    return _half_stochastic_plan("random_query_baseline", graph, params, queried)


# --- query_nothing / query_everything ------------------------------------------


def _plan_query_nothing(graph: Graph, params: StrategyParams) -> QueryPlan:
    nothing = np.zeros(graph.m, dtype=bool)
    return _half_stochastic_plan("query_nothing", graph, params, nothing)


def _plan_query_everything(graph: Graph, params: StrategyParams) -> QueryPlan:
    everything = np.ones(graph.m, dtype=bool)
    return _half_stochastic_plan("query_everything", graph, params, everything)


# --- registry -----------------------------------------------------------------

_REGISTRY = {
    "general_vc": (_plan_general_vc, _respond_general_vc, "cover"),
    "bipartite_vc": (_plan_bipartite_vc, _respond_half_stochastic, "cover"),
    "mc_matching": (_plan_mc_matching, _respond_mc_matching, "matching"),
    "one_plus_eps_vc": (_plan_one_plus_eps_vc, _respond_half_stochastic, "cover"),
    "random_query_baseline": (_plan_random_query_baseline, _respond_half_stochastic, "cover"),
    "query_nothing": (_plan_query_nothing, _respond_half_stochastic, "cover"),
    "query_everything": (_plan_query_everything, _respond_half_stochastic, "cover"),
}

STRATEGY_IDS = tuple(_REGISTRY)


def strategy_kind(strategy: str) -> str:
    _check_known(strategy)
    return _REGISTRY[strategy][2]


def _check_known(strategy: str) -> None:
    if strategy not in _REGISTRY:
        raise ParameterError(f"unknown strategy {strategy!r}")


def plan_strategy(strategy: str, graph: Graph, params: StrategyParams) -> QueryPlan:
    _check_known(strategy)
    plan_fn = _REGISTRY[strategy][0]
    return plan_fn(graph, params)


def respond_strategy(plan: QueryPlan, answers: np.ndarray) -> StrategyAnswer:
    """Answer a realization restricted to the plan's queried edges.

    `answers` is aligned to the queried edges in increasing edge-index
    order; respond reconstructs the full-length realized mask (unqueried
    entries stay False, they are simply unknown) and dispatches.
    """
    _check_known(plan.strategy)
    answers = np.asarray(answers, dtype=bool)
    q_idx = plan.queried_indices
    if answers.shape != (len(q_idx),):
        raise StructuralError(
            f"expected {len(q_idx)} query answers, got shape {answers.shape}"
        )
    realized_mask = np.zeros(plan.graph.m, dtype=bool)
    realized_mask[q_idx[answers]] = True
    return _respond(plan, realized_mask)


def _respond(plan: QueryPlan, realized_mask: np.ndarray) -> StrategyAnswer:
    """Answer from a full-length mask that is False outside the queried edges."""
    return _REGISTRY[plan.strategy][1](plan, realized_mask)
