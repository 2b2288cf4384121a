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
returns that read-only cover.  With S empty the answer is the exact cover
of the realization itself, which `_Trial` solves once per trial for every
such answer and for the evaluator's optimum.  Otherwise, on a bipartite
graph, the plan prepares S once (its right-neighbour rows and a maximum
matching), and each response appends the realized Q-edges to copies of the
rows they extend and warm-starts from that matching.  On a general graph
(random_query_baseline is the one such strategy with S and Q nonempty)
the answerer lists S's edges once, and each response appends the S edges
the trial did not realize to copies of the trial's neighbour lists that
they extend, then solves that exact cover of S | realized Q.

Each strategy's respond is an answerer, built once from its plan
(`_answerer`): a function of one `_Trial`, a realization together with
the neighbour lists and exact cover it builds on first use and shares.
`general_vc`, when its plan queries every edge, sweeps over those lists,
and the exact cover then reads them too, on a bipartite graph as on a
general one, as does random_query_baseline's answer on a general graph,
so such a trial lists its realization once.  The evaluator builds the
answerers once per block of trials and hands every plan the same `_Trial`
for a row; `respond_strategy` is the one-row entry, which builds both for
a single call.

Only the cover is read from these exact bipartite covers, so they take
any maximum matching (the cover path `matching._max_cover`, on a
realization's lists or through `mvc_bipartite_on_mask` and
`BipartiteBase.cover`): Konig's cover is the same for all of them.  What
reads a matching itself needs Hopcroft-Karp's fixed tie order:
`mc_matching`'s plan (a union of matched edges) and respond call
`hk_on_mask`, and bipartite_vc's partition builder counts its marginals
from the same search, warm-started from each component's S matching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import ApplicabilityError, ParameterError, StructuralError
from .filling import GeneralVcPlan, general_vc_cover, general_vc_plan, saturated_on_lists
from .graphs import Graph, bipartition
from .matching import (
    GENERAL_OPT_BUDGET,
    BipartiteBase,
    _max_cover,
    hk_on_mask,
    mvc_bipartite_on_mask,
    mvc_general_on_lists,
)
from .partition import MAX_ROUNDS, PartitionConfig, build_partition
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

    The one-row entry to `_Trial.exact_cover`, with the cover as a vertex
    mask.
    """
    cover, size = _Trial(graph, np.asarray(mask, dtype=bool)).exact_cover()
    return _vertex_mask(graph.n, cover), size


def _vertex_mask(n: int, cover) -> np.ndarray:
    """A cover answer (a vertex mask, or a list of vertices) as a vertex mask."""
    if isinstance(cover, np.ndarray):
        return cover
    out = np.zeros(n, dtype=bool)
    out[cover] = True
    return out


class _Trial:
    """One realization, and what the answers to it share, each built on first use.

    `neighbours()` is the realization's `Graph.neighbours` lists, read by
    `general_vc` when its plan queries every edge, by the exact cover, and
    on a general graph by the exact cover of S | realized Q, which extends
    copies of the rows it adds S edges to.  `exact_cover()` solves the
    realization once, for the trial's optimum and every exact-cover answer
    whose S is empty.  So when `general_vc` has listed the realization, or
    the graph is not bipartite, the realization is listed at most once per
    trial.
    """

    __slots__ = ("graph", "mask", "_nbrs", "_cover")

    def __init__(self, graph: Graph, mask: np.ndarray):
        self.graph = graph
        self.mask = mask
        self._nbrs: Optional[Sequence[Sequence[int]]] = None
        self._cover: Optional[tuple[Any, int]] = None

    def neighbours(self) -> Sequence[Sequence[int]]:
        """The realization's neighbour lists, built once, to be read and not changed."""
        if self._nbrs is None:
            self._nbrs = self.graph.neighbours(self.mask)
        return self._nbrs

    def exact_cover(self) -> tuple[Any, int]:
        """(cover, size): an exact minimum vertex cover of the realization.

        On a bipartite graph, the cover path `_max_cover` from a cold
        start, whose cover is a vertex mask: its readers read only the
        cover, so it may end on any maximum matching.  If the trial has its
        neighbour lists already, the path reads them as they are (a left
        vertex's list is its row of right neighbours in edge order, and the
        lefts are all side-0 vertices); otherwise `mvc_bipartite_on_mask`
        builds right-neighbour rows alone, which costs less than lists in
        both directions.  On a general graph, the reductions and branch and
        bound of `mvc_general_on_lists`, whose cover is a list of vertices,
        up to GENERAL_OPT_BUDGET active vertices; above it CapacityError,
        on every call.  The cover is shared: read it and do not change it.
        """
        if self._cover is None:
            sides = bipartition(self.graph)
            if sides is None:
                cover = mvc_general_on_lists(self.neighbours(), GENERAL_OPT_BUDGET)
                self._cover = (cover, len(cover))
            elif self._nbrs is not None:
                self._cover = _max_cover(self._nbrs, sides.lefts, [-1] * self.graph.n)
            else:
                self._cover = mvc_bipartite_on_mask(self.graph, sides.side, self.mask)
        return self._cover


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
    queried: np.ndarray,
    extra: Any = None,
) -> QueryPlan:
    """Plan answered by `_answer_half_stochastic`, with S = the unqueried edges.

    With Q empty every response is the exact cover of S, the whole graph,
    so it is solved here once.  Otherwise, on a bipartite graph, S's
    right-neighbour rows and a maximum matching of S are built here once
    and start every respond call.
    """
    s_mask = ~queried
    sides = bipartition(graph)
    s_base = fixed = None
    if not queried.any():
        fixed = exact_cover_on_mask(graph, s_mask)[0]
        fixed.flags.writeable = False
    elif sides is not None and s_mask.any():
        s_base = BipartiteBase(graph, sides.side, s_mask)
    payload = _HalfStochasticPayload(s_mask, s_base, fixed, extra)
    return QueryPlan(strategy, graph, queried, payload)


def _answer_half_stochastic(plan: QueryPlan) -> Callable[[_Trial], Any]:
    """An exact cover of S | the trial's realized Q-edges.

    With Q empty, the plan's one read-only cover.  On a bipartite graph
    with S nonempty, `BipartiteBase.cover` warm-started from the prepared
    S.  With S empty, the trial's own exact cover.  Otherwise (a general
    graph, S and Q nonempty) `mvc_general_on_lists` over the trial's
    neighbour lists plus the S edges the trial did not realize: S's edges
    are listed here once, and per trial a row is copied (the trial's lists
    may be the graph's shared all-edge tuples) before its first append.
    That edge set is exactly S | mask, so the active-vertex count, every
    CapacityError and every cover size are those of
    `_Trial(graph, S | mask).exact_cover()`; only which minimum cover
    comes back may differ, since appended rows are not in edge order.
    """
    payload: _HalfStochasticPayload = plan.payload
    queried = plan.queried
    fixed, s_base, s_mask = payload.fixed, payload.s_base, payload.s_mask
    if fixed is not None:
        return lambda trial: fixed
    if s_base is not None:
        return lambda trial: s_base.cover(trial.mask & queried)
    if not s_mask.any():
        # the realized Q-edges are the realization, whose solve the optimum shares
        return lambda trial: trial.exact_cover()[0]
    s_idx = np.flatnonzero(s_mask)
    graph = plan.graph
    s_ends = list(zip(graph.edge_u[s_idx].tolist(), graph.edge_v[s_idx].tolist()))

    def answer(trial: _Trial) -> list[int]:
        realized = trial.neighbours()
        nbrs = list(realized)
        for u, v in compress(s_ends, (~trial.mask[s_idx]).tolist()):
            # copy a row before its first append: the trial's rows are shared
            row = nbrs[u]
            if row is realized[u]:
                nbrs[u] = [*row, v]
            else:
                row.append(v)
            row = nbrs[v]
            if row is realized[v]:
                nbrs[v] = [*row, u]
            else:
                row.append(u)
        return mvc_general_on_lists(nbrs, GENERAL_OPT_BUDGET)

    return answer


# --- general_vc ---------------------------------------------------------------


def _plan_general_vc(graph: Graph, params: StrategyParams) -> QueryPlan:
    plan = general_vc_plan(graph, params.epsilon, params.p, t=params.over("t", None))
    return QueryPlan("general_vc", graph, plan.queried, plan)


def _answer_general_vc(plan: QueryPlan) -> Callable[[_Trial], Any]:
    """The committed vertices and those the residual run saturates.

    A plan that queries every edge commits no vertex (a committed vertex's
    edges go unqueried), and its residual run reads the realization's own
    lists.  Any other plan answers with the one-row `general_vc_cover`.
    """
    inner: GeneralVcPlan = plan.payload
    graph, queried = plan.graph, plan.queried
    if queried.all():
        budgets = inner.residual_budget.tolist()
        return lambda trial: saturated_on_lists(trial.neighbours(), budgets)
    return lambda trial: general_vc_cover(graph, inner, trial.mask & queried)


# --- bipartite_vc -------------------------------------------------------------


def _plan_bipartite_vc(graph: Graph, params: StrategyParams) -> QueryPlan:
    _require_bipartite(graph, "bipartite_vc")
    cfg = PartitionConfig(
        epsilon=params.epsilon,
        p=params.p,
        max_rounds=int(params.over("partition_rounds", MAX_ROUNDS)),
        samples_per_round=params.over("partition_t", None),
        seed=rng.derive_seed(params.seed, _TAG_PARTITION),
    )
    outcome = build_partition(graph, cfg)
    queried = outcome.partition.in_q.copy()
    return _half_stochastic_plan("bipartite_vc", graph, queried, extra=outcome)


# --- mc_matching --------------------------------------------------------------


def mc_realization_count(p: float, r_constant: float = 4.0) -> int:
    """Number of mock realizations whose matchings get unioned into Q."""
    if not (0.0 < p <= 1.0):
        raise ParameterError("p must lie in (0, 1]")
    count = r_constant * math.log(1.0 / p) / p
    if not (r_constant > 0 and math.isfinite(count)):  # inf * ln(1/1) is nan
        raise ParameterError("R_constant must be positive, with R_constant ln(1/p) / p finite")
    return max(1, int(math.ceil(count)))


def _plan_mc_matching(graph: Graph, params: StrategyParams) -> QueryPlan:
    side = _require_bipartite(graph, "mc_matching")
    r_override = params.over("R", None)
    if r_override is not None:
        r = int(r_override)
        if r < 0:
            raise ParameterError("R must be nonnegative")
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
    return QueryPlan("mc_matching", graph, queried, (side, r))


def _answer_mc_matching(plan: QueryPlan) -> Callable[[_Trial], tuple[int, ...]]:
    side, _r = plan.payload
    graph, queried = plan.graph, plan.queried

    def answer(trial: _Trial) -> tuple[int, ...]:
        _pair, pedge, _size = hk_on_mask(graph, side, trial.mask & queried)
        return tuple(sorted({e for e in pedge if e >= 0}))

    return answer


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
    return _half_stochastic_plan("one_plus_eps_vc", graph, queried)


# --- random_query_baseline ----------------------------------------------------


def _plan_random_query_baseline(graph: Graph, params: StrategyParams) -> QueryPlan:
    s = int(params.over("s", 3))
    if s < 0:
        raise ParameterError("s must be nonnegative")
    ids, starts = graph.incidence
    widest = max((b - a for a, b in zip(starts, starts[1:])), default=0)
    # vertex v's stream is derive_seed(seed, _TAG_RQB, v); step i reads its counter i
    draws = rng.uniform_rows(rng.derive_seeds(params.seed, _TAG_RQB, 0, graph.n), min(s, widest)).tolist()
    picked: list[int] = []
    for v, row in enumerate(draws):
        pool = ids[starts[v] : starts[v + 1]]
        d = len(pool)
        if d > s:
            # the first s steps of a Fisher-Yates shuffle of v's edges
            for i in range(s):
                j = min(i + int(row[i] * (d - i)), d - 1)
                pool[i], pool[j] = pool[j], pool[i]
            del pool[s:]
        picked += pool
    queried = np.zeros(graph.m, dtype=bool)
    queried[picked] = True
    return _half_stochastic_plan("random_query_baseline", graph, queried)


# --- query_nothing / query_everything ------------------------------------------


def _plan_query_nothing(graph: Graph, params: StrategyParams) -> QueryPlan:
    nothing = np.zeros(graph.m, dtype=bool)
    return _half_stochastic_plan("query_nothing", graph, nothing)


def _plan_query_everything(graph: Graph, params: StrategyParams) -> QueryPlan:
    everything = np.ones(graph.m, dtype=bool)
    return _half_stochastic_plan("query_everything", graph, everything)


# --- registry -----------------------------------------------------------------

_REGISTRY = {
    "general_vc": (_plan_general_vc, _answer_general_vc, "cover"),
    "bipartite_vc": (_plan_bipartite_vc, _answer_half_stochastic, "cover"),
    "mc_matching": (_plan_mc_matching, _answer_mc_matching, "matching"),
    "one_plus_eps_vc": (_plan_one_plus_eps_vc, _answer_half_stochastic, "cover"),
    "random_query_baseline": (_plan_random_query_baseline, _answer_half_stochastic, "cover"),
    "query_nothing": (_plan_query_nothing, _answer_half_stochastic, "cover"),
    "query_everything": (_plan_query_everything, _answer_half_stochastic, "cover"),
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
    answer = _answerer(plan)(_Trial(plan.graph, realized_mask))
    if strategy_kind(plan.strategy) == "matching":
        return StrategyAnswer("matching", matched_edges=answer)
    return StrategyAnswer("cover", cover=_vertex_mask(plan.graph.n, answer))


def _answerer(plan: QueryPlan) -> Callable[[_Trial], Any]:
    """The plan's answer to one trial, from what every trial reads, built once.

    Given a `_Trial` whose mask is the realization (or any mask that agrees
    with it on the queried edges), the answer reads only the queried edges.
    A cover comes as a vertex mask or a list of vertices, a matching as its
    sorted edge ids.  Both may be shared: read them and do not change them.
    """
    return _REGISTRY[plan.strategy][1](plan)
