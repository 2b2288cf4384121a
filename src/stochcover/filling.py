"""Water filling: simultaneous fractional growth on all edges.

Every edge that still has both endpoints alive grows at the same unit rate.
A vertex dies when the values of its incident edges sum to its budget; its
edges stop growing at that moment.  Consequently the final value of an edge
is exactly min(death_time(u), death_time(v)), and the whole process is
determined by the vertex death times, which an event-driven sweep computes
in at most n events.

The cover construction built on top: run the process once on the full graph
with unit budgets, cap every edge value at a small time t, commit the
vertices that are still saturated after capping, and query only the edges
with no committed endpoint (their count per vertex is at most ceil(1/t)).
At response time, rerun the process on the realized queried edges with the
leftover budgets; saturated vertices together with the committed ones cover
everything that was realized.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import ParameterError, StructuralError
from .graphs import FractionalAssignment, Graph

__all__ = [
    "FillingResult",
    "GeneralVcPlan",
    "filling",
    "filling_on_mask",
    "truncate_at",
    "general_vc_plan",
    "general_vc_cover",
]

SATURATION_TOL = 1e-9


@dataclass(frozen=True)
class FillingResult:
    """Outcome of one water-filling run.

    death[v] is the elapsed time at which v's edges stopped growing;
    saturated[v] says whether that happened because v's budget filled up
    (vertices alive at the end get death = elapsed and saturated = False;
    a zero budget saturates at time 0).  `edge_mask` records which edges
    took part in the run; the others have value 0.
    """

    parent: Graph
    budgets: np.ndarray
    death: np.ndarray
    saturated: np.ndarray
    elapsed: float
    edge_mask: np.ndarray

    @cached_property
    def assignment(self) -> FractionalAssignment:
        g = self.parent
        values = np.zeros(g.m, dtype=np.float64)
        if g.m:
            values = np.minimum(self.death[g.edge_u], self.death[g.edge_v])
            values[~self.edge_mask] = 0.0
        return FractionalAssignment(g, values)


@dataclass(frozen=True)
class GeneralVcPlan:
    """Query plan for the cover strategy on general graphs."""

    parent: Graph
    t: float
    capped: FractionalAssignment
    committed: np.ndarray  # vertices whose capped incident values sum to 1
    queried: np.ndarray  # edge mask: no endpoint committed
    residual_budget: np.ndarray  # per vertex, 1 - capped sum


def _as_budgets(graph: Graph, budgets: Union[float, np.ndarray]) -> np.ndarray:
    b = np.broadcast_to(np.asarray(budgets, dtype=np.float64), (graph.n,)).copy()
    if np.any(b < 0.0) or np.any(b > 1.0):
        raise ParameterError("budgets must lie in [0, 1]")
    return b


def filling_on_mask(
    graph: Graph, mask: Optional[np.ndarray], budgets: Union[float, np.ndarray]
) -> FillingResult:
    """Run the growth process on the edges selected by `mask`."""
    n = graph.n
    b = _as_budgets(graph, budgets)
    if mask is None:
        emask = np.ones(graph.m, dtype=bool)
    else:
        emask = np.asarray(mask, dtype=bool)
        if emask.shape != (graph.m,):
            raise StructuralError("edge mask has wrong length")

    deg = graph.degree_of_mask(emask).astype(np.float64)
    slack = b.copy()
    active = np.ones(n, dtype=bool)
    death = np.zeros(n, dtype=np.float64)
    saturated = np.zeros(n, dtype=bool)
    adj = graph.adjacency

    def kill(vs: np.ndarray, now: float, by_saturation: bool) -> None:
        for v in vs.tolist():
            active[v] = False
            death[v] = now
            saturated[v] = by_saturation
        # edges from a dead vertex stop growing: drop neighbor rates
        for v in vs.tolist():
            for (w, e) in adj[v]:
                if emask[e] and active[w]:
                    deg[w] -= 1.0

    elapsed = 0.0
    # zero budgets saturate immediately
    zero = active & (slack <= SATURATION_TOL)
    if np.any(zero):
        kill(np.nonzero(zero)[0], 0.0, True)

    while True:
        growing = active & (deg > 0.0)
        if not np.any(growing):
            break
        rates = deg[growing]
        dt = float(np.min(slack[growing] / rates))
        elapsed += dt
        slack[growing] -= rates * dt
        newly = growing & (slack <= SATURATION_TOL)
        kill(np.nonzero(newly)[0], elapsed, True)

    death[active] = elapsed
    return FillingResult(graph, b, death, saturated, elapsed, emask)


def filling(graph: Graph, budgets: Union[float, np.ndarray] = 1.0) -> FillingResult:
    """Run the growth process on the whole edge set."""
    return filling_on_mask(graph, None, budgets)


def truncate_at(result: FillingResult, t: float) -> FractionalAssignment:
    """Cap every edge value at t."""
    if t < 0:
        raise ParameterError("truncation time must be nonnegative")
    vals = np.minimum(result.assignment.values, t)
    return FractionalAssignment(result.parent, vals)


def general_vc_plan(
    graph: Graph,
    epsilon: float,
    p: float,
    t: Optional[float] = None,
) -> GeneralVcPlan:
    """Build the non-adaptive query set for the general-graph cover strategy.

    The truncation time defaults to epsilon^3 * p / 64; pass `t` to
    override it outright.  Queried edges have no endpoint that the truncated
    run already saturates, which caps the queried degree at ceil(1/t).
    """
    if not (0.0 < epsilon):
        raise ParameterError("epsilon must be positive")
    if not (0.0 < p <= 1.0):
        raise ParameterError("p must lie in (0, 1]")
    if t is None:
        t = (epsilon**3) * p / 64.0
    if not (0.0 < t):
        raise ParameterError("truncation time must be positive")

    run = filling(graph, 1.0)
    capped = truncate_at(run, t)
    sums = capped.vertex_sums()
    committed = sums >= 1.0 - SATURATION_TOL
    if graph.m:
        queried = ~(committed[graph.edge_u] | committed[graph.edge_v])
    else:
        queried = np.zeros(0, dtype=bool)
    residual = np.clip(1.0 - sums, 0.0, 1.0)
    return GeneralVcPlan(graph, float(t), capped, committed, queried, residual)


def general_vc_cover(plan: GeneralVcPlan, realized_q: np.ndarray) -> np.ndarray:
    """Answer a realization of the queried edges with a vertex cover mask.

    `realized_q` is aligned to the plan's queried edges in edge-index order.
    The cover is the committed vertices plus every vertex the residual run
    saturates; it touches all unqueried edges and all realized queried ones.
    """
    g = plan.parent
    q_idx = np.nonzero(plan.queried)[0]
    realized_q = np.asarray(realized_q, dtype=bool)
    if realized_q.shape != (len(q_idx),):
        raise StructuralError(
            f"expected {len(q_idx)} query answers, got {realized_q.shape}"
        )
    mask = np.zeros(g.m, dtype=bool)
    mask[q_idx[realized_q]] = True
    run = filling_on_mask(g, mask, plan.residual_budget)
    return plan.committed | run.saturated
