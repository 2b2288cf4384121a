"""Water filling: simultaneous fractional growth on all edges.

Every edge that still has both endpoints alive grows at the same unit rate.
A vertex dies when the values of its incident edges sum to its budget; its
edges stop growing at that moment.  Consequently the final value of an edge
is exactly min(death_time(u), death_time(v)), and the whole process is
determined by the vertex death times, which an event-driven sweep computes
in at most n events.

`filling_on_mask` returns the pair (death, saturated): death[v] is the time
at which v's edges stopped growing, and saturated[v] says whether that
happened because v's budget filled up.  Vertices still alive when nothing
grows any more get the end time of the run and saturated = False; a zero
budget saturates at time 0.  An edge's value is min(death[u], death[v]) if
it took part in the run, else 0.

Two sweeps run the same process under the same tie rule: an event at time
T kills every growing vertex whose slack at T is within SATURATION_TOL.
`filling_on_mask` is iterative and advances all slacks together at every
event; the plan reads its death times, which must stay bit-identical to
the earlier implementation's, since committing compares capped sums
against 1 exactly.  `saturated_on_mask` keeps each slack lazily in a heap
of projected death times, in O((n + m) log n), and returns the saturated
set alone, which is all a response needs.

The cover construction built on top: run the process once on the full graph
with unit budgets, cap every edge value at a small time t, commit the
vertices that are still saturated after capping, and query only the edges
with no committed endpoint (their count per vertex is at most ceil(1/t)).
At response time, rerun the process on the realized queried edges with the
leftover budgets (the heap sweep); saturated vertices together with the
committed ones cover everything that was realized.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ParameterError, StructuralError
from .graphs import Graph

__all__ = [
    "GeneralVcPlan",
    "filling_on_mask",
    "saturated_on_mask",
    "general_vc_plan",
    "general_vc_cover",
]

SATURATION_TOL = 1e-9


@dataclass(frozen=True)
class GeneralVcPlan:
    """Query plan for the cover strategy on general graphs."""

    t: float
    committed: np.ndarray  # vertices whose capped incident values sum to 1
    queried: np.ndarray  # edge mask: no endpoint committed
    residual_budget: np.ndarray  # per vertex, 1 - capped sum


def _as_budgets(graph: Graph, budgets: Union[float, np.ndarray]) -> np.ndarray:
    b = np.broadcast_to(np.asarray(budgets, dtype=np.float64), (graph.n,)).copy()
    if np.any(b < 0.0) or np.any(b > 1.0):
        raise ParameterError("budgets must lie in [0, 1]")
    return b


def filling_on_mask(
    graph: Graph, mask: np.ndarray, budgets: Union[float, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Run the growth process on the edges selected by `mask`.

    Returns (death, saturated), both indexed by vertex.
    """
    n = graph.n
    slack = _as_budgets(graph, budgets)
    emask = np.asarray(mask, dtype=bool)
    if emask.shape != (graph.m,):
        raise StructuralError("edge mask has wrong length")

    deg = graph.degree_of_mask(emask).astype(np.float64)
    active = np.ones(n, dtype=bool)
    death = np.zeros(n, dtype=np.float64)
    saturated = np.zeros(n, dtype=bool)
    adj = graph.adjacency
    # Python-list mirrors of `emask` and `active` for the per-edge reads
    in_mask = emask.tolist()
    alive = [True] * n

    def kill(vs: np.ndarray, now: float) -> None:
        active[vs] = False
        death[vs] = now
        saturated[vs] = True
        dying = vs.tolist()
        for v in dying:
            alive[v] = False
        # edges from a dead vertex stop growing: drop neighbor rates (whole
        # numbers, so subtracting them all at once gives the same values)
        drops = [w for v in dying for (w, e) in adj[v] if in_mask[e] and alive[w]]
        np.subtract.at(deg, drops, 1.0)

    elapsed = 0.0
    # zero budgets saturate immediately
    zero = active & (slack <= SATURATION_TOL)
    if np.any(zero):
        kill(np.nonzero(zero)[0], 0.0)

    while True:
        growing = active & (deg > 0.0)
        if not np.any(growing):
            break
        rates = deg[growing]
        dt = float(np.min(slack[growing] / rates))
        elapsed += dt
        slack[growing] -= rates * dt
        newly = growing & (slack <= SATURATION_TOL)
        kill(np.nonzero(newly)[0], elapsed)

    death[active] = elapsed
    return death, saturated


def saturated_on_mask(
    graph: Graph, mask: np.ndarray, budgets: Union[float, np.ndarray]
) -> np.ndarray:
    """The `saturated` half of `filling_on_mask`'s result, from a heap sweep.

    Each alive vertex v keeps its slack at time t0[v] and its rate deg[v],
    the number of its masked edges to alive vertices, so its projected
    death time is t0[v] + slack[v] / deg[v].  A rate only ever falls, which
    only delays that time, so the heap keeps one entry (key, v) per growing
    vertex and lets a key lag behind: a key is a lower bound on v's death
    time, and an entry found stale at the top is re-keyed instead of being
    pushed anew at every rate change.  An event at the least current key T
    takes every entry up to T + SATURATION_TOL and kills the vertices whose
    slack at T is within SATURATION_TOL; the others go back.
    """
    n = graph.n
    slack = _as_budgets(graph, budgets).tolist()
    emask = np.asarray(mask, dtype=bool)
    if emask.shape != (graph.m,):
        raise StructuralError("edge mask has wrong length")
    idx = np.flatnonzero(emask)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(graph.edge_u[idx].tolist(), graph.edge_v[idx].tolist()):
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = [len(row) for row in nbrs]
    t0 = [0.0] * n
    alive = [True] * n
    saturated = np.zeros(n, dtype=bool)

    def kill(dying: list[int], now: float) -> None:
        for v in dying:
            alive[v] = False
        # edges from a dead vertex stop growing: settle each neighbor's
        # slack at `now`, then lower its rate
        for v in dying:
            for w in nbrs[v]:
                if alive[w]:
                    slack[w] -= deg[w] * (now - t0[w])
                    t0[w] = now
                    deg[w] -= 1
        saturated[dying] = True

    # zero budgets saturate immediately
    kill([v for v in range(n) if slack[v] <= SATURATION_TOL], 0.0)
    heap = [(slack[v] / deg[v], v) for v in range(n) if alive[v] and deg[v]]
    heapq.heapify(heap)
    while heap:
        key, v = heap[0]
        d = deg[v]
        if not d:
            heapq.heappop(heap)  # stopped growing without saturating
            continue
        due = t0[v] + slack[v] / d
        if due != key:
            heapq.heapreplace(heap, (due, v))
            continue
        now = key
        window = now + SATURATION_TOL
        batch = []
        while heap and heap[0][0] <= window:
            batch.append(heapq.heappop(heap)[1])
        dying = []
        for v in batch:
            d = deg[v]
            if not d:
                continue
            if slack[v] - d * (now - t0[v]) <= SATURATION_TOL:
                dying.append(v)
            else:
                heapq.heappush(heap, (t0[v] + slack[v] / d, v))
        kill(dying, now)
    return saturated


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

    death, _saturated = filling_on_mask(graph, np.ones(graph.m, dtype=bool), 1.0)
    capped = np.minimum(np.minimum(death[graph.edge_u], death[graph.edge_v]), t)
    sums = np.zeros(graph.n, dtype=np.float64)
    np.add.at(sums, graph.edge_u, capped)
    np.add.at(sums, graph.edge_v, capped)
    committed = sums >= 1.0 - SATURATION_TOL
    queried = ~(committed[graph.edge_u] | committed[graph.edge_v])
    residual = np.clip(1.0 - sums, 0.0, 1.0)
    return GeneralVcPlan(float(t), committed, queried, residual)


def general_vc_cover(
    graph: Graph, plan: GeneralVcPlan, realized_mask: np.ndarray
) -> np.ndarray:
    """Answer a realization of the queried edges with a vertex cover mask.

    `realized_mask` is full length: the realized queried edges are True and
    every other edge is False.  The cover is the committed vertices plus
    every vertex the residual run saturates; it touches all unqueried edges
    and all realized queried ones.
    """
    return plan.committed | saturated_on_mask(graph, realized_mask, plan.residual_budget)
