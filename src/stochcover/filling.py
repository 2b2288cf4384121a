"""Water filling: simultaneous fractional growth on all edges.

Every edge that still has both endpoints alive grows at the same unit rate.
A vertex dies when the values of its incident edges sum to its budget; its
edges stop growing at that moment.  Consequently the final value of an edge
is exactly min(death_time(u), death_time(v)), and the whole process is
determined by the vertex death times, which an event-driven sweep computes
in at most n events.

Two sweeps run this process under one tie rule: an event at time T kills
every growing vertex whose slack at T is within SATURATION_TOL, and such
a vertex is saturated.  Each serves one caller.  The plan's sweep
(`_death_times`) runs with unit budgets over the graph's shared
`Graph.neighbours` lists and advances all slacks together at every event.
It stops at the truncation time t, since no later event changes a capped
value min(death[u], death[v], t); every vertex still alive then gets death
time t.  Its arithmetic must stay bit-identical to the earlier
implementation's, since committing compares capped sums against 1
exactly.  The response's sweep (`saturated_on_lists`) runs over prebuilt
neighbour lists with budgets in [0, 1] (a zero budget saturates at time
0), keeps each slack lazily in a heap of projected death times, in
O((n + m) log n), stops once no edge is still growing, and returns the
saturated vertices alone, as a list, which is all a response needs.  Most
of a sweep's vertices usually stop growing without dying (their last
neighbour died); their heap entries are dead, and are dropped in bulk
when they outnumber the live ones.  The evaluator hands the sweep the
realization's lists, which the trial's exact cover reads too;
`saturated_on_mask` is the one-row entry that checks the budgets, builds
the lists of a mask and returns a vertex mask.

The cover construction built on top: run the process on the full graph
with unit budgets up to a small time t, which caps every edge value at t,
commit the vertices that are still saturated after capping, and query only
the edges with no committed endpoint (their count per vertex is at most
ceil(1/t)).  At response time, rerun the process on the realized queried
edges with the leftover budgets (the heap sweep); saturated vertices
together with the committed ones cover everything that was realized.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ParameterError
from .graphs import Graph

__all__ = [
    "GeneralVcPlan",
    "saturated_on_lists",
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


def _death_times(graph: Graph, t: float) -> np.ndarray:
    """Death times of the unit-budget run on all edges, up to time t.

    The sweep stops at the first event past t (an event at exactly t still
    applies), and every vertex still alive then gets death time t.
    """
    n = graph.n
    nbrs = graph.neighbours()
    deg = np.array([len(row) for row in nbrs], dtype=np.float64)
    slack = np.ones(n, dtype=np.float64)
    active = np.ones(n, dtype=bool)
    death = np.full(n, t, dtype=np.float64)
    alive = [True] * n  # a Python-list mirror of `active` for the per-neighbour reads
    elapsed = 0.0
    while True:
        growing = active & (deg > 0.0)
        if not np.any(growing):
            break
        rates = deg[growing]
        dt = float(np.min(slack[growing] / rates))
        elapsed += dt
        if elapsed > t:
            break
        slack[growing] -= rates * dt
        newly = np.nonzero(growing & (slack <= SATURATION_TOL))[0]
        active[newly] = False
        death[newly] = elapsed
        dying = newly.tolist()
        for v in dying:
            alive[v] = False
        # edges from a dead vertex stop growing: drop neighbor rates (whole
        # numbers, so subtracting them all at once gives the same values)
        drops = [w for v in dying for w in nbrs[v] if alive[w]]
        np.subtract.at(deg, drops, 1.0)
    return death


def saturated_on_mask(
    graph: Graph, mask: np.ndarray, budgets: Union[float, np.ndarray]
) -> np.ndarray:
    """The vertices that the run on the edges of `mask` saturates, as a vertex mask.

    Every budget must lie in [0, 1] (a NaN does not), else ParameterError.
    The run is `saturated_on_lists` over the mask's `Graph.neighbours`.
    """
    n = graph.n
    b = np.asarray(budgets, dtype=np.float64)
    slack = np.broadcast_to(b, (n,)).tolist()
    if not all(0.0 <= s <= 1.0 for s in slack):
        raise ParameterError("budgets must lie in [0, 1]")
    out = np.zeros(n, dtype=bool)
    out[saturated_on_lists(graph.neighbours(mask), slack)] = True
    return out


def saturated_on_lists(nbrs: Sequence[Sequence[int]], budgets: list[float]) -> list[int]:
    """The vertices the run saturates, in order of death, from a heap sweep.

    `nbrs` are per-vertex neighbour lists, read and not changed, and
    `budgets` a list of per-vertex budgets in [0, 1], not checked here and
    not changed.  Each alive vertex v keeps its slack at time t0[v] and its
    rate deg[v], the number of its edges to alive vertices, so its projected
    death time is t0[v] + slack[v] / deg[v].  A rate only ever falls, which
    only delays that time, so the heap keeps one entry (key, v) per growing
    vertex and lets a key lag behind: a key is a lower bound on v's death
    time, and an entry found stale at the top is re-keyed instead of being
    pushed anew at every rate change.  An event at the least current key T
    takes every entry up to T + SATURATION_TOL and kills the vertices whose
    slack at T is within SATURATION_TOL; the others go back.

    A vertex whose rate falls to 0 stops growing for good: its slack is not
    settled, since nothing reads it again, and its entry is dead.  Dead
    entries are dropped as they reach the top, or all at once, by rebuilding
    the heap from the live ones, when they are more than half of it.  The
    entries are distinct (key, v) tuples, so the live ones pop in the same
    order either way.  The sweep ends when no vertex is still growing.
    """
    n = len(nbrs)
    slack = list(budgets)
    deg = [len(row) for row in nbrs]
    t0 = [0.0] * n
    alive = [True] * n
    saturated: list[int] = []
    dead = 0  # entries in the heap whose vertex stopped growing without dying

    def kill(dying: list[int], now: float) -> int:
        """Kill `dying` at time `now`; returns the number of edges that stop growing.

        One vertex at a time: a vertex's edges to the vertices still alive
        stop, and each such neighbour has its rate lowered and, while that
        stays positive, its slack settled at `now`, so an edge between two
        dying vertices is counted once.
        """
        nonlocal dead
        stopped = 0
        for v in dying:
            alive[v] = False
            saturated.append(v)
            d = deg[v]
            if d:
                stopped += d
            else:
                dead -= 1  # an earlier vertex of `dying` stopped it, but its entry is gone
            for w in nbrs[v]:
                if alive[w]:
                    d = deg[w]
                    if d > 1:
                        slack[w] -= d * (now - t0[w])
                        t0[w] = now
                        deg[w] = d - 1
                    else:
                        deg[w] = 0
                        dead += 1
        return stopped

    growing = sum(deg) // 2  # edges with both ends alive
    # zero budgets saturate immediately
    growing -= kill([v for v in range(n) if slack[v] <= SATURATION_TOL], 0.0)
    heap = [(slack[v] / deg[v], v) for v in range(n) if alive[v] and deg[v]]
    heapq.heapify(heap)
    dead = 0
    while growing:
        key, v = heap[0]
        d = deg[v]
        if not d:
            heapq.heappop(heap)  # a dead entry
            dead -= 1
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
                dead -= 1
            elif slack[v] - d * (now - t0[v]) <= SATURATION_TOL:
                dying.append(v)
            else:
                heapq.heappush(heap, (t0[v] + slack[v] / d, v))
        growing -= kill(dying, now)
        if 2 * dead > len(heap):
            heap = [entry for entry in heap if deg[entry[1]]]
            heapq.heapify(heap)
            dead = 0
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

    death = _death_times(graph, t)
    capped = np.minimum(death[graph.edge_u], death[graph.edge_v])
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
