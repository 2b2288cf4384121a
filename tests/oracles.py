"""Brute-force reference implementations used only by the test suite.

Everything here is written for obviousness, not speed: matchings by
enumerating edge subsets, covers by enumerating vertex subsets, expected
values by enumerating realizations.  These are the independent yardsticks
the production code is measured against, so they deliberately share no
logic with the package.

`reference_hk` and `reference_konig_cover` are the exception: they are the
package's earlier recursive Hopcroft-Karp and Konig kernels, kept verbatim
as the yardstick for tie-breaking.  The production kernel must return the
identical matching (which maximum matching comes back, not only its size),
because partition marginals and `mc_matching`'s query set depend on it.

`reference_mvc_general` is the package's earlier exact general cover:
dict-of-set adjacency, repeated degree-0/1 sweeps and branch and bound per
component.  The production solver must return a cover of the same size,
and refuse exactly the masks it refused; the vertex sets may differ.

`reference_general_vc_plan` and `reference_general_vc_cover` are the
package's earlier water-filling plan and cover, kept verbatim with the
`FillingResult` and `FractionalAssignment` types they were built on.  The
production plan must match them bit for bit (committed set, queried set and
residual budgets) and the production cover must be identical, because every
`general_vc` row of a CSV depends on both.  The saturated sets of the
earlier sweep, `_reference_filling_on_mask`, are the yardstick for the
production heap sweep on any mask and budgets.

`reference_policy_draws` and `reference_estimate_marginals` are the
package's earlier partition round: one draw, one fresh warm-started
matching per draw.  The block-drawn round must yield bitwise the same
marginals.

`reference_evaluate_strategies` is the package's earlier evaluation loop:
one closure per trial that draws the realization, asks each plan through
`respond_strategy`, checks each answer with `validity_check` and solves
the optimum, run in order or on a thread pool.  The block kernel must give
the same reports, `wall_ms` aside.

`reference_random_query_mask` is the package's earlier `random_query_baseline`
plan: one seeded `sample_without_replacement` over each vertex's incident
edges.  The production plan draws every vertex's uniforms at once and must
query exactly the same edges.

`degrees`, `adjacency` and `component_labels` are per-vertex counts,
(neighbour, edge) lists and labels read straight off the edge list.

`policy_matching_sizes` and `conditional_match_probs` are Monte-Carlo
yardsticks for the partition policy and for the exact proposal rows; they
drive the package's own policies and base matchers on fresh draws.
"""
from __future__ import annotations

import math
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence, Union

import numpy as np

from stochcover import rng
from stochcover.errors import CapacityError, ParameterError, StructuralError
from stochcover.evaluator import (
    _TAG_TRIAL,
    EvalReport,
    _ratio_ci95,
    validity_check,
)
from stochcover.graphs import EdgePartition, Graph, Realization, bipartition
from stochcover.matching import hk_on_mask
from stochcover.partition import (
    _TAG_COMPONENT,
    _TAG_SAMPLE,
    MatchingPolicy,
    estimate_marginals,
)
from stochcover.strategies import (
    _TAG_RQB,
    QueryPlan,
    StrategyParams,
    exact_cover_on_mask,
    plan_strategy,
    respond_strategy,
    strategy_kind,
)
from stochcover.vim import EdgeStatusProfile, ProposalRow, run_base_matcher

_TAG_COND = 21

_INF = 1 << 30


def degrees(graph: Graph) -> list[int]:
    """Per-vertex count of incident edges."""
    deg = [0] * graph.n
    for u, v in graph.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def adjacency(graph: Graph) -> list[list[tuple[int, int]]]:
    """Per vertex, its (neighbour, edge index) pairs in edge-index order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for e, (u, v) in enumerate(graph.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def component_labels(graph: Graph) -> list[int]:
    """Per vertex, its connected component's number, counted by lowest vertex.

    Every vertex starts with its own index and every edge lowers both ends
    to their smaller label until nothing changes, so each vertex ends with
    its component's lowest vertex; those are then numbered 0, 1, ... in
    increasing order.
    """
    low = list(range(graph.n))
    changed = True
    while changed:
        changed = False
        for u, v in graph.edges:
            if low[u] != low[v]:
                low[u] = low[v] = min(low[u], low[v])
                changed = True
    number = {r: k for k, r in enumerate(sorted(set(low)))}
    return [number[r] for r in low]


def brute_max_matching(graph: Graph, mask=None) -> int:
    """Maximum matching size by trying all edge subsets, largest first."""
    if mask is None:
        present = list(range(graph.m))
    else:
        present = [e for e in range(graph.m) if mask[e]]
    assert len(present) <= 16, "oracle meant for tiny graphs"
    for k in range(len(present), 0, -1):
        for combo in combinations(present, k):
            used = set()
            ok = True
            for e in combo:
                u, v = graph.edges[e]
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                return k
    return 0


def brute_min_vertex_cover(graph: Graph, mask=None) -> int:
    """Minimum vertex cover size by trying all vertex subsets, smallest first."""
    if mask is None:
        present = list(range(graph.m))
    else:
        present = [e for e in range(graph.m) if mask[e]]
    if not present:
        return 0
    vertices = sorted({x for e in present for x in graph.edges[e]})
    assert len(vertices) <= 16, "oracle meant for tiny graphs"
    for k in range(0, len(vertices) + 1):
        for combo in combinations(vertices, k):
            chosen = set(combo)
            if all(
                graph.edges[e][0] in chosen or graph.edges[e][1] in chosen
                for e in present
            ):
                return k
    raise AssertionError("unreachable: the full vertex set always covers")


def expected_stats_by_enumeration(graph: Graph, p: float) -> tuple[float, float]:
    """(E[nu], E[mu]) by summing over every realization of the edge set."""
    m = graph.m
    assert m <= 12, "oracle meant for tiny graphs"
    e_nu = 0.0
    e_mu = 0.0
    for bits in range(1 << m):
        mask = np.array([(bits >> e) & 1 == 1 for e in range(m)], dtype=bool)
        k = int(mask.sum())
        weight = (p**k) * ((1.0 - p) ** (m - k))
        if weight == 0.0:
            continue
        e_nu += weight * brute_min_vertex_cover(graph, mask)
        e_mu += weight * brute_max_matching(graph, mask)
    return e_nu, e_mu


def is_valid_matching(graph: Graph, edge_indices, mask=None) -> bool:
    used = set()
    for e in edge_indices:
        if mask is not None and not mask[e]:
            return False
        u, v = graph.edges[e]
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def is_valid_cover(graph: Graph, vertex_mask, edge_mask=None) -> bool:
    for e in range(graph.m):
        if edge_mask is not None and not edge_mask[e]:
            continue
        u, v = graph.edges[e]
        if not (vertex_mask[u] or vertex_mask[v]):
            return False
    return True


def policy_matching_sizes(
    policy: MatchingPolicy,
    partition: EdgePartition,
    graph: Graph,
    p: float,
    t: int,
    seed: int,
) -> tuple[float, float]:
    """Mean policy matching size vs mean exact maximum on the same draws.

    The policy's mean size is the sum of its `estimate_marginals`.  The
    exact side solves the half-stochastic graph of `partition` for each of
    the draws `estimate_marginals` makes, drawn one at a time as
    `reference_policy_draws` draws them; bipartite graphs only.
    """
    sides = bipartition(graph)
    if sides is None:
        raise StructuralError("exact comparison needs a bipartite graph")
    mean_policy = float(np.sum(estimate_marginals(policy, partition, graph, p, t, seed)))
    s_mask = ~partition.in_q
    tot_opt = 0
    for s in range(t):
        mask = rng.bernoulli_mask(rng.derive_seed(seed, _TAG_SAMPLE, s), graph.m, p)
        tot_opt += hk_on_mask(graph, sides.side, s_mask | mask)[2]
    return mean_policy, tot_opt / t


def conditional_match_probs(
    alg: str,
    graph: Graph,
    p: float,
    v: int,
    profile: EdgeStatusProfile,
    t: int,
    seed: int,
) -> ProposalRow:
    """Sampled estimate of Pr[e in M_A | profile] for each edge e at v.

    Fixes v's edges to the profile and redraws every other edge fresh each
    sample; edge independence makes that the correct conditional law.
    """
    own = profile.edge_indices
    own_arr = np.array(own, dtype=np.int64)
    fixed = np.array(profile.realized, dtype=bool)
    counts = np.zeros(len(own), dtype=np.int64)
    for s in range(t):
        mask = rng.bernoulli_mask(rng.derive_seed(seed, _TAG_COND, s), graph.m, p)
        mask[own_arr] = fixed
        matched = run_base_matcher(alg, graph, mask)
        for k, e in enumerate(own):
            if e in matched:
                counts[k] += 1
    return ProposalRow.from_estimates(v, own, counts / float(t))


# --- the earlier per-vertex random query plan, kept verbatim -------------------


def sample_without_replacement(seed: int, items: list, k: int) -> list:
    """First k entries of a seeded Fisher-Yates shuffle of `items`."""
    if k >= len(items):
        return list(items)
    pool = list(items)
    out = []
    n = len(pool)
    for i in range(k):
        j = i + int(rng.uniform_at(seed, i) * (n - i))
        if j >= n:
            j = n - 1
        pool[i], pool[j] = pool[j], pool[i]
        out.append(pool[i])
    return out


def reference_random_query_mask(graph: Graph, s: int, seed: int) -> np.ndarray:
    """Queried mask of `random_query_baseline` at `s`: up to s seeded edges per vertex."""
    queried = np.zeros(graph.m, dtype=bool)
    for v, row in enumerate(adjacency(graph)):
        incident = [e for _w, e in row]
        if not incident:
            continue
        picked = sample_without_replacement(
            rng.derive_seed(seed, _TAG_RQB, v), incident, min(s, len(incident))
        )
        for e in picked:
            queried[e] = True
    return queried


# --- the earlier recursive kernel, kept verbatim ------------------------------


def _left_adjacency(
    graph: Graph, side: np.ndarray, edge_indices: Sequence[int]
) -> list[list[tuple[int, int]]]:
    """Adjacency (right vertex, edge index) for left vertices, edge order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    edges = graph.edges
    for e in edge_indices:
        u, v = edges[e]
        if side[u] != 0:
            u, v = v, u
        adj[u].append((v, e))
    return adj


def reference_hk(
    graph: Graph,
    side: np.ndarray,
    mask: Optional[np.ndarray] = None,
    init_pair: Optional[Sequence[int]] = None,
    init_pair_edge: Optional[Sequence[int]] = None,
    edge_indices: Optional[Sequence[int]] = None,
) -> tuple[list[int], list[int], int]:
    """Maximum matching of the subgraph selected by `mask`.

    Returns (pair, pair_edge, size): pair[v] is the matched partner or -1,
    pair_edge[v] the matched edge index or -1.  `init_pair`/`init_pair_edge`
    warm-start from a matching known to live inside the mask (the caller's
    contract); they are not modified.  `edge_indices`, when given, overrides
    the mask and fixes the adjacency (tie-breaking) order.
    """
    n = graph.n
    if edge_indices is None:
        if mask is None:
            edge_indices = range(graph.m)
        else:
            edge_indices = np.nonzero(np.asarray(mask, dtype=bool))[0].tolist()
    adj = _left_adjacency(graph, side, edge_indices)
    if init_pair is not None:
        pair = list(init_pair)
        pedge = list(init_pair_edge)  # type: ignore[arg-type]
    else:
        pair = [-1] * n
        pedge = [-1] * n

    lefts = [v for v in range(n) if side[v] == 0 and adj[v]]
    dist = [_INF] * n

    need = 2 * n + 64
    if sys.getrecursionlimit() < need:
        sys.setrecursionlimit(need)

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in lefts:
            if pair[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for (v, _e) in adj[u]:
                w = pair[v]
                if w < 0:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = du
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        du = dist[u] + 1
        for (v, e) in adj[u]:
            w = pair[v]
            if w < 0 or (dist[w] == du and dfs(w)):
                pair[u] = v
                pair[v] = u
                pedge[u] = e
                pedge[v] = e
                return True
        dist[u] = _INF
        return False

    size = sum(1 for u in lefts if pair[u] >= 0)
    while bfs():
        for u in lefts:
            if pair[u] < 0 and dfs(u):
                size += 1
    return pair, pedge, size


def reference_konig_cover(
    graph: Graph,
    side: np.ndarray,
    mask: Optional[np.ndarray],
    pair: Sequence[int],
    strict: bool = True,
) -> np.ndarray:
    """Vertex cover from a bipartite maximum matching, as a boolean mask.

    Alternating reachability from the unmatched left vertices: the cover is
    (unreached lefts) union (reached rights).  With a maximum matching the
    cover size equals the matching size; `strict` asserts that.
    """
    n = graph.n
    if mask is None:
        edge_indices: Sequence[int] = range(graph.m)
    else:
        edge_indices = np.nonzero(np.asarray(mask, dtype=bool))[0].tolist()
    adj = _left_adjacency(graph, side, edge_indices)
    left_has_edge = np.zeros(n, dtype=bool)
    right_has_edge = np.zeros(n, dtype=bool)
    for u in range(n):
        if adj[u]:
            left_has_edge[u] = True
            for (v, _e) in adj[u]:
                right_has_edge[v] = True

    seen_l = np.zeros(n, dtype=bool)
    seen_r = np.zeros(n, dtype=bool)
    queue: deque[int] = deque()
    for u in range(n):
        if left_has_edge[u] and pair[u] < 0:
            seen_l[u] = True
            queue.append(u)
    while queue:
        u = queue.popleft()
        for (v, _e) in adj[u]:
            if not seen_r[v]:
                seen_r[v] = True
                w = pair[v]
                if w >= 0 and not seen_l[w]:
                    seen_l[w] = True
                    queue.append(w)

    cover = (left_has_edge & ~seen_l) | (right_has_edge & seen_r)
    if strict:
        msize = sum(1 for u in range(n) if left_has_edge[u] and pair[u] >= 0)
        csize = int(np.count_nonzero(cover))
        if csize != msize:
            raise StructuralError(
                f"cover/matching size mismatch ({csize} vs {msize}); "
                "input matching was not maximum"
            )
    return cover


# --- the earlier per-draw partition round, kept verbatim ---------------------


def _reference_components(adj: dict[int, set[int]]) -> list[list[int]]:
    seen: set[int] = set()
    out: list[list[int]] = []
    for root in sorted(adj):
        if root in seen or not adj[root]:
            continue
        comp = [root]
        seen.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def _reference_greedy_matching_lb(adj: dict[int, set[int]]) -> int:
    used: set[int] = set()
    size = 0
    for u in sorted(adj):
        if u in used or not adj[u]:
            continue
        for w in sorted(adj[u]):
            if w not in used:
                used.add(u)
                used.add(w)
                size += 1
                break
    return size


def _reference_reduce(adj: dict[int, set[int]], cover: set[int]) -> None:
    again = True
    while again:
        again = False
        for v in sorted(adj):
            nbrs = adj.get(v)
            if nbrs is None:
                continue
            if not nbrs:
                del adj[v]
            elif len(nbrs) == 1:
                (u,) = nbrs
                cover.add(u)
                for w in list(adj[u]):
                    adj[w].discard(u)
                del adj[u]
                again = True


def _reference_bb_component(adj: dict[int, set[int]]) -> set[int]:
    base: set[int] = set()
    _reference_reduce(adj, base)
    if not adj:
        return base

    # greedy max-degree incumbent
    g2 = {v: set(ns) for v, ns in adj.items()}
    incumbent = set(base)
    while any(g2.values()):
        v = max(sorted(g2), key=lambda x: len(g2[x]))
        incumbent.add(v)
        for w in list(g2[v]):
            g2[w].discard(v)
        del g2[v]
    best = [incumbent]

    def recurse(cur: dict[int, set[int]], chosen: set[int]) -> None:
        local = {v: set(ns) for v, ns in cur.items()}
        picked = set(chosen)
        _reference_reduce(local, picked)
        local = {v: ns for v, ns in local.items() if ns}
        if not local:
            if len(picked) < len(best[0]):
                best[0] = picked
            return
        if len(picked) + _reference_greedy_matching_lb(local) >= len(best[0]):
            return
        v = max(sorted(local), key=lambda x: len(local[x]))
        nbrs = sorted(local[v])
        # branch 1: v in the cover
        b1 = {u: set(ns) for u, ns in local.items()}
        for w in b1[v]:
            b1[w].discard(v)
        del b1[v]
        recurse(b1, picked | {v})
        # branch 2: v excluded, so all its neighbors are in
        b2 = {u: set(ns) for u, ns in local.items()}
        add = set(nbrs)
        for u in nbrs:
            for w in b2[u]:
                b2[w].discard(u)
            del b2[u]
        b2.pop(v, None)
        recurse(b2, picked | add)

    recurse(adj, base)
    return best[0]


def reference_mvc_general(
    graph: Graph, mask: Optional[np.ndarray], budget_vertices: int = 40
) -> tuple[np.ndarray, int]:
    """The earlier `mvc_general_on_mask`: (cover, size), or CapacityError."""
    adj: dict[int, set[int]] = {}
    present = range(graph.m) if mask is None else np.nonzero(np.asarray(mask, dtype=bool))[0].tolist()
    for e in present:
        u, v = graph.edges[e]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if len(adj) > budget_vertices:
        raise CapacityError(
            f"exact vertex cover refused: {len(adj)} active vertices "
            f"exceeds budget {budget_vertices}"
        )
    cover: set[int] = set()
    for comp in _reference_components(adj):
        sub = {v: set(adj[v]) for v in comp}
        cover |= _reference_bb_component(sub)
    out = np.zeros(graph.n, dtype=bool)
    if cover:
        out[sorted(cover)] = True
    return out, len(cover)


def reference_policy_draws(
    policy: MatchingPolicy,
    graph: Graph,
    side: np.ndarray,
    p: float,
    t: int,
    seed: int,
):
    """(draw, matched edges) for each of t draws, one draw and one matching at a time.

    Each draw is its own `rng.bernoulli_mask`; the picked component matches
    S plus the draw from scratch, warm-started from a maximum matching of
    its S, and drops its excluded edges.
    """
    warm = [reference_hk(graph, side, ~np.asarray(c.in_q, dtype=bool)) for _w, c in policy.components]
    cum = np.cumsum([w for w, _c in policy.components])
    for s in range(t):
        mask = rng.bernoulli_mask(rng.derive_seed(seed, _TAG_SAMPLE, s), graph.m, p)
        k = 0
        if len(policy.components) > 1:
            u = rng.uniform_at(rng.derive_seed(seed, _TAG_COMPONENT, s), 0)
            k = int(np.searchsorted(cum, u, side="right"))
        comp = policy.components[k][1]
        idx = np.nonzero(~np.asarray(comp.in_q, dtype=bool) | mask)[0].tolist()
        pair, pedge, _size = warm[k]
        _p, out, _sz = reference_hk(graph, side, edge_indices=idx, init_pair=pair, init_pair_edge=pedge)
        yield mask, sorted({e for e in out if e >= 0} - comp.exclude)


def reference_estimate_marginals(
    policy: MatchingPolicy, graph: Graph, p: float, t: int, seed: int
) -> np.ndarray:
    """Per-edge matching frequencies over `reference_policy_draws`."""
    counts = np.zeros(graph.m, dtype=np.int64)
    for _mask, matched in reference_policy_draws(policy, graph, bipartition(graph).side, p, t, seed):
        if matched:
            counts[matched] += 1
    return counts / float(t)


# --- the earlier water-filling plan and cover, kept verbatim ------------------

_REFERENCE_SATURATION_TOL = 1e-9


@dataclass(frozen=True)
class _ReferenceAssignment:
    """Nonnegative per-edge values, e.g. a fractional matching."""

    parent: Graph
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (self.parent.m,):
            raise StructuralError(
                f"assignment has shape {arr.shape}, expected ({self.parent.m},)"
            )
        object.__setattr__(self, "values", arr)

    def vertex_sums(self) -> np.ndarray:
        sums = np.zeros(self.parent.n, dtype=np.float64)
        if self.parent.m:
            np.add.at(sums, self.parent.edge_u, self.values)
            np.add.at(sums, self.parent.edge_v, self.values)
        return sums


@dataclass(frozen=True)
class _ReferenceFillingResult:
    parent: Graph
    budgets: np.ndarray
    death: np.ndarray
    saturated: np.ndarray
    elapsed: float
    edge_mask: np.ndarray

    @cached_property
    def assignment(self) -> _ReferenceAssignment:
        g = self.parent
        values = np.zeros(g.m, dtype=np.float64)
        if g.m:
            values = np.minimum(self.death[g.edge_u], self.death[g.edge_v])
            values[~self.edge_mask] = 0.0
        return _ReferenceAssignment(g, values)


@dataclass(frozen=True)
class ReferenceGeneralVcPlan:
    parent: Graph
    t: float
    capped: _ReferenceAssignment
    committed: np.ndarray
    queried: np.ndarray
    residual_budget: np.ndarray


def _reference_as_budgets(graph: Graph, budgets: Union[float, np.ndarray]) -> np.ndarray:
    b = np.broadcast_to(np.asarray(budgets, dtype=np.float64), (graph.n,)).copy()
    if np.any(b < 0.0) or np.any(b > 1.0):
        raise ParameterError("budgets must lie in [0, 1]")
    return b


def _reference_filling_on_mask(
    graph: Graph, mask: Optional[np.ndarray], budgets: Union[float, np.ndarray]
) -> _ReferenceFillingResult:
    n = graph.n
    b = _reference_as_budgets(graph, budgets)
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
    adj = adjacency(graph)

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
    zero = active & (slack <= _REFERENCE_SATURATION_TOL)
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
        newly = growing & (slack <= _REFERENCE_SATURATION_TOL)
        kill(np.nonzero(newly)[0], elapsed, True)

    death[active] = elapsed
    return _ReferenceFillingResult(graph, b, death, saturated, elapsed, emask)


def _reference_truncate_at(result: _ReferenceFillingResult, t: float) -> _ReferenceAssignment:
    if t < 0:
        raise ParameterError("truncation time must be nonnegative")
    vals = np.minimum(result.assignment.values, t)
    return _ReferenceAssignment(result.parent, vals)


def reference_general_vc_plan(
    graph: Graph,
    epsilon: float,
    p: float,
    t: Optional[float] = None,
) -> ReferenceGeneralVcPlan:
    """The earlier `general_vc_plan`: full run, capped assignment, commits."""
    if not (0.0 < epsilon):
        raise ParameterError("epsilon must be positive")
    if not (0.0 < p <= 1.0):
        raise ParameterError("p must lie in (0, 1]")
    if t is None:
        t = (epsilon**3) * p / 64.0
    if not (0.0 < t):
        raise ParameterError("truncation time must be positive")

    run = _reference_filling_on_mask(graph, None, 1.0)
    capped = _reference_truncate_at(run, t)
    sums = capped.vertex_sums()
    committed = sums >= 1.0 - _REFERENCE_SATURATION_TOL
    if graph.m:
        queried = ~(committed[graph.edge_u] | committed[graph.edge_v])
    else:
        queried = np.zeros(0, dtype=bool)
    residual = np.clip(1.0 - sums, 0.0, 1.0)
    return ReferenceGeneralVcPlan(graph, float(t), capped, committed, queried, residual)


def reference_general_vc_cover(plan: ReferenceGeneralVcPlan, realized_q: np.ndarray) -> np.ndarray:
    """The earlier `general_vc_cover`: answers aligned to the queried edges."""
    g = plan.parent
    q_idx = np.nonzero(plan.queried)[0]
    realized_q = np.asarray(realized_q, dtype=bool)
    if realized_q.shape != (len(q_idx),):
        raise StructuralError(
            f"expected {len(q_idx)} query answers, got {realized_q.shape}"
        )
    mask = np.zeros(g.m, dtype=bool)
    mask[q_idx[realized_q]] = True
    run = _reference_filling_on_mask(g, mask, plan.residual_budget)
    return plan.committed | run.saturated


class _OptimumSolver:
    """Per-realization exact nu / mu with a one-way infeasibility latch."""

    def __init__(self, graph: Graph):
        self.graph = graph
        sides = bipartition(graph)
        self.side = sides.side if sides is not None else None
        self.infeasible_nu = False
        self.infeasible_mu = self.side is None  # no general matching solver here

    def solve(self, mask: np.ndarray, need_nu: bool, need_mu: bool) -> tuple[int, int]:
        """(nu, mu) of one realization; 0 for a value not needed or out of reach.

        On a bipartite graph one exact cover gives both, since nu = mu
        there (Konig's theorem).  Otherwise mu is out of reach, and nu comes
        from the exact general cover (reductions, then branch and bound on
        the kernel) until a mask first exceeds GENERAL_OPT_BUDGET active
        vertices.
        """
        if self.side is not None:
            size = exact_cover_on_mask(self.graph, mask)[1]
            return (size if need_nu else 0), (size if need_mu else 0)
        if not need_nu or self.infeasible_nu:
            return 0, 0
        try:
            return exact_cover_on_mask(self.graph, mask)[1], 0
        except CapacityError:
            self.infeasible_nu = True
            return 0, 0


def reference_evaluate_strategies(
    strategy_ids: Sequence[str],
    graph: Graph,
    params: StrategyParams,
    trials: int,
    seed: int,
    instance: str = "instance",
    compute_optimum: bool = True,
    threads: int = 1,
) -> list[EvalReport]:
    """Evaluate several strategies on shared per-trial realizations.

    All strategies see identical realizations, and per-trial optima are
    solved once and shared.  One trial after another, every plan answers
    through `respond_strategy`, and the optimum is a separate exact solve.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    if threads < 1:
        raise ParameterError("threads must be at least 1")
    t_start = time.perf_counter()
    plans: list[QueryPlan] = [plan_strategy(sid, graph, params) for sid in strategy_ids]

    kinds = [strategy_kind(sid) for sid in strategy_ids]
    need_nu = compute_optimum and any(k == "cover" for k in kinds)
    need_mu = compute_optimum and any(k == "matching" for k in kinds)
    solver = _OptimumSolver(graph)

    k_strats = len(plans)
    answer_sizes = np.zeros((k_strats, trials), dtype=np.float64)
    violations = np.zeros((k_strats, trials), dtype=np.int64)
    nu_vals = np.zeros(trials, dtype=np.float64)
    mu_vals = np.zeros(trials, dtype=np.float64)
    q_indices = [plan.queried_indices for plan in plans]

    def run_trial(k: int) -> None:
        mask = rng.bernoulli_mask(rng.derive_seed(seed, _TAG_TRIAL, k), graph.m, params.p)
        real = Realization(graph, mask, params.p)
        for j, plan in enumerate(plans):
            ans = respond_strategy(plan, mask[q_indices[j]])
            answer_sizes[j, k] = ans.size
            violations[j, k] = validity_check(ans, real)
        if need_nu or need_mu:
            nu_vals[k], mu_vals[k] = solver.solve(mask, need_nu, need_mu)

    if threads == 1:
        for k in range(trials):
            run_trial(k)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_trial, range(trials)))

    reports = []
    for j, sid in enumerate(strategy_ids):
        kind = kinds[j]
        opts = nu_vals if kind == "cover" else mu_vals
        infeasible = solver.infeasible_nu if kind == "cover" else solver.infeasible_mu
        mean_answer = math.fsum(answer_sizes[j]) / trials
        if compute_optimum and not infeasible:
            mean_opt: Optional[float] = math.fsum(opts) / trials
            ratio = mean_answer / mean_opt if mean_opt else None
            ci = _ratio_ci95(answer_sizes[j], opts) if mean_opt else None
        else:
            mean_opt = ratio = ci = None
        wall = (time.perf_counter() - t_start) * 1000.0
        reports.append(
            EvalReport(
                instance=instance,
                strategy=sid,
                p=params.p,
                epsilon=params.epsilon,
                trials=trials,
                seed=seed,
                mean_answer=mean_answer,
                mean_opt=mean_opt,
                ratio=ratio,
                ratio_ci95=ci,
                max_pv_queries=plans[j].max_per_vertex_queries,
                total_queries=plans[j].total_queries,
                validity_failures=int(violations[j].sum()),
                wall_ms=wall,
            )
        )
    return reports
