"""Matching engine: exact bipartite matching, covers, and small exact MVC.

All routines are deterministic: vertices and edges are processed in index
order, so ties always break toward the lowest index.  The evaluator relies
on this for bit-reproducible experiments.

The bipartite matcher is a layered augmenting-path search (Hopcroft-Karp).
Minimum vertex cover on bipartite graphs comes from the matching via the
alternating-reachability construction; on general graphs a branch-and-bound
with degree-0/1 reductions handles desk-scale inputs.  There is deliberately
no blossom algorithm here: nothing in the experiments needs maximum matching
on large general graphs.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityError, StructuralError
from .graphs import Graph

__all__ = [
    "BipartiteBase",
    "Matching",
    "hk_on_mask",
    "konig_cover_from_pairs",
    "mvc_bipartite_on_mask",
    "mvc_general_on_mask",
]

_INF = 1 << 30


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, stored by edge index."""

    parent: Graph
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(int(e) for e in self.edges)))
        seen: set[int] = set()
        for e in self.edges:
            if not (0 <= e < self.parent.m):
                raise StructuralError(f"matching references edge {e} out of range")
            u, v = self.parent.edges[e]
            if u in seen or v in seen:
                raise StructuralError("matching edges share a vertex")
            seen.add(u)
            seen.add(v)

    @property
    def size(self) -> int:
        return len(self.edges)


# --- bipartite maximum matching ----------------------------------------------


class _Adjacency:
    """Masked bipartite adjacency, built once and shared by HK and Konig.

    For each left (side-0) vertex u, `nbr[u]` lists the right endpoints and
    `eid[u]` the edge indices of its edges, both in the order the edges were
    given, which fixes the tie-breaking.  `active` lists the vertices with
    at least one edge and `lefts` the side-0 vertices among them.
    """

    __slots__ = ("nbr", "eid", "active", "lefts")

    def __init__(self, graph: Graph, side: np.ndarray, edge_indices: Iterable[int]):
        left, right, proper = graph.oriented_endpoints(side)
        n = graph.n
        nbr: list[list[int]] = [[] for _ in range(n)]
        eid: list[list[int]] = [[] for _ in range(n)]
        for e in edge_indices:
            u = left[e]
            nbr[u].append(right[e])
            eid[u].append(e)
        self.nbr = nbr
        self.eid = eid
        self._set_active(side, proper, [u for u in range(n) if nbr[u]])

    def _set_active(self, side: np.ndarray, proper: bool, active: list[int]) -> None:
        self.active = active
        # every edge has a side-0 endpoint on a proper side array, so the
        # vertices holding edges are exactly the side-0 ones
        self.lefts = active if proper else [u for u in active if side[u] == 0]

    def plus(self, graph: Graph, side: np.ndarray, edge_indices: Sequence[int]) -> "_Adjacency":
        """This adjacency with more edges, each at its edge-index position.

        For an adjacency built in increasing edge order and new edges it
        does not hold, the result equals, list for list, the adjacency
        built from the union in increasing edge order.  Only the rows the
        new edges touch are copied; this adjacency is left as it was.
        """
        left, right, proper = graph.oriented_endpoints(side)
        nbr = list(self.nbr)
        eid = list(self.eid)
        copied: set[int] = set()
        for e in edge_indices:
            u = left[e]
            if u not in copied:
                copied.add(u)
                nbr[u] = list(nbr[u])
                eid[u] = list(eid[u])
            row = eid[u]
            i = bisect_left(row, e)
            row.insert(i, e)
            nbr[u].insert(i, right[e])
        out = _Adjacency.__new__(_Adjacency)
        out.nbr = nbr
        out.eid = eid
        active = self.active
        fresh = [u for u in copied if not self.nbr[u]]
        if fresh:
            active = sorted(active + fresh)
        out._set_active(side, proper, active)
        return out


def _mask_edges(graph: Graph, mask: Optional[np.ndarray]) -> Sequence[int]:
    if mask is None:
        return range(graph.m)
    return np.nonzero(np.asarray(mask, dtype=bool))[0].tolist()


def _augment(
    root: int,
    nbr: list[list[int]],
    eid: list[list[int]],
    pair: list[int],
    pedge: list[int],
    dist: list[int],
) -> bool:
    """Layered DFS for one augmenting path from `root`, iteratively.

    Tries edges in adjacency order exactly as the recursive search
    (descend into w = pair[v] when dist[w] is one more) would, so it applies
    the same path.  `stack` holds the suspended frames as (left vertex,
    index of the edge being tried); on success those edges become matched.
    """
    stack: list[tuple[int, int]] = []
    u = root
    i = 0
    row = nbr[u]
    k = len(row)
    du = dist[u] + 1
    while True:
        while i < k:
            w = pair[row[i]]
            if w < 0:
                stack.append((u, i))
                for x, j in stack:
                    v = nbr[x][j]
                    e = eid[x][j]
                    pair[x] = v
                    pair[v] = x
                    pedge[x] = e
                    pedge[v] = e
                return True
            if dist[w] == du:
                break
            i += 1
        if i < k:
            stack.append((u, i))
            u = w
            i = 0
            du += 1
        else:
            dist[u] = _INF
            if not stack:
                return False
            u, i = stack.pop()
            i += 1
            du -= 1
        row = nbr[u]
        k = len(row)


def _hopcroft_karp(adj: _Adjacency, pair: list[int], pedge: list[int]) -> int:
    """Grow the matching in `pair`/`pedge` in place to maximum; returns its size."""
    nbr = adj.nbr
    eid = adj.eid
    lefts = adj.lefts
    dist = [_INF] * len(nbr)
    size = sum(1 for u in lefts if pair[u] >= 0)
    while True:
        queue: list[int] = []
        for u in lefts:
            if pair[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        for u in queue:  # breadth first: the loop also visits appended vertices
            du = dist[u] + 1
            for v in nbr[u]:
                w = pair[v]
                if w < 0:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = du
                    queue.append(w)
        if not found:
            return size
        for u in lefts:
            if pair[u] < 0 and _augment(u, nbr, eid, pair, pedge, dist):
                size += 1


def _konig(adj: _Adjacency, pair: Sequence[int], n: int, strict: bool) -> np.ndarray:
    """Cover from alternating reachability over the adjacency; see konig_cover_from_pairs."""
    nbr = adj.nbr
    active = adj.active
    seen_l = [False] * n
    seen_r = [False] * n
    queue = [u for u in active if pair[u] < 0]
    for u in queue:
        seen_l[u] = True
    free = len(queue)
    reached_r: list[int] = []
    for u in queue:
        for v in nbr[u]:
            if not seen_r[v]:
                seen_r[v] = True
                reached_r.append(v)
                w = pair[v]
                if w >= 0 and not seen_l[w]:
                    seen_l[w] = True
                    queue.append(w)
    cover = np.zeros(n, dtype=bool)
    cover[[u for u in active if not seen_l[u]]] = True
    cover[reached_r] = True
    if strict:
        msize = len(active) - free
        csize = int(np.count_nonzero(cover))
        if csize != msize:
            raise StructuralError(
                f"cover/matching size mismatch ({csize} vs {msize}); "
                "input matching was not maximum"
            )
    return cover


def _start_pairs(
    n: int, init_pair: Optional[Sequence[int]], init_pair_edge: Optional[Sequence[int]]
) -> tuple[list[int], list[int]]:
    if init_pair is None:
        return [-1] * n, [-1] * n
    return list(init_pair), list(init_pair_edge)  # type: ignore[arg-type]


def hk_on_mask(
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
    if edge_indices is None:
        edge_indices = _mask_edges(graph, mask)
    adj = _Adjacency(graph, side, edge_indices)
    pair, pedge = _start_pairs(graph.n, init_pair, init_pair_edge)
    size = _hopcroft_karp(adj, pair, pedge)
    return pair, pedge, size


def konig_cover_from_pairs(
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
    if isinstance(pair, np.ndarray):
        pair = pair.tolist()
    adj = _Adjacency(graph, side, _mask_edges(graph, mask))
    return _konig(adj, pair, graph.n, strict)


def mvc_bipartite_on_mask(
    graph: Graph, side: np.ndarray, mask: Optional[np.ndarray]
) -> tuple[np.ndarray, int]:
    """Exact minimum vertex cover of a masked bipartite graph.

    Hopcroft-Karp, then Konig's construction, both on one adjacency build.
    `BipartiteBase` is the warm-started form.
    """
    adj = _Adjacency(graph, side, _mask_edges(graph, mask))
    pair, pedge = _start_pairs(graph.n, None, None)
    size = _hopcroft_karp(adj, pair, pedge)
    return _konig(adj, pair, graph.n, strict=True), size


class BipartiteBase:
    """A fixed edge set S of a bipartite graph, prepared for exact covers of S + X.

    Holds S's adjacency and a maximum matching of S, both built once.  Each
    `solve` adds the edges of X to a copy of the adjacency, warm-starts
    Hopcroft-Karp from S's matching, and extracts Konig's cover.  The
    result equals `hk_on_mask` warm-started from S's matching on S | X,
    followed by `konig_cover_from_pairs`, since the adjacency lists are the
    same.  Instances are read-only after construction, so threads may share one.
    """

    def __init__(self, graph: Graph, side: np.ndarray, s_mask: np.ndarray):
        self.graph = graph
        self.side = side
        self.adj = _Adjacency(graph, side, _mask_edges(graph, s_mask))
        self.pair, self.pedge = _start_pairs(graph.n, None, None)
        _hopcroft_karp(self.adj, self.pair, self.pedge)

    def solve(self, extra_mask: np.ndarray) -> tuple[list[int], list[int], int, np.ndarray]:
        """(pair, pair_edge, size, cover) of S | extra_mask; the mask must avoid S."""
        g = self.graph
        adj = self.adj.plus(g, self.side, np.flatnonzero(extra_mask).tolist())
        pair, pedge = _start_pairs(g.n, self.pair, self.pedge)
        size = _hopcroft_karp(adj, pair, pedge)
        return pair, pedge, size, _konig(adj, pair, g.n, strict=True)


# --- exact minimum vertex cover, general graphs -------------------------------


def _components(adj: dict[int, set[int]]) -> list[list[int]]:
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


def _greedy_matching_lb(adj: dict[int, set[int]]) -> int:
    """Size of a greedy maximal matching: a lower bound on the cover size."""
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


def _reduce(adj: dict[int, set[int]], cover: set[int]) -> None:
    """Apply degree-0/1 reductions in place."""
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


def _bb_component(adj: dict[int, set[int]]) -> set[int]:
    """Branch and bound on one connected component.  Returns an optimal cover."""
    base: set[int] = set()
    _reduce(adj, base)
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
        _reduce(local, picked)
        local = {v: ns for v, ns in local.items() if ns}
        if not local:
            if len(picked) < len(best[0]):
                best[0] = picked
            return
        if len(picked) + _greedy_matching_lb(local) >= len(best[0]):
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


def mvc_general_on_mask(
    graph: Graph, mask: Optional[np.ndarray], budget_vertices: int = 40
) -> tuple[np.ndarray, int]:
    """Exact minimum vertex cover of a masked general graph.

    The budget counts non-isolated vertices under the mask; above it the
    branch and bound is refused rather than left to run unbounded.
    """
    adj: dict[int, set[int]] = {}
    for e in _mask_edges(graph, mask):
        u, v = graph.edges[e]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if len(adj) > budget_vertices:
        raise CapacityError(
            f"exact vertex cover refused: {len(adj)} active vertices "
            f"exceeds budget {budget_vertices}"
        )
    cover: set[int] = set()
    for comp in _components(adj):
        sub = {v: set(adj[v]) for v in comp}
        cover |= _bb_component(sub)
    out = np.zeros(graph.n, dtype=bool)
    if cover:
        out[sorted(cover)] = True
    return out, len(cover)


# --- greedy maximal matching --------------------------------------------------


def greedy_matching_edges(graph: Graph, order: Iterable[int]) -> list[int]:
    """Edges taken greedily in the given order, each when both ends are free.

    The one greedy-matching loop of the package: `order` may be any sequence
    of distinct edge indices, e.g. the edges of a mask.
    """
    used = [False] * graph.n
    edges = graph.edges
    picked: list[int] = []
    for e in order:
        u, v = edges[e]
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            picked.append(e)
    return picked
