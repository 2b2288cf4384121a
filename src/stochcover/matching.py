"""Matching engine: exact bipartite matching, covers, and small exact MVC.

All routines are deterministic: vertices and edges are processed in index
order, so ties always break toward the lowest index.  The evaluator relies
on this for bit-reproducible experiments.

The bipartite matcher is a layered augmenting-path search (Hopcroft-Karp).
Minimum vertex cover on bipartite graphs comes from the matching via the
alternating-reachability construction.  On general graphs the exact cover
first applies the degree-0/1 rules to the whole mask with one worklist pass
over list adjacencies, in O(n + m); what is left, the kernel, is usually
empty or tiny, and each of its components goes to a branch and bound over
neighbour bitmasks.  That handles desk-scale inputs, and a vertex budget
refuses the rest.  There is deliberately no blossom algorithm here: nothing
in the experiments needs maximum matching on large general graphs.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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


def hk_on_mask(
    graph: Graph, side: np.ndarray, mask: Optional[np.ndarray] = None
) -> tuple[list[int], list[int], int]:
    """Maximum matching of the subgraph selected by `mask`, from a cold start.

    Returns (pair, pair_edge, size): pair[v] is the matched partner or -1,
    pair_edge[v] the matched edge index or -1.  `BipartiteBase` is the
    warm-started form.
    """
    adj = _Adjacency(graph, side, _mask_edges(graph, mask))
    pair = [-1] * graph.n
    pedge = [-1] * graph.n
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
    pair = [-1] * graph.n
    pedge = [-1] * graph.n
    size = _hopcroft_karp(adj, pair, pedge)
    return _konig(adj, pair, graph.n, strict=True), size


class BipartiteBase:
    """A fixed edge set S of a bipartite graph, prepared for matchings of S + X.

    Holds S's adjacency and a maximum matching of S (`pair`, `pedge`,
    `size`), both built once.
    `match` adds the edges of X to a copy of the adjacency (or reuses S's
    own when X is empty) and warm-starts Hopcroft-Karp from S's matching;
    `solve` adds Konig's cover.  The adjacency lists are those built from
    S | X in increasing edge order, so the matching is the one a search over
    that union, warm-started from S's matching, returns.  Instances are
    read-only after construction.
    """

    def __init__(self, graph: Graph, side: np.ndarray, s_mask: np.ndarray):
        self.graph = graph
        self.side = side
        self.adj = _Adjacency(graph, side, _mask_edges(graph, s_mask))
        self.pair = [-1] * graph.n
        self.pedge = [-1] * graph.n
        self.size = _hopcroft_karp(self.adj, self.pair, self.pedge)

    def _match(self, extra_mask: np.ndarray) -> tuple[_Adjacency, list[int], list[int], int]:
        # S's own adjacency when the mask is empty; callers only read it
        extra = np.flatnonzero(extra_mask).tolist()
        adj = self.adj.plus(self.graph, self.side, extra) if extra else self.adj
        pair = list(self.pair)
        pedge = list(self.pedge)
        size = _hopcroft_karp(adj, pair, pedge)
        return adj, pair, pedge, size

    def match(self, extra_mask: np.ndarray) -> tuple[list[int], list[int], int]:
        """(pair, pair_edge, size) of a maximum matching of S | extra_mask.

        The mask must avoid S.  The search starts from S's matching, so
        when that is already maximum on S | extra_mask it is returned as is.
        """
        _adj, pair, pedge, size = self._match(extra_mask)
        return pair, pedge, size

    def solve(self, extra_mask: np.ndarray) -> tuple[list[int], list[int], int, np.ndarray]:
        """(pair, pair_edge, size, cover) of S | extra_mask; the mask must avoid S."""
        adj, pair, pedge, size = self._match(extra_mask)
        return pair, pedge, size, _konig(adj, pair, self.graph.n, strict=True)


# --- exact minimum vertex cover, general graphs -------------------------------


def _bits(mask: int) -> Iterator[int]:
    """The set bits of `mask`, lowest first, each as a one-bit int."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _branch_and_bound(nb: list[int]) -> int:
    """Minimum vertex cover of a small graph given as neighbour bitmasks.

    Vertex i's neighbours are the set bits of nb[i].  Returns the cover as
    a bitmask.  Every node of the search first applies the degree-0/1
    rules with a worklist, then bounds by a greedy maximal matching and
    branches on a vertex of largest degree (lowest index on ties): either
    it joins the cover or all its neighbours do.  Each branch removes at
    least one vertex, so the recursion is at most len(nb) deep.
    """
    everything = (1 << len(nb)) - 1
    best_cover, best_size = everything, len(nb)  # every vertex: a cover

    def search(live: int, chosen: int, size: int) -> None:
        nonlocal best_cover, best_size
        work = list(_bits(live))
        while work:
            low = work.pop()
            if not live & low:
                continue
            adj = nb[low.bit_length() - 1] & live
            if not adj:
                live ^= low
            elif not adj & (adj - 1):  # one neighbour: it joins the cover
                chosen |= adj
                size += 1
                live &= ~(adj | low)
                work.extend(_bits(nb[adj.bit_length() - 1] & live))
        if not live:
            if size < best_size:
                best_cover, best_size = chosen, size
            return
        bound = size
        top = top_deg = 0
        free = live
        for low in _bits(live):
            adj = nb[low.bit_length() - 1] & live
            d = adj.bit_count()
            if d > top_deg:
                top, top_deg = low, d
            mates = adj & free
            if free & low and mates:
                free ^= low | (mates & -mates)  # matched to its lowest free neighbour
                bound += 1
        if bound >= best_size:
            return
        search(live ^ top, chosen | top, size + 1)
        adj = nb[top.bit_length() - 1] & live
        search(live & ~(adj | top), chosen | adj, size + top_deg)

    search(everything, 0, 0)
    return best_cover


def mvc_general_on_mask(
    graph: Graph, mask: Optional[np.ndarray], budget_vertices: int = 40
) -> tuple[np.ndarray, int]:
    """Exact minimum vertex cover of a masked general graph.

    The budget counts non-isolated vertices under the mask, before any
    reduction; above it the search is refused rather than left to run
    unbounded.  One worklist pass applies the degree-0/1 rules to the whole
    mask in O(n + m): a degree-1 vertex puts its one live neighbour in the
    cover.  What is left, the kernel, has minimum degree 2 and is usually
    empty or tiny; each of its components goes to `_branch_and_bound`.
    """
    n = graph.n
    if mask is None:
        us, vs = graph.edge_u.tolist(), graph.edge_v.tolist()
    else:
        idx = np.flatnonzero(np.asarray(mask, dtype=bool))
        us, vs = graph.edge_u[idx].tolist(), graph.edge_v[idx].tolist()
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = [len(row) for row in nbrs]
    active = n - deg.count(0)
    if active > budget_vertices:
        raise CapacityError(
            f"exact vertex cover refused: {active} active vertices "
            f"exceeds budget {budget_vertices}"
        )
    live = [d > 0 for d in deg]
    cover: list[int] = []
    work = [v for v in range(n) if deg[v] == 1]
    while work:
        v = work.pop()
        if not live[v]:
            continue
        for u in nbrs[v]:
            if live[u]:
                break
        # u, v's one live neighbour, joins the cover; v is left isolated
        cover.append(u)
        live[u] = False
        for w in nbrs[u]:
            if live[w]:
                d = deg[w] - 1
                deg[w] = d
                if d == 1:
                    work.append(w)
                elif not d:
                    live[w] = False
    for root in range(n):
        if not live[root]:
            continue
        comp = [root]
        live[root] = False
        for u in comp:  # breadth first: the loop also visits appended vertices
            for w in nbrs[u]:
                if live[w]:
                    live[w] = False
                    comp.append(w)
        local = {v: i for i, v in enumerate(comp)}
        nb = []
        for v in comp:
            bits = 0
            for w in nbrs[v]:
                i = local.get(w)
                if i is not None:
                    bits |= 1 << i
            nb.append(bits)
        chosen = _branch_and_bound(nb)
        cover.extend(v for i, v in enumerate(comp) if chosen >> i & 1)
    out = np.zeros(n, dtype=bool)
    out[cover] = True
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
