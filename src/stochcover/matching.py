"""Matching engine: exact bipartite matching, covers, and small exact MVC.

All routines are deterministic: the matchers process vertices and edges
in index order, so ties always break toward the lowest index, and the
covers do not depend on ties at all.  The evaluator relies on this for
bit-reproducible experiments.

Every bipartite search reads one row format, each left vertex's right
neighbours (`_right_rows`; at its left vertices, a bipartite graph's
`Graph.neighbours` lists are the same rows, and the evaluator's trial
hands the cover path those when it has them), and lays out alternating
paths with one breadth-first search (`_layer`).  On top of them run two
paths, through one search function (`_hopcroft_karp`: phases of one
layering and an iterative layered depth-first search from each free
left).  Callers that read the matching itself (the partition marginals,
`mc_matching`'s plan and respond, VIM's base matcher) need its fixed tie
order: `hk_on_mask` and the partition round run a layered augmenting-path
search (Hopcroft-Karp) over rows in edge order, with every layering laid
out in full, and read exactly the matching that search finds; its edge
ids are looked up afterwards, in `Graph.ids_by_neighbour`.  Callers that read only a minimum vertex cover
(`_max_cover`, run by `mvc_bipartite_on_mask`, `BipartiteBase.cover` and
a trial's exact cover over its lists, hence by every exact bipartite
cover in the strategies and every trial's optimum) take any maximum
matching: Konig's cover, read off alternating reachability from the free
left vertices, is the same for all of them (Dulmage-Mendelsohn).  The
cover path starts a cold search from a greedy matching (lowest degree
first), stops each layering at the first layer that reaches a free right
vertex, and reads the cover off the last layering, the one that proves
the matching maximum; `konig_cover_from_pairs` reads it off one full
layering from a given matching.  `BipartiteBase` prepares an edge set S
once: its matching warm-starts the partition round's searches, and
`cover` answers for S plus more edges from it.  Edges are oriented by
`Graph.oriented_endpoints`, so a side array must put the two ends of
every edge on different sides.
On general graphs the exact cover (`mvc_general_on_lists`) reads
prebuilt neighbour lists, so that the evaluator's trial can hand it the
lists that `general_vc`'s sweep reads;
`mvc_general_on_mask` is the one-row entry that builds a mask's lists
(`Graph.neighbours`).  It first applies the degree-0/1 rules to the whole
graph with one worklist pass, in O(n + m); what is left, the kernel, is
usually empty or tiny, and each of its components goes to a branch and
bound over neighbour bitmasks.  That handles desk-scale inputs, and a vertex budget
refuses the rest.  There is deliberately no blossom algorithm here:
nothing in the experiments needs maximum matching on large general graphs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    "mvc_general_on_lists",
    "mvc_general_on_mask",
]

_INF = 1 << 30

GENERAL_OPT_BUDGET = 64  # non-isolated-vertex cap for exact general covers


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


def _mask_edges(graph: Graph, mask: Optional[np.ndarray]) -> Sequence[int]:
    if mask is None:
        return range(graph.m)
    return np.nonzero(np.asarray(mask, dtype=bool))[0].tolist()


def _right_rows(
    graph: Graph, side: np.ndarray, edge_indices: Iterable[int]
) -> tuple[list[list[int]], list[int]]:
    """Per left vertex, its right neighbours, and the lefts with at least one.

    Each row lists the right ends of `edge_indices` in the order given, so
    edges given in increasing order leave every row in edge order, which
    fixes Hopcroft-Karp's tie order.  No edge ids are kept; `_pair_edges`
    looks up the matched ones.
    """
    left, right = graph.oriented_endpoints(side)
    nbr: list[list[int]] = [[] for _ in range(graph.n)]
    for e in edge_indices:
        nbr[left[e]].append(right[e])
    return nbr, [u for u in range(graph.n) if nbr[u]]


def _pair_edges(graph: Graph, lefts: list[int], pair: list[int]) -> list[int]:
    """Per vertex, the id of its matched edge in `pair`, or -1."""
    ids = graph.ids_by_neighbour
    pedge = [-1] * len(pair)
    for u in lefts:
        v = pair[u]
        if v >= 0:
            pedge[u] = pedge[v] = ids[u][v]
    return pedge


def _layer(
    nbr: list[list[int]], lefts: list[int], pair: list[int], dist: list[int], shortest: bool
) -> bool:
    """Breadth-first layering from the free left vertices; True if it reaches a free right.

    Sets dist[u] for every left u in `lefts`: its layer, the length of the
    shortest alternating path from a free left counted in matched edges,
    or _INF if the search did not reach it.  With `shortest` the search
    stops after the first layer that reaches a free right, which is all a
    phase's augmenting paths need; without it the search runs to the end,
    as `_hopcroft_karp`'s fixed tie order and `konig_cover_from_pairs`
    require.  A search that reaches no free right runs to the end either
    way, and a search run to the end reaches exactly Konig's alternating
    reachability.
    """
    queue: list[int] = []
    for u in lefts:
        if pair[u] < 0:
            dist[u] = 0
            queue.append(u)
        else:
            dist[u] = _INF
    found = False
    limit = _INF
    for u in queue:  # breadth first: the loop also visits appended vertices
        du = dist[u] + 1
        if du > limit:
            break
        for v in nbr[u]:
            w = pair[v]
            if w < 0:
                found = True
            elif dist[w] == _INF:
                dist[w] = du
                queue.append(w)
        if found and shortest:
            limit = du
    return found


def _hopcroft_karp(
    nbr: list[list[int]], lefts: list[int], pair: list[int], shortest: bool = False
) -> tuple[int, list[int]]:
    """Grow the matching in `pair` in place to maximum, in phases.

    Each phase is one `_layer` (run to the end, or with `shortest` to the
    first layer that reaches a free right) and then, from each free left
    in index order, one layered depth-first search for an augmenting path
    over rows in order.  The search is iterative: `stack` holds the
    suspended frames as (left vertex, index of the neighbour being tried)
    and descends into w = pair[v] when dist[w] is one more, exactly as a
    recursive search would; on success those edges become matched.  Run
    to the end, the layerings fix the matching returned, from a cold or
    a warm start alike.  Returns the number of augmenting paths
    applied and the last layering's dist, which proves the matching
    maximum.
    """
    dist = [_INF] * len(nbr)
    grown = 0
    while _layer(nbr, lefts, pair, dist, shortest):
        for root in lefts:
            if pair[root] >= 0:
                continue
            stack: list[tuple[int, int]] = []
            u = root
            i = 0
            row = nbr[u]
            k = len(row)
            du = dist[u] + 1
            while True:
                while i < k:
                    w = pair[row[i]]
                    if w < 0 or dist[w] == du:
                        break
                    i += 1
                if i < k:
                    stack.append((u, i))
                    if w < 0:
                        for x, j in stack:
                            v = nbr[x][j]
                            pair[x] = v
                            pair[v] = x
                        grown += 1
                        break
                    u = w
                    i = 0
                    du += 1
                else:
                    dist[u] = _INF
                    if not stack:
                        break
                    u, i = stack.pop()
                    i += 1
                    du -= 1
                row = nbr[u]
                k = len(row)
    return grown, dist


def _max_cover(nbr: list[list[int]], lefts: list[int], pair: list[int]) -> tuple[np.ndarray, int]:
    """Konig's minimum vertex cover, from any maximum matching grown out of `pair`.

    `lefts` lists the left vertices with an edge and `pair` a matching,
    changed in place.  The free lefts first take their first free
    neighbour, lowest degree first; then `_hopcroft_karp` runs phases of
    shortest layering and augmentation until a layering reaches no free
    right.  That last
    search proves the matching maximum, and its reach is the alternating
    reachability of Konig's construction: each matched left u is covered
    by its partner if the search reached u, else by u itself.  That cover
    is the same for every maximum matching (Dulmage-Mendelsohn), so it
    needs no edge ids and no fixed tie order.  Returns (cover, size).
    """
    for u in sorted((u for u in lefts if pair[u] < 0), key=lambda u: len(nbr[u])):
        for v in nbr[u]:
            if pair[v] < 0:
                pair[u] = v
                pair[v] = u
                break
    dist = _hopcroft_karp(nbr, lefts, pair, shortest=True)[1]
    picks = [pair[u] if dist[u] < _INF else u for u in lefts if pair[u] >= 0]
    cover = np.zeros(len(pair), dtype=bool)
    cover[picks] = True
    return cover, len(picks)


def hk_on_mask(
    graph: Graph, side: np.ndarray, mask: Optional[np.ndarray] = None
) -> tuple[list[int], list[int], int]:
    """Maximum matching of the subgraph selected by `mask`, from a cold start.

    Returns (pair, pair_edge, size): pair[v] is the matched partner or -1,
    pair_edge[v] the matched edge index or -1.  This is `BipartiteBase`
    with S the mask, so the matching is Hopcroft-Karp's, in its fixed tie
    order, for callers that read the matching itself.
    """
    base = BipartiteBase(graph, side, mask)
    return base.pair, _pair_edges(graph, base.lefts, base.pair), base.size


def konig_cover_from_pairs(
    graph: Graph,
    side: np.ndarray,
    mask: Optional[np.ndarray],
    pair: Sequence[int],
    strict: bool = True,
) -> np.ndarray:
    """Vertex cover from a bipartite matching inside the mask, as a boolean mask.

    Alternating reachability from the unmatched left vertices, one full
    `_layer` over right-neighbour rows: the cover is the unreached lefts
    plus the right neighbours of the reached ones.  It is a minimum cover
    exactly when the matching is maximum, that is when the search reaches
    no free right vertex; `strict` refuses any other matching.
    """
    if isinstance(pair, np.ndarray):
        pair = pair.tolist()
    nbr, lefts = _right_rows(graph, side, _mask_edges(graph, mask))
    dist = [_INF] * graph.n
    if _layer(nbr, lefts, pair, dist, shortest=False) and strict:
        raise StructuralError(
            "an alternating path reaches a free right vertex; "
            "input matching was not maximum"
        )
    cover = np.zeros(graph.n, dtype=bool)
    cover[[u for u in lefts if dist[u] == _INF]] = True
    cover[[v for u in lefts if dist[u] < _INF for v in nbr[u]]] = True
    return cover


def mvc_bipartite_on_mask(
    graph: Graph, side: np.ndarray, mask: Optional[np.ndarray]
) -> tuple[np.ndarray, int]:
    """Exact minimum vertex cover of a masked bipartite graph, and its size.

    Konig's cover, read off the last search of `_max_cover` started from
    an empty matching, on rows of right neighbours only.  Its caller,
    `strategies._Trial.exact_cover` (exact bipartite covers and every
    trial's optimum, when the trial has no neighbour lists to read),
    reads only the cover, so any maximum matching serves and
    Hopcroft-Karp's tie order is not kept; callers that read the matching
    use `hk_on_mask`.
    """
    nbr, lefts = _right_rows(graph, side, _mask_edges(graph, mask))
    return _max_cover(nbr, lefts, [-1] * graph.n)


class BipartiteBase:
    """A fixed edge set S of a bipartite graph, prepared for matchings of S + X.

    Holds S's right-neighbour rows and Hopcroft-Karp's maximum matching of
    S (`pair`, `size`), both built once; `pedge`, the matched edge ids, is
    looked up on first use.  The partition round warm-starts each draw's
    search from `pair`, over rows of S plus the draw's realized edges in
    edge order, and counts matched edges with no `pedge` list.
    `cover` is for callers that read only the cover (the half-stochastic
    responder): it runs the cover path from S's matching on S's rows with
    X's right ends appended, copying only the rows that X extends, and may
    end on any maximum matching of S | X.  An `s_mask` of None makes S
    every edge, so only an empty X avoids it.  Instances are read-only
    after construction.
    """

    def __init__(self, graph: Graph, side: np.ndarray, s_mask: Optional[np.ndarray]):
        self.graph = graph
        self.side = side
        self.nbr, self.lefts = _right_rows(graph, side, _mask_edges(graph, s_mask))
        self.pair = [-1] * graph.n
        self.size = _hopcroft_karp(self.nbr, self.lefts, self.pair)[0]

    @cached_property
    def pedge(self) -> list[int]:
        """Per vertex, the id of its edge in S's matching, or -1."""
        return _pair_edges(self.graph, self.lefts, self.pair)

    def cover(self, extra_mask: np.ndarray) -> np.ndarray:
        """Konig's minimum vertex cover of S | extra_mask; the mask must avoid S.

        `_max_cover` from S's matching, on S's rows plus the right ends of
        the extra edges.  The rows are a shallow copy of S's, in which a
        row that an extra edge extends is replaced by a copy before the
        first append, and the extra edges' lefts that have no S edge are
        added after S's lefts.  Neither order matters: the cover does not
        depend on which maximum matching the search ends with.
        """
        left, right = self.graph.oriented_endpoints(self.side)
        s_nbr = self.nbr
        nbr = list(s_nbr)
        new_lefts = []
        for e in _mask_edges(self.graph, extra_mask):
            u = left[e]
            row = nbr[u]
            if row is s_nbr[u]:
                if not row:
                    new_lefts.append(u)
                nbr[u] = row + [right[e]]
            else:
                row.append(right[e])
        return _max_cover(nbr, self.lefts + new_lefts, list(self.pair))[0]


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
    best = [(1 << len(nb)) - 1, len(nb)]  # every vertex: a cover
    _search(nb, best[0], 0, 0, best)
    return best[0]


def _search(nb: list[int], live: int, chosen: int, size: int, best: list[int]) -> None:
    """One node of `_branch_and_bound`; improves `best`, [cover, size], in place.

    A module-level function rather than a closure, so that a search leaves
    no reference cycle for the cyclic garbage collector to free.
    """
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
        if size < best[1]:
            best[0], best[1] = chosen, size
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
    if bound >= best[1]:
        return
    _search(nb, live ^ top, chosen | top, size + 1, best)
    adj = nb[top.bit_length() - 1] & live
    _search(nb, live & ~(adj | top), chosen | adj, size + top_deg, best)


def mvc_general_on_mask(
    graph: Graph, mask: Optional[np.ndarray], budget_vertices: int = GENERAL_OPT_BUDGET
) -> tuple[np.ndarray, int]:
    """Exact minimum vertex cover of a masked general graph, and its size.

    `mvc_general_on_lists` over the mask's `Graph.neighbours`, as a vertex
    mask.
    """
    cover = mvc_general_on_lists(graph.neighbours(mask), budget_vertices)
    out = np.zeros(graph.n, dtype=bool)
    out[cover] = True
    return out, len(cover)


def mvc_general_on_lists(
    nbrs: Sequence[Sequence[int]], budget_vertices: int = GENERAL_OPT_BUDGET
) -> list[int]:
    """The vertices of an exact minimum vertex cover, from per-vertex neighbour lists.

    `nbrs` is read and not changed.  The budget counts vertices with a
    neighbour, before any reduction; above it CapacityError refuses the
    search rather than leave it to run unbounded.  One worklist pass applies
    the degree-0/1 rules to the whole graph in O(n + m): a degree-1 vertex
    puts its one live neighbour in the cover.  What is left, the kernel,
    has minimum degree 2 and is usually empty or tiny; each of its
    components goes to `_branch_and_bound`.
    """
    n = len(nbrs)
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
    return cover

