"""Graph core: immutable graphs, realizations, edge partitions, text I/O.

Vertices are 0..n-1.  Edges are indexed 0..m-1 in construction order and all
stochastic objects (realizations, query partitions) are arrays over edge
indices.  A "realization" keeps each edge independently with probability p;
draws are counter-based on the edge index (see rng), so re-sampling any
subset of edges under the same seed is consistent with sampling all of them.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .errors import StructuralError

__all__ = [
    "Graph",
    "Bipartition",
    "Realization",
    "EdgePartition",
    "bipartition",
    "read_graph_text",
    "write_graph_text",
    "parse_graph_text",
    "format_graph_text",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with indexed edges.

    Immutable after construction.  `bipartite_hint` is advisory metadata from
    the text format (vertices 0..hint-1 claimed to form one side); it is
    never trusted, `bipartition` computes sides from the edges.

    Derived data (endpoint arrays, edge ids by neighbour, the incident
    edges, the neighbour lists of all edges, the bipartition, oriented
    endpoints) is computed on first use and cached on the instance.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    bipartite_hint: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise StructuralError(f"negative vertex count {self.n}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise StructuralError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise StructuralError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise StructuralError(f"duplicate edge ({u},{v})")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_u(self) -> np.ndarray:
        return np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=self.m)

    @cached_property
    def edge_v(self) -> np.ndarray:
        return np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=self.m)

    @cached_property
    def ids_by_neighbour(self) -> tuple[dict[int, int], ...]:
        """Per vertex u, {neighbour v: index of the edge uv}."""
        rows: tuple[dict[int, int], ...] = tuple({} for _ in range(self.n))
        for e, (u, v) in enumerate(self.edges):
            rows[u][v] = e
            rows[v][u] = e
        return rows

    @cached_property
    def incidence(self) -> tuple[list[int], list[int]]:
        """(ids, starts): vertex v's edges are ids[starts[v]:starts[v + 1]], in edge order.

        Built edge by edge, so that an edge's two entries share one int.  A
        stable argsort of the interleaved endpoints gives the same list
        about 0.5 ms sooner on layered(400,40) (7,780 edges), but its 2m
        fresh ints raised `perfbench`'s `trials_layered` peak resident
        memory by about 0.6 MiB.
        """
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            rows[u].append(e)
            rows[v].append(e)
        return [e for row in rows for e in row], list(accumulate(map(len, rows), initial=0))

    @cached_property
    def _all_neighbours(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _neighbour_rows(self.n, self.edges)))

    def neighbours(self, mask: Optional[np.ndarray] = None) -> Sequence[Sequence[int]]:
        """Per vertex, its neighbours through the edges selected by `mask`, in edge order.

        This is the one builder of neighbour lists.  With no mask, or one
        that selects every edge, it returns the lists of all edges, built
        once per graph and shared: tuples, to be read and not changed.  Any
        other mask, one entry per edge (else StructuralError), gets lists
        of its own.
        """
        if mask is not None:
            idx = np.flatnonzero(_check_parent(self, mask, "edge"))
            if len(idx) < self.m:
                ends = zip(self.edge_u[idx].tolist(), self.edge_v[idx].tolist())
                return _neighbour_rows(self.n, ends)
        return self._all_neighbours

    @cached_property
    def _bipartition(self) -> Optional["Bipartition"]:
        return _two_color(self)

    @cached_property
    def _own_orientation(self) -> tuple[list[int], list[int]]:
        return self._orient(self._bipartition.side)

    def oriented_endpoints(self, side) -> tuple[list[int], list[int]]:
        """Per edge, its side-0 ("left") and side-1 ("right") endpoint.

        Returns (left, right) as Python lists indexed by edge.  Every edge
        must have one endpoint on each side, else StructuralError.  The
        graph's own bipartition side (`bipartition(graph).side`, which
        every matcher in the package passes) is oriented once, and
        recognised by identity; any other side array is oriented afresh.
        """
        own = self._bipartition
        if own is not None and side is own.side:
            return self._own_orientation
        return self._orient(side)

    def _orient(self, side) -> tuple[list[int], list[int]]:
        is_right = np.asarray(side) != 0
        u, v = self.edge_u, self.edge_v
        swap = is_right[u]
        if np.any(swap == is_right[v]):
            raise StructuralError("side array puts both ends of an edge on one side")
        return np.where(swap, v, u).tolist(), np.where(swap, u, v).tolist()

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Indices of the edges at v, in edge order."""
        ids, starts = self.incidence
        return tuple(ids[starts[v] : starts[v + 1]])

    def degree_of_mask(self, mask: np.ndarray) -> np.ndarray:
        """Per-vertex degree restricted to the edges selected by `mask`."""
        deg = np.zeros(self.n, dtype=np.int64)
        if self.m:
            sel = np.asarray(mask, dtype=bool)
            np.add.at(deg, self.edge_u[sel], 1)
            np.add.at(deg, self.edge_v[sel], 1)
        return deg

    def __repr__(self) -> str:  # keep reprs short; edge lists get long
        return f"Graph(n={self.n}, m={self.m})"


def _neighbour_rows(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    return rows


def _check_parent(parent: Graph, mask: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(mask, dtype=bool)
    if arr.shape != (parent.m,):
        raise StructuralError(
            f"{what} mask has shape {arr.shape}, expected ({parent.m},)"
        )
    return arr


@dataclass(frozen=True)
class Realization:
    """Outcome of keeping each parent edge independently with probability p."""

    parent: Graph
    mask: np.ndarray
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mask", _check_parent(self.parent, self.mask, "realization"))


@dataclass(frozen=True)
class EdgePartition:
    """Split of the edge set into a queried part Q and the rest S.

    in_q[e] is True when edge e is queried: its realization is observed.
    S-edges are never observed, so any answer must treat them as present.
    """

    parent: Graph
    in_q: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "in_q", _check_parent(self.parent, self.in_q, "partition"))

    @property
    def q_size(self) -> int:
        return int(np.count_nonzero(self.in_q))


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring of the vertices; side[v] is 0 (side A) or 1 (side B).

    component[v] numbers v's connected component; components are numbered
    from 0 in the order of their lowest vertex.  Both arrays are read-only,
    as is `lefts`, the side-0 vertices as a list, built on first use.
    It holds no reference to its graph: the graph caches it, and a
    reference back would make a cycle that only the cyclic garbage
    collector frees.
    """

    side: np.ndarray
    component: np.ndarray

    @cached_property
    def lefts(self) -> list[int]:
        """The side-0 vertices, in increasing order: every matcher's left vertices."""
        return np.flatnonzero(self.side == 0).tolist()


def bipartition(graph: Graph) -> Optional[Bipartition]:
    """Two-color by BFS, or None if some cycle is odd.

    Deterministic: components are rooted at their lowest-index vertex and the
    root always gets side A.  Computed once per graph: repeated calls return
    the same object.
    """
    return graph._bipartition


def _two_color(graph: Graph) -> Optional[Bipartition]:
    nbrs = graph.neighbours()
    side = [-1] * graph.n
    component = [-1] * graph.n
    label = 0
    for root in range(graph.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        component[root] = label
        queue = [root]
        for u in queue:  # breadth first: the loop also visits appended vertices
            su = side[u]
            for w in nbrs[u]:
                if side[w] < 0:
                    side[w] = 1 - su
                    component[w] = label
                    queue.append(w)
                elif side[w] == su:
                    return None
        label += 1
    sides = Bipartition(np.array(side, dtype=np.int8), np.array(component, dtype=np.int64))
    sides.side.flags.writeable = sides.component.flags.writeable = False
    return sides


# --- text format ------------------------------------------------------------
#
# First non-comment line: "n m".  Then m lines "u v".  Lines starting with
# "#" are comments; the special comment "# bipartite <k>" records that
# vertices 0..k-1 form side A (advisory only).

_BIPARTITE_RE = re.compile(r"#\s*bipartite\s+(\d+)\s*$")


def parse_graph_text(text: str) -> Graph:
    header: Optional[tuple[int, int]] = None
    edges: list[tuple[int, int]] = []
    hint: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            mo = _BIPARTITE_RE.match(line)
            if mo:
                hint = int(mo.group(1))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise StructuralError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise StructuralError(f"line {lineno}: non-integer field in {line!r}") from exc
        if header is None:
            header = (a, b)
        else:
            edges.append((a, b) if a < b else (b, a))
    if header is None:
        raise StructuralError("empty graph file (no header line)")
    n, m = header
    if len(edges) != m:
        raise StructuralError(f"header claims {m} edges, file has {len(edges)}")
    return Graph(n, tuple(edges), bipartite_hint=hint)


def format_graph_text(graph: Graph, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{graph.n} {graph.m}")
    if graph.bipartite_hint is not None:
        lines.append(f"# bipartite {graph.bipartite_hint}")
    mn = np.minimum(graph.edge_u, graph.edge_v) if graph.m else []
    mx = np.maximum(graph.edge_u, graph.edge_v) if graph.m else []
    for e in range(graph.m):
        lines.append(f"{int(mn[e])} {int(mx[e])}")
    return "\n".join(lines) + "\n"


def read_graph_text(f: IO[str] | str) -> Graph:
    if isinstance(f, str):
        with open(f, "r", encoding="utf-8") as fh:
            return parse_graph_text(fh.read())
    return parse_graph_text(f.read())


def write_graph_text(graph: Graph, f: IO[str] | str, comments: Iterable[str] = ()) -> None:
    text = format_graph_text(graph, comments)
    if isinstance(f, str):
        with open(f, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        f.write(text)
