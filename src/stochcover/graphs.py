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
from typing import IO, Iterable, Optional

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

    Derived data (endpoint arrays, adjacency, the bipartition, oriented
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
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, tuple of (neighbor, edge index) in edge-index order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        return tuple(tuple(a) for a in adj)

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
        return tuple(e for (_, e) in self.adjacency[v])

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
    """Two-coloring of the vertices; side[v] is 0 (side A) or 1 (side B)."""

    parent: Graph
    side: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.side, dtype=np.int8)
        if arr.shape != (self.parent.n,):
            raise StructuralError("bipartition side array has wrong length")
        object.__setattr__(self, "side", arr)


def bipartition(graph: Graph) -> Optional[Bipartition]:
    """Two-color by BFS, or None if some cycle is odd.

    Deterministic: components are rooted at their lowest-index vertex and the
    root always gets side A.  Computed once per graph: repeated calls return
    the same object, whose `side` array is read-only.
    """
    return graph._bipartition


def _two_color(graph: Graph) -> Optional[Bipartition]:
    side = np.full(graph.n, -1, dtype=np.int8)
    adj = graph.adjacency
    for root in range(graph.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            nxt: list[int] = []
            for u in queue:
                su = side[u]
                for (w, _) in adj[u]:
                    if side[w] < 0:
                        side[w] = 1 - su
                        nxt.append(w)
                    elif side[w] == su:
                        return None
            queue = nxt
    side.flags.writeable = False
    return Bipartition(graph, side)


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
