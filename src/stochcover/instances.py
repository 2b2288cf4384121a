"""Instance families for the experiments.

Each generator is a pure function of its parameters and seed: regenerating
with the same arguments gives a bit-identical graph.  Random families draw
through the counter-based scheme in `rng`, never through global state.

Two families exist specifically to stress query strategies.  The
pendant-core family attaches many degree-1 vertices to a regular bipartite
core, so near-certain matching edges hide among bulk.  The layered family
pairs a dense bipartite core with many degree-(N/2+1) matched vertices whose
single matching edge is statistically invisible among their core edges;
uniform per-vertex query sampling misses most matching edges and pays for
both endpoints, while informed strategies do not.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import ParameterError
from .graphs import Graph
from . import rng

__all__ = [
    "InstanceDescriptor",
    "gen_sdn",
    "gen_layered_counterexample",
    "gen_regular_bipartite",
    "gen_clique",
    "gen_perfect_matching",
    "gen_er_bipartite",
    "gen_er",
    "FAMILIES",
    "from_family",
]


@dataclass(frozen=True)
class InstanceDescriptor:
    """A generated graph plus everything needed to regenerate it."""

    family: str
    params: tuple[tuple[str, float], ...]
    seed: int
    graph: Graph
    roles: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}({inner})s{self.seed}"


def _descriptor(family, params, seed, graph, roles=None) -> InstanceDescriptor:
    return InstanceDescriptor(
        family,
        tuple((k, float(v)) for k, v in params),
        int(seed),
        graph,
        roles or {},
    )


def gen_sdn(d: int, s: int, cap_n: int, seed: int = 0) -> InstanceDescriptor:
    """Pendant-core graph: a d-regular N x N bipartite circulant core, plus
    s private degree-1 pendant neighbors on every core vertex.

    2*N*(s+1) vertices and N*d + 2*N*s edges.  Core vertices are 0..2N-1
    (left then right); pendant j of core vertex c is 2N + c*s + j.
    """
    n_core = cap_n
    if d < 1 or d > n_core:
        raise ParameterError(f"core degree d={d} must lie in 1..N={n_core}")
    if s < 0:
        raise ParameterError("pendant count s must be nonnegative")
    n = 2 * n_core * (s + 1)
    edges: list[tuple[int, int]] = []
    for i in range(n_core):
        for j in range(d):
            edges.append((i, n_core + (i + j) % n_core))
    for c in range(2 * n_core):
        for j in range(s):
            edges.append((c, 2 * n_core + c * s + j))
    graph = Graph(n, tuple(edges))
    roles = {
        "core": tuple(range(2 * n_core)),
        "pendants": tuple(range(2 * n_core, n)),
    }
    return _descriptor("sdn", [("d", d), ("s", s), ("N", cap_n)], seed, graph, roles)


def gen_layered_counterexample(n: int, cap_n: int, seed: int = 0) -> InstanceDescriptor:
    """Dense-core layered graph defeating uniform per-vertex query sampling.

    A complete bipartite core on N vertices (sides N/2 each), plus (n-N)/2
    matched pairs (u_i, v_i); every u_i is adjacent to all of core side one
    and every v_i to all of core side two.
    """
    if cap_n < 2 or cap_n % 2:
        raise ParameterError("core size N must be even and at least 2")
    if n < cap_n or (n - cap_n) % 2:
        raise ParameterError("n - N must be nonnegative and even")
    half = cap_n // 2
    pairs = (n - cap_n) // 2
    edges: list[tuple[int, int]] = []
    for a in range(half):
        for b in range(half):
            edges.append((a, half + b))
    for i in range(pairs):
        u = cap_n + 2 * i
        v = cap_n + 2 * i + 1
        edges.append((u, v))
        for a in range(half):
            edges.append((a, u))
        for b in range(half):
            edges.append((half + b, v))
    graph = Graph(n, tuple(edges))
    roles = {
        "core_side1": tuple(range(half)),
        "core_side2": tuple(range(half, cap_n)),
        "matched_u": tuple(cap_n + 2 * i for i in range(pairs)),
        "matched_v": tuple(cap_n + 2 * i + 1 for i in range(pairs)),
    }
    return _descriptor("layered", [("n", n), ("N", cap_n)], seed, graph, roles)


def gen_regular_bipartite(n: int, d: int, seed: int = 0) -> InstanceDescriptor:
    """d-regular bipartite circulant on n vertices (sides n/2 each)."""
    if n < 2 or n % 2:
        raise ParameterError("n must be even and at least 2")
    half = n // 2
    if d < 1 or d > half:
        raise ParameterError(f"degree d={d} must lie in 1..n/2={half}")
    edges = []
    for i in range(half):
        for j in range(d):
            edges.append((i, half + (i + j) % half))
    graph = Graph(n, tuple(edges), bipartite_hint=half)
    return _descriptor("regular_bipartite", [("n", n), ("d", d)], seed, graph)


def gen_clique(n: int, seed: int = 0) -> InstanceDescriptor:
    if n < 1:
        raise ParameterError("n must be positive")
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return _descriptor("clique", [("n", n)], seed, Graph(n, edges))


def gen_perfect_matching(n: int, seed: int = 0) -> InstanceDescriptor:
    """n/2 disjoint edges (2i, 2i+1)."""
    if n < 2 or n % 2:
        raise ParameterError("n must be even and at least 2")
    edges = tuple((2 * i, 2 * i + 1) for i in range(n // 2))
    return _descriptor("perfect_matching", [("n", n)], seed, Graph(n, edges))


def gen_er_bipartite(
    na: int, nb: int, edge_prob: float, seed: int = 0
) -> InstanceDescriptor:
    """Bipartite Erdos-Renyi: each of the na*nb pairs kept independently."""
    if na < 1 or nb < 1:
        raise ParameterError("side sizes must be positive")
    if not (0.0 <= edge_prob <= 1.0):
        raise ParameterError("edge_prob must lie in [0, 1]")
    keep = rng.bernoulli_mask(rng.derive_seed(seed, 101), na * nb, edge_prob)
    edges = []
    k = 0
    for a in range(na):
        for b in range(nb):
            if keep[k]:
                edges.append((a, na + b))
            k += 1
    graph = Graph(na + nb, tuple(edges), bipartite_hint=na)
    return _descriptor(
        "er_bipartite", [("na", na), ("nb", nb), ("edge_prob", edge_prob)], seed, graph
    )


def gen_er(n: int, edge_prob: float, seed: int = 0) -> InstanceDescriptor:
    """Erdos-Renyi G(n, edge_prob) over unordered pairs."""
    if n < 1:
        raise ParameterError("n must be positive")
    if not (0.0 <= edge_prob <= 1.0):
        raise ParameterError("edge_prob must lie in [0, 1]")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = rng.bernoulli_mask(rng.derive_seed(seed, 102), len(pairs), edge_prob)
    edges = tuple(pair for pair, k in zip(pairs, keep) if k)
    return _descriptor("er", [("n", n), ("edge_prob", edge_prob)], seed, Graph(n, edges))


FAMILIES = {
    "sdn": (gen_sdn, ("d", "s", "cap_n")),
    "layered": (gen_layered_counterexample, ("n", "cap_n")),
    "regular_bipartite": (gen_regular_bipartite, ("n", "d")),
    "clique": (gen_clique, ("n",)),
    "perfect_matching": (gen_perfect_matching, ("n",)),
    "er_bipartite": (gen_er_bipartite, ("na", "nb", "edge_prob")),
    "er": (gen_er, ("n", "edge_prob")),
}


def from_family(family: str, params: Mapping[str, float], seed: int = 0) -> InstanceDescriptor:
    """Dispatch by family name; used by the command line."""
    if family not in FAMILIES:
        raise ParameterError(
            f"unknown family {family!r}; known: {', '.join(sorted(FAMILIES))}"
        )
    fn, names = FAMILIES[family]
    missing = [k for k in names if k not in params]
    if missing:
        raise ParameterError(f"family {family!r} missing parameters: {missing}")
    args = []
    for k in names:
        v = params[k]
        args.append(float(v) if k == "edge_prob" else int(v))
    return fn(*args, seed=seed)
