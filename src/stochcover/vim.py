"""Proposal-based matchings with near-independent vertex match events.

Fix a bipartition into a proposing side A and an accepting side B, and a
deterministic base matching procedure: Hopcroft-Karp in its fixed tie order
(`ALG_HK`).  For an A-vertex v, the probability
that a given incident edge ends up matched depends on the realization of
v's own edges and (through the procedure) on everything else; conditioning
on v's edges alone gives a proposal row p_e = Pr[e in M_A | status of v's
edges].  The rounding then has every A-vertex propose along at most one
edge according to its row, and every B-vertex accept its lowest-index
proposer.

The point of the two-step construction: whether v proposes depends only on
v's own coin and its realized edges, so for a B-vertex u not adjacent to v
the events "v proposes" and "u gets matched" decouple, while the matching
stays within a (1 - 1/e) factor of the base procedure's in expectation.

Conditional rows are exact: a weighted enumeration of the non-v edges in
v's connected component (other components cannot influence v's edges
because the base matcher acts component by component).  A-vertices
are side 0 of the graph's bipartition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapacityError, ParameterError, StructuralError
from .graphs import Graph, Realization, bipartition
from .matching import Matching, hk_on_mask
from . import rng

__all__ = [
    "ALG_HK",
    "EdgeStatusProfile",
    "ProposalRow",
    "ProposalTable",
    "VimOutcome",
    "run_base_matcher",
    "profile_of",
    "ExactRowCache",
    "vim_round",
    "VimTrialStats",
    "run_vim_trials",
    "independence_stats",
]

_TAG_TRIAL = 22
_TAG_PROPOSE = 23

ALG_HK = "hk_fixed"  # the one base matcher; `alg` parameters accept only it

_ROW_TOL = 1e-9
_ROW_MAX_BITS = 20  # free edges an exact row may enumerate


@dataclass(frozen=True)
class EdgeStatusProfile:
    """Realization status of exactly the edges incident to one vertex."""

    vertex: int
    edge_indices: tuple[int, ...]
    realized: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.edge_indices) != len(self.realized):
            raise StructuralError("profile length mismatch")

    @property
    def key(self) -> tuple[int, tuple[bool, ...]]:
        return (self.vertex, self.realized)


def profile_of(graph: Graph, v: int, mask: np.ndarray) -> EdgeStatusProfile:
    idx = tuple(graph.incident_edges(v))
    return EdgeStatusProfile(v, idx, tuple(bool(mask[e]) for e in idx))


@dataclass(frozen=True)
class ProposalRow:
    """One A-vertex's proposal distribution over its incident edges.

    Construction clips negative noise and scales the row down when it
    sums above 1; the leftover is the no-proposal mass.
    """

    vertex: int
    edge_indices: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edge_indices) != len(self.probs):
            raise StructuralError("row length mismatch")
        if any(q < 0.0 or q > 1.0 + _ROW_TOL for q in self.probs):
            raise StructuralError("row entries outside [0, 1]")
        total = math.fsum(self.probs)
        if total > 1.0 + _ROW_TOL:
            raise StructuralError(f"row mass {total} exceeds 1")

    @staticmethod
    def from_estimates(
        vertex: int, edge_indices: tuple[int, ...], raw: np.ndarray
    ) -> "ProposalRow":
        q = np.clip(np.asarray(raw, dtype=np.float64), 0.0, 1.0)
        total = float(q.sum())
        if total > 1.0:
            q = q / total
        return ProposalRow(vertex, edge_indices, tuple(float(x) for x in q))


@dataclass(frozen=True)
class ProposalTable:
    rows: tuple[ProposalRow, ...]

    def __post_init__(self) -> None:
        seen = set()
        for row in self.rows:
            if row.vertex in seen:
                raise StructuralError(f"duplicate row for vertex {row.vertex}")
            seen.add(row.vertex)


@dataclass(frozen=True)
class VimOutcome:
    matching: Matching
    proposals: tuple[tuple[int, int], ...]  # (A-vertex, proposed edge) pairs

    def __post_init__(self) -> None:
        proposed = {e for _v, e in self.proposals}
        for e in self.matching.edges:
            if e not in proposed:
                raise StructuralError("matched edge was never proposed")


def run_base_matcher(
    alg: str, graph: Graph, mask: np.ndarray, side: Optional[np.ndarray] = None
) -> set[int]:
    """Matched edge indices of the deterministic base procedure on a mask."""
    if alg != ALG_HK:
        raise ParameterError(f"unknown base matcher {alg!r}")
    if side is None:
        sides = bipartition(graph)
        if sides is None:
            raise StructuralError(f"{alg} needs a bipartite graph")
        side = sides.side
    _pair, pedge, _size = hk_on_mask(graph, side, mask)
    return {e for e in pedge if e >= 0}


class ExactRowCache:
    """Exact conditional rows by weighted enumeration, memoized per profile.

    Enumerates only the non-v edges inside v's connected component; the base
    matcher is component-local, so edges elsewhere cannot change whether
    one of v's edges gets matched.  Enumerations above _ROW_MAX_BITS free
    edges raise CapacityError.
    """

    def __init__(self, alg: str, graph: Graph, p: float):
        self.alg = alg
        self.graph = graph
        self.p = p
        sides = bipartition(graph)
        if sides is None:
            raise StructuralError(f"{alg} needs a bipartite graph")
        self.side = sides.side
        self._component = sides.component
        self._rows: dict[tuple[int, tuple[bool, ...]], ProposalRow] = {}

    def row(self, profile: EdgeStatusProfile) -> ProposalRow:
        cached = self._rows.get(profile.key)
        if cached is not None:
            return cached
        g = self.graph
        v = profile.vertex
        own = profile.edge_indices
        if own != tuple(g.incident_edges(v)):
            raise StructuralError("profile does not match the vertex's incidence")
        comp = self._component[v]
        in_comp = self._component[g.edge_u] == comp
        free = np.nonzero(in_comp)[0]
        own_set = set(own)
        free = np.array([e for e in free.tolist() if e not in own_set], dtype=np.int64)
        if len(free) > _ROW_MAX_BITS:
            raise CapacityError(
                f"exact row needs 2^{len(free)} enumerations (cap 2^{_ROW_MAX_BITS})"
            )
        base = np.zeros(g.m, dtype=bool)
        base[np.array(own, dtype=np.int64)] = np.array(profile.realized, dtype=bool)
        acc = np.zeros(len(own), dtype=np.float64)
        p = self.p
        for bits in range(1 << len(free)):
            mask = base.copy()
            k = 0
            for j, e in enumerate(free.tolist()):
                if bits >> j & 1:
                    mask[e] = True
                    k += 1
            weight = (p**k) * ((1.0 - p) ** (len(free) - k))
            if weight == 0.0:
                continue
            matched = run_base_matcher(self.alg, g, mask, self.side)
            for idx, e in enumerate(own):
                if e in matched:
                    acc[idx] += weight
        row = ProposalRow.from_estimates(v, own, acc)
        self._rows[profile.key] = row
        return row


def vim_round(realization: Realization, table: ProposalTable, seed: int) -> VimOutcome:
    """One proposal round: A-vertices draw, B-vertices keep lowest proposer."""
    g = realization.parent
    proposals: list[tuple[int, int]] = []
    best_proposer: dict[int, tuple[int, int]] = {}
    for row in table.rows:
        if not row.edge_indices:
            continue
        u = rng.uniform_at(rng.derive_seed(seed, _TAG_PROPOSE, row.vertex), 0)
        acc = 0.0
        chosen = -1
        for e, q in zip(row.edge_indices, row.probs):
            acc += q
            if u < acc:
                chosen = e
                break
        if chosen < 0:
            continue
        proposals.append((row.vertex, chosen))
        a, b = g.edges[chosen]
        other = b if a == row.vertex else a
        cur = best_proposer.get(other)
        if cur is None or row.vertex < cur[0]:
            best_proposer[other] = (row.vertex, chosen)
    edges = tuple(e for _v, e in best_proposer.values())
    return VimOutcome(Matching(g, edges), tuple(proposals))


@dataclass(frozen=True)
class VimTrialStats:
    """Aggregates over full pipeline runs (realize, exact rows, propose)."""

    trials: int
    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    mean_base_size: float
    mean_vim_size: float
    base_match_freq: np.ndarray  # per vertex, Pr[v in M_A]
    propose_freq: np.ndarray  # per vertex (A side only), Pr[v proposes]
    vim_match_freq: np.ndarray  # per vertex, Pr[v in M_B]
    pair_joint_freq: np.ndarray  # |A| x |B|, Pr[v proposes and u in M_B]


def _a_b_split(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    sides = bipartition(graph)
    if sides is None:
        raise StructuralError("vim needs a bipartite graph")
    return np.nonzero(sides.side == 0)[0], np.nonzero(sides.side != 0)[0]


def run_vim_trials(
    graph: Graph,
    alg: str,
    p: float,
    trials: int,
    seed: int,
) -> VimTrialStats:
    """Full pipeline, exact conditional rows, per-trial derived seeds."""
    if trials < 1:
        raise ParameterError("trials must be positive")
    a_vs, b_vs = _a_b_split(graph)
    cache = ExactRowCache(alg, graph, p)
    side = cache.side
    base_hits = np.zeros(graph.n, dtype=np.int64)
    vim_hits = np.zeros(graph.n, dtype=np.int64)
    prop_hits = np.zeros(graph.n, dtype=np.int64)
    joint = np.zeros((len(a_vs), len(b_vs)), dtype=np.int64)
    base_total = 0
    vim_total = 0
    a_pos = {int(v): k for k, v in enumerate(a_vs)}
    b_pos = {int(u): k for k, u in enumerate(b_vs)}
    for s in range(trials):
        mask = rng.bernoulli_mask(rng.derive_seed(seed, _TAG_TRIAL, s), graph.m, p)
        matched = run_base_matcher(alg, graph, mask, side)
        base_total += len(matched)
        for e in matched:
            u, v = graph.edges[e]
            base_hits[u] += 1
            base_hits[v] += 1
        rows = tuple(cache.row(profile_of(graph, int(v), mask)) for v in a_vs)
        outcome = vim_round(
            Realization(graph, mask, p),
            ProposalTable(rows),
            rng.derive_seed(seed, _TAG_PROPOSE, s),
        )
        vim_total += outcome.matching.size
        prop_vec = np.zeros(len(a_vs), dtype=bool)
        for v, _e in outcome.proposals:
            prop_hits[v] += 1
            prop_vec[a_pos[v]] = True
        in_mb = np.zeros(len(b_vs), dtype=bool)
        for e in outcome.matching.edges:
            u, v = graph.edges[e]
            vim_hits[u] += 1
            vim_hits[v] += 1
            for x in (u, v):
                k = b_pos.get(int(x))
                if k is not None:
                    in_mb[k] = True
        joint += np.outer(prop_vec, in_mb)
    t = float(trials)
    return VimTrialStats(
        trials=trials,
        a_vertices=tuple(int(v) for v in a_vs),
        b_vertices=tuple(int(u) for u in b_vs),
        mean_base_size=base_total / t,
        mean_vim_size=vim_total / t,
        base_match_freq=base_hits / t,
        propose_freq=prop_hits / t,
        vim_match_freq=vim_hits / t,
        pair_joint_freq=joint / t,
    )


def independence_stats(
    graph: Graph,
    alg: str,
    p: float,
    trials: int,
    seed: int,
    stats: Optional[VimTrialStats] = None,
) -> list[tuple[int, int, float]]:
    """Empirical covariance of (v proposes) and (u in M_B) per non-adjacent pair."""
    if stats is None:
        stats = run_vim_trials(graph, alg, p, trials, seed)
    adj = graph.ids_by_neighbour
    out: list[tuple[int, int, float]] = []
    for i, v in enumerate(stats.a_vertices):
        for j, u in enumerate(stats.b_vertices):
            if u in adj[v]:
                continue
            cov = stats.pair_joint_freq[i, j] - stats.propose_freq[v] * stats.vim_match_freq[u]
            out.append((v, u, float(cov)))
    return out
