"""Iterative construction of a query partition with light unqueried edges.

The goal: split the edges into a queried set Q and a remainder S so that no
S-edge is likely to appear in a maximum matching of the half-stochastic
graph H (realized Q-edges plus all of S).  Start with Q empty.  Each round
estimates by sampling, for a fixed deterministic matching policy, the
probability that each edge lands in the policy's matching of H; S-edges
whose estimate exceeds epsilon^2 * p are "heavy" and move into Q, and the
process repeats on the grown Q.  The builder has two exits: "case1", when
the heavy edges contribute less than epsilon * p * mu(G) expected matching
mass (the returned policy then simply drops those edges from its output),
and "round_cap", when max_rounds rounds are kept.

Because a sample of H for a larger Q is edgewise contained in the sample for
a smaller Q under shared per-edge draws, a policy recorded in an earlier
round remains valid later (its H is a subgraph).  Components therefore carry
their own queried-edge mask.  After each round the builder also considers
replacing the previous round's policy with the current one, or with the
half-half mixture of the two, whenever the estimated objective improves by
more than the margin (epsilon * p)^10 * mu(G).  The kept rounds form one
chain of (objective, policy, marginals), one per partition; an adopted
replacement truncates the chain there and the partitions after it, at
most MAX_SWAPS times per build.

The objective being tracked is sum_e (q_e - epsilon * q_e^2): expected
matching size minus a concentration penalty, which rewards spreading
matching probability over many edges.

A round prepares once what its draws share, and counts a block of draws
at a time.  Draws come in blocks of rows from the counter-based streams
(`rng.derive_seeds`, `rng.uniform_rows`), each row equal to the draw made
alone.  Each component prepares its S once: a maximum matching that
warm-starts every draw's Hopcroft-Karp, and that answers every draw which
realizes none of the component's Q-edges.  When that matching is also
maximum on S | Q, the whole graph, as it always is with Q empty, it
answers every draw, so such a round costs one matching and one layering
whatever its sample count.  Draws that S's
matching answers add its edges once per group.  For the others, one
`np.nonzero` per chunk of draws lists every draw's S | realized-Q edges in
increasing order (the order that fixes Hopcroft-Karp's ties), and each
matched edge is counted straight from the search's matching through the
graph's per-vertex id table.  Excluded edges are dropped from each
component's counts once, at the end.

The builder is defined for bipartite graphs only: it refuses any other
graph with ApplicabilityError, as the strategies built on it do.
`outcome_to_text` writes a record of the build that no command reads back.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Optional

import numpy as np

from .errors import ApplicabilityError, ParameterError, StructuralError
from .graphs import EdgePartition, Graph, bipartition
from .matching import BipartiteBase, _hopcroft_karp, _layer, _right_rows
from . import rng

__all__ = [
    "PolicyComponent",
    "MatchingPolicy",
    "PartitionConfig",
    "PartitionOutcome",
    "estimate_marginals",
    "policy_objective",
    "heavy_edges",
    "heavy_threshold",
    "build_partition",
    "outcome_to_text",
]

_TAG_SAMPLE = 11
_TAG_COMPONENT = 12
_TAG_ROUND = 13

MAX_SWAPS = 12  # cap on adopted replacements per build
MAX_ROUNDS = 50  # default cap on the rounds a build keeps
# cap on the edge cells (draws x edges) of one block of shared draws; larger
# blocks buy little speed and their uint64 temporaries cost memory
BLOCK_CELLS = 8192


@dataclass(frozen=True)
class PolicyComponent:
    """One deterministic matching procedure over its own half-stochastic view.

    `in_q` is the queried-edge mask this component was built against: on a
    shared per-edge realization X, the component sees S-edges plus realized
    Q-edges of ITS OWN partition, which keeps old components valid after the
    builder grows Q.  `exclude` is removed from the output matching, not
    from the input graph.  Ties break toward the lowest edge index.
    """

    in_q: tuple[bool, ...]
    exclude: frozenset[int] = frozenset()
    round_index: int = 0

    def s_mask(self) -> np.ndarray:
        return ~np.asarray(self.in_q, dtype=bool)


@dataclass(frozen=True)
class MatchingPolicy:
    """Weighted mixture of deterministic matching components."""

    parent: Graph
    components: tuple[tuple[float, PolicyComponent], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise StructuralError("policy needs at least one component")
        total = math.fsum(w for w, _c in self.components)
        if abs(total - 1.0) > 1e-12:
            raise StructuralError(f"component weights sum to {total}, not 1")
        for w, comp in self.components:
            if not (0.0 < w <= 1.0):
                raise StructuralError(f"component weight {w} outside (0, 1]")
            if len(comp.in_q) != self.parent.m:
                raise StructuralError("component mask length mismatch")

    def with_exclusions(self, extra: frozenset[int]) -> "MatchingPolicy":
        comps = tuple(
            (w, replace(c, exclude=c.exclude | extra)) for w, c in self.components
        )
        return MatchingPolicy(self.parent, comps)


@dataclass(frozen=True)
class PartitionConfig:
    epsilon: float
    p: float
    max_rounds: int = MAX_ROUNDS
    samples_per_round: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon):
            raise ParameterError("epsilon must be positive")
        if not (0.0 < self.p <= 1.0):
            raise ParameterError("p must lie in (0, 1]")
        if self.max_rounds < 1:
            raise ParameterError("max_rounds must be at least 1")
        if self.samples_per_round is not None and self.samples_per_round < 100:
            raise ParameterError("samples_per_round must be at least 100")
        if self.samples_per_round is None and ((self.epsilon**2) * self.p) ** 2 == 0.0:
            raise ParameterError("(epsilon^2 p)^2 underflows to 0: give samples_per_round")

    def resolved_samples(self, n: int) -> int:
        if self.samples_per_round is not None:
            return self.samples_per_round
        tau = (self.epsilon**2) * self.p
        count = 8.0 * math.log(max(n, 2)) / (tau * tau)
        if not math.isfinite(count):
            raise ParameterError("the default samples_per_round overflows: give samples_per_round")
        return max(10**4, int(math.ceil(count)))


@dataclass(frozen=True)
class PartitionOutcome:
    partition: EdgePartition
    policy: MatchingPolicy
    objective_trace: tuple[float, ...]
    termination: str  # "case1" | "round_cap"
    rounds_used: int  # total estimation rounds, including rebuilt ones
    mu_hat: float
    diagnostics: dict = field(default_factory=dict)


def heavy_threshold(epsilon: float, p: float) -> float:
    return epsilon * epsilon * p


def policy_objective(q: np.ndarray, epsilon: float) -> float:
    """Expected matching size minus the concentration penalty."""
    q = np.asarray(q, dtype=np.float64)
    return float(np.sum(q - epsilon * q * q))


def heavy_edges(
    q: np.ndarray, partition: EdgePartition, epsilon: float, p: float
) -> np.ndarray:
    """S-edges whose estimated matching probability q exceeds epsilon^2 * p."""
    tau = heavy_threshold(epsilon, p)
    return np.nonzero((~partition.in_q) & (q > tau))[0]


class _ComponentRunner:
    """One policy component, prepared once per round, and its per-block count.

    S is prepared once as a `BipartiteBase`: a maximum matching of S, which
    warm-starts every draw's Hopcroft-Karp on S plus the realized Q-edges.
    A draw that realizes none of the component's Q-edges is answered by S's
    matching itself.  When that matching is also maximum on all of S | Q,
    the whole graph (always so with Q empty), it is maximum on every
    draw's view, where the search returns it unchanged; it is then the
    answer to every draw (`fixed`) and no draw is searched.  One layering
    from its free left vertices over every edge tells: the matching is
    maximum exactly when the layering reaches no free right vertex.
    """

    def __init__(self, graph: Graph, side: np.ndarray, comp: PolicyComponent):
        self.graph = graph
        self.side = side
        self.s_mask = comp.s_mask()
        self.in_q = ~self.s_mask
        self.exclude = comp.exclude
        self.base = BipartiteBase(graph, side, self.s_mask)
        pedge = self.base.pedge
        self.s_matched = [pedge[u] for u in self.base.lefts if pedge[u] >= 0]
        lefts = bipartition(graph).lefts
        self.fixed = not _layer(graph.neighbours(), lefts, self.base.pair, [0] * graph.n, True)

    def count(self, draws: np.ndarray, counts: list[int]) -> None:
        """Add the edges this component matches on each row of `draws` to `counts`.

        Draws that need no search add S's matching once, times their
        number.  The others are taken a chunk at a time: one `np.nonzero`
        of (draws & Q) | S gives every draw's union edges in increasing
        order, whose rows fix Hopcroft-Karp's tie order, and each matched
        edge is counted straight from the search's `pair`.
        """
        if self.fixed:
            searched = draws[:0]
        else:
            realized = draws & self.in_q
            searched = realized[realized.any(axis=1)]
        plain = len(draws) - len(searched)
        if plain:
            for e in self.s_matched:
                counts[e] += plain
        graph, side, start = self.graph, self.side, self.base.pair
        ids = graph.ids_by_neighbour
        # a quarter block of searched draws at a time, so that their listed
        # edges (about 24 bytes each) stay small beside the block's draws
        chunk = max(1, BLOCK_CELLS // (4 * graph.m))
        for a in range(0, len(searched), chunk):
            union = searched[a : a + chunk] | self.s_mask
            edges = np.nonzero(union)[1].tolist()
            lo = 0
            for hi in np.cumsum(np.count_nonzero(union, axis=1)).tolist():
                nbr, lefts = _right_rows(graph, side, edges[lo:hi])
                pair = list(start)
                _hopcroft_karp(nbr, lefts, pair)
                for u in lefts:
                    v = pair[u]
                    if v >= 0:
                        counts[ids[u][v]] += 1
                lo = hi


def _draw_block(
    cum: np.ndarray, m: int, p: float, seed: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draws start..stop-1, one row each, and the component each draw picks.

    Each draw realizes every edge independently with probability p, and
    picks one component according to the mixture weights (`cum`, their
    running sums).  Draw s is the one the counter-based streams give for
    counter s, whatever the block.
    """
    block = rng.uniform_rows(rng.derive_seeds(seed, _TAG_SAMPLE, start, stop), m) < p
    if len(cum) == 1:
        return block, np.zeros(stop - start, dtype=np.int64)
    u = rng.uniform_rows(rng.derive_seeds(seed, _TAG_COMPONENT, start, stop), 1)[:, 0]
    return block, np.searchsorted(cum, u, side="right")


def _bipartite_side(graph: Graph) -> np.ndarray:
    sides = bipartition(graph)
    if sides is None:
        raise ApplicabilityError("the partition builder requires a bipartite graph")
    return sides.side


def estimate_marginals(
    policy: MatchingPolicy,
    partition: EdgePartition,
    graph: Graph,
    p: float,
    t: int,
    seed: int,
) -> np.ndarray:
    """Per-edge matching probabilities q estimated from t shared draws.

    Each component interprets a draw through its own queried mask, so the
    same call serves plain policies and cross-round mixtures.  Raises
    ApplicabilityError on a non-bipartite graph.
    """
    if partition.parent is not graph:
        raise StructuralError("partition does not belong to this graph")
    if policy.parent is not graph:
        raise StructuralError("policy does not belong to this graph")
    if t < 1:
        raise ParameterError("sample count must be positive")
    side = _bipartite_side(graph)
    if graph.m == 0:
        return np.zeros(0, dtype=np.float64)
    runners = [_ComponentRunner(graph, side, c) for _w, c in policy.components]
    cum = np.cumsum([w for w, _c in policy.components])
    counts = [[0] * graph.m for _ in runners]
    rows = max(1, BLOCK_CELLS // graph.m)
    for start in range(0, t, rows):
        block, picks = _draw_block(cum, graph.m, p, seed, start, min(t, start + rows))
        for k, runner in enumerate(runners):
            runner.count(block[picks == k], counts[k])
    # each component's counts, less its excluded edges
    total = np.zeros(graph.m, dtype=np.int64)
    for runner, row in zip(runners, counts):
        row = np.array(row, dtype=np.int64)
        row[sorted(runner.exclude)] = 0
        total += row
    return total / float(t)


def build_partition(graph: Graph, cfg: PartitionConfig) -> PartitionOutcome:
    """Grow Q round by round until the heavy S-edges stop mattering.

    The builder has two exits: "case1", when the heavy S-edges carry less
    than epsilon * p * mu expected matching mass (the policy then drops them
    from its output), and "round_cap", when cfg.max_rounds rounds are kept.
    Raises ApplicabilityError on a non-bipartite graph.
    """
    eps, p = cfg.epsilon, cfg.p
    mu = float(BipartiteBase(graph, _bipartite_side(graph), None).size)
    margin = ((eps * p) ** 10) * mu
    t = cfg.resolved_samples(graph.n)
    tau = heavy_threshold(eps, p)
    per_round_cap = int(math.ceil(1.0 / tau)) if tau > 0 else graph.m

    # the kept rounds: chain[i] = (phi, policy, q) was estimated on partitions[i]
    partitions = [EdgePartition(graph, np.zeros(graph.m, dtype=bool))]
    chain: list[tuple[float, MatchingPolicy, np.ndarray]] = []
    rounds_used = swaps = 0
    while True:
        i = len(partitions) - 1
        if len(chain) == i:
            comp = PolicyComponent(in_q=tuple(bool(x) for x in partitions[i].in_q), round_index=i)
            policy = MatchingPolicy(graph, ((1.0, comp),))
            seed = rng.derive_seed(cfg.seed, _TAG_ROUND, rounds_used)
            q = estimate_marginals(policy, partitions[i], graph, p, t, seed)
            chain.append((policy_objective(q, eps), policy, q))
            rounds_used += 1
        phi, policy, q = chain[i]

        # consider replacing the previous round with something better: the
        # current round itself, or the half-half mixture of the two (whose
        # marginals are the average, so no new sampling is needed); on equal
        # objectives the current round wins
        if i >= 1 and swaps < MAX_SWAPS:
            prev_phi, prev_policy, prev_q = chain[i - 1]
            q_mix = 0.5 * (prev_q + q)
            halves = tuple((0.5 * w, c) for w, c in prev_policy.components + policy.components)
            mix = (policy_objective(q_mix, eps), MatchingPolicy(graph, halves), q_mix)
            best = max((phi, policy, q), mix, key=itemgetter(0))
            if best[0] > prev_phi + margin:
                chain[i - 1 :] = [best]
                del partitions[i:]
                swaps += 1
                continue  # re-run the swap test from the adopted slot

        heavy = heavy_edges(q, partitions[i], eps, p)
        if len(heavy) == 0 or float(np.sum(q[heavy])) < eps * p * mu:
            policy = policy.with_exclusions(frozenset(int(e) for e in heavy))
            termination = "case1"
            break
        if i + 1 >= cfg.max_rounds:
            termination = "round_cap"
            break
        # Q's degree needs no check: a draw matches at most one edge at a
        # vertex, so a vertex's marginals (or their average, for a mixture) sum
        # to at most 1, and at most per_round_cap = ceil(1/tau) of its edges are
        # heavy.  After i growth steps Q's maximum degree is at most i * per_round_cap.
        new_in_q = partitions[i].in_q.copy()
        new_in_q[heavy] = True
        partitions.append(EdgePartition(graph, new_in_q))

    s_q = q.copy()
    for _w, comp in policy.components:
        if comp.exclude:
            s_q[sorted(comp.exclude)] = 0.0
    s_edges = np.nonzero(~partitions[i].in_q)[0]
    diagnostics = {
        "max_s_marginal": float(np.max(s_q[s_edges])) if len(s_edges) else 0.0,
        "swaps": swaps,
        "samples_per_round": t,
        "margin": margin,
        "per_round_degree_cap": per_round_cap,
    }
    return PartitionOutcome(
        partition=partitions[i],
        policy=policy,
        objective_trace=tuple(phi for phi, _policy, _q in chain),
        termination=termination,
        rounds_used=rounds_used,
        mu_hat=mu,
        diagnostics=diagnostics,
    )


# --- serialization ------------------------------------------------------------


def _mask_to_bits(mask) -> str:
    return "".join("1" if b else "0" for b in mask)


def outcome_to_text(outcome: PartitionOutcome) -> str:
    """A text record of the build.  Nothing reads it back: it holds no
    epsilon, p, seed or graph identity to check a reader's inputs against."""
    buf = io.StringIO()
    g = outcome.partition.parent
    buf.write("partition-artifact v1\n")
    buf.write(f"n {g.n} m {g.m}\n")
    buf.write(f"termination {outcome.termination}\n")
    buf.write(f"rounds_used {outcome.rounds_used}\n")
    buf.write(f"mu_hat {outcome.mu_hat!r}\n")
    buf.write("objective_trace " + " ".join(repr(x) for x in outcome.objective_trace) + "\n")
    buf.write("in_q " + _mask_to_bits(outcome.partition.in_q) + "\n")
    buf.write(f"components {len(outcome.policy.components)}\n")
    for w, c in outcome.policy.components:
        excl = ",".join(str(e) for e in sorted(c.exclude)) if c.exclude else "-"
        # the routine is always bipartite_max and the third field, reserved,
        # always "-", which keeps v1 artifacts unchanged
        buf.write(
            f"component {w!r} bipartite_max - {excl} {c.round_index} "
            + _mask_to_bits(c.in_q)
            + "\n"
        )
    return buf.getvalue()

