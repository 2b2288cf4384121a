import copy
import gc
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    brute_max_matching,
    brute_min_vertex_cover,
    is_valid_cover,
    reference_estimate_marginals,
    reference_hk,
    reference_konig_cover,
    reference_mvc_general,
)
from stochcover import rng
from stochcover.errors import CapacityError, StructuralError
from stochcover.graphs import EdgePartition, Graph, bipartition
from stochcover.instances import gen_er, gen_er_bipartite
from stochcover.matching import (
    BipartiteBase,
    Matching,
    hk_on_mask,
    konig_cover_from_pairs,
    mvc_bipartite_on_mask,
    mvc_general_on_mask,
)
from stochcover.partition import (
    MatchingPolicy,
    PolicyComponent,
    _ComponentRunner,
    estimate_marginals,
)
from stochcover.strategies import _half_stochastic_plan, respond_strategy


@st.composite
def bipartite_graphs(draw, max_left=5, max_right=5, max_edges=10):
    nl = draw(st.integers(1, max_left))
    nr = draw(st.integers(1, max_right))
    possible = [(u, nl + v) for u in range(nl) for v in range(nr)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=max_edges))
    return Graph(nl + nr, tuple(edges), bipartite_hint=nl)


@st.composite
def general_graphs(draw, max_n=8, max_edges=12):
    n = draw(st.integers(2, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=max_edges))
    return Graph(n, tuple(edges))


def _sides(g):
    b = bipartition(g)
    assert b is not None
    return b


def test_matching_type_rejects_shared_vertices():
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(StructuralError):
        Matching(g, (0, 1))


@given(bipartite_graphs())
def test_hk_matches_brute_force(g):
    sides = _sides(g)
    _pair, _pedge, size = hk_on_mask(g, sides.side)
    assert size == brute_max_matching(g)


@given(bipartite_graphs())
def test_konig_cover_equals_matching_size_and_covers(g):
    sides = _sides(g)
    pair, _pedge, size = hk_on_mask(g, sides.side)
    cover = konig_cover_from_pairs(g, sides.side, None, pair, strict=True)
    assert int(cover.sum()) == size
    assert is_valid_cover(g, cover)


@given(bipartite_graphs(), st.integers(0, 2**32))
def test_hk_on_random_mask(g, seed):
    if g.m == 0:
        return
    rs = np.random.RandomState(seed % 2**31)
    mask = rs.rand(g.m) < 0.5
    sides = _sides(g)
    _pair, _pedge, size = hk_on_mask(g, sides.side, mask)
    assert size == brute_max_matching(g, mask)


@given(bipartite_graphs())
def test_warm_start_reaches_same_size(g):
    sides = _sides(g)
    if g.m < 2:
        return
    # the cover path warm-starts from the matching of the first half of the
    # edges; by Konig its cover is as large as a cold-start maximum matching
    half = np.zeros(g.m, dtype=bool)
    half[: g.m // 2] = True
    warm = BipartiteBase(g, sides.side, half).cover(~half)
    _p3, _pe3, cold_size = hk_on_mask(g, sides.side, None)
    assert int(warm.sum()) == cold_size
    assert is_valid_cover(g, warm)


def test_hk_is_component_local():
    # matchings of a disjoint union restricted to one component equal the
    # matchings of that component run alone; the conditional-row enumeration
    # in the proposal module depends on exactly this
    g1 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    g2 = Graph(4, ((0, 1), (0, 3), (2, 3)))
    join = Graph(
        8, tuple((u, v) for u, v in g1.edges) + tuple((u + 4, v + 4) for u, v in g2.edges)
    )
    sides = _sides(join)
    _pair, pedge, size = hk_on_mask(join, sides.side)
    local_sizes = []
    for g, offset in ((g1, 0), (g2, len(g1.edges))):
        s = _sides(g)
        _p, _pe, sz = hk_on_mask(g, s.side)
        local_sizes.append(sz)
        # edges matched within this component of the union
        comp_edges = {e for e in pedge if e >= 0 and offset <= e < offset + len(g.edges)}
        assert len(comp_edges) == sz
    assert size == sum(local_sizes)


def test_mvc_bipartite_on_mask_empty():
    g = Graph(4, ((0, 1), (2, 3)))
    sides = _sides(g)
    cover, size = mvc_bipartite_on_mask(g, sides.side, np.zeros(2, dtype=bool))
    assert size == 0 and not cover.any()


def test_hk_deep_augmenting_path_keeps_recursion_limit():
    # path 0-1-...-(2k+1) warm-started with the shifted matching
    # {(1,2), (3,4), ..., (2k-1,2k)}: the only augmenting path runs the whole
    # path, so the search goes k+1 levels deep, past the default recursion limit
    k = 3000
    n = 2 * k + 2
    g = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    shifted = np.zeros(g.m, dtype=bool)
    shifted[1 : n - 2 : 2] = True
    limit = sys.getrecursionlimit()
    # S is the shifted matching, whose maximum matching is itself
    base = BipartiteBase(g, _sides(g).side, shifted)
    assert sorted({e for e in base.pedge if e >= 0}) == list(range(1, n - 2, 2))
    # one draw at p = 1 realizes every Q-edge, so the partition round's
    # search warm-started from S's matching matches exactly the even edges
    policy = MatchingPolicy(g, ((1.0, PolicyComponent(in_q=tuple((~shifted).tolist()))),))
    q = estimate_marginals(policy, EdgePartition(g, ~shifted), g, 1.0, 1, seed=0)
    assert q.tolist() == [1.0 if e % 2 == 0 else 0.0 for e in range(g.m)]
    assert sys.getrecursionlimit() == limit


@st.composite
def warm_started_masks(draw):
    """A bipartite graph, a side array, a mask and a warm start inside the mask."""
    g = draw(bipartite_graphs(max_left=7, max_right=7, max_edges=30))
    side = np.array(_sides(g).side)  # a writable copy, as a caller might pass
    if draw(st.booleans()):
        side = 1 - side  # the other orientation
    mask = np.array(draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)), dtype=bool)
    warm = mask & np.array(draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)), dtype=bool)
    return g, side, mask, warm


@given(warm_started_masks())
@settings(max_examples=150)
def test_kernel_returns_the_reference_matching(case):
    # not just a maximum matching: the same one the earlier recursive kernel
    # returns, since partition marginals and mc_matching's queries depend on it
    g, side, mask, warm = case
    assert hk_on_mask(g, side, mask) == reference_hk(g, side, mask)
    init_pair, init_pedge, _ = reference_hk(g, side, warm)
    warm_args = dict(init_pair=init_pair, init_pair_edge=init_pedge)
    # the warm start is a maximum matching of `warm`, so it is BipartiteBase's own
    base = BipartiteBase(g, side, warm)
    assert (base.pair, base.pedge) == (init_pair, init_pedge)
    ref_pair, _ref_pedge, _ref_size = reference_hk(g, side, mask, **warm_args)
    ref_cover = reference_konig_cover(g, side, mask, ref_pair, strict=True)
    assert np.array_equal(base.cover(mask & ~warm), ref_cover)
    assert np.array_equal(konig_cover_from_pairs(g, side, mask, ref_pair), ref_cover)
    cold_pair, _cold_pedge, cold_size = reference_hk(g, side, mask)
    cold_ref_cover = reference_konig_cover(g, side, mask, cold_pair)
    cold_cover, size = mvc_bipartite_on_mask(g, side, mask)
    assert size == cold_size
    assert np.array_equal(cold_cover, cold_ref_cover)
    # with nothing added, S's own matching answers without a search
    empty = np.zeros(g.m, dtype=bool)
    assert np.array_equal(BipartiteBase(g, side, mask).cover(empty), cold_ref_cover)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8, 1.0])
def test_tie_order_on_the_partition_builders_graph(p):
    # the partition builder's graph, erb(30,30,0.2) s7, where a free right is
    # often reachable at several depths: a layering that stops at the first
    # one changes which maximum matching Hopcroft-Karp returns, which the
    # small generated graphs above rarely show
    g = gen_er_bipartite(30, 30, 0.2, seed=7).graph
    side = _sides(g).side
    for seed in range(20):
        mask = rng.bernoulli_mask(seed, g.m, p)
        assert hk_on_mask(g, side, mask) == reference_hk(g, side, mask)
    # and the partition round's warm-started searches, through the marginals
    # they add up to: S is the component's own s_mask
    for seed in range(5):
        in_q = rng.bernoulli_mask(1000 + seed, g.m, 0.5)
        policy = MatchingPolicy(g, ((1.0, PolicyComponent(in_q=tuple(in_q.tolist()))),))
        q = estimate_marginals(policy, EdgePartition(g, in_q), g, p, 100, seed)
        assert np.array_equal(q, reference_estimate_marginals(policy, g, p, 100, seed))


# path 0-1-2-3 matched on its middle edge only, which 0-1-2-3 augments
_PATH = Graph(4, ((0, 1), (1, 2), (2, 3)))


@given(warm_started_masks())
@example((_PATH, _sides(_PATH).side, np.ones(3, dtype=bool), np.array([False, True, False])))
@settings(max_examples=100)
def test_konig_cover_of_any_matching(case):
    # a maximum matching of part of the mask need not be maximum on the mask:
    # the cover is still the reference's, and `strict` refuses exactly when
    # the matching is not maximum
    g, side, mask, warm = case
    pair, _pedge, size = reference_hk(g, side, warm)
    loose = reference_konig_cover(g, side, mask, pair, strict=False)
    assert np.array_equal(konig_cover_from_pairs(g, side, mask, pair, strict=False), loose)
    if size < reference_hk(g, side, mask)[2]:
        with pytest.raises(StructuralError):
            konig_cover_from_pairs(g, side, mask, pair, strict=True)
    else:
        assert np.array_equal(konig_cover_from_pairs(g, side, mask, pair, strict=True), loose)


@st.composite
def half_stochastic_cases(draw):
    """A bipartite graph, a side array, a query set Q and a realization inside Q."""
    g = draw(bipartite_graphs(max_left=7, max_right=7, max_edges=30))
    side = np.array(_sides(g).side)  # a writable copy, as a caller might pass
    if draw(st.booleans()):
        side = 1 - side  # the other orientation
    bits = st.lists(st.booleans(), min_size=g.m, max_size=g.m)
    queried = np.array(
        draw(st.one_of(st.just([False] * g.m), st.just([True] * g.m), bits)), dtype=bool
    )
    realized = queried & np.array(draw(bits), dtype=bool)
    return g, side, queried, realized


@given(half_stochastic_cases())
@settings(max_examples=150)
def test_prebuilt_s_gives_the_reference_cover(case):
    # the warm-started matching of S | realized and its Konig cover are the
    # ones the reference computes on that union, rows in edge order
    g, side, queried, realized = case
    s_mask = ~queried
    union = s_mask | realized
    warm_pair, warm_pedge, _size = reference_hk(g, side, s_mask)
    ref = reference_hk(g, side, union, init_pair=warm_pair, init_pair_edge=warm_pedge)
    ref_cover = reference_konig_cover(g, side, union, ref[0], strict=True)
    base = BipartiteBase(g, side, s_mask)
    assert np.array_equal(base.cover(realized), ref_cover)
    # and the half-stochastic responder answers with it, on the graph's own sides
    own = _sides(g).side
    warm_pair, warm_pedge, _size = reference_hk(g, own, s_mask)
    own_ref = reference_hk(g, own, union, init_pair=warm_pair, init_pair_edge=warm_pedge)
    plan = _half_stochastic_plan("random_query_baseline", g, queried)
    answer = respond_strategy(plan, realized[plan.queried_indices])
    assert np.array_equal(answer.cover, reference_konig_cover(g, own, union, own_ref[0]))


@given(half_stochastic_cases())
@settings(max_examples=150)
def test_a_component_is_fixed_exactly_when_s_holds_a_maximum_matching(case):
    # the partition round answers every draw with S's matching (`fixed`)
    # exactly when that matching is maximum on the whole graph
    g, side, queried, _realized = case
    comp = PolicyComponent(in_q=tuple(queried.tolist()))
    nu = reference_hk(g, side)[2]
    assert _ComponentRunner(g, side, comp).fixed == (BipartiteBase(g, side, ~queried).size == nu)


@st.composite
def cover_path_cases(draw):
    """Several bipartite pieces and lone vertices under shuffled labels.

    Returns the graph, a writable side array that flips each piece's
    sides or not, a mask (empty, full or any) and a part S of the mask.
    """
    piece = bipartite_graphs(max_left=6, max_right=6, max_edges=18)
    pieces = draw(st.lists(piece, min_size=1, max_size=3))
    lone = draw(st.integers(0, 3))
    n = sum(g.n for g in pieces) + lone
    labels = draw(st.permutations(range(n)))
    edges: list[tuple[int, int]] = []
    side = np.zeros(n, dtype=np.int8)
    offset = 0
    for g in pieces:
        flip = draw(st.booleans())
        for v, s in enumerate(_sides(g).side):
            side[labels[offset + v]] = s ^ flip
        edges += [(labels[u + offset], labels[v + offset]) for u, v in g.edges]
        offset += g.n
    graph = Graph(n, tuple(edges))
    bits = st.lists(st.booleans(), min_size=graph.m, max_size=graph.m)
    mask = np.array(
        draw(st.one_of(st.just([False] * graph.m), st.just([True] * graph.m), bits)), dtype=bool
    )
    s_mask = mask & np.array(draw(bits), dtype=bool)
    return graph, side, mask, s_mask


@given(cover_path_cases())
@settings(max_examples=200)
def test_cover_path_gives_the_reference_cover(case):
    # the cover path ends with some maximum matching, not the reference's,
    # and König's cover must still be the reference's bit for bit
    g, side, mask, s_mask = case
    ref_pair, _ref_pedge, ref_size = reference_hk(g, side, mask)
    ref_cover = reference_konig_cover(g, side, mask, ref_pair, strict=True)
    cover, size = mvc_bipartite_on_mask(g, side, mask)
    assert cover.dtype == bool and np.array_equal(cover, ref_cover)
    assert size == ref_size == int(np.count_nonzero(cover))
    extra = mask & ~s_mask
    if extra.any():
        assert np.array_equal(BipartiteBase(g, side, s_mask).cover(extra), ref_cover)


def test_repeated_covers_leave_the_base_unchanged():
    # cover copies only the rows that the extra edges extend: every call
    # must leave S's rows, lefts and matching as they were, and extra
    # edges at lefts with no S edge add those lefts
    g = gen_er_bipartite(12, 12, 0.3, seed=4).graph
    side = _sides(g).side
    left, _right = g.oriented_endpoints(side)
    s_mask = rng.bernoulli_mask(1, g.m, 0.3)
    base = BipartiteBase(g, side, s_mask)
    s_lefts = set(base.lefts)
    new_lefts = 0
    for k in range(20):
        extra = rng.bernoulli_mask(100 + k, g.m, 0.5) & ~s_mask
        mask = s_mask | extra
        new_lefts += sum(left[e] not in s_lefts for e in np.flatnonzero(extra))
        before = copy.deepcopy((base.nbr, base.lefts, base.pair))
        ref_pair = reference_hk(g, side, mask)[0]
        ref_cover = reference_konig_cover(g, side, mask, ref_pair, strict=True)
        assert np.array_equal(base.cover(extra), ref_cover)
        assert (base.nbr, base.lefts, base.pair) == before
    assert new_lefts > 0


@given(general_graphs())
@settings(max_examples=40)
def test_mvc_general_matches_brute_force(g):
    cover, size = mvc_general_on_mask(g, None, budget_vertices=16)
    assert size == brute_min_vertex_cover(g)
    assert is_valid_cover(g, cover)
    assert int(cover.sum()) == size


@st.composite
def cover_pieces(draw):
    """Edges of one small piece on vertices 0..k-1, and k.

    Pendant paths and trees, odd cycles with chords, triangles with tails,
    and lone vertices: the shapes the degree-1 rule and the kernel see.
    """
    shape = draw(st.sampled_from(["path", "tree", "odd_cycle", "triangle_tails", "isolated"]))
    if shape == "isolated":
        return [], 1
    if shape == "path":
        k = draw(st.integers(2, 6))
        return [(i, i + 1) for i in range(k - 1)], k
    if shape == "tree":
        k = draw(st.integers(2, 7))
        return [(draw(st.integers(0, i - 1)), i) for i in range(1, k)], k
    if shape == "odd_cycle":
        k = draw(st.sampled_from([3, 5, 7]))
        edges = [(i, (i + 1) % k) for i in range(k)]
        chords = [(u, v) for u in range(k) for v in range(u + 2, k) if (u, v) != (0, k - 1)]
        if chords:
            edges += draw(st.lists(st.sampled_from(chords), unique=True, max_size=3))
        return edges, k
    edges = [(0, 1), (1, 2), (0, 2)]
    k = 3
    for _ in range(draw(st.integers(0, 3))):
        edges.append((draw(st.integers(0, k - 1)), k))
        k += 1
    return edges, k


@st.composite
def masked_cover_cases(draw):
    """A disjoint union of pieces with shuffled labels, an edge mask, a budget."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(draw(st.integers(1, 3))):
        piece, k = draw(cover_pieces())
        if n + k > 14:
            break
        edges += [(u + n, v + n) for u, v in piece]
        n += k
    labels = draw(st.permutations(range(n)))
    g = Graph(n, tuple((labels[u], labels[v]) for u, v in edges))
    kind = draw(st.sampled_from(["full", "random", "empty"]))
    if kind == "random":
        mask = np.array(draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)), dtype=bool)
    else:
        mask = np.full(g.m, kind == "full", dtype=bool)
    return g, mask, draw(st.integers(0, 16))


@given(masked_cover_cases())
@settings(max_examples=150)
def test_mvc_general_matches_the_reference_and_brute_force(case):
    g, mask, budget = case
    try:
        _ref_cover, ref_size = reference_mvc_general(g, mask, budget)
    except CapacityError:
        with pytest.raises(CapacityError):
            mvc_general_on_mask(g, mask, budget)
        return
    cover, size = mvc_general_on_mask(g, mask, budget)
    assert size == ref_size == brute_min_vertex_cover(g, mask)
    assert is_valid_cover(g, cover, edge_mask=mask)
    assert int(cover.sum()) == size


def test_mvc_general_backtracks_past_the_first_descent():
    # a kernel on which the first descent (largest degree into the cover)
    # finds 9 and the optimum is 8: the search must backtrack, and a bound
    # one too eager prunes the optimum away
    g = gen_er(13, 0.4, seed=1780).graph
    cover, size = mvc_general_on_mask(g, None)
    assert size == reference_mvc_general(g, None)[1] == brute_min_vertex_cover(g) == 8
    assert is_valid_cover(g, cover) and int(cover.sum()) == size


def test_mvc_general_leaves_no_cyclic_garbage():
    # general_er's graph, whose kernel goes to the branch and bound: the
    # search must free everything it made without the cyclic collector
    g = gen_er(50, 0.1, seed=0).graph
    gc.collect()
    gc.disable()
    try:
        mvc_general_on_mask(g, None, 64)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mvc_general_budget_counts_vertices_before_reduction():
    # a perfect matching on budget + 2 vertices: the degree-1 rule alone
    # would solve it, but the budget is counted before any reduction
    budget = 10
    g = Graph(budget + 2, tuple((2 * i, 2 * i + 1) for i in range(budget // 2 + 1)))
    at_budget = np.ones(g.m, dtype=bool)
    at_budget[-1] = False
    cover, size = mvc_general_on_mask(g, at_budget, budget)
    assert size == budget // 2 and is_valid_cover(g, cover, edge_mask=at_budget)
    with pytest.raises(CapacityError):
        mvc_general_on_mask(g, np.ones(g.m, dtype=bool), budget)
    with pytest.raises(CapacityError):
        reference_mvc_general(g, np.ones(g.m, dtype=bool), budget)


def test_mvc_general_budget_refusal():
    edges = tuple((u, v) for u in range(12) for v in range(u + 1, 12))
    g = Graph(12, edges)
    with pytest.raises(CapacityError):
        mvc_general_on_mask(g, None, budget_vertices=5)


def test_petersen_cover_size():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    g = Graph(10, tuple(outer + spokes + inner))
    cover, _size = mvc_general_on_mask(g, None)
    assert int(cover.sum()) == 6
