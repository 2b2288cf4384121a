import numpy as np
from hypothesis import given, strategies as st

from oracles import sample_without_replacement
from stochcover import rng


def test_mix64_is_deterministic_and_nontrivial():
    assert rng.mix64(0) == rng.mix64(0)
    seen = {rng.mix64(i) for i in range(1000)}
    assert len(seen) == 1000


def test_derive_seed_separates_labels():
    a = rng.derive_seed(7, 1, 2)
    b = rng.derive_seed(7, 2, 1)
    c = rng.derive_seed(7, 1)
    assert len({a, b, c}) == 3


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 10_000))
def test_uniform_at_in_unit_interval(seed, index):
    u = rng.uniform_at(seed, index)
    assert 0.0 <= u < 1.0


@given(st.integers(min_value=0, max_value=2**63), st.integers(1, 300))
def test_uniforms_match_scalar_path(seed, count):
    vec = rng.uniforms(seed, count)
    scalars = np.array([rng.uniform_at(seed, i) for i in range(count)])
    assert np.array_equal(vec, scalars)


def test_bernoulli_mask_extremes():
    assert not rng.bernoulli_mask(3, 50, 0.0).any()
    assert rng.bernoulli_mask(3, 50, 1.0).all()


def test_bernoulli_mask_rate_is_sane():
    mask = rng.bernoulli_mask(11, 20_000, 0.3)
    rate = mask.mean()
    assert 0.28 < rate < 0.32


@given(
    st.integers(min_value=0, max_value=2**63),
    st.lists(st.integers(), min_size=0, max_size=40, unique=True),
    st.integers(0, 40),
)
def test_sample_without_replacement_properties(seed, items, k):
    k = min(k, len(items))
    picked = sample_without_replacement(seed, items, k)
    assert len(picked) == k
    assert len(set(picked)) == k
    assert set(picked) <= set(items)


def test_sample_without_replacement_overdraw_returns_everything():
    assert sorted(sample_without_replacement(0, [1, 2], 3)) == [1, 2]


def test_streams_are_stable_across_calls():
    # same (seed, index) must give the same draw forever; these values are
    # relied on by every frozen expectation in the suite
    assert rng.uniform_at(0, 0) == rng.uniform_at(0, 0)
    assert rng.bernoulli_mask(5, 10, 0.5).tolist() == rng.bernoulli_mask(5, 10, 0.5).tolist()


# seeds 0, 1 and 2^64 - 1, plus one drawn 64-bit seed
_EDGE_SEEDS = st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1))


@given(_EDGE_SEEDS, st.integers(0, 2**64 - 1), st.integers(0, 10**6), st.sampled_from([1, 5, 9000]))
def test_derive_seeds_match_scalar_path(seed, tag, start, count):
    vec = rng.derive_seeds(seed, tag, start, start + count)
    assert vec.dtype == np.uint64
    assert vec.tolist() == [rng.derive_seed(seed, tag, s) for s in range(start, start + count)]


@given(_EDGE_SEEDS, st.integers(0, 10**6), st.sampled_from([1, 3, 40]), st.sampled_from([1, 7, 250]),
       st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_uniform_rows_match_scalar_path(seed, start, rows, count, p):
    # rows x count spans 1 cell up to more than one 8,192-cell block
    seeds = rng.derive_seeds(seed, 11, start, start + rows)
    block = rng.uniform_rows(seeds, count)
    assert block.shape == (rows, count)
    for r, s in enumerate(seeds.tolist()):
        assert np.array_equal(block[r], rng.uniforms(s, count))
        # the block draw of partition rounds
        assert np.array_equal(block[r] < p, rng.bernoulli_mask(s, count, p))
    assert block[:, 0].tolist() == [rng.uniform_at(s, 0) for s in seeds.tolist()]
