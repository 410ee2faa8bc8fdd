import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftclust import tensor
from driftclust.tensor import _LANES, ROW_CHUNK, DimensionError, SeededRng, matrix, row_chunks

MASK = (1 << 64) - 1


def test_vector_and_matrix_validation():
    with pytest.raises(DimensionError):
        matrix([1.0, 2.0])
    m = matrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.flags["C_CONTIGUOUS"] and m.dtype == np.float64
    with pytest.raises(ValueError):
        matrix([[np.inf, 0.0]])


@pytest.mark.parametrize("n", [1, 7, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK, 5000])
def test_row_chunks_cover_the_rows_in_order_with_no_short_chunk(n):
    chunks = row_chunks(n)
    # a short chunk would take OpenBLAS's small-product kernel, and its bits
    assert [rows.stop - rows.start for rows in chunks] == [min(n, ROW_CHUNK)] * len(chunks)
    starts = [rows.start for rows in chunks]
    assert starts[0] == 0 and chunks[-1].stop == n and starts == sorted(set(starts))
    assert all(nxt.start <= rows.stop for rows, nxt in zip(chunks, chunks[1:]))  # no gap
    assert len(chunks) == -(-n // ROW_CHUNK)


def test_rng_streams_are_reproducible():
    # byte-identical streams of one million draws from the same seed; the pin
    # is the digest of one million scalar next_u64 words
    def digest(seed):
        return hashlib.sha256(SeededRng(seed).raw(1_000_000).astype("<u8").tobytes()).hexdigest()

    assert digest(1234) == digest(1234)
    assert digest(1234) != digest(1235)
    assert digest(1234) == "876186e58b62c140f5b9361d57cc2e8e84de3fee189151d8c8a0ba9b884fb700"


def test_rng_known_good_values():
    # frozen from this generator; guards against accidental recurrence edits
    rng = SeededRng(42)
    assert [rng.next_u64() for _ in range(3)] == [
        13696896915399030466, 12641092763546669283, 14580102322132234639]


def test_rng_random_range_and_uniform():
    rng = SeededRng(7)
    draws = [rng.random() for _ in range(10_000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert abs(np.mean(draws) - 0.5) < 0.02
    lo, hi = -3.0, 5.0
    assert all(lo <= rng.uniform(lo, hi) < hi for _ in range(1000))


def test_rng_randint_unbiased_small_n():
    rng = SeededRng(3)
    counts = np.zeros(7, dtype=int)
    for _ in range(70_000):
        counts[rng.randint(7)] += 1
    assert counts.min() > 9_000  # each bucket near 10k


def test_rng_shuffle_is_permutation():
    rng = SeededRng(21)
    seq = list(range(500))
    rng.shuffle(seq)
    assert sorted(seq) == list(range(500))
    assert seq != list(range(500))


def test_rng_gauss_moments():
    rng = SeededRng(17)
    draws = np.array([rng.gauss() for _ in range(50_000)])
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_rng_weighted_index_follows_weights():
    rng = SeededRng(77)
    weights = np.array([0.0, 1.0, 3.0])
    counts = np.zeros(3, dtype=int)
    for _ in range(40_000):
        counts[rng.weighted_index(weights)] += 1
    assert counts[0] == 0
    assert abs(counts[2] / counts[1] - 3.0) < 0.15
    with pytest.raises(ValueError):
        rng.weighted_index(np.zeros(4))
    rng.random = lambda: 0.0  # finite weights summing to inf: 0.0 * inf is a nan draw
    with pytest.raises(ValueError, match="positive finite total"):
        rng.weighted_index(np.array([1e308, 1e308]))


@pytest.mark.parametrize("weights,last_positive", [
    ([0.1] * 10 + [0.0], 9),  # w.sum() is 1.0, the sequential sum 0.9999999999999999
    ([5e-324, 0.0], 0),       # a subnormal total: u * total rounds up to total
])
def test_rng_weighted_index_never_picks_a_zero_weight(monkeypatch, weights, last_positive):
    # the largest draw random() can return lands on the last positive weight
    rng = SeededRng(0)
    monkeypatch.setattr(rng, "random", lambda: 1.0 - 2.0 ** -53)
    assert rng.weighted_index(np.array(weights)) == last_positive


def test_rng_state_roundtrip():
    rng = SeededRng(99)
    for _ in range(10):
        rng.next_u64()
    saved = rng.state()
    expected = [rng.next_u64() for _ in range(5)]
    rng2 = SeededRng(0)
    rng2.set_state(saved)
    assert [rng2.next_u64() for _ in range(5)] == expected


# --- bulk draws against the scalar reference --------------------------------

def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK


def _step_back(state):
    """Inverse of one xoshiro256** state update."""
    a0, a1, a2, a3 = state
    x3 = _rotl(a3, 64 - 45)  # s3 ^ s1
    s0 = a0 ^ x3
    v = a1 ^ a2  # s1 ^ (s1 << 17)
    s1 = (v ^ (v << 17) ^ (v << 34) ^ (v << 51)) & MASK
    return (s0, s1, a1 ^ s1 ^ s0, x3 ^ s1)


def _planted(state, position, word):
    """A state whose stream yields `word` at `position` (0-based): `state`
    with its s1 solved for `word`, then stepped back `position` times."""
    x = _rotl((word * pow(9, -1, 1 << 64)) & MASK, 64 - 7)
    state = (state[0], (x * pow(5, -1, 1 << 64)) & MASK, state[2], state[3])
    for _ in range(position):
        state = _step_back(state)
    return state


def _rngs(state):
    bulk, scalar = SeededRng(0), SeededRng(0)
    bulk.set_state(state)
    scalar.set_state(state)
    return bulk, scalar


def _scalar_shuffle(rng, seq):
    for i in range(len(seq) - 1, 0, -1):
        j = rng.randint(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


# the all-zero state is a fixed point that seeding never produces
STATES = st.tuples(*[st.integers(0, MASK)] * 4).filter(any)
# planting replaces s1, so s0, s2 and s3 must keep the state nonzero
PLANT_STATES = STATES.filter(lambda s: s[0] | s[2] | s[3])
# raw(n) steps lanes of about sqrt(n) words, LANE for n under 512 and _LANES
# from 2**18 on, at most _LANES lanes per pass, so PASS words is the most
# one pass yields
LANE, PASS = 16, _LANES * _LANES
# one word, around one lane, several lanes, and (for gauss's two words an
# item) more than one bulk pass
SIZES = st.sampled_from([1, LANE - 1, LANE, LANE + 1, 7 * LANE + 5, PASS // 2 + LANE + 1])
POSITIONS = st.sampled_from([0, 1, LANE - 1, LANE, 3 * LANE + 2, PASS // 2 - 1, PASS // 2 + 2])


def test_step_back_inverts_next_u64():
    rng = SeededRng(5)
    before = rng.state()
    rng.next_u64()
    assert _step_back(rng.state()) == before
    for word in (0, MASK, 12345):
        bulk, _ = _rngs(_planted(before, 3, word))
        assert [bulk.next_u64() for _ in range(4)][3] == word


@settings(max_examples=30, deadline=None)
@given(STATES, SIZES)
def test_raw_matches_next_u64(state, n):
    bulk, scalar = _rngs(state)
    assert bulk.raw(n).tolist() == [scalar.next_u64() for _ in range(n)]
    assert bulk.state() == scalar.state()


@pytest.mark.parametrize("n", [1, 15, 16, 17, 255, 256, 257, 8191, 8192, 8193, PASS - 1, PASS + 1, 10 ** 6 + 3])
def test_raw_matches_next_u64_at_lane_and_pass_boundaries(cold_jumps, n):
    # the lane grows from 16 to 32 words at n = 512 and to 128 at 8192; PASS
    # words fill one pass, and 10**6 + 3 ends in a partial pass and lane
    bulk, scalar = SeededRng(n), SeededRng(n)
    assert bulk.raw(n).tolist() == [scalar.next_u64() for _ in range(n)]
    assert bulk.state() == scalar.state()


def test_raw_holds_one_pass_of_temporaries_and_caches_packed_bits(cold_jumps):
    n = 10 ** 6
    tracemalloc.start()
    try:
        words = SeededRng(3).raw(n)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words.size == n
    # one pass of words (2 MiB) and the ladder's products beside the output
    assert peak - 8 * n < 3 * 2 ** 20
    # what outlives the call besides the output (padded to whole lanes) is the
    # packed ladder, 8 KiB a rung, never float copies of it (256 KiB a rung):
    # J_16 up to J_2**17, the jump to the last lane of a full pass
    rungs = tensor._jump.cache_info().currsize
    ladder = [tensor._jump(i) for i in range(4, 18)]
    assert tensor._jump.cache_info().currsize == rungs == len(ladder)
    assert all(m.shape == (256, 32) and m.dtype == np.uint8 for m in ladder)
    assert kept - 8 * n < 8 * _LANES + rungs * 9 * 2 ** 10


@settings(max_examples=20, deadline=None)
@given(STATES, SIZES)
def test_bulk_gauss_uniform_and_shuffle_match_scalar_helpers(state, n):
    bulk, scalar = _rngs(state)
    assert bulk.gauss(size=n).tolist() == [scalar.gauss() for _ in range(n)]
    assert bulk.gauss(0.5, 3.0, size=(1, n)).ravel().tolist() == [scalar.gauss(0.5, 3.0) for _ in range(n)]
    assert bulk.uniform(-0.3, 2.0, size=n).tolist() == [scalar.uniform(-0.3, 2.0) for _ in range(n)]
    seq_bulk, seq_scalar = list(range(n)), list(range(n))
    bulk.shuffle(seq_bulk)
    _scalar_shuffle(scalar, seq_scalar)
    assert seq_bulk == seq_scalar
    assert bulk.state() == scalar.state()


@settings(max_examples=15, deadline=None)
@given(PLANT_STATES, POSITIONS)
def test_bulk_gauss_redraws_a_zero_u1_like_the_scalar_helper(state, item):
    # the word at 2 * item is item's u1; 0 makes the scalar helper draw u1 again
    bulk, scalar = _rngs(_planted(state, 2 * item, 0))
    n = item + 5
    assert bulk.gauss(size=n).tolist() == [scalar.gauss() for _ in range(n)]
    assert bulk.state() == scalar.state()


@settings(max_examples=15, deadline=None)
@given(PLANT_STATES, POSITIONS)
def test_bulk_shuffle_rejects_the_top_word_like_randint(state, draw):
    # draw p of a shuffle of n items is randint(n - p); with n - p = 10, not a
    # power of two, randint rejects 2**64 - 1 and draws again
    bulk, scalar = _rngs(_planted(state, draw, MASK))
    seq_bulk, seq_scalar = list(range(draw + 10)), list(range(draw + 10))
    bulk.shuffle(seq_bulk)
    _scalar_shuffle(scalar, seq_scalar)
    assert seq_bulk == seq_scalar
    assert bulk.state() == scalar.state()
