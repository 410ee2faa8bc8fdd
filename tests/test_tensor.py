import hashlib
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MASK, blas_pinned_env, planted, rotl, step_back
from driftclust import tensor
from driftclust.tensor import _LANES, ROW_CHUNK, DimensionError, SeededRng, label_array, matrix, row_chunks


def test_vector_and_matrix_validation():
    with pytest.raises(DimensionError):
        matrix([1.0, 2.0])
    m = matrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.flags["C_CONTIGUOUS"] and m.dtype == np.float64
    with pytest.raises(ValueError):
        matrix([[np.inf, 0.0]])


def test_label_array_checks_integer_arrays_whole_and_other_sequences_label_by_label():
    for labels in ([2, 0, 2], [np.int8(2), np.uint64(0), 2], np.array([2, 0, 2], dtype=np.uint8),
                   np.array([2, 0, 2], dtype=np.uint64), (2, 0, np.array(2))):
        got = label_array(labels, 3)
        assert got.dtype == np.int64 and got.tolist() == [2, 0, 2]
    assert label_array([], 3).tolist() == [] and label_array(np.array([], dtype=np.int8), 3).size == 0
    for bad, name in [([0, True], "True"), ([0.0], "0.0"), ([[0]], "[0]"), (np.array([True]), "np.True_"),
                      (np.array([1, -1, 4]), "-1"), (np.array([3], dtype=np.uint64), "3"), ([1, 3], "3")]:
        with pytest.raises(ValueError, match=re.escape(f"label {name} is not an integer in [0, 3)")):
            label_array(bad, 3)


@pytest.mark.parametrize("n", [1, 7, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK, 5000])
def test_row_chunks_cover_the_rows_in_order_with_no_short_chunk(n):
    chunks = row_chunks(n)
    # a short chunk would take OpenBLAS's small-product kernel, and its bits
    assert [rows.stop - rows.start for rows in chunks] == [min(n, ROW_CHUNK)] * len(chunks)
    starts = [rows.start for rows in chunks]
    assert starts[0] == 0 and chunks[-1].stop == n and starts == sorted(set(starts))
    assert all(nxt.start <= rows.stop for rows, nxt in zip(chunks, chunks[1:]))  # no gap
    assert len(chunks) == -(-n // ROW_CHUNK)


def test_row_chunks_take_a_chunk_length_and_make_none_of_no_rows():
    assert row_chunks(0) == [] and row_chunks(0, 32) == []
    assert row_chunks(9, 32) == [slice(0, 9)]
    assert row_chunks(64, 32) == [slice(0, 32), slice(32, 64)]
    assert row_chunks(73, 32) == [slice(0, 32), slice(32, 64), slice(41, 73)]


# --- the stream oracle --------------------------------------------------------

class Xoshiro:
    """The stream oracle: the xoshiro256** recurrence of SeededRng's
    docstring on Python ints, one word a call, and each draw made from it
    word by word, a rejected word followed by the next."""

    def __init__(self, state):
        self.s = list(state)

    def state(self):
        return tuple(self.s)

    def next_u64(self):
        s = self.s
        result = (rotl((s[1] * 5) & MASK, 7) * 9) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        return result

    def random(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randint(self, n):
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def gauss(self, n):
        """n draws: each item's u1 drawn until it is not 0, then its u2,
        through SeededRng's transform (checked against math's below)."""
        pairs = []
        for _ in range(n):
            u1 = self.random()
            while u1 == 0.0:
                u1 = self.random()
            pairs.append((u1, self.random()))
        u = np.array(pairs).reshape(n, 2)
        return tensor._box_muller(u[:, 0], u[:, 1]).tolist()

    def shuffle(self, seq):
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def _rngs(state):
    bulk = SeededRng(0)
    bulk.set_state(state)
    return bulk, Xoshiro(state)


# --- the generator -------------------------------------------------------------

def test_rng_streams_are_reproducible():
    # byte-identical streams of one million draws from the same seed, pinned
    # to the digest of one million oracle words
    def digest(words):
        return hashlib.sha256(np.asarray(words, dtype="<u8").tobytes()).hexdigest()

    pin = "876186e58b62c140f5b9361d57cc2e8e84de3fee189151d8c8a0ba9b884fb700"
    oracle = Xoshiro(SeededRng(1234).state())
    assert digest([oracle.next_u64() for _ in range(1_000_000)]) == pin
    assert digest(SeededRng(1234).raw(1_000_000)) == digest(SeededRng(1234).raw(1_000_000)) == pin
    assert digest(SeededRng(1235).raw(1_000_000)) != pin


def test_rng_known_good_values():
    # frozen from this generator; guards against accidental recurrence edits
    words = [13696896915399030466, 12641092763546669283, 14580102322132234639]
    oracle = Xoshiro(SeededRng(42).state())
    assert [oracle.next_u64() for _ in range(3)] == words
    assert SeededRng(42).raw(3).tolist() == words


def test_rng_random_range_and_uniform():
    rng = SeededRng(7)
    draws = [rng.random() for _ in range(10_000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert abs(np.mean(draws) - 0.5) < 0.02
    lo, hi = -3.0, 5.0
    draws = rng.uniform(lo, hi, size=1000)
    assert np.all((lo <= draws) & (draws < hi))


def test_rng_randint_unbiased_small_n():
    # 70,000 randint(7) draws, made at once through randint's own _below
    counts = np.bincount(SeededRng(3)._below(np.full(70_000, 7, dtype=np.uint64)).astype(np.int64), minlength=7)
    assert counts.size == 7 and counts.min() > 9_000  # each bucket near 10k


def test_rng_shuffle_is_permutation():
    rng = SeededRng(21)
    seq = list(range(500))
    rng.shuffle(seq)
    assert sorted(seq) == list(range(500))
    assert seq != list(range(500))


def test_rng_gauss_moments():
    draws = SeededRng(17).gauss(size=50_000)
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
    rng.raw(10)
    saved = rng.state()
    expected = rng.raw(5).tolist()
    rng2 = SeededRng(0)
    rng2.set_state(saved)
    assert rng2.raw(5).tolist() == expected
    oracle = Xoshiro(saved)
    assert [oracle.next_u64() for _ in range(5)] == expected
    assert rng2.state() == oracle.state()


# --- bulk draws against the oracle ---------------------------------------------

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
GAUSS_SLICE = 64  # items per raw draw of a gauss, patched down from tensor._GAUSS_SLICE


def test_step_back_inverts_next_u64():
    oracle = Xoshiro(SeededRng(5).state())
    before = oracle.state()
    oracle.next_u64()
    assert step_back(oracle.state()) == before
    for words in ((0,), (MASK,), (12345,), (0, 0), (MASK, 7)):
        bulk, _ = _rngs(planted(before, 3, *words))
        assert tuple(bulk.raw(5).tolist()[3:3 + len(words)]) == words


@settings(max_examples=30, deadline=None)
@given(STATES, SIZES)
def test_raw_matches_next_u64(state, n):
    bulk, oracle = _rngs(state)
    assert bulk.raw(n).tolist() == [oracle.next_u64() for _ in range(n)]
    assert bulk.state() == oracle.state()


@pytest.mark.parametrize("n", [1, 15, 16, 17, 255, 256, 257, 8191, 8192, 8193, PASS - 1, PASS + 1, 10 ** 6 + 3])
def test_raw_matches_next_u64_at_lane_and_pass_boundaries(cold_jumps, n):
    # the lane grows from 16 to 32 words at n = 512 and to 128 at 8192; PASS
    # words fill one pass, and 10**6 + 3 ends in a partial pass and lane
    bulk, oracle = _rngs(SeededRng(n).state())
    assert bulk.raw(n).tolist() == [oracle.next_u64() for _ in range(n)]
    assert bulk.state() == oracle.state()


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


# (items a slice, most bytes beside the output) of a gauss of 10**6 items:
# one slice of words, 16 bytes an item, and raw's pass temporaries, up to 3
# MiB (see above) for a full pass and one more copy of the words for less
@pytest.mark.parametrize("slice_items,beside", [(None, 16 * 10 ** 6 + 3 * 2 ** 20),
                                                (2 ** 16, 2 * 16 * 2 ** 16 + 2 ** 18)])
def test_gauss_holds_at_most_one_slice_of_words_beside_its_output(monkeypatch, slice_items, beside):
    n = 10 ** 6
    if slice_items is not None:  # 16 slices, not one
        monkeypatch.setattr(tensor, "_GAUSS_SLICE", slice_items)
    SeededRng(1).gauss(size=n)  # the jump ladder, which outlives the call
    tracemalloc.start()
    try:
        draws = SeededRng(3).gauss(size=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draws.size == n
    # never a float per word of the whole draw, nor two slices of words
    assert peak - 8 * n < beside


@settings(max_examples=20, deadline=None)
@given(STATES, SIZES)
def test_bulk_gauss_uniform_and_shuffle_match_scalar_helpers(state, n):
    # every draw against the oracle's word-by-word one, and the state after them
    bulk, oracle = _rngs(state)
    assert bulk.gauss(size=n).tolist() == oracle.gauss(n)
    assert bulk.gauss(size=(1, n)).ravel().tolist() == oracle.gauss(n)
    lo, hi = -0.3, 2.0
    assert bulk.uniform(lo, hi, size=n).tolist() == [lo + (hi - lo) * oracle.random() for _ in range(n)]
    assert [bulk.random(), bulk.randint(n), bulk.randint(10)] == \
        [oracle.random(), oracle.randint(n), oracle.randint(10)]
    seq_bulk, seq_oracle = list(range(n)), list(range(n))
    bulk.shuffle(seq_bulk)
    oracle.shuffle(seq_oracle)
    assert seq_bulk == seq_oracle
    assert bulk.state() == oracle.state()


@settings(max_examples=15, deadline=None)
@given(PLANT_STATES, POSITIONS)
def test_bulk_gauss_redraws_a_zero_u1_like_the_scalar_helper(state, item):
    # the word at 2 * item is item's u1; 0 makes the oracle draw u1 again
    bulk, oracle = _rngs(planted(state, 2 * item, 0))
    n = item + 5
    assert bulk.gauss(size=n).tolist() == oracle.gauss(n)
    assert bulk.state() == oracle.state()


@pytest.mark.parametrize("item", [0, 1, LANE - 1, LANE, 3 * LANE + 2])
def test_bulk_gauss_redraws_a_u1_that_is_0_again(item):
    # item's u1 is 0 and so is the word after it, drawn as u1 in its place
    bulk, oracle = _rngs(planted(SeededRng(item).state(), 2 * item, 0, 0))
    n = item + 5
    assert bulk.gauss(size=n).tolist() == oracle.gauss(n)
    assert bulk.state() == oracle.state()


@pytest.mark.parametrize("words", [(0,), (0, 0)])
@pytest.mark.parametrize("item", [0, GAUSS_SLICE - 1, GAUSS_SLICE, 2 * GAUSS_SLICE - 1])
def test_gauss_slices_take_the_words_of_one_draw(monkeypatch, item, words):
    # a zero u1 (and a zero in its place) at the ends of slices of 64 items:
    # a slice's redraw takes the word that would start the next slice
    monkeypatch.setattr(tensor, "_GAUSS_SLICE", GAUSS_SLICE)
    bulk, oracle = _rngs(planted(SeededRng(item).state(), 2 * item, *words))
    n = 2 * GAUSS_SLICE + 5
    assert bulk.gauss(size=n).tolist() == oracle.gauss(n)
    assert bulk.state() == oracle.state()


@settings(max_examples=15, deadline=None)
@given(PLANT_STATES, POSITIONS)
def test_bulk_shuffle_rejects_the_top_word_like_randint(state, draw):
    # draw p of a shuffle of n items is randint(n - p); with n - p = 10, not a
    # power of two, randint rejects 2**64 - 1 and draws again
    bulk, oracle = _rngs(planted(state, draw, MASK))
    seq_bulk, seq_oracle = list(range(draw + 10)), list(range(draw + 10))
    bulk.shuffle(seq_bulk)
    oracle.shuffle(seq_oracle)
    assert seq_bulk == seq_oracle
    assert bulk.state() == oracle.state()


@pytest.mark.parametrize("draw", [0, 1, LANE])
def test_bulk_shuffle_judges_the_words_after_a_redraw_in_their_new_places(draw):
    # draw p, randint(10), rejects 2**64 - 1; the next word, 2**64 - 7, is
    # above randint(9)'s limit but not randint(10)'s, so it is kept in p's place
    bulk, oracle = _rngs(planted(SeededRng(draw).state(), draw, MASK, MASK - 6))
    seq_bulk, seq_oracle = list(range(draw + 10)), list(range(draw + 10))
    bulk.shuffle(seq_bulk)
    oracle.shuffle(seq_oracle)
    assert seq_bulk == seq_oracle
    assert bulk.state() == oracle.state()


@pytest.mark.parametrize("position", [0, 1, LANE])
@pytest.mark.parametrize("words", [(MASK,), (MASK, MASK), (MASK, 3)])
def test_randint_rejects_the_top_word_like_the_oracle(position, words):
    # randint(10) rejects 2**64 - 1 and draws again, twice when the next word is it too
    bulk, oracle = _rngs(planted(SeededRng(position).state(), position, *words))
    assert [bulk.randint(10) for _ in range(position + 3)] == [oracle.randint(10) for _ in range(position + 3)]
    assert bulk.state() == oracle.state()


# --- gauss against math's log and cos ----------------------------------------

GAUSS_ULPS = 4  # the transform's bound; 3 is the largest distance measured


def _ulps(a, b):
    """Distance between float64 arrays in units in the last place: how many
    doubles lie between each pair, counted through zero."""
    def rank(x):
        i = np.asarray(x, dtype=np.float64).view(np.int64)
        return np.where(i < 0, np.int64(-2 ** 63) - i, i)
    return np.abs(rank(a) - rank(b))


def _math_box_muller(words):
    """Box-Muller through math.log and math.cos on pairs of words (u1, u2)."""
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return np.array([math.sqrt(-2 * math.log(u1)) * math.cos(2 * math.pi * u2)
                     for u1, u2 in u.reshape(-1, 2).tolist()])


def test_gauss_is_within_the_ulp_bound_of_math_log_and_cos():
    n = 250_000
    for seed in range(4):  # 10**6 draws
        words = SeededRng(seed).raw(2 * n)
        assert np.all(words[0::2] >> np.uint64(11) > 0)  # no u1 of 0, so no redraw
        assert _ulps(SeededRng(seed).gauss(size=n), _math_box_muller(words)).max() <= GAUSS_ULPS


# u1 = 2^-53 and 1 - 2^-53 (the largest and smallest radius), u2 = 0, 1/4, 1/2
# and 3/4 (cos = 1, its zeros, -1); dataio.gen_blobs and backbone._unit_rows
# rely on a draw never being 0.0
U1_EDGES = {2.0 ** -53: 1 << 11, 1 - 2.0 ** -53: MASK}
U2_EDGES = {0.0: 0, 0.25: 1 << 62, 0.5: 1 << 63, 0.75: 3 << 62}


def test_gauss_edge_words_give_finite_nonzero_draws_within_the_bound():
    start = SeededRng(8).state()
    edges = [(0, word) for word in U1_EDGES.values()] + [(1, word) for word in U2_EDGES.values()]
    for position, word in edges:  # item 2's u1 or u2
        bulk, oracle = _rngs(planted(start, 4 + position, word))
        draws, words = bulk.gauss(size=4), np.array([oracle.next_u64() for _ in range(8)], dtype=np.uint64)
        assert words[4 + position] == word
        assert np.all(np.isfinite(draws)) and np.all(draws != 0.0)
        assert _ulps(draws, _math_box_muller(words)).max() <= GAUSS_ULPS
    # both at once, every pair through the transform
    u1, u2 = (np.ravel(u) for u in np.meshgrid(list(U1_EDGES), list(U2_EDGES)))
    draws = tensor._box_muller(u1, u2)
    assert np.all(np.isfinite(draws)) and np.all(draws != 0.0)
    expected = [math.sqrt(-2 * math.log(a)) * math.cos(2 * math.pi * b) for a, b in zip(u1.tolist(), u2.tolist())]
    assert _ulps(draws, expected).max() <= GAUSS_ULPS


GAUSS_DIGEST = """\
import hashlib
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from driftclust.tensor import SeededRng
print(*[f for f in __cpu_dispatch__ if __cpu_features__[f]],
      hashlib.sha256(SeededRng(7).gauss(size=10 ** 5).tobytes()).hexdigest())
"""


def test_gauss_bytes_do_not_depend_on_numpy_cpu_dispatch():
    # the same draws with numpy's SIMD loops for every feature above its
    # baseline, and with none of them
    cpu = pytest.importorskip("numpy._core._multiarray_umath")
    enabled = [f for f in cpu.__cpu_dispatch__ if cpu.__cpu_features__[f]]
    if not enabled:
        pytest.skip("numpy dispatches to no CPU feature beyond its baseline on this host")
    outputs = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(enabled)}):
        env = {k: v for k, v in blas_pinned_env(1).items() if not k.startswith("NPY_")}
        proc = subprocess.run([sys.executable, "-c", GAUSS_DIGEST], env=dict(env, **disabled),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-3000:]
        outputs.append(proc.stdout.split())
    (*features, digest), (*features_left, digest_without) = outputs
    assert features == enabled and features_left == []
    assert digest_without == digest
