import hashlib

import numpy as np
import pytest

from driftclust.tensor import DimensionError, SeededRng, matrix


def test_vector_and_matrix_validation():
    with pytest.raises(DimensionError):
        matrix([1.0, 2.0])
    m = matrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.flags["C_CONTIGUOUS"] and m.dtype == np.float64
    with pytest.raises(ValueError):
        matrix([[np.inf, 0.0]])


def test_rng_streams_are_reproducible():
    # byte-identical streams of one million draws from the same seed
    def digest(seed):
        rng = SeededRng(seed)
        h = hashlib.sha256()
        for _ in range(1_000_000):
            h.update(rng.next_u64().to_bytes(8, "little"))
        return h.hexdigest()

    assert digest(1234) == digest(1234)
    assert digest(1234) != digest(1235)


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


def test_rng_state_roundtrip():
    rng = SeededRng(99)
    for _ in range(10):
        rng.next_u64()
    saved = rng.state()
    expected = [rng.next_u64() for _ in range(5)]
    rng2 = SeededRng(0)
    rng2.set_state(saved)
    assert [rng2.next_u64() for _ in range(5)] == expected
