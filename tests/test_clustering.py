import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import blas_pinned_env
from driftclust import clustering, tensor
from driftclust.clustering import (CentroidBank, _fill_empty, assign_batch, lloyd_kmeans,
                                   seed_kmeanspp, update_centroid)
from driftclust.metrics import nmi
from driftclust.tensor import DimensionError, SeededRng


def make_blob_features(rng, centers, per_cluster, sigma):
    centers = np.repeat(np.asarray(centers, dtype=np.float64), per_cluster, axis=0)
    points = centers + sigma * rng.gauss(size=centers.shape)
    return points, np.arange(len(centers)) // per_cluster


def test_seed_k1_returns_single_sample():
    feats = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    bank = seed_kmeanspp(feats, 1, SeededRng(5))
    assert bank.k == 1
    assert any(np.array_equal(bank.centroids[0], f) for f in feats)
    assert bank.counts.tolist() == [1]


def test_seed_two_points_forces_both():
    feats = np.array([[0.0, 0.0], [10.0, 10.0]])
    for seed in range(20):
        bank = seed_kmeanspp(feats, 2, SeededRng(seed))
        got = {tuple(c) for c in bank.centroids}
        assert got == {(0.0, 0.0), (10.0, 10.0)}


def test_seed_rejects_insufficient_or_degenerate():
    with pytest.raises(ValueError):
        seed_kmeanspp(np.ones((2, 3)), 5, SeededRng(0))
    with pytest.raises(ValueError):
        seed_kmeanspp(np.ones((10, 3)), 2, SeededRng(0))  # identical samples


@pytest.mark.parametrize("k", [1, 2, 5])
def test_seeding_runs_a_distance_round_per_seed_after_the_first(monkeypatch, k):
    # the distances after the last seed are never read, so no round computes them
    rounds = []
    pool_chunks = clustering.pool_chunks
    monkeypatch.setattr(clustering, "pool_chunks", lambda *args: rounds.append(args) or pool_chunks(*args))
    feats = SeededRng(3).gauss(size=(40, 4))
    bank = seed_kmeanspp(feats, k, SeededRng(5))
    assert len(rounds) == k - 1 and bank.centroids.shape == (k, 4)


def test_seed_covers_separated_blobs():
    # three far-apart blobs: the squared-distance law should pick one seed in
    # each blob nearly always
    rng = SeededRng(123)
    centers = [[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]]
    feats, labels = make_blob_features(rng, centers, 30, 1.0)
    hits = 0
    for trial in range(1000):
        bank = seed_kmeanspp(feats, 3, SeededRng(trial))
        seed_labels = set()
        for c in bank.centroids:
            d2 = ((feats - c) ** 2).sum(axis=1)
            seed_labels.add(labels[int(np.argmin(d2))])
        hits += seed_labels == {0, 1, 2}
    assert hits >= 990


def test_assign_exact_and_tiebreak():
    bank = CentroidBank(np.array([[0.0, 1.0], [1.0, 0.0], [5.0, 5.0]]),
                        np.array([1, 1, 4]))
    # second row is equidistant from centroids 0 and 1
    labels, dists = assign_batch(bank, np.array([[5.0, 5.0], [0.0, 0.0]]))
    assert labels[0] == 2 and dists[0] == 0.0
    assert labels[1] == 0


def test_assign_matches_bruteforce_scan():
    rng = SeededRng(9)
    cents = rng.gauss(size=(5, 4))
    bank = CentroidBank(cents, np.ones(5, dtype=np.int64))
    feats = rng.gauss(size=(50, 4))
    labels, dists = assign_batch(bank, feats)
    for h, label, dist in zip(feats, labels, dists):
        best, best_d = 0, float("inf")
        for i in range(5):
            d = float(((cents[i] - h) ** 2).sum())
            if d < best_d:
                best, best_d = i, d
        assert label == best
        assert dist == pytest.approx(best_d, rel=1e-12)


def test_assign_leaves_bank_untouched():
    cents = np.array([[1.0, 2.0], [3.0, 4.0]])
    bank = CentroidBank(cents.copy(), np.array([2, 3]))
    assign_batch(bank, np.array([[0.0, 0.0]]))
    assert np.array_equal(bank.centroids, cents)
    assert bank.counts.tolist() == [2, 3]


def test_assign_batch_matches_assign(monkeypatch):
    # chunked batches give the same answer as one-row batches; 28 entries
    # per pass make chunks of 7 rows at k=4
    rng = SeededRng(14)
    cents = rng.gauss(size=(4, 6))
    bank = CentroidBank(cents, np.ones(4, dtype=np.int64))
    feats = rng.gauss(size=(33, 6))
    monkeypatch.setattr(clustering, "_PASS_ENTRIES", 28)
    labels, dists = assign_batch(bank, feats)
    for i in range(33):
        single_label, single_dist = assign_batch(bank, feats[i:i + 1])
        assert labels[i] == single_label[0]
        assert dists[i] == pytest.approx(single_dist[0], rel=1e-12)


def test_assign_batch_keeps_the_bits_of_the_expanded_form():
    # the distance block is built in place, with the operations of
    # xx + cc - 2.0 * (x @ C.T) in their order; duplicate centroids tie
    rng = np.random.default_rng(15)
    for _ in range(50):
        cents = rng.normal(size=(10, 128))
        cents[3] = cents[7] = cents[1]
        feats = rng.normal(size=(50, 128))
        feats[:5] = cents[1] + rng.normal(scale=1e-9, size=(5, 128))
        feats[5] = cents[1]
        bank = CentroidBank(cents, np.ones(10, dtype=np.int64))
        xx = np.einsum("ij,ij->i", feats, feats)
        cc = np.einsum("ij,ij->i", cents, cents)
        d2 = np.maximum(xx[:, None] + cc[None, :] - 2.0 * (feats @ cents.T), 0.0)
        expected = np.argmin(d2, axis=1)
        labels, dists = assign_batch(bank, feats)
        assert labels.tobytes() == expected.astype(np.int64).tobytes()
        assert dists.tobytes() == d2[np.arange(50), expected].tobytes()
        assert set(labels[:6]) == {1}


def test_assign_batch_memory_stays_bounded():
    # a chunk x k x dim broadcast temporary would need ~420 MB here; the
    # distance matrix of one chunk is 4096 x 100 doubles (3.3 MB)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(4096, 128))
    bank = CentroidBank(rng.normal(size=(100, 128)), np.ones(100, dtype=np.int64))
    tracemalloc.start()
    try:
        assign_batch(bank, feats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_seed_kmeanspp_memory_stays_bounded():
    # one difference buffer of ROW_CHUNK rows for all k seeds: 1 MiB here,
    # where an n x d buffer was 4 MiB and a fresh one per seed held two (8 MiB)
    feats = np.random.default_rng(1).normal(size=(4096, 128))
    tracemalloc.start()
    try:
        seed_kmeanspp(feats, 10, SeededRng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * feats.nbytes


@pytest.mark.parametrize("rows", [7, 10**6])
def test_seed_kmeanspp_row_bound_leaves_the_seeds(monkeypatch, rows):
    # the difference pass is elementwise and row by row, so any chunking of
    # the rows gives the one-chunk seeds and draws the same random numbers
    feats = np.random.default_rng(2).normal(size=(1000, 12))
    expected_rng = SeededRng(4)
    expected = seed_kmeanspp(feats, 10, expected_rng)
    monkeypatch.setattr(tensor, "ROW_CHUNK", rows)
    rng = SeededRng(4)
    bank = seed_kmeanspp(feats, 10, rng)
    assert bank.centroids.tobytes() == expected.centroids.tobytes()
    assert rng.state() == expected_rng.state()


def test_lloyd_memory_stays_bounded():
    # an n x k distance matrix or one-hot is 80 MB here (320 MB peak when
    # Lloyd built both); passes of 2**20 entries keep each temporary at 8 MiB
    feats = np.random.default_rng(1).normal(size=(20_000, 16))
    tracemalloc.start()
    try:
        lloyd_kmeans(feats, 500, SeededRng(5), max_iters=3, tol=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_seeding_workers_share_one_chunk_of_difference_buffer(pass_workers):
    # 4500 rows of 128 features: one worker's difference buffer is a chunk,
    # 1 MiB; more workers split its rows, and each adds only its thread's
    # bookkeeping, well under an eighth of that
    feats = np.random.default_rng(3).normal(size=(4500, 128))
    peaks = {}
    for workers in (1, 2, 4):
        pass_workers(workers)
        tracemalloc.start()
        try:
            seed_kmeanspp(feats, 10, SeededRng(1))
            _, peaks[workers] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    chunk_bytes = tensor.ROW_CHUNK * 128 * 8
    assert peaks[1] > chunk_bytes
    for workers in (2, 4):
        assert peaks[workers] - peaks[1] < (workers - 1) * chunk_bytes / 8, peaks


def per_row_update(centroids, counts, labels, feats):
    """The per-row streaming-mean oracle: one 1/count step per row, in row order."""
    for label, h in zip(labels, feats):
        counts[label] += 1
        gamma = 1.0 / float(counts[label])
        centroids[label] = (1.0 - gamma) * centroids[label] + gamma * h


def batch_mean_update(centroids, counts, labels, feats):
    """The batch rule, label by label: S = 0.0 + h_1 + h_2 + ... over the
    label's rows in row order, then c <- (n0 * c + S) / (n0 + m)."""
    for label in set(labels):
        rows = [h for lab, h in zip(labels, feats) if lab == label]
        total = np.zeros(centroids.shape[1])
        for h in rows:
            total = total + h
        n0 = counts[label]
        centroids[label] = (n0 * centroids[label] + total) / (n0 + len(rows))
        counts[label] = n0 + len(rows)


@st.composite
def update_batches(draw):
    k = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(1, 30))
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
    centroids = np.array(draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                                       min_size=k, max_size=k)))
    counts = np.array(draw(st.lists(st.integers(1, 100), min_size=k, max_size=k)))
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    feats = np.array(draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                                   min_size=n, max_size=n)))
    return centroids, counts, labels, feats


@settings(max_examples=200, deadline=None)
@given(update_batches())
@example((np.array([[0.0, 1.0]]), np.array([3]), np.array([0]), np.array([[4.0, -2.0]])))
@example((np.array([[0.0], [5.0], [9.0]]), np.array([1, 2, 1]), np.array([2, 0, 2, 2, 0]),
          np.array([[1.0], [2.0], [3.0], [-4.0], [0.5]])))
@example((np.array([[-0.0, 0.0], [0.0, -0.0]]), np.array([1, 4]), np.array([0, 1, 0]),
          np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]])))
# a batch that touches every centroid, and one that leaves two untouched,
# one of them holding -0.0
@example((np.array([[0.5, -1.25], [-0.0, 3.0], [2.0, 7.5]]), np.array([1, 40, 7]),
          np.array([2, 0, 1, 1, 0]), np.array([[1.5, 0.25], [-3.0, 9.0], [0.1, 0.2], [4.0, -0.5], [6.0, 1e3]])))
@example((np.array([[0.5, -1.25], [-0.0, 3.0], [2.0, 7.5]]), np.array([1, 40, 7]),
          np.array([2, 2, 2]), np.array([[1.5, 0.25], [-3.0, 9.0], [0.1, 0.2]])))
def test_update_centroid_batch_matches_per_row_oracle(batch):
    centroids, counts, labels, feats = batch
    bank = CentroidBank(centroids.copy(), counts.copy())
    update_centroid(bank, labels, feats)
    want_c, want_n = centroids.copy(), counts.astype(np.int64)
    batch_mean_update(want_c, want_n, labels.tolist(), feats)
    # bytes, not np.array_equal, which takes -0.0 and +0.0 as equal
    assert bank.centroids.tobytes() == want_c.tobytes()
    assert np.array_equal(bank.counts, want_n)
    untouched = np.setdiff1d(np.arange(len(counts)), labels)
    assert bank.centroids[untouched].tobytes() == centroids[untouched].tobytes()
    # the batch rule is the per-row rule with its rounding done once per batch
    per_row_c = centroids.copy()
    per_row_update(per_row_c, counts.astype(np.int64), labels.tolist(), feats)
    assert np.max(np.abs(bank.centroids - per_row_c)) < 1e-9


def test_update_centroid_takes_any_integer_label_dtype():
    # dim 130: a uint8 label of 2 or more times 130 would wrap past 255
    rng = np.random.default_rng(0)
    centroids, counts = rng.normal(size=(4, 130)), np.array([1, 7, 3, 2])
    labels, feats = [3, 0, 3, 1, 1, 3], rng.normal(size=(6, 130))
    digests = set()
    for labs in [np.array(labels, dtype=t) for t in (np.int32, np.uint8, np.uint64)] + [labels]:
        bank = CentroidBank(centroids.copy(), counts.copy())
        update_centroid(bank, labs, feats)
        digests.add(bank.centroids.tobytes() + bank.counts.tobytes())
    assert len(digests) == 1


def test_update_centroid_empty_batch_leaves_the_bank():
    centroids = np.array([[-0.0, 1.5], [2.0, -3.0]])
    bank = CentroidBank(centroids.copy(), np.array([2, 5]))
    update_centroid(bank, [], np.zeros((0, 2)))
    assert bank.centroids.tobytes() == centroids.tobytes()
    assert bank.counts.tolist() == [2, 5]


UPDATE_DIGEST = """
import hashlib
import numpy as np
from driftclust.clustering import CentroidBank, update_centroid
rng = np.random.default_rng(17)
bank = CentroidBank(rng.normal(size=(10, 128)), rng.integers(1, 500, size=10))
update_centroid(bank, rng.integers(0, 10, size=2000), rng.normal(size=(2000, 128)))
print(hashlib.sha256(bank.centroids.tobytes()).hexdigest())
"""


def test_update_centroid_bits_do_not_depend_on_blas_threads():
    digests = {subprocess.run([sys.executable, "-c", UPDATE_DIGEST], env=blas_pinned_env(threads),
                              capture_output=True, text=True, check=True, timeout=120).stdout
               for threads in (1, 2)}
    assert len(digests) == 1


def test_update_centroid_midpoint_then_tenth():
    bank = CentroidBank(np.array([[1.0, 1.0]]), np.array([1]))
    update_centroid(bank, [0], np.array([[3.0, 3.0]]))
    assert bank.counts.tolist() == [2]
    assert np.allclose(bank.centroids[0], [2.0, 2.0])

    bank2 = CentroidBank(np.array([[0.0, 0.0]]), np.array([9]))
    update_centroid(bank2, [0], np.array([[1.0, 0.0]]))
    assert bank2.counts.tolist() == [10]
    assert np.allclose(bank2.centroids[0], [0.1, 0.0])


def test_update_centroid_telescopes_to_running_mean():
    rng = SeededRng(100)
    points = rng.gauss(size=(200, 3))
    bank = CentroidBank(points[:1].copy(), np.array([1]))
    update_centroid(bank, np.zeros(199, dtype=np.int64), points[1:])
    assert np.max(np.abs(bank.centroids[0] - points.mean(axis=0))) < 1e-9


def test_update_centroid_only_touches_target():
    bank = CentroidBank(np.array([[0.0], [5.0], [9.0]]), np.array([1, 1, 1]))
    update_centroid(bank, [1], np.array([[7.0]]))
    assert bank.centroids[:, 0].tolist() == [0.0, 6.0, 9.0]
    assert bank.counts.tolist() == [1, 2, 1]
    # each label is checked, not the dtype numpy gives the whole list: [0, True]
    # is int64 [0, 1] to numpy, yet its True is no label
    for bad in ([3], [0, -1], [0, True], [0.5], [[0]], np.array([True]), np.array([0, 3])):
        with pytest.raises(ValueError, match="label"):
            update_centroid(bank, bad, np.zeros((len(bad), 1)))
        assert bank.centroids[:, 0].tolist() == [0.0, 6.0, 9.0]  # a rejected batch moves nothing
        assert bank.counts.tolist() == [1, 2, 1]
    # numpy promotes int8 with uint64 to float64, yet both are integer labels
    update_centroid(bank, [np.int8(1), np.uint64(2)], np.array([[0.0], [1.0]]))
    update_centroid(bank, np.array([0], dtype=np.uint8), np.array([[2.0]]))
    assert bank.centroids[:, 0].tolist() == [1.0, 4.0, 5.0]
    assert bank.counts.tolist() == [2, 3, 2]


def test_lloyd_two_points_two_clusters():
    feats = np.array([[0.0, 0.0], [4.0, 4.0]])
    labels, bank = lloyd_kmeans(feats, 2, SeededRng(1))
    assert set(labels.tolist()) == {0, 1}
    got = {tuple(c) for c in bank.centroids}
    assert got == {(0.0, 0.0), (4.0, 4.0)}


def test_lloyd_k1_gives_global_mean():
    rng = SeededRng(2)
    feats = rng.gauss(size=(40, 3))
    labels, bank = lloyd_kmeans(feats, 1, SeededRng(3))
    assert np.allclose(bank.centroids[0], feats.mean(axis=0), atol=1e-12)
    assert np.all(labels == 0)


def independent_lloyd(feats, k, np_rng, iters=100):
    """Full-batch Lloyd written separately, with its own D^2-sampled init
    (plain uniform init falls into split-blob optima too often to serve as a
    ground-truth oracle on this benchmark)."""
    centroids = np.empty((k, feats.shape[1]))
    centroids[0] = feats[np_rng.randint(len(feats))]
    d2 = ((feats - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centroids[j] = feats[np_rng.choice(len(feats), p=d2 / d2.sum())]
        d2 = np.minimum(d2, ((feats - centroids[j]) ** 2).sum(axis=1))
    labels = np.zeros(len(feats), dtype=int)
    for _ in range(iters):
        d2 = ((feats[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new = centroids.copy()
        for j in range(k):
            members = feats[labels == j]
            if len(members):
                new[j] = members.mean(axis=0)
        if np.allclose(new, centroids, atol=1e-12):
            break
        centroids = new
    return labels


def same_partition(a, b):
    return nmi(a, b) == 1.0


def test_lloyd_matches_independent_oracle_on_blobs():
    centers = [[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [0.0, 30.0, 0.0], [0.0, 0.0, 30.0]]
    agreements = 0
    for seed in range(20):
        feats, _ = make_blob_features(SeededRng(seed), centers, 50, 1.0)
        ours, _ = lloyd_kmeans(feats, 4, SeededRng(seed + 1000))
        theirs = independent_lloyd(feats, 4, np.random.RandomState(seed))
        agreements += same_partition(ours, theirs)
    assert agreements >= 19  # >= 95% of seeds agree up to relabeling


def spread_features():
    rng = SeededRng(7)
    return rng.gauss(size=(300, 5)) * 3


def test_lloyd_objective_nonincreasing():
    history = []
    lloyd_kmeans(spread_features(), 6, SeededRng(8), history_out=history)
    assert len(history) == 18  # at the default tol, the fixed-point stop never comes earlier
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_lloyd_stops_at_its_fixed_point():
    feats = spread_features()
    history = []
    labels, bank = lloyd_kmeans(feats, 6, SeededRng(8), max_iters=200, tol=0.0,
                                history_out=history)
    assert len(history) < 200
    # one more sweep assigns the same labels and gives the same centroids bit for bit
    again, _ = assign_batch(bank, feats)
    assert np.array_equal(labels, again)
    onehot = np.eye(6)[again]
    means = (onehot.T @ feats) / onehot.sum(axis=0)[:, None]
    assert means.tobytes() == bank.centroids.tobytes()


def test_lloyd_deterministic():
    rng = SeededRng(90)
    feats = rng.gauss(size=(120, 4))
    la, ba = lloyd_kmeans(feats, 5, SeededRng(42))
    lb, bb = lloyd_kmeans(feats, 5, SeededRng(42))
    assert np.array_equal(la, lb)
    assert np.array_equal(ba.centroids, bb.centroids)


def test_lloyd_survives_forced_empty_cluster():
    # two tight far-apart pairs plus k=3; each k-means++ seed is its own
    # nearest point, so no seeding empties a cluster here (the re-seed is
    # tested with a planted seed below)
    feats = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 50.0], [50.1, 50.0]])
    for seed in range(10):
        labels, bank = lloyd_kmeans(feats, 3, SeededRng(seed))
        assert np.all(np.isfinite(bank.centroids))
        assert labels.shape == (4,)
        assert set(labels.tolist()) <= {0, 1, 2}


def test_lloyd_sums_in_passes_match_one_pass(monkeypatch):
    # 9 entries per pass at k=3: the cluster sums add up 30 passes of 3 rows
    rng = SeededRng(11)
    feats = rng.gauss(size=(90, 5)) * 3
    ref_labels, ref = lloyd_kmeans(feats, 3, SeededRng(4))
    monkeypatch.setattr(clustering, "_PASS_ENTRIES", 9)
    labels, bank = lloyd_kmeans(feats, 3, SeededRng(4))
    assert np.array_equal(labels, ref_labels)
    assert np.allclose(bank.centroids, ref.centroids, rtol=0, atol=1e-12)
    assert bank.counts.tolist() == ref.counts.tolist()


def test_lloyd_reseeds_an_emptied_cluster_to_the_farthest_point(monkeypatch):
    # seed 1000 is no row's nearest centroid, so the first sweep empties it and
    # re-seeds it to the row farthest from its centroid: rows 1 and 3 both sit
    # at distance 1, and the lower index wins
    feats = np.array([[0.0], [1.0], [10.0], [11.0]])
    seeded = CentroidBank(np.array([[0.0], [10.0], [1000.0]]), np.ones(3, dtype=np.int64))
    monkeypatch.setattr(clustering, "seed_kmeanspp", lambda x, k, rng: seeded)
    labels, bank = lloyd_kmeans(feats, 3, SeededRng(0))
    assert bank is seeded
    assert labels.tolist() == [0, 2, 1, 1]
    assert bank.centroids[:, 0].tolist() == [0.0, 10.5, 1.0]
    assert bank.counts.tolist() == [1, 2, 1]


def test_fill_empty_moves_the_farthest_rows_and_refills_an_emptied_donor():
    labels, dists = np.array([0, 0, 0, 0, 2]), np.array([0.0, 0.0, 0.0, 0.0, 1600.0])
    filled, counts = _fill_empty(labels, dists, 3)
    # row 4 fills cluster 1 and so empties cluster 2, which takes the
    # farthest row left (all at 0: the lowest index)
    assert filled.tolist() == [2, 0, 0, 0, 1]
    assert counts.tolist() == [3, 1, 1]
    assert labels.tolist() == [0, 0, 0, 0, 2] and dists.tolist() == [0.0] * 4 + [1600.0]
    # two empty clusters and no chain: the farthest row goes to the lower one
    filled, counts = _fill_empty(np.array([1, 1, 1, 1]), np.array([4.0, 9.0, 1.0, 9.0]), 3)
    assert filled.tolist() == [1, 0, 1, 2] and counts.tolist() == [1, 2, 1]
    full = np.array([1, 0, 1])
    filled, counts = _fill_empty(full, np.array([1.0, 2.0, 3.0]), 2)
    assert filled is full and counts.tolist() == [1, 2]


def test_lloyd_refills_a_cluster_that_its_refill_empties(monkeypatch):
    # seed 10 is no row's nearest centroid; the farthest row (60) refills it
    # and so empties seed 100's cluster, which takes a row at 0 in turn
    feats = np.array([[0.0], [0.0], [0.0], [0.0], [60.0]])
    seeded = CentroidBank(np.array([[0.0], [10.0], [100.0]]), np.ones(3, dtype=np.int64))
    monkeypatch.setattr(clustering, "seed_kmeanspp", lambda x, k, rng: seeded)
    history = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels, bank = lloyd_kmeans(feats, 3, SeededRng(0), history_out=history)
    assert bank.centroids[:, 0].tolist() == [0.0, 60.0, 0.0]
    # the second sweep refills cluster 2 with the same row: a fixed point,
    # whose labels, before the refill, tie cluster 2 to the lower cluster 0
    assert labels.tolist() == [0, 0, 0, 0, 1]
    assert len(history) == 2
    assert bank.counts.tolist() == [4, 1, 1]


@pytest.mark.parametrize("tol,iters,extra", [
    (0.0, 200, 0),  # a fixed point: the last sweep's labels are the final ones
    (0.2, 200, 1),  # stopped by tol after 8 sweeps, on centroids that still moved
    (0.0, 2, 1),  # stopped by max_iters
])
def test_lloyd_assigns_once_more_only_when_it_stops_short_of_a_fixed_point(monkeypatch, tol, iters,
                                                                            extra):
    feats = spread_features()
    calls = []
    assign_pass = clustering.assign_pass

    def counting(*args):
        calls.append(1)
        return assign_pass(*args)

    monkeypatch.setattr(clustering, "assign_pass", counting)
    history = []
    labels, bank = lloyd_kmeans(feats, 6, SeededRng(8), max_iters=iters, tol=tol, history_out=history)
    assert len(history) < iters or iters == 2
    assert len(calls) == len(history) + extra
    assert labels.tobytes() == assign_batch(bank, feats)[0].tobytes()


def test_seeding_rounds_and_lloyd_sweeps_share_their_worker_threads(monkeypatch, pass_workers):
    # each k-means++ round and each Lloyd sweep is a pass over the same 4500
    # rows; seeding and Lloyd each keep one executor for all of theirs, so
    # the 9 rounds and the sweeps run on the calling thread and two workers
    pass_workers(2)
    threads, pool_chunks = set(), clustering.pool_chunks

    def recording(n, size, work, *args):
        def traced(rows, scratch):
            threads.add(threading.current_thread())
            work(rows, scratch)
        pool_chunks(n, size, traced, *args)

    monkeypatch.setattr(clustering, "pool_chunks", recording)
    history = []
    lloyd_kmeans(np.random.default_rng(5).normal(size=(4500, 16)), 10, SeededRng(2), max_iters=8,
                 tol=0.0, history_out=history)
    assert len(history) > 2 and len(threads) == 3 and threading.main_thread() in threads


CHUNKED_ASSIGN = """
import numpy as np
from driftclust.clustering import CentroidBank, assign_batch, assign_pass
rng = np.random.default_rng(23)
x = np.maximum(rng.normal(size=(5000, 128)), 0.0)
xx = np.einsum("ij,ij->i", x, x)
for k in (2, 10, 50):
    rows = rng.choice(5000, k, replace=False)
    bank = CentroidBank(x[rows] + rng.normal(scale=0.1, size=(k, 128)), np.ones(k, dtype=np.int64))
    whole = assign_batch(bank, x)
    for sq_norms in (xx, None):
        chunked = assign_pass(5000, bank, lambda rows, scratch: x[rows], sq_norms)
        print(k, all(a.tobytes() == b.tobytes() for a, b in zip(whole, chunked)))
"""


def test_chunked_assignment_has_the_bits_of_the_whole_set_block():
    # 5000 rows in row_chunks, against assign_batch's one block of 5000 rows
    for threads in (1, 2):
        out = subprocess.run([sys.executable, "-c", CHUNKED_ASSIGN], env=blas_pinned_env(threads),
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert out.split("\n")[:-1] == [f"{k} True" for k in (2, 2, 10, 10, 50, 50)], (threads, out)


def test_bank_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        CentroidBank(np.ones(3), np.array([1]))
    with pytest.raises(ValueError):
        CentroidBank(np.ones((2, 2)), np.array([1, -1]))
    for counts in ([1.5, 2], [1, np.nan], [1, 1e30]):
        with pytest.raises(ValueError):
            CentroidBank(np.ones((2, 2)), np.array(counts))
    assert CentroidBank(np.ones((2, 2)), np.array([1.0, 2.0])).counts.tolist() == [1, 2]
    with pytest.raises(ValueError):
        CentroidBank(np.array([[np.nan, 1.0]]), np.array([1]))
