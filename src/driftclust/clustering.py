"""Centroid bank with k-means++ seeding, streaming per-centroid updates, and a
full-set Lloyd baseline.

The streaming update gives each centroid the rate 1/count (mini-batch k-means,
Sculley, WWW 2010). The rates telescope to the running mean, so one step per
mini-batch does the same: c <- (n0 * c + S) / (n0 + m), see update_centroid.
"""

import math

import numpy as np

from .tensor import (ConfigError, DimensionError, SeededRng, _check_finite, _pass_workers, label_array,
                     pass_threads, pool_chunks, row_chunks)

_PASS_ENTRIES = 2 ** 20  # n x k entries per distance or one-hot pass: 8 MiB of float64


class CentroidBank:
    """k centroid rows plus cumulative assignment counts."""

    def __init__(self, centroids: np.ndarray, counts):
        c = np.ascontiguousarray(centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] == 0:
            raise DimensionError(f"centroids must be a non-empty 2-D array, got shape {c.shape}")
        _check_finite(c, "centroid matrix")
        given = np.asarray(counts)
        with np.errstate(invalid="ignore"):  # a NaN or out-of-range count fails the checks below
            n = given.astype(np.int64)
        if n.shape != (c.shape[0],) or np.any(n < 0) or not np.array_equal(n, given):
            raise ValueError("counts must be one nonnegative integer per centroid")
        self.centroids = c
        self.counts = n

    @property
    def k(self):
        return self.centroids.shape[0]

    @property
    def dim(self):
        return self.centroids.shape[1]


def _as_feature_array(features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DimensionError("features must form a non-empty 2-D array (one row per sample)")
    return x


def seed_kmeanspp(features, k: int, rng: SeededRng) -> CentroidBank:
    """Pick k seeds: first uniform, each next with probability proportional to
    the squared distance to the nearest seed already chosen. All counts start
    at 1 (the seed is its own first assignment).

    Each of the k - 1 rounds updates the distances on tensor.pool_chunks
    and then draws a seed; the rounds share one tensor.pass_threads()
    executor. A row's distance to a seed does not depend on the rows beside
    it, so a round's chunks hold a row chunk's rows over the worker count,
    and the workers' difference buffers together hold one row chunk, as a
    single worker's does."""
    x = _as_feature_array(features)
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError(f"need at least k={k} samples to seed, got {n}")
    d2 = np.full(n, np.inf)
    chosen = [rng.randint(n)]
    size = -(-row_chunks(n)[0].stop // _pass_workers())

    def nearer(rows, scratch):
        diff = scratch["diff"]
        np.subtract(x[rows], x[chosen[-1]], out=diff)
        np.minimum(d2[rows], np.einsum("ij,ij->i", diff, diff), out=d2[rows])

    with pass_threads() as threads:
        while len(chosen) < k:
            pool_chunks(n, size, nearer, threads, {"diff": x.shape[1]})
            total = float(d2.sum())
            if not math.isfinite(total):
                raise ConfigError("squared feature distances overflow float64; rescale the data")
            if total <= 0.0:
                raise ConfigError(f"cannot seed k={k} centroids: the features hold fewer than k "
                                  "distinct points")
            chosen.append(rng.weighted_index(d2))
    return CentroidBank(x[chosen].copy(), np.ones(k, dtype=np.int64))


def _nearest(x, xx, centroids, cc, labels, dists) -> None:
    """Nearest centroid of each row of x into labels, ties to the lowest
    index, and its squared distance into dists; xx and cc are the squared
    row norms of x and of the centroids. Rows go in slices of at most
    _PASS_ENTRIES distances, which take the expanded form, xx + cc - 2 x.c,
    with tiny negatives from cancellation clamped to zero. assign_batch
    and the pooled passes both call this kernel, which calls nothing the
    benchmark's tracer wraps."""
    step = max(1, _PASS_ENTRIES // centroids.shape[0])
    for lo in range(0, x.shape[0], step):
        rows = slice(lo, lo + step)
        g = x[rows] @ centroids.T
        g *= 2.0
        d2 = xx[rows, None] + cc
        d2 -= g
        np.maximum(d2, 0.0, out=d2)
        np.argmin(d2, axis=1, out=labels[rows])
        dists[rows] = d2[np.arange(d2.shape[0]), labels[rows]]


def assign_batch(bank: CentroidBank, feats: np.ndarray):
    """Nearest centroid and its squared Euclidean distance for every feature
    row; ties go to the lowest centroid index. Rows go in chunks of at most
    _PASS_ENTRIES n x k entries to bound memory; the bank is not modified."""
    x = _as_feature_array(feats)
    if x.shape[1] != bank.dim:
        raise DimensionError(f"feature dim {x.shape[1]} does not match bank dim {bank.dim}")
    xx = np.einsum("ij,ij->i", x, x)
    cc = np.einsum("ij,ij->i", bank.centroids, bank.centroids)
    labels = np.empty(x.shape[0], dtype=np.int64)
    dists = np.empty(x.shape[0])
    _nearest(x, xx, bank.centroids, cc, labels, dists)
    return labels, dists


def assign_pass(n: int, bank: CentroidBank, feats, sq_norms=None, threads=None, buffers=None):
    """assign_batch's labels and distances for every row of a whole-set
    pass over n rows, chunk by chunk on tensor.pool_chunks with its
    `threads` and `buffers`: feats(rows, scratch) gives the feature rows of
    one chunk, and sq_norms, if given, the squared norms of all of them. A
    chunk of tensor.ROW_CHUNK rows keeps the bits of the whole-set product
    (tests/test_clustering.py checks k = 2, 10 and 50 under 1 and 2 BLAS
    threads), so the labels are assign_batch's."""
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n)
    c = bank.centroids
    cc = np.einsum("ij,ij->i", c, c)

    def nearest(rows, scratch):
        x = feats(rows, scratch)
        xx = np.einsum("ij,ij->i", x, x) if sq_norms is None else sq_norms[rows]
        _nearest(x, xx, c, cc, labels[rows], dists[rows])

    pool_chunks(n, None, nearest, threads, buffers)
    return labels, dists


def update_centroid(bank: CentroidBank, labels, feats) -> None:
    """Running-mean step per mini-batch: each centroid the batch touches becomes
    (n0 * c + S) / (n0 + m), with n0 its count, m its number of rows and S their
    sum 0.0 + h_1 + h_2 + ... in row order; counts grow by m. S is a bincount,
    not a BLAS product, so its bits do not depend on the BLAS thread count.
    The step runs over the whole bank and writes only the touched rows; labels
    go through tensor.label_array, and a rejected batch changes nothing."""
    k, dim = bank.k, bank.dim
    labs = label_array(labels, k)
    h = np.asarray(feats, dtype=np.float64)
    if h.shape != (labs.shape[0], dim):
        raise DimensionError(f"updates of shape {h.shape} do not match {labs.shape[0]} labels "
                             f"and bank dim {dim}")
    if not labs.size:
        return
    m = np.bincount(labs, minlength=k)
    # row i's bincount cells are row labs[i] of the k x dim table of cell
    # numbers; gathering them is faster than a broadcast add
    cells = np.arange(k * dim).reshape(k, dim)[labs]
    sums = np.bincount(cells.ravel(), weights=h.ravel(), minlength=k * dim).reshape(k, dim)
    n = bank.counts[:, None]  # a view: counts grow in place
    sums += bank.centroids * n
    n += m[:, None]
    # only the touched rows take the step; the others keep their bytes
    np.divide(sums, n, out=bank.centroids, where=m[:, None] > 0)


def _fill_empty(labels, dists, k: int):
    """(labels, counts) with every one of the k clusters holding a row.
    While a cluster is empty, the row farthest from its assigned centroid
    (largest dists) among the rows not moved yet goes to the lowest
    numbered empty cluster; a cluster that gives up its only row is
    refilled in turn. Each move fills a cluster with a row that stays, so
    at most k moves are made, given at least k rows. Returns labels itself
    when no cluster is empty, otherwise a moved copy; dists is not changed."""
    counts = np.bincount(labels, minlength=k)
    if counts.all():
        return labels, counts
    labels, dists = labels.copy(), dists.copy()
    while not counts.all():
        empty = int(np.argmin(counts))
        far = int(np.argmax(dists))
        counts[labels[far]] -= 1
        counts[empty] += 1
        labels[far] = empty
        dists[far] = -np.inf
    return labels, counts


def lloyd_kmeans(features, k: int, rng: SeededRng, max_iters: int = 100,
                 tol: float = 1e-6, history_out=None):
    """Full-set Lloyd iterations on the k-means++ seeded bank. Each sweep
    assigns every row through assign_pass, all on one pass_threads(), refills
    empty clusters by _fill_empty's rule and sums the clusters by one-hot
    products in passes of _PASS_ENTRIES entries, so no n x k array is built.

    Stops when the largest centroid movement drops below tol, after
    max_iters sweeps, or, whatever tol is, at a fixed point: a sweep whose
    refilled labels equal the previous sweep's (it would give the same
    centroids, so it stops before its sums), or one that leaves the
    centroids bit-identical. Every later sweep would repeat a fixed point,
    so the outputs are those of all max_iters sweeps, and its sweep's
    labels (before any refill) are the final labels, with no further
    assignment pass. When history_out is a list, the clustering objective
    (sum of squared distances to the assigned centroid) is appended once
    per sweep that ran.

    Returns (labels, bank) with counts set to the final cluster sizes.
    """
    x = _as_feature_array(features)
    n = x.shape[0]
    bank = seed_kmeanspp(x, k, rng)
    xx = np.einsum("ij,ij->i", x, x)  # the features do not change between sweeps
    step = max(1, _PASS_ENTRIES // k)

    def rows_of(rows, scratch):
        return x[rows]

    with pass_threads() as threads:
        previous = None  # the previous sweep's labels after the refill
        labels = None  # the labels of the bank's centroids, once a sweep has them
        for _ in range(max_iters):
            sweep, own = assign_pass(n, bank, rows_of, xx, threads)
            if history_out is not None:
                history_out.append(float(own.sum()))
            filled, counts = _fill_empty(sweep, own, k)
            if previous is not None and np.array_equal(filled, previous):
                labels = sweep
                break
            previous = filled
            for lo in range(0, n, step):
                onehot = np.zeros((min(step, n - lo), k))
                onehot[np.arange(onehot.shape[0]), filled[lo:lo + step]] = 1.0
                block = onehot.T @ x[lo:lo + step]
                sums = block if lo == 0 else sums + block
            new_centroids = sums / counts[:, None]
            fixed = np.array_equal(new_centroids, bank.centroids)
            movement = float(np.sqrt(((new_centroids - bank.centroids) ** 2).sum(axis=1)).max())
            bank.centroids = new_centroids
            if fixed:
                labels = sweep
            if fixed or movement < tol:
                break
        if labels is None:
            labels, _ = assign_pass(n, bank, rows_of, xx, threads)
    bank.counts = np.maximum(np.bincount(labels, minlength=k), 1)
    return labels, bank
