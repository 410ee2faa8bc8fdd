"""Centroid bank with k-means++ seeding, streaming per-centroid updates, and a
full-set Lloyd baseline.

The streaming update gives each centroid the rate 1/count (mini-batch k-means,
Sculley, WWW 2010). The rates telescope to the running mean, so one step per
mini-batch does the same: c <- (n0 * c + S) / (n0 + m), see update_centroid.
"""

import math

import numpy as np

from .tensor import ConfigError, DimensionError, SeededRng, label_array, row_chunks

_PASS_ENTRIES = 2 ** 20  # n x k entries per distance or one-hot pass: 8 MiB of float64


class CentroidBank:
    """k centroid rows plus cumulative assignment counts."""

    def __init__(self, centroids: np.ndarray, counts):
        c = np.ascontiguousarray(centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] == 0:
            raise DimensionError(f"centroids must be a non-empty 2-D array, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("centroids contain non-finite entries")
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
    at 1 (the seed is its own first assignment)."""
    x = _as_feature_array(features)
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError(f"need at least k={k} samples to seed, got {n}")
    chunks = row_chunks(n)
    diff = np.empty((chunks[0].stop, x.shape[1]))
    d2 = np.full(n, np.inf)
    chosen = [rng.randint(n)]
    while True:
        for rows in chunks:
            np.subtract(x[rows], x[chosen[-1]], out=diff)
            np.minimum(d2[rows], np.einsum("ij,ij->i", diff, diff), out=d2[rows])
        if len(chosen) == k:
            break
        total = float(d2.sum())
        if not math.isfinite(total):
            raise ConfigError("squared feature distances overflow float64; rescale the data")
        if total <= 0.0:
            raise ConfigError(f"cannot seed k={k} centroids: the features hold fewer than k distinct points")
        chosen.append(rng.weighted_index(d2))
    return CentroidBank(x[chosen].copy(), np.ones(k, dtype=np.int64))


def assign_batch(bank: CentroidBank, feats: np.ndarray, sq_norms=None):
    """Nearest centroid and its squared Euclidean distance for every feature
    row; ties go to the lowest centroid index. Rows go in chunks of at most
    _PASS_ENTRIES n x k entries to bound memory; the bank is not modified.
    sq_norms are the squared row norms of feats, computed here if not given."""
    x = _as_feature_array(feats)
    if x.shape[1] != bank.dim:
        raise DimensionError(f"feature dim {x.shape[1]} does not match bank dim {bank.dim}")
    n = x.shape[0]
    xx = np.einsum("ij,ij->i", x, x) if sq_norms is None else sq_norms
    cc = np.einsum("ij,ij->i", bank.centroids, bank.centroids)
    chunk = max(1, _PASS_ENTRIES // bank.k)
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # squared distances in the expanded form, xx + cc - 2 x.c, in place;
        # tiny negatives from cancellation are clamped to zero
        g = x[lo:hi] @ bank.centroids.T
        g *= 2.0
        d2 = xx[lo:hi, None] + cc
        d2 -= g
        np.maximum(d2, 0.0, out=d2)
        np.argmin(d2, axis=1, out=labels[lo:hi])
        dists[lo:hi] = d2[np.arange(hi - lo), labels[lo:hi]]
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


def lloyd_kmeans(features, k: int, rng: SeededRng, max_iters: int = 100,
                 tol: float = 1e-6, history_out=None):
    """Full-set Lloyd iterations on the k-means++ seeded bank, assigning
    through assign_batch and summing clusters by one-hot products in passes
    of _PASS_ENTRIES entries, so no n x k array is built.

    Stops when the largest centroid movement drops below tol, after
    max_iters sweeps, or, whatever tol is, at the first sweep that leaves
    the centroids bit-identical; every later sweep would repeat it, so the
    outputs are those of all max_iters sweeps. A cluster emptied during a
    sweep is re-seeded to the point currently farthest from its assigned
    centroid. When history_out is a list, the clustering objective (sum of
    squared distances to the assigned centroid) is appended once per sweep
    that ran.

    Returns (labels, bank) with counts set to the final cluster sizes.
    """
    x = _as_feature_array(features)
    n = x.shape[0]
    bank = seed_kmeanspp(x, k, rng)
    xx = np.einsum("ij,ij->i", x, x)  # the features do not change between sweeps
    step = max(1, _PASS_ENTRIES // k)
    for _ in range(max_iters):
        labels, own = assign_batch(bank, x, xx)
        if history_out is not None:
            history_out.append(float(own.sum()))
        counts = np.bincount(labels, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            far = int(np.argmax(own))
            labels[far] = empty
            own[far] = -np.inf
            counts = np.bincount(labels, minlength=k)
        for lo in range(0, n, step):
            onehot = np.zeros((min(step, n - lo), k))
            onehot[np.arange(onehot.shape[0]), labels[lo:lo + step]] = 1.0
            block = onehot.T @ x[lo:lo + step]
            sums = block if lo == 0 else sums + block
        new_centroids = sums / counts[:, None]
        # unchanged centroids assign the same labels, so every later sweep repeats this one
        fixed = np.array_equal(new_centroids, bank.centroids)
        movement = float(np.sqrt(((new_centroids - bank.centroids) ** 2).sum(axis=1)).max())
        bank.centroids = new_centroids
        if fixed or movement < tol:
            break
    labels, _ = assign_batch(bank, x, xx)
    bank.counts = np.maximum(np.bincount(labels, minlength=k), 1)
    return labels, bank
