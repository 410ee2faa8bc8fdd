"""Centroid bank with k-means++ seeding, streaming per-centroid updates, and a
full-set Lloyd baseline.

The streaming update uses a per-centroid rate gamma = 1/count, with the count
incremented before the rate is computed. Seeds start at count 1, so feeding
points p_1..p_n into one centroid initialised at p_1 telescopes to their
exact running mean.
"""

import math

import numpy as np

from .tensor import ConfigError, DimensionError, SeededRng


class CentroidBank:
    """k centroid rows plus cumulative assignment counts."""

    def __init__(self, centroids: np.ndarray, counts):
        c = np.ascontiguousarray(centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] == 0:
            raise DimensionError(f"centroids must be a non-empty 2-D array, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("centroids contain non-finite entries")
        n = np.asarray(counts, dtype=np.int64)
        if n.shape != (c.shape[0],) or np.any(n < 0):
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
    chosen = [rng.randint(n)]
    diff = x - x[chosen[0]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for _ in range(1, k):
        total = float(d2.sum())
        if not math.isfinite(total):
            raise ConfigError("squared feature distances overflow float64; rescale the data")
        if total <= 0.0:
            raise ConfigError(f"cannot seed k={k} centroids: the features hold fewer than k distinct points")
        idx = rng.weighted_index(d2)
        chosen.append(idx)
        diff = x - x[idx]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return CentroidBank(x[chosen].copy(), np.ones(k, dtype=np.int64))


def assign_batch(bank: CentroidBank, feats: np.ndarray, chunk: int = 4096):
    """Nearest centroid and its squared Euclidean distance for every feature
    row; ties go to the lowest centroid index. Rows are processed in chunks to
    bound memory, and the bank is not modified."""
    x = _as_feature_array(feats)
    if x.shape[1] != bank.dim:
        raise DimensionError(f"feature dim {x.shape[1]} does not match bank dim {bank.dim}")
    n = x.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d2 = _sq_dists_to_centroids(x[lo:hi], bank.centroids)
        labels[lo:hi] = np.argmin(d2, axis=1)
        dists[lo:hi] = d2[np.arange(hi - lo), labels[lo:hi]]
    return labels, dists


def update_centroid(bank: CentroidBank, labels, feats) -> None:
    """Streaming mean step for each row of a mini-batch, in row order: count += 1
    first, then c <- (1 - gamma) * c + gamma * h with gamma = 1/count."""
    labs = np.asarray(labels)
    h = np.asarray(feats, dtype=np.float64)
    if labs.ndim != 1 or h.shape != (labs.shape[0], bank.dim):
        raise DimensionError(f"updates of shape {h.shape} do not match {labs.shape[0:1]} labels "
                             f"and bank dim {bank.dim}")
    if labs.size and not (np.issubdtype(labs.dtype, np.integer) and 0 <= labs.min() <= labs.max() < bank.k):
        raise ValueError(f"labels must be integers in [0, {bank.k}), got {labs.tolist()}")
    counts, centroids = bank.counts, bank.centroids
    for label, row in zip(labs.tolist(), h):
        counts[label] += 1
        gamma = 1.0 / float(counts[label])
        centroids[label] = (1.0 - gamma) * centroids[label] + gamma * row


def _sq_dists_to_centroids(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """n x k squared distances via the expanded form; fast for large n, tiny
    negatives from cancellation are clamped to zero."""
    xx = np.einsum("ij,ij->i", x, x)
    cc = np.einsum("ij,ij->i", centroids, centroids)
    d2 = xx[:, None] + cc[None, :] - 2.0 * (x @ centroids.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def lloyd_kmeans(features, k: int, rng: SeededRng, max_iters: int = 100,
                 tol: float = 1e-6, history_out=None):
    """Full-set Lloyd iterations from k-means++ seeds.

    Stops when the largest centroid movement drops below tol or after
    max_iters sweeps. A cluster emptied during a sweep is re-seeded to the
    point currently farthest from its assigned centroid. When history_out is
    a list, the clustering objective (sum of squared distances to the
    assigned centroid) is appended once per sweep.

    Returns (labels, bank) with counts set to the final cluster sizes.
    """
    x = _as_feature_array(features)
    n = x.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} samples, got {n}")
    centroids = seed_kmeanspp(x, k, rng).centroids.copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        d2 = _sq_dists_to_centroids(x, centroids)
        labels = np.argmin(d2, axis=1)
        own = d2[np.arange(n), labels]
        if history_out is not None:
            history_out.append(float(own.sum()))
        counts = np.bincount(labels, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            far = int(np.argmax(own))
            labels[far] = empty
            own[far] = -np.inf
            counts = np.bincount(labels, minlength=k)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), labels] = 1.0
        new_centroids = (onehot.T @ x) / counts[:, None]
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement < tol:
            break
    d2 = _sq_dists_to_centroids(x, centroids)
    labels = np.argmin(d2, axis=1)
    counts = np.maximum(np.bincount(labels, minlength=k), 1)
    return labels, CentroidBank(centroids, counts)
