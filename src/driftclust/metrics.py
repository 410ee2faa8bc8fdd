"""Clustering quality: normalized mutual information of two labelings."""

import numpy as np


def _entropy(counts, n: int) -> float:
    """Shannon entropy (natural log) of counts summing to n; zero counts add nothing."""
    c = np.asarray(counts, dtype=np.float64)
    nz = c[c > 0]
    # -(c/n) log(c/n) written as (c/n)(log n - log c) to dodge cancellation
    return float(np.sum((nz / n) * (np.log(n) - np.log(nz))))


def nmi(truth, pred) -> float:
    """Normalized mutual information I / sqrt(H_truth * H_pred) in [0, 1], from
    the joint label counts; label values are mapped to compact indices in
    sorted order, so arbitrary integer ids are fine.

    When either side has zero entropy (one distinct label) the ratio is
    undefined; by convention the result is 1 for identical partitions and 0
    otherwise.
    """
    t, p = np.asarray(truth), np.asarray(pred)
    if t.ndim != 1 or p.ndim != 1 or t.shape[0] != p.shape[0]:
        raise ValueError(f"label sequences must be 1-D and equal length, got {t.shape} and {p.shape}")
    if t.shape[0] == 0:
        raise ValueError("label sequences must be non-empty")
    n = int(t.shape[0])
    t_vals, t_idx = np.unique(t, return_inverse=True)
    p_vals, p_idx = np.unique(p, return_inverse=True)
    counts = np.zeros((t_vals.size, p_vals.size), dtype=np.int64)  # true class x predicted cluster
    np.add.at(counts, (t_idx, p_idx), 1)
    row_sums, col_sums = counts.sum(axis=1), counts.sum(axis=0)
    # each class pairs with exactly one cluster and vice versa: the same partition
    if np.all(np.count_nonzero(counts, axis=1) == 1) and np.all(np.count_nonzero(counts, axis=0) == 1):
        return 1.0  # exact, sidesteps rounding in I/sqrt(H*H)
    h_t, h_p = _entropy(row_sums, n), _entropy(col_sums, n)
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    rows, cols = np.nonzero(counts)
    nab = counts[rows, cols].astype(np.float64)
    terms = (nab / n) * (np.log(nab) + np.log(n) - np.log(row_sums[rows]) - np.log(col_sums[cols]))
    value = float(terms.sum()) / np.sqrt(h_t * h_p)
    return float(min(max(value, 0.0), 1.0))
