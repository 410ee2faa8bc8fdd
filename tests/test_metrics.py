import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftclust.metrics import _entropy, nmi


def brute_force_nmi(truth, pred):
    """Direct computation from joint counts, no shared code with the module."""
    n = len(truth)
    joint = Counter(zip(truth, pred))
    pt = Counter(truth)
    pp = Counter(pred)

    def ent(counter):
        return -sum((c / n) * math.log(c / n) for c in counter.values() if c > 0)

    h_t, h_p = ent(pt), ent(pp)
    mi = 0.0
    for (a, b), c in joint.items():
        mi += (c / n) * math.log((c * n) / (pt[a] * pp[b]))
    if h_t == 0.0 or h_p == 0.0:
        same = len(joint) == len(pt) == len(pp)
        return 1.0 if same else 0.0
    return mi / math.sqrt(h_t * h_p)


def test_contingency_diagonal_and_single_cell():
    # joint counts [[1, 0], [0, 1]], and the single cell [[2]] of n = 2
    assert nmi([0, 1], [0, 1]) == 1.0
    assert nmi([0, 0], [1, 1]) == 1.0
    assert nmi(np.array([0, 0]), [1, 1]) == brute_force_nmi([0, 0], [1, 1])


def test_contingency_matches_counting_oracle():
    # 10 x 10 joint counts of 1000 pairs; the oracle counts them with Counter
    rng = np.random.RandomState(42)
    truth = rng.randint(0, 10, size=1000)
    pred = rng.randint(0, 10, size=1000)
    want = brute_force_nmi(truth.tolist(), pred.tolist())
    assert nmi(truth, pred) == pytest.approx(want, abs=1e-12)
    assert 0.0 < nmi(truth, pred) < 1.0
    assert nmi(pred, truth) == pytest.approx(want, abs=1e-12)  # rows and columns swap
    assert nmi(truth, truth) == 1.0 and nmi(pred, pred) == 1.0


def test_contingency_rejects_mismatch():
    with pytest.raises(ValueError):
        nmi([0, 1], [0, 1, 2])


def test_entropy_examples():
    assert _entropy([6], 6) == 0.0
    assert _entropy([3, 3], 6) == pytest.approx(math.log(2), abs=1e-12)
    expected = -sum((c / 6) * math.log(c / 6) for c in (1, 2, 3))
    assert _entropy([1, 2, 3], 6) == pytest.approx(expected, abs=1e-12)


def test_nmi_fixed_examples():
    assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == 0.0
    got = nmi([0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1])
    assert got == pytest.approx(brute_force_nmi([0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1]),
                                abs=1e-12)


def test_nmi_degenerate_conventions():
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0  # both single groups
    assert nmi([0, 0, 0], [0, 1, 1]) == 0.0  # truth constant, pred not
    assert nmi([0, 1, 1], [5, 5, 5]) == 0.0


def test_nmi_matches_bruteforce_on_random_pairs():
    rng = np.random.RandomState(7)
    for _ in range(200):
        n = rng.randint(1, 51)
        truth = rng.randint(0, rng.randint(1, 7), size=n)
        pred = rng.randint(0, rng.randint(1, 7), size=n)
        assert nmi(truth, pred) == pytest.approx(
            brute_force_nmi(truth.tolist(), pred.tolist()), abs=1e-10)


label_lists = st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nmi_symmetry(data):
    a = data.draw(label_lists)
    b = data.draw(st.lists(st.integers(0, 5), min_size=len(a), max_size=len(a)))
    assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nmi_permutation_invariant(data):
    a = data.draw(label_lists)
    b = data.draw(st.lists(st.integers(0, 5), min_size=len(a), max_size=len(a)))
    remap = {v: 17 - v for v in range(6)}
    assert nmi(a, b) == pytest.approx(nmi([remap[v] for v in a], b), abs=1e-12)
    assert nmi(a, b) == pytest.approx(nmi(a, [remap[v] for v in b]), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nmi_range_and_self(data):
    a = data.draw(label_lists)
    b = data.draw(st.lists(st.integers(0, 5), min_size=len(a), max_size=len(a)))
    value = nmi(a, b)
    assert 0.0 <= value <= 1.0
    if len(set(a)) > 1:
        assert nmi(a, a) == 1.0


def test_mutual_information_zero_for_independent_uniform():
    assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == 0.0


def test_partitions_identical_detects_relabelings():
    assert nmi([0, 0, 1], [4, 4, 2]) == 1.0
    assert nmi([0, 0, 1], [0, 1, 1]) < 1.0
