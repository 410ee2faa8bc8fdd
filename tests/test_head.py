import hashlib

import numpy as np
import pytest

from driftclust.head import LOSS_LIMIT, FeatureHead, NoHistoryError, init_head, one_hot, sse_loss
from driftclust.tensor import DimensionError, SeededRng


def random_head(rng, input_dim=5, hidden_dim=4, k=3, eta=0.1):
    return init_head(input_dim, hidden_dim, k, eta, rng)


def two_loop_forward(w1, w2, x):
    """Independent forward oracle written with explicit loops."""
    u1 = [sum(w1[i][m] * x[m] for m in range(len(x))) for i in range(len(w1))]
    h = [max(u, 0.0) for u in u1]
    u2 = [sum(w2[j][i] * h[i] for i in range(len(h))) for j in range(len(w2))]
    y = [max(u, 0.0) for u in u2]
    return h, y


def test_forward_zero_weights_annihilates():
    head = FeatureHead(np.zeros((3, 2)), np.zeros((2, 3)), eta=0.1)
    trace = head.forward(np.array([5.0, -1.0]))
    assert np.all(trace.h == 0.0) and np.all(trace.y == 0.0)


def test_forward_identity_weights_clip_negatives():
    head = FeatureHead(np.eye(2), np.eye(2), eta=0.1)
    trace = head.forward(np.array([1.0, -1.0]))
    assert np.array_equal(trace.h, np.array([1.0, 0.0]))
    assert np.array_equal(trace.y, np.array([1.0, 0.0]))


def test_forward_matches_loop_oracle():
    rng = SeededRng(8)
    head = random_head(rng)
    x = np.array([rng.gauss() for _ in range(5)])
    trace = head.forward(x)
    h, y = two_loop_forward(head.w_hidden, head.w_out, x)
    assert np.allclose(trace.h, h, atol=1e-12)
    assert np.allclose(trace.y, y, atol=1e-12)


def test_forward_deterministic_bitwise():
    rng = SeededRng(10)
    head = random_head(rng)
    x = np.array([rng.gauss() for _ in range(5)])
    t1, t2 = head.forward(x), head.forward(x)
    assert np.array_equal(t1.h, t2.h) and np.array_equal(t1.y, t2.y)


def test_forward_rejects_bad_dim():
    head = FeatureHead(np.ones((2, 3)), np.ones((2, 2)), eta=0.1)
    with pytest.raises(DimensionError):
        head.forward(np.ones(4))


def test_sse_loss_examples():
    assert sse_loss(np.array([1.0, 0.0]), 0) == 0.0
    assert sse_loss(np.array([0.0, 0.0]), 0) == 0.5


def test_sse_loss_matches_direct_sum():
    rng = SeededRng(12)
    y = np.array([rng.gauss() for _ in range(4)])
    t = one_hot(4, 2)
    expected = 0.5 * sum((y[i] - t[i]) ** 2 for i in range(4))
    assert sse_loss(y, 2) == pytest.approx(expected, rel=1e-12)


def test_sse_loss_rejects_non_one_hot():
    # an integer label names a one-hot target only when it is in [0, k)
    head = FeatureHead(np.eye(3), np.eye(3), eta=0.1)
    trace = head.forward(np.ones(3))
    for label in (3, -1):
        with pytest.raises(ValueError):
            sse_loss(np.ones(3), label)
        with pytest.raises(ValueError):
            head.backward(trace, label)


def test_backward_zero_when_prediction_matches_target():
    # an identity-ish head that reproduces a one-hot exactly
    head = FeatureHead(np.eye(3), np.eye(3), eta=0.1)
    trace = head.forward(np.array([1.0, 0.0, 0.0]))
    g1, g2 = head.backward(trace, 0)
    assert np.all(g1 == 0.0) and np.all(g2 == 0.0)


def test_backward_zero_in_relu_dead_zone():
    # all output pre-activations negative -> gradients vanish
    head = FeatureHead(np.eye(2), -np.eye(2), eta=0.1)
    trace = head.forward(np.array([1.0, 1.0]))
    assert np.all(trace.u_out < 0.0)
    g1, g2 = head.backward(trace, 0)
    assert np.all(g1 == 0.0) and np.all(g2 == 0.0)


def finite_difference_check(head, x, label, step=1e-5, rel_tol=1e-4):
    """Compare backward() against central differences of the scalar loss."""
    trace = head.forward(x)
    g_hidden, g_out = head.backward(trace, label)
    for w, grad in ((head.w_hidden, g_hidden), (head.w_out, g_out)):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = sse_loss(head.forward(x).y, label)
            w[idx] = orig - step
            down = sse_loss(head.forward(x).y, label)
            w[idx] = orig
            fd = (up - down) / (2.0 * step)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            assert abs(fd - grad[idx]) / denom < rel_tol, \
                f"gradient mismatch at {idx}: analytic={grad[idx]}, fd={fd}"


def test_backward_matches_finite_differences():
    rng = SeededRng(2024)
    for trial in range(25):
        dims = [2 + rng.randint(7) for _ in range(3)]  # dims <= 8
        head = init_head(dims[0], dims[1], dims[2], eta=0.1, rng=rng)
        x = np.array([rng.gauss() for _ in range(dims[0])])
        finite_difference_check(head, x, rng.randint(dims[2]))


def test_backward_rejects_stale_trace():
    rng = SeededRng(1)
    head = random_head(rng)
    other = init_head(6, 4, 3, eta=0.1, rng=rng)  # different input dim
    trace = other.forward(np.ones(6))
    with pytest.raises(DimensionError):
        head.backward(trace, 0)


def test_sgd_step_scalar_arithmetic():
    # x = 0.5 through 1x1 identity layers: y = 0.5, residual -0.5, both gradients -0.25
    head = FeatureHead(np.array([[1.0]]), np.array([[1.0]]), eta=0.1)
    assert head.sgd_step(np.array([0.5]), 0) == 0.125
    assert head.w_hidden[0, 0] == pytest.approx(1.025)
    assert head.w_out[0, 0] == pytest.approx(1.025)
    assert np.array_equal(head.last_delta_hidden, np.array([[-0.25]]))
    assert np.array_equal(head.last_delta_out, np.array([[-0.25]]))


def test_sgd_step_zero_gradients_and_zero_eta():
    rng = SeededRng(4)
    head = random_head(rng)
    w1, w2 = head.w_hidden.copy(), head.w_out.copy()
    head.sgd_step(np.zeros(5), 0)  # a zero input has zero gradients under any head
    assert np.array_equal(head.w_hidden, w1) and np.array_equal(head.w_out, w2)
    assert np.all(head.last_delta_hidden == 0.0) and np.all(head.last_delta_out == 0.0)

    head_zero = random_head(SeededRng(4), eta=0.0)
    x = np.array([rng.gauss() for _ in range(5)])
    g1, g2 = head_zero.backward(head_zero.forward(x), 1)
    assert np.any(g1) and np.any(g2)
    head_zero.sgd_step(x, 1)
    assert np.array_equal(head_zero.w_hidden, w1) and np.array_equal(head_zero.w_out, w2)
    assert np.array_equal(head_zero.last_delta_hidden, g1)
    assert np.array_equal(head_zero.last_delta_out, g2)


def test_step_buffers_hold_the_latest_gradients_and_copies_own_theirs():
    # the head writes every step's gradients into the same arrays, so the
    # deltas must be that step's own and a copy must not see later steps
    rng = SeededRng(36)
    head = random_head(rng, eta=0.05)
    samples = [(np.array([rng.gauss() for _ in range(5)]), rng.randint(3)) for _ in range(8)]
    for i, (x, label) in enumerate(samples):
        want = head.backward(head.forward(x), label)
        head.sgd_step(x, label)
        got = (head.last_delta_hidden, head.last_delta_out)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), i
        if i == 3:
            mid = head.copy()
            frozen = [a.copy() for a in (mid.w_hidden, mid.w_out, mid.last_delta_hidden,
                                         mid.last_delta_out)]
            ours = (head.w_hidden, head.w_out, head.last_delta_hidden, head.last_delta_out)
            assert not any(np.shares_memory(a, b) for a in frozen for b in ours)
    after = (mid.w_hidden, mid.w_out, mid.last_delta_hidden, mid.last_delta_out)
    assert all(a.tobytes() == f.tobytes() for a, f in zip(after, frozen))
    mid.sgd_step(*samples[0])  # the copy steps on its own buffers
    assert not np.shares_memory(mid.last_delta_hidden, head.last_delta_hidden)
    assert not np.array_equal(mid.last_delta_hidden, head.last_delta_hidden)


def test_sgd_step_over_the_loss_limit_leaves_the_head_untouched():
    head = FeatureHead(np.eye(2) * 2e3, np.eye(2) * 2e3, eta=0.1)
    head.sgd_step(np.array([1e-7, 0.0]), 0)
    before = [a.copy() for a in (head.w_hidden, head.w_out, head.last_delta_hidden,
                                 head.last_delta_out)]
    loss = head.sgd_step(np.array([1.0, 0.0]), 1)  # y = (4e6, 0): loss 8e12
    assert loss > LOSS_LIMIT
    after = (head.w_hidden, head.w_out, head.last_delta_hidden, head.last_delta_out)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
    assert np.isnan(head.sgd_step(np.array([np.nan, 0.0]), 1))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))


def test_rollback_reproduces_previous_hidden_feature():
    rng = SeededRng(31)
    for _ in range(20):
        head = random_head(rng, eta=0.05)
        x = np.array([rng.gauss() for _ in range(5)])
        label = rng.randint(3)
        prev_w1 = head.w_hidden.copy()
        head.sgd_step(x, label)
        rolled = head.rollback_hidden_batch(x[None])[0]
        expected = np.maximum(prev_w1 @ x, 0.0)
        assert np.max(np.abs(rolled - expected)) < 1e-9


def test_rollback_with_zero_delta_equals_current():
    rng = SeededRng(32)
    head = random_head(rng)
    x = np.array([rng.gauss() for _ in range(5)])
    head.sgd_step(np.zeros(5), 0)  # zero gradients: the stored deltas are all zero
    assert np.all(head.last_delta_hidden == 0.0)
    assert np.array_equal(head.rollback_hidden_batch(x[None])[0], head.hidden_batch(x[None])[0])


def test_rollback_with_zero_eta_equals_current():
    rng = SeededRng(33)
    head = random_head(rng, eta=0.0)
    x = np.array([rng.gauss() for _ in range(5)])
    head.sgd_step(x, 1)
    assert np.array_equal(head.rollback_hidden_batch(x[None])[0], head.hidden_batch(x[None])[0])


def test_rollback_requires_history():
    head = random_head(SeededRng(34))
    with pytest.raises(NoHistoryError):
        head.rollback_hidden_batch(np.ones((1, 5)))


def test_single_step_descends_loss():
    rng = SeededRng(35)
    checked = 0
    for _ in range(30):
        head = random_head(rng, eta=1e-4)
        x = np.array([rng.gauss() for _ in range(5)])
        label = rng.randint(3)
        trace = head.forward(x)
        before = sse_loss(trace.y, label)
        g1, g2 = head.backward(trace, label)
        if np.all(g1 == 0.0) and np.all(g2 == 0.0):
            continue
        assert head.sgd_step(x, label) == before
        after = sse_loss(head.forward(x).y, label)
        assert after < before
        checked += 1
    assert checked >= 10


def test_init_head_deterministic_and_bounded():
    h1 = init_head(7, 5, 3, eta=0.1, rng=SeededRng(55))
    h2 = init_head(7, 5, 3, eta=0.1, rng=SeededRng(55))
    assert np.array_equal(h1.w_hidden, h2.w_hidden) and np.array_equal(h1.w_out, h2.w_out)
    s = np.sqrt(6.0 / (7 + 5))
    assert np.all(np.abs(h1.w_hidden) <= s)
    assert h1.last_delta_hidden is None and h1.last_delta_out is None


def test_init_head_weights_are_pinned():
    # the benchmark-sized head of seed 0, as the per-weight scalar loop drew it
    rng = SeededRng(0)
    head = init_head(50, 128, 10, eta=0.045, rng=rng)
    weights = head.w_hidden.astype("<f8").tobytes() + head.w_out.astype("<f8").tobytes()
    assert hashlib.sha256(weights).hexdigest() == \
        "d5158a03d8ae3571cb10de35eda14563c5f7da8077a4c963c769dcd13c5d1d7a"
    assert rng.state() == (755587367173932930, 5898390776964906804,
                           17370024958641864530, 14621429787938770022)


def test_init_head_weight_mean_near_zero():
    # ~1e5 uniform(-s, s) draws; the sample mean should sit within 3 sigma
    head = init_head(320, 310, 8, eta=0.1, rng=SeededRng(60))
    w = head.w_hidden.ravel()
    s = np.sqrt(6.0 / (320 + 310))
    sigma_mean = (s / np.sqrt(3.0)) / np.sqrt(w.size)
    assert abs(w.mean()) < 3.0 * sigma_mean


def test_hidden_batch_matches_forward():
    rng = SeededRng(77)
    head = random_head(rng)
    xs = np.array([[rng.gauss() for _ in range(5)] for _ in range(9)])
    batch = head.hidden_batch(xs)
    for i in range(9):
        assert np.allclose(batch[i], head.forward(xs[i]).h, atol=1e-12)
