import hashlib
import re

import numpy as np
import pytest

from driftclust.head import LOSS_LIMIT, FeatureHead, NoHistoryError, init_head, one_hot, sse_loss
from driftclust.tensor import DimensionError, SeededRng


def random_head(rng, input_dim=5, hidden_dim=4, k=3, eta=0.1):
    return init_head(input_dim, hidden_dim, k, eta, rng)


def grad_out(head):
    """The output half of the head's gradient buffer: the latest step's output
    gradient, scratch that no rollback reads and the next step overwrites."""
    return head._grad_layers[1]


def two_loop_forward(w1, w2, x):
    """Independent forward oracle written with explicit loops."""
    u1 = [sum(w1[i][m] * x[m] for m in range(len(x))) for i in range(len(w1))]
    h = [max(u, 0.0) for u in u1]
    u2 = [sum(w2[j][i] * h[i] for i in range(len(h))) for j in range(len(w2))]
    y = [max(u, 0.0) for u in u2]
    return h, y


@pytest.mark.parametrize("eta", [-0.1, np.nan, np.inf, -np.inf])
def test_head_rejects_a_negative_or_non_finite_learning_rate(eta):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        FeatureHead(np.ones((2, 3)), np.ones((2, 2)), eta)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        init_head(3, 2, 2, eta, SeededRng(0))


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
    x = rng.gauss(size=5)
    trace = head.forward(x)
    h, y = two_loop_forward(head.w_hidden, head.w_out, x)
    assert np.allclose(trace.h, h, atol=1e-12)
    assert np.allclose(trace.y, y, atol=1e-12)


def test_forward_deterministic_bitwise():
    rng = SeededRng(10)
    head = random_head(rng)
    x = rng.gauss(size=5)
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
    y = rng.gauss(size=4)
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
        x = rng.gauss(size=dims[0])
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
    assert np.array_equal(grad_out(head), np.array([[-0.25]]))


def test_sgd_step_zero_gradients_and_zero_eta():
    rng = SeededRng(4)
    head = random_head(rng)
    w1, w2 = head.w_hidden.copy(), head.w_out.copy()
    head.sgd_step(np.zeros(5), 0)  # a zero input has zero gradients under any head
    assert np.array_equal(head.w_hidden, w1) and np.array_equal(head.w_out, w2)
    assert np.all(head.last_delta_hidden == 0.0) and np.all(grad_out(head) == 0.0)

    head_zero = random_head(SeededRng(4), eta=0.0)
    x = rng.gauss(size=5)
    g1, g2 = head_zero.backward(head_zero.forward(x), 1)
    assert np.any(g1) and np.any(g2)
    head_zero.sgd_step(x, 1)
    assert np.array_equal(head_zero.w_hidden, w1) and np.array_equal(head_zero.w_out, w2)
    assert np.array_equal(head_zero.last_delta_hidden, g1)
    assert np.array_equal(grad_out(head_zero), g2)


def test_step_buffers_hold_the_latest_gradients_and_copies_own_theirs():
    # the head writes every step's gradients into the same arrays, so the
    # deltas must be that step's own and a copy must not see later steps; a
    # copy takes the weights and the rollback weights, and no step of its own
    rng = SeededRng(36)
    head = random_head(rng, eta=0.05)
    samples = [(rng.gauss(size=5), rng.randint(3)) for _ in range(8)]
    for i, (x, label) in enumerate(samples):
        want = head.backward(head.forward(x), label)
        head.sgd_step(x, label)
        got = (head.last_delta_hidden, grad_out(head))
        assert all(g.tobytes() == plus_zeros(w).tobytes() for g, w in zip(got, want)), i
        assert not any(signed_zeros(g) for g in got), i
        if i == 3:
            mid = head.copy()
            assert mid.last_delta_hidden is None and mid.w_rollback.tobytes() == head.w_rollback.tobytes()
            frozen = [a.copy() for a in present(mid)]
            ours = present(head)
            assert not any(np.shares_memory(a, b) for a in present(mid) for b in ours)
    after = present(mid)
    assert len(after) == len(frozen) == 3
    assert all(a.tobytes() == f.tobytes() for a, f in zip(after, frozen))
    mid.sgd_step(*samples[0])  # the copy steps on its own buffers
    assert not np.shares_memory(mid.last_delta_hidden, head.last_delta_hidden)
    assert not np.array_equal(mid.last_delta_hidden, head.last_delta_hidden)


def test_sgd_step_over_the_loss_limit_leaves_the_head_untouched():
    head = FeatureHead(np.eye(2) * 2e3, np.eye(2) * 2e3, eta=0.1)
    head.sgd_step(np.array([1e-7, 0.0]), 0)
    before = [a.copy() for a in state(head).values()]
    loss = head.sgd_step(np.array([1.0, 0.0]), 1)  # y = (4e6, 0): loss 8e12
    assert loss > LOSS_LIMIT
    after = state(head).values()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
    assert np.isnan(head.sgd_step(np.array([np.nan, 0.0]), 1))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))


def test_rollback_reproduces_previous_hidden_feature():
    rng = SeededRng(31)
    for _ in range(20):
        head = random_head(rng, eta=0.05)
        x = rng.gauss(size=5)
        label = rng.randint(3)
        prev_w1 = head.w_hidden.copy()
        head.sgd_step(x, label)
        rolled = head.rollback_hidden_batch(x[None])[0]
        expected = np.maximum(prev_w1 @ x, 0.0)
        assert np.max(np.abs(rolled - expected)) < 1e-9


def test_rollback_weights_follow_every_step_and_are_built_once_per_step():
    rng = SeededRng(36)
    head = random_head(rng, eta=0.05)
    xs = rng.gauss(size=(6, 5))
    for label in (0, 2, 1, 1):
        head.sgd_step(xs[label], label)
        expected = np.maximum(xs @ (head.w_hidden + head.eta * head.last_delta_hidden).T, 0.0)
        assert head.rollback_hidden_batch(xs).tobytes() == expected.tobytes()
        built = head.w_rollback
        assert head.rollback_hidden_batch(xs[2:]).tobytes() == expected[2:].tobytes()
        assert head.w_rollback is built
        assert head.copy().rollback_hidden_batch(xs).tobytes() == expected.tobytes()


def test_rollback_with_zero_delta_equals_current():
    rng = SeededRng(32)
    head = random_head(rng)
    x = rng.gauss(size=5)
    head.sgd_step(np.zeros(5), 0)  # zero gradients: the step delta is all zero
    assert np.all(head.last_delta_hidden == 0.0)
    assert np.array_equal(head.rollback_hidden_batch(x[None])[0], head.hidden_batch(x[None])[0])


def test_rollback_with_zero_eta_equals_current():
    rng = SeededRng(33)
    head = random_head(rng, eta=0.0)
    x = rng.gauss(size=5)
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
        x = rng.gauss(size=5)
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
    assert h1.last_delta_hidden is None and h1.w_rollback is None and not hasattr(h1, "last_delta_out")


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
    xs = rng.gauss(size=(9, 5))
    batch = head.hidden_batch(xs)
    for i in range(9):
        assert np.allclose(batch[i], head.forward(xs[i]).h, atol=1e-12)


def reference_pass(head, xs, labels):
    """A fine-tune pass built from forward, sse_loss, backward and the two-layer
    update on a copy of `head` that also holds its latest gradients: (steps
    applied, last loss, the stepped copy)."""
    ref = head.copy()
    if head.last_delta_hidden is not None:
        ref.last_delta_hidden, grad_out(ref)[...] = head.last_delta_hidden.copy(), grad_out(head)
    done, loss = 0, 0.0
    for x, label in zip(xs, labels):
        trace = ref.forward(x)
        loss = sse_loss(trace.y, label)
        if not loss <= LOSS_LIMIT:
            break
        grad_hidden, g_out = ref.backward(trace, label)
        ref.w_hidden -= ref.eta * grad_hidden
        ref.w_out -= ref.eta * g_out
        ref.last_delta_hidden, grad_out(ref)[...] = grad_hidden, g_out
        done += 1
    return done, loss, ref  # a pass leaves w_rollback as it was


def signed_zeros(a):
    return int(np.count_nonzero((a == 0.0) & np.signbit(a)))


def plus_zeros(a):
    """a with every -0.0 made +0.0 and every other bit kept."""
    return a + 0.0


def state(head):
    """A head's weights, its rollback weights (None before a pass), its step
    delta and its output gradient (None, as the delta, before any step of its
    own), by name."""
    stepped = head.last_delta_hidden is not None
    return {"w_hidden": head.w_hidden, "w_out": head.w_out, "w_rollback": head.w_rollback,
            "last_delta_hidden": head.last_delta_hidden, "grad_out": grad_out(head) if stepped else None}


def present(head):
    """The arrays of state(head) that the head holds."""
    return [a for a in state(head).values() if a is not None]


DELTAS = ("last_delta_hidden", "grad_out")


def assert_pass_matches_reference(head, xs, labels):
    """Run head.sgd_pass and check it against reference_pass: steps, loss and
    weights bit for bit, deltas bit for bit after `+ 0.0` (the head's BLAS outer
    products write +0.0 where backward's broadcasts write -0.0), and no -0.0 in
    the head's deltas. Returns (steps applied, the reference head)."""
    want_done, want_loss, ref = reference_pass(head, xs, labels)
    with np.errstate(over="ignore", invalid="ignore"):
        done, loss = head.sgd_pass(xs, labels)
    assert done == want_done
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    for name, got in state(head).items():
        want = state(ref)[name]
        assert (got is None) == (want is None), name
        if got is not None and name in DELTAS:
            assert signed_zeros(got) == 0, name
            want = plus_zeros(want)
        assert got is None or got.tobytes() == want.tobytes(), name
    return done, ref


@pytest.mark.parametrize("seed", range(6))
def test_sgd_pass_matches_forward_loss_backward_reference(seed):
    # seeded heads and passes; zero rows, and output layers with dead units,
    # so that the oracle's gradients hold -0.0 in both layers
    rng = SeededRng(900 + seed)
    dims = [2 + rng.randint(9) for _ in range(3)]
    eta = (0.0, 0.05, 0.5)[seed % 3]
    head = init_head(*dims, eta=eta, rng=rng)
    head.w_out[rng.randint(dims[2])] *= -1.0
    zeros = np.zeros(2, dtype=int)  # -0.0 entries of the oracle's hidden and output gradients
    for _ in range(4):
        n = 1 + rng.randint(12)
        xs = rng.gauss(size=(n, dims[0]))
        xs[rng.randint(n)] = 0.0
        labels = [rng.randint(dims[2]) for _ in range(n)]
        done, ref = assert_pass_matches_reference(head, xs, labels)
        assert done == n
        zeros += [signed_zeros(state(ref)[name]) for name in DELTAS]
    assert np.all(zeros > 0)


def test_sgd_pass_stops_at_the_first_diverging_step_and_keeps_the_last_good_one():
    head = FeatureHead(np.eye(2) * 2e3, np.eye(2) * 2e3, eta=0.1)
    head.sgd_step(np.array([1e-7, 0.0]), 0)
    xs = np.array([[2e-7, 0.0], [0.0, 1e-7], [1.0, 0.0], [1e-7, 0.0]])
    labels = [0, 1, 1, 0]
    before = head.rollback_hidden_batch(xs)  # under the rollback weights of the first step
    assert assert_pass_matches_reference(head, xs, labels)[0] == 2  # y = (4e6, 0) at step 3
    assert head.rollback_hidden_batch(xs).tobytes() == before.tobytes()  # the pass kept them
    # step_back gives the weights from before the last good step
    after = np.maximum(xs @ (head.w_hidden + head.eta * head.last_delta_hidden).T, 0.0)
    assert np.maximum(xs @ head.step_back().T, 0.0).tobytes() == after.tobytes()
    assert before.tobytes() != after.tobytes()

    for nan_at in (0, 2):
        xs[nan_at] = [np.nan, 0.0]
        assert assert_pass_matches_reference(head, xs, labels)[0] == nan_at
        xs[nan_at] = [1e-7, 0.0]


def test_sgd_pass_checks_its_inputs_once():
    head = random_head(SeededRng(37))
    with pytest.raises(DimensionError):
        head.sgd_pass(np.ones((3, 4)), [0, 1, 2])
    with pytest.raises(DimensionError):
        head.sgd_pass(np.ones((3, 5)), [0, 1])
    with pytest.raises(DimensionError):
        head.sgd_step(np.ones((1, 5)), 0)
    w1, w2 = head.w_hidden.copy(), head.w_out.copy()
    with pytest.raises(ValueError, match="label 3"):
        head.sgd_pass(np.ones((3, 5)), [0, 1, 3])  # no step is taken before the bad label
    assert head.w_hidden.tobytes() == w1.tobytes() and head.w_out.tobytes() == w2.tobytes()
    assert head.last_delta_hidden is None and head.w_rollback is None
    with pytest.raises(DimensionError, match="rollback weights shape"):
        FeatureHead(head.w_hidden, head.w_out, 0.1, w_rollback=head.w_out)


@pytest.mark.parametrize("bad", [0.5, np.float64(1.0), True, np.bool_(False), -1, np.int64(3)],
                         ids=["float", "integral_float", "bool", "numpy_bool", "negative", "too_large"])
def test_sgd_pass_rejects_non_integer_and_out_of_range_labels(bad):
    # a float or bool label is a ValueError that names it, as an out-of-range
    # one is, never an IndexError from inside the step or a step on label 1
    head = random_head(SeededRng(39))
    params = head.params.tobytes()
    with pytest.raises(ValueError, match=re.escape(f"label {bad!r}")):
        head.sgd_pass(np.ones((1, 5)), [bad])
    with pytest.raises(ValueError, match=re.escape(f"label {bad!r}")):
        head.sgd_step(np.ones(5), bad)
    with pytest.raises(ValueError, match=re.escape(f"label {bad!r}")):
        head.sgd_pass(np.ones((2, 5)), [0, bad])  # each label is checked, not the list's dtype
    with pytest.raises(ValueError, match=re.escape(f"label {[bad]!r}")):
        head.sgd_pass(np.ones((1, 5)), [[bad]])
    assert head.params.tobytes() == params and head.last_delta_hidden is None


@pytest.mark.parametrize("bad", [np.array([True]), np.array([0.5]), np.array([0, 3]), np.array([[0]])],
                         ids=["bool", "float", "too_large", "2d"])
def test_sgd_pass_rejects_label_arrays_that_are_not_integer_vectors_in_range(bad):
    head = random_head(SeededRng(39))
    params = head.params.tobytes()
    with pytest.raises(ValueError, match="label"):
        head.sgd_pass(np.ones((len(bad), 5)), bad)
    assert head.params.tobytes() == params and head.last_delta_hidden is None


def test_sgd_pass_takes_integer_labels_of_any_integer_type():
    # numpy promotes int8 with uint64 to float64, yet both are integer labels
    head = random_head(SeededRng(39))
    other = FeatureHead(head.w_hidden, head.w_out, head.eta)
    xs = np.arange(10.0).reshape(2, 5) / 10
    assert head.sgd_pass(xs, [np.int8(1), np.uint64(2)]) == other.sgd_pass(xs, [1, 2])
    assert head.params.tobytes() == other.params.tobytes()
    assert head.sgd_pass(xs, np.array([2, 0], dtype=np.uint8)) == other.sgd_pass(xs, [2, 0])
    assert head.params.tobytes() == other.params.tobytes()


def test_head_owns_flat_buffers_of_c_contiguous_layers():
    rng = SeededRng(38)
    w1 = rng.gauss(size=(4, 5))
    w2 = rng.gauss(size=(3, 4))
    caller = w1.copy()
    head = FeatureHead(w1, w2, eta=0.1)
    head.sgd_step(rng.gauss(size=5), 1)
    assert w1.tobytes() == caller.tobytes()  # the head trains its own copy
    assert not np.shares_memory(head.w_hidden, w1)
    arrays = present(head)
    assert len(arrays) == 5 and all(a.flags.c_contiguous for a in arrays)
    assert np.shares_memory(head.w_hidden, head.params) and np.shares_memory(head.w_out, head.params)
    twin = head.copy()  # the weights and rollback weights, and gradient buffers of its own
    assert twin.last_delta_hidden is None
    twins = present(twin) + [twin.params, twin._grads]
    assert all(a.flags.c_contiguous for a in twins)
    assert not any(np.shares_memory(a, b) for a in twins for b in arrays + [head.params])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(present(twin), arrays[:3]))
