"""Trainable two-layer ReLU head trained with an SSE objective.

The head maps a backbone vector x through a hidden layer (the clustering
feature h) and an output layer scored against one-hot pseudo-labels:

    u_hidden = W1 @ x        h = relu(u_hidden)
    u_out    = W2 @ h        y = relu(u_out)
    loss     = 1/2 * sum_j (y_j - t_j)^2,   t = one_hot(label)

Gradients are hand-derived with the ReLU derivative taken as the indicator
1[u > 0] (zero at u == 0). Each SGD step keeps the raw gradients it
applied, so the hidden feature under the previous weights can be
reconstructed later as relu((W1 + eta * last_delta1) @ x); that rollback is
what keeps centroid updates consistent with the features they were assigned
under.

Both layers live in one flat float64 buffer, `params`, with w_hidden and
w_out as C-contiguous views of it; the gradients of the latest step fill a
second flat buffer, whose views are last_delta_hidden and last_delta_out,
and eta * grad a third. `sgd_pass` runs a whole fine-tune pass in one loop:
each step computes forward, loss and backward inline and updates both
layers with one multiply and one subtract over the buffers. Its two outer
products go through BLAS as a column times a row, which writes +0.0 where a
factor is zero and the elementwise product (as `backward` computes it) is
-0.0, and the product's bits everywhere else. The stored deltas therefore
hold no -0.0; weights, and with them labels and metrics, keep their bits,
because w - eta * (+-0.0) == w for every nonzero weight. For the same
reason the pass applies the output ReLU's mask to the label entry of
y - t alone: every other entry is y_j = max(u_j, 0), which the mask
1[u_j > 0] leaves as it is, and a zero whose sign differs from `backward`'s
reaches the deltas only through those BLAS products.
"""

from collections import namedtuple

import numpy as np

from .tensor import DimensionError, SeededRng, label_array, matrix

LOSS_LIMIT = 1e6  # a larger (or non-finite) loss means the step diverged


class NoHistoryError(RuntimeError):
    """Rollback requested before any SGD step was taken."""


ForwardTrace = namedtuple("ForwardTrace", "x u_hidden h u_out y")


def one_hot(k: int, label: int) -> np.ndarray:
    if not 0 <= label < k:
        raise ValueError(f"label {label} out of range for {k} classes")
    t = np.zeros(k)
    t[label] = 1.0
    return t


def _residual(y: np.ndarray, label: int) -> np.ndarray:
    """y - one_hot(label), bit for bit, without building the target."""
    if not 0 <= label < y.shape[0]:
        raise ValueError(f"label {label} out of range for {y.shape[0]} classes")
    d = y.copy()
    d[label] -= 1.0
    return d


def sse_loss(y: np.ndarray, label: int) -> float:
    """Half the sum of squared errors between prediction and one_hot(label)."""
    d = _residual(y, label)
    return 0.5 * float(np.dot(d, d))


def relu_product(xs, w, out=None) -> np.ndarray:
    """relu(xs @ w.T), into out if given: the hidden features of the input
    rows xs under hidden weights w. Whole-set passes call it from pool
    threads, where the traced FeatureHead.hidden_batch must not run."""
    h = np.matmul(xs, w.T, out=out)
    return np.maximum(h, 0.0, out=h)


def _layers(flat, shape_hidden, shape_out):
    """The (hidden, output) layer views of a flat buffer, hidden layer first."""
    split = shape_hidden[0] * shape_hidden[1]
    return flat[:split].reshape(shape_hidden), flat[split:].reshape(shape_out)


class FeatureHead:
    def __init__(self, w_hidden, w_out, eta, last_delta_hidden=None, last_delta_out=None):
        layers = (matrix(w_hidden), matrix(w_out))
        if layers[1].shape[1] != layers[0].shape[0]:
            raise DimensionError(f"output layer expects {layers[1].shape[1]} hidden units, "
                                 f"head has {layers[0].shape[0]}")
        if not np.isfinite(eta) or eta < 0:
            raise ValueError(f"learning rate must be finite and nonnegative, got {eta}")
        if (last_delta_hidden is None) != (last_delta_out is None):
            raise ValueError("a head stores both step deltas or neither")
        grads = None
        if last_delta_hidden is not None:
            deltas = (matrix(last_delta_hidden), matrix(last_delta_out))
            for delta, w in zip(deltas, layers):
                if delta.shape != w.shape:
                    raise DimensionError(f"stored delta shape {delta.shape} does not match weights {w.shape}")
            grads = np.concatenate([d.ravel() for d in deltas])
        self.eta = float(eta)
        self._adopt(np.concatenate([w.ravel() for w in layers]), grads,
                    layers[0].shape, layers[1].shape)

    def _adopt(self, params, grads, shape_hidden, shape_out):
        """Take the flat buffers as this head's own: params, and grads (the latest
        step's gradients, or None before any step)."""
        self.params = params
        self.w_hidden, self.w_out = _layers(params, shape_hidden, shape_out)
        self._grads = np.empty_like(params) if grads is None else grads
        self._grad_layers = _layers(self._grads, shape_hidden, shape_out)
        self.last_delta_hidden, self.last_delta_out = (None, None) if grads is None else self._grad_layers
        self._step = np.empty_like(params)  # eta * grad
        self._w_prev = None  # W1 + eta * last_delta1, built on the first rollback after a step

    @property
    def input_dim(self):
        return self.w_hidden.shape[1]

    @property
    def hidden_dim(self):
        return self.w_hidden.shape[0]

    @property
    def k(self):
        return self.w_out.shape[0]

    def copy(self):
        head = object.__new__(FeatureHead)
        head.eta = self.eta
        grads = None if self.last_delta_hidden is None else self._grads.copy()
        head._adopt(self.params.copy(), grads, self.w_hidden.shape, self.w_out.shape)
        return head

    def forward(self, x: np.ndarray) -> ForwardTrace:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.input_dim:
            raise DimensionError(f"input shape {x.shape} does not match head input dim {self.input_dim}")
        u_hidden = np.dot(self.w_hidden, x)  # the gemv of `@`, dispatched faster
        h = np.maximum(u_hidden, 0.0)
        u_out = np.dot(self.w_out, h)
        y = np.maximum(u_out, 0.0)
        return ForwardTrace(x, u_hidden, h, u_out, y)

    def hidden_batch(self, xs: np.ndarray, out=None) -> np.ndarray:
        """Hidden features for a stack of inputs (rows), read-only weights;
        written into out, one row per input, if given."""
        return relu_product(xs, self.w_hidden, out)

    def backward(self, trace: ForwardTrace, label: int):
        """Loss gradients w.r.t. both weight matrices for one sample, t = one_hot(label).

        grad_out[j, i]  = (y_j - t_j) * 1[u_out_j > 0] * h_i
        grad_hidden[i, m]  = sum_j[(y_j - t_j) * 1[u_out_j > 0] * w_out[j, i]]
                          * 1[u_hidden_i > 0] * x_m"""
        if (trace.x.shape[0], trace.h.shape[0], trace.y.shape[0]) != (self.input_dim, self.hidden_dim, self.k):
            raise DimensionError("trace does not match this head's shapes")
        delta_out = _residual(trace.y, label)
        delta_out *= np.sign(trace.y)  # 1[u_out > 0] as 1.0 / 0.0: y = relu(u_out)
        grad_out = np.multiply(delta_out[:, None], trace.h)
        delta_hidden = np.dot(self.w_out.T, delta_out)
        delta_hidden *= np.sign(trace.h)
        grad_hidden = np.multiply(delta_hidden[:, None], trace.x)
        return grad_hidden, grad_out

    def sgd_pass(self, xs: np.ndarray, labels) -> tuple:
        """Per-sample SGD over the rows of xs in order: w <- w - eta * grad on both
        layers for each row and one_hot of its label. Returns (steps applied, loss
        of the last step computed, before its update).

        The pass stops at the first step whose loss is non-finite or above
        LOSS_LIMIT and leaves that step unapplied, so the head holds the last
        good step. The gradients of that step stay in this head's buffer as
        last_delta_*; the next step overwrites them. Every label is checked
        by tensor.label_array before any step.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.input_dim or len(labels) != len(xs):
            raise DimensionError(f"inputs of shape {xs.shape} with {len(labels)} labels do not "
                                 f"match head input dim {self.input_dim}")
        k = self.k
        labs = label_array(labels, k).tolist()
        maximum, multiply, sign = np.maximum, np.multiply, np.sign
        params, grads, step, eta = self.params, self._grads, self._step, self.eta
        grad_hidden, grad_out = self._grad_layers
        h, mask_hidden, delta_hidden = (np.empty(self.hidden_dim) for _ in range(3))
        d = np.empty(k)  # y, then y - t for the loss, then delta_out
        h_row, zero = h[None], np.zeros(())  # ufuncs take a 0-d array faster than the float 0.0
        # the BLAS products of a step as bound ndarray.dot methods, which skip
        # np.dot's dispatch: gemv for the matrix-vector products, a column
        # times a row for the outer products (+0.0 where a factor is 0)
        hidden_gemv, out_gemv, out_t_gemv = self.w_hidden.dot, self.w_out.dot, self.w_out.T.dot
        d_outer, delta_hidden_outer = d[:, None].dot, delta_hidden[:, None].dot
        done, loss = 0, 0.0
        for x, x_row, label in zip(xs, xs[:, None], labs):
            hidden_gemv(x, h)
            maximum(h, zero, out=h)
            out_gemv(h, d)
            maximum(d, zero, out=d)
            y = d[label]
            d[label] = y - 1.0
            loss = 0.5 * float(d.dot(d))
            if not loss <= LOSS_LIMIT:
                break
            # delta_out = (y - t) * 1[u_out > 0]: every other entry is y_j >= 0,
            # which that mask leaves as it is
            if not y > 0.0:
                d[label] = 0.0
            d_outer(h_row, grad_out)
            out_t_gemv(d, delta_hidden)
            multiply(delta_hidden, sign(h, out=mask_hidden), out=delta_hidden)
            delta_hidden_outer(x_row, grad_hidden)
            multiply(grads, eta, out=step)
            params -= step
            done += 1
        if done:
            self.last_delta_hidden, self.last_delta_out = grad_hidden, grad_out
            self._w_prev = None
        return done, loss

    def sgd_step(self, x: np.ndarray, label: int) -> float:
        """The pass over the one pair (x, label). Returns its loss; a loss that is
        non-finite or above LOSS_LIMIT leaves the head untouched."""
        return self.sgd_pass(np.asarray(x)[None], (label,))[1]

    def rollback_hidden_batch(self, xs: np.ndarray) -> np.ndarray:
        """Hidden features of a stack of inputs (rows) under the pre-step
        weights W + eta * last_delta.

        Only the first layer enters h, but the rollback is defined on both
        layers; the head itself is left untouched.
        """
        if self.last_delta_hidden is None or self.last_delta_out is None:
            raise NoHistoryError("no SGD step recorded yet, nothing to roll back")
        if self._w_prev is None:
            self._w_prev = self.w_hidden + self.eta * self.last_delta_hidden
        return relu_product(xs, self._w_prev)


def init_head(input_dim: int, hidden_dim: int, k: int, eta: float, rng: SeededRng) -> FeatureHead:
    """Fresh head with uniform weights in [-s, s], s = sqrt(6/(fan_in+fan_out)).

    Weights are drawn row-major, first layer then output layer, so the same
    seed always yields the same head. No step history yet.
    """
    if input_dim <= 0 or hidden_dim <= 0 or k <= 0:
        raise ValueError("all head dimensions must be positive")
    w_hidden = _uniform_matrix(hidden_dim, input_dim, rng)
    w_out = _uniform_matrix(k, hidden_dim, rng)
    return FeatureHead(w_hidden, w_out, eta)


def _uniform_matrix(rows, cols, rng):
    s = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-s, s, size=(rows, cols))
