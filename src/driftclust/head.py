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
"""

from collections import namedtuple

import numpy as np

from .tensor import DimensionError, SeededRng, matrix

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


class FeatureHead:
    def __init__(self, w_hidden, w_out, eta, last_delta_hidden=None, last_delta_out=None):
        self.w_hidden = matrix(w_hidden)
        self.w_out = matrix(w_out)
        if self.w_out.shape[1] != self.w_hidden.shape[0]:
            raise DimensionError(f"output layer expects {self.w_out.shape[1]} hidden units, "
                                 f"head has {self.w_hidden.shape[0]}")
        if eta < 0:
            raise ValueError("learning rate must be nonnegative")
        self.eta = float(eta)
        self.last_delta_hidden = None if last_delta_hidden is None else matrix(last_delta_hidden)
        self.last_delta_out = None if last_delta_out is None else matrix(last_delta_out)
        for delta, w in ((self.last_delta_hidden, self.w_hidden), (self.last_delta_out, self.w_out)):
            if delta is not None and delta.shape != w.shape:
                raise DimensionError(f"stored delta shape {delta.shape} does not match weights {w.shape}")
        self._grads = (np.empty_like(self.w_hidden), np.empty_like(self.w_out))
        self._scaled = (np.empty_like(self.w_hidden), np.empty_like(self.w_out))

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
        deltas = (None if d is None else d.copy() for d in (self.last_delta_hidden, self.last_delta_out))
        return FeatureHead(self.w_hidden.copy(), self.w_out.copy(), self.eta, *deltas)

    def forward(self, x: np.ndarray) -> ForwardTrace:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.input_dim:
            raise DimensionError(f"input shape {x.shape} does not match head input dim {self.input_dim}")
        u_hidden = np.dot(self.w_hidden, x)  # the gemv of `@`, dispatched faster
        h = np.maximum(u_hidden, 0.0)
        u_out = np.dot(self.w_out, h)
        y = np.maximum(u_out, 0.0)
        return ForwardTrace(x, u_hidden, h, u_out, y)

    def hidden_batch(self, xs: np.ndarray) -> np.ndarray:
        """Hidden features for a stack of inputs (rows), read-only weights."""
        return np.maximum(xs @ self.w_hidden.T, 0.0)

    def backward(self, trace: ForwardTrace, label: int, out=None):
        """Loss gradients w.r.t. both weight matrices for one sample, t = one_hot(label).

        grad_out[j, i]  = (y_j - t_j) * 1[u_out_j > 0] * h_i
        grad_hidden[i, m]  = sum_j[(y_j - t_j) * 1[u_out_j > 0] * w_out[j, i]]
                          * 1[u_hidden_i > 0] * x_m
        written into `out`, a (grad_hidden, grad_out) pair of arrays, if given."""
        if (trace.x.shape[0], trace.h.shape[0], trace.y.shape[0]) != (self.input_dim, self.hidden_dim, self.k):
            raise DimensionError("trace does not match this head's shapes")
        grad_hidden, grad_out = out or (np.empty_like(self.w_hidden), np.empty_like(self.w_out))
        delta_out = _residual(trace.y, label)
        delta_out *= np.sign(trace.y)  # 1[u_out > 0] as 1.0 / 0.0: y = relu(u_out)
        np.multiply(delta_out[:, None], trace.h, out=grad_out)
        delta_hidden = np.dot(self.w_out.T, delta_out)
        delta_hidden *= np.sign(trace.h)
        np.multiply(delta_hidden[:, None], trace.x, out=grad_hidden)
        return grad_hidden, grad_out

    def sgd_step(self, x: np.ndarray, label: int) -> float:
        """w <- w - eta * grad on both layers for x and one_hot(label). Returns the loss
        before the step, and leaves the head untouched if it is non-finite or above
        LOSS_LIMIT. The gradients stay in this head's buffers as last_delta_*."""
        trace = self.forward(x)
        loss = sse_loss(trace.y, label)
        if not loss <= LOSS_LIMIT:
            return loss
        self.last_delta_hidden, self.last_delta_out = self.backward(trace, label, out=self._grads)
        self.w_hidden -= np.multiply(self.last_delta_hidden, self.eta, out=self._scaled[0])
        self.w_out -= np.multiply(self.last_delta_out, self.eta, out=self._scaled[1])
        return loss

    def rollback_hidden_batch(self, xs: np.ndarray) -> np.ndarray:
        """Hidden features of a stack of inputs (rows) under the pre-step
        weights W + eta * last_delta.

        Only the first layer enters h, but the rollback is defined on both
        layers; the head itself is left untouched.
        """
        if self.last_delta_hidden is None or self.last_delta_out is None:
            raise NoHistoryError("no SGD step recorded yet, nothing to roll back")
        w_prev = self.w_hidden + self.eta * self.last_delta_hidden
        return np.maximum(xs @ w_prev.T, 0.0)


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
