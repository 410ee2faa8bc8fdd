"""Frozen feature extractors mapping raw samples to the trainable head's input.

Three kinds are supported: ``flatten`` (raw values), ``randproj`` (fixed
Gaussian projection with unit-norm rows), and ``tinyconv`` (two frozen 3x3
conv layers with ReLU and 2x2 mean pooling, then a fixed projection).
Parameters are drawn once from the spec seed and never trained.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError, RowPool, SeededRng

BACKBONE_KINDS = ("flatten", "randproj", "tinyconv")

_CONV1_CHANNELS = 8
_CONV2_CHANNELS = 16
# samples per tinyconv _transform call, in full tensor.row_chunks: every product
# has one shape, so a sample's features do not depend on the set size, and each
# extraction worker's im2col buffers stay at a few MB
_EXTRACT_CHUNK = 32


@dataclass(frozen=True)
class BackboneSpec:
    kind: str
    input_shape: tuple  # (height, width, channels)
    output_dim: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in BACKBONE_KINDS:
            raise ConfigError(f"unknown backbone kind {self.kind!r}")
        if len(self.input_shape) != 3 or any(int(d) <= 0 for d in self.input_shape):
            raise ConfigError(f"input_shape must be (height, width, channels) > 0, got {self.input_shape}")
        if self.output_dim <= 0:
            raise ConfigError("output_dim must be positive")
        h, w, c = self.input_shape
        if self.kind == "flatten" and self.output_dim != h * w * c:
            raise ConfigError(f"flatten output_dim must equal h*w*c = {h * w * c}, got {self.output_dim}")
        if self.kind == "tinyconv" and (_conv_stack_dim(h, w) is None):
            raise ConfigError(f"input {h}x{w} too small for two 3x3 conv + pool stages")

    @property
    def flat_dim(self) -> int:
        h, w, c = self.input_shape
        return h * w * c


def _conv_stack_dim(h, w):
    """Flattened size after conv3x3(valid) -> pool2 -> conv3x3 -> pool2, or None."""
    for _ in range(2):
        h, w = h - 2, w - 2
        if h < 1 or w < 1:
            return None
        h = h // 2 if h >= 2 else h
        w = w // 2 if w >= 2 else w
    return h * w * _CONV2_CHANNELS


def to_float(sample: np.ndarray, out=None) -> np.ndarray:
    """Image bytes scaled to [0, 1], other inputs as float64, written into the
    float64 array out if given; without out, float64 inputs pass through.
    Elementwise, so any part of a sample converts to the bits of that part of
    the whole, in any layout."""
    if sample.dtype == np.uint8:
        return np.divide(sample, 255.0, out=out)
    if out is None:
        return np.asarray(sample, dtype=np.float64)
    out[...] = sample
    return out


def _unit_rows(rows: int, cols: int, rng: SeededRng) -> np.ndarray:
    # a gauss draw is never 0.0, so no row has norm 0 (tests/test_tensor.py
    # test_gauss_edge_words_give_finite_nonzero_draws_within_the_bound)
    p = rng.gauss(size=(rows, cols))
    for row in p:
        row /= np.sqrt(np.dot(row, row))
    return p


def _buffer(scratch, name, shape):
    """The float64 buffer of this name and shape in the scratch dict, made on
    first use. Buffers are reused across chunks of one shape; the two conv
    stages never share one, as their output channels differ and the second
    stage's patches are smaller."""
    buf = scratch.get((name, shape))
    if buf is None:
        buf = scratch[(name, shape)] = np.empty(shape)
    return buf


class Backbone:
    """Base class; a kind either overrides extract_batch or defines
    _transform(x, out, scratch), which writes the features of a chunk of
    samples x (b, h, w, c), in their own dtype, into out (b, output_dim), one
    row per sample. extract_batch calls it on the tensor.row_chunks slices of
    _chunk_rows samples (_EXTRACT_CHUNK unless a kind says otherwise): full
    chunks, the last overlapping the one before, or one chunk of a set that
    is smaller, and none of an empty one. A kind scales the chunk's pixels
    itself and keeps its working buffers in a scratch dict from chunk to chunk.

    The chunks run on a tensor.RowPool: contiguous runs, one per worker
    thread, each with its own scratch dict, so scratch memory is one chunk's
    buffers per worker, a few MB each. Each chunk makes the same calls into
    its own rows of the result whatever the worker count, so the features
    do not depend on it. Workers call only _transform, to_float and
    _buffer, none of which the benchmark's tracer wraps."""

    _chunk_rows = _EXTRACT_CHUNK

    def __init__(self, spec: BackboneSpec):
        self.spec = spec

    def extract_batch(self, samples: np.ndarray) -> np.ndarray:
        """Features of every sample along the leading axis, one row each."""
        self._check_batch(samples)
        out = np.empty((samples.shape[0], self.spec.output_dim))

        with RowPool(samples.shape[0], self._chunk_rows) as pool:
            pool.each(lambda rows, scratch: self._transform(samples[rows], out[rows], scratch))
        return out

    def head_inputs(self, samples: np.ndarray) -> np.ndarray:
        """The (n, d) array a trainer keeps for the samples: to_float of any of
        its rows gives those samples' features, bit for bit. Here these are
        the features (float64, which to_float passes through); an elementwise
        kind keeps the flattened samples in their own dtype instead, so only
        the rows in use are ever converted."""
        return self.extract_batch(samples)

    def _check_batch(self, samples):
        if tuple(samples.shape[1:]) != tuple(self.spec.input_shape):
            raise ValueError(
                f"sample shape {samples.shape[1:]} does not match backbone input {self.spec.input_shape}"
            )


class FlattenBackbone(Backbone):
    def extract_batch(self, samples):
        return to_float(self.head_inputs(samples))

    def head_inputs(self, samples):
        self._check_batch(samples)
        return samples.reshape(samples.shape[0], self.spec.flat_dim)


class RandomProjectionBackbone(Backbone):
    """Fixed Gaussian projection; rows normalised to unit Euclidean norm.
    Extracts in row_chunks, whose products have the bits of one whole-set
    product."""

    # bound here as well, where the benchmark's tracer looks for it
    extract_batch = Backbone.extract_batch
    _chunk_rows = None  # tensor.ROW_CHUNK, read when the chunks are made

    def __init__(self, spec):
        super().__init__(spec)
        rng = SeededRng(spec.seed)
        self.projection = _unit_rows(spec.output_dim, spec.flat_dim, rng)

    def _transform(self, x, out, scratch):
        x = x.reshape(x.shape[0], self.spec.flat_dim)
        if x.dtype != np.float64:  # scaled into one buffer per chunk shape
            x = to_float(x, _buffer(scratch, "pixels", x.shape))
        np.matmul(x, self.projection.T, out=out)


class TinyConvBackbone(Backbone):
    """Two frozen 3x3 valid convs (uniform weights in [-1, 1], no bias), each
    followed by ReLU and 2x2 stride-2 mean pooling, then a unit-row projection
    to output_dim."""

    def __init__(self, spec):
        super().__init__(spec)
        h, w, c = spec.input_shape
        rng = SeededRng(spec.seed)
        self.w1 = rng.uniform(-1.0, 1.0, size=(_CONV1_CHANNELS, c, 3, 3))
        self.w2 = rng.uniform(-1.0, 1.0, size=(_CONV2_CHANNELS, _CONV1_CHANNELS, 3, 3))
        self.projection = _unit_rows(spec.output_dim, _conv_stack_dim(h, w), rng)
        # (9 * c_in, c_out), rows in (dy, dx, c_in) order; used as kernel.T
        self._kernels = tuple(w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0]) for w in (self.w1, self.w2))

    @staticmethod
    def _conv_relu_pool(x, kernel, scratch):
        """Valid 3x3 conv of a batch-innermost map (c_in, h, w, b) as one
        im2col GEMM, then ReLU and 2x2 stride-2 mean pooling; an odd axis
        drops its last row or column and an axis shorter than 2 passes
        through. The dropped row or column is never computed, and the
        outputs that are keep the bits of the full product
        (tests/test_backbone.py checks odd and even shapes). The result is
        batch-innermost and is one of the scratch buffers."""
        c_in, h, wd, b = x.shape
        c_out = kernel.shape[1]
        # conv outputs that pooling reads: an even count, or the 1 that passes
        oh, ow = (n // 2 * 2 if n >= 2 else n for n in (h - 2, wd - 2))
        # K-major patches: row (dy, dx, c_in) of the 9 * c_in rows holds input
        # channel c_in shifted by (dy, dx), so each tap is one slice copy in
        # contiguous runs of ow * b elements, a whole shifted image row.
        patches = _buffer(scratch, "patches", (9, c_in, oh, ow, b))
        for tap in range(9):
            dy, dx = divmod(tap, 3)
            patches[tap] = x[:, dy:dy + oh, dx:dx + ow]
        # With kernel.T a transposed view, this product has the bits of the
        # row-major im2col product patches.T @ kernel under 1, 2 and 4 BLAS
        # threads (tests/test_backbone.py); a contiguous (c_out, 9 * c_in)
        # kernel does not on small products. A sample's column moves with
        # the layout, its dot products do not.
        y = _buffer(scratch, "conv", (c_out, oh, ow, b))
        np.matmul(kernel.T, patches.reshape(9 * c_in, -1), out=y.reshape(c_out, -1))
        np.maximum(y, 0.0, out=y)
        # rows pool in runs of ow * b elements, then columns in runs of b
        if oh >= 2:
            pooled = _buffer(scratch, "pool_h", (c_out, oh // 2, ow, b))
            y = np.add(y[:, 0::2], y[:, 1::2], out=pooled)
            y *= 0.5
        if ow >= 2:
            pooled = _buffer(scratch, "pool_w", y.shape[:2] + (ow // 2, b))
            y = np.add(y[:, :, 0::2], y[:, :, 1::2], out=pooled)
            y *= 0.5
        return y

    def _transform(self, x, out, scratch):
        y = x.transpose(3, 1, 2, 0)  # batch-innermost (c, h, w, b) up to the last pool
        y = to_float(y, _buffer(scratch, "pixels", y.shape))
        for kernel in self._kernels:
            y = self._conv_relu_pool(y, kernel, scratch)
        y = y.transpose(3, 1, 2, 0)  # one transpose back to (b, h, w, c)
        flat = _buffer(scratch, "flat", y.shape)
        flat[...] = y
        np.matmul(flat.reshape(x.shape[0], -1), self.projection.T, out=out)


def build_backbone(spec: BackboneSpec) -> Backbone:
    if spec.kind == "flatten":
        return FlattenBackbone(spec)
    if spec.kind == "randproj":
        return RandomProjectionBackbone(spec)
    return TinyConvBackbone(spec)
