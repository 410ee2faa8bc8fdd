"""Frozen feature extractors mapping raw samples to the trainable head's input.

Three kinds are supported: ``flatten`` (raw values), ``randproj`` (fixed
Gaussian projection with unit-norm rows), and ``tinyconv`` (two frozen 3x3
conv layers with ReLU and 2x2 mean pooling, then a fixed projection).
Parameters are drawn once from the spec seed and never trained.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError, SeededRng, row_chunks

BACKBONE_KINDS = ("flatten", "randproj", "tinyconv")

_CONV1_CHANNELS = 8
_CONV2_CHANNELS = 16
# samples per _transform call: each extraction worker's im2col buffers stay at
# a few MB, and the chunks, hence the features, are the same for any worker count
_EXTRACT_CHUNK = 32
# the variables OpenBLAS reads its thread count from, in the order it reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
    """Image bytes scaled to [0, 1], into the float64 array out if given;
    float inputs pass through as float64 and leave out unused. Elementwise,
    so any part of a sample converts to the bits of that part of the whole."""
    if sample.dtype == np.uint8:
        return np.divide(sample, 255.0, out=out)
    return np.asarray(sample, dtype=np.float64)


def _unit_rows(rows: int, cols: int, rng: SeededRng) -> np.ndarray:
    # a gauss() draw is never 0.0, so no row has norm 0
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


def _blas_threads(environ):
    """The BLAS thread count from the first variable in _BLAS_THREAD_VARS
    that holds a positive integer, or None when none does."""
    for var in _BLAS_THREAD_VARS:
        value = environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


# read once, when this module loads, as OpenBLAS reads them once when numpy
# (imported above) loads: a variable set later changes neither of them
_BLAS_THREADS = _blas_threads(os.environ)
# processes that run extractions side by side on this process's CPUs
_cpu_sharers = 1


def share_cpus(processes):
    """Make this process's extraction workers its share of the CPUs when
    `processes` processes, itself included, extract side by side on them, as
    the workers of `driftclust sweep --parallel` do."""
    global _cpu_sharers
    _cpu_sharers = max(1, int(processes))


def _extract_workers():
    """Threads for one extraction: the usable CPUs over the BLAS thread count
    and over the processes that share the CPUs, so that all their workers
    times BLAS threads stay within the CPUs. With no BLAS variable set at
    start-up OpenBLAS already runs every product on all CPUs, and more
    workers would only contend with it, so the count is 1."""
    if _BLAS_THREADS is None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // (_BLAS_THREADS * _cpu_sharers))


def _runs(chunks, workers):
    """The chunks split into at most `workers` contiguous runs of about equal
    length. A chunk that overlaps the one before stays in that chunk's run,
    so no two runs write the same row."""
    blocks = []
    for rows in chunks:
        if blocks and rows.start < blocks[-1][-1].stop:
            blocks[-1].append(rows)
        else:
            blocks.append([rows])
    workers = max(1, min(workers, len(blocks)))
    bounds = [len(blocks) * i // workers for i in range(workers + 1)]
    return [[rows for block in blocks[lo:hi] for rows in block] for lo, hi in zip(bounds, bounds[1:])]


class Backbone:
    """Base class; a kind either overrides extract_batch or defines
    _transform(x, out, scratch), which writes the features of a float batch
    x (b, h, w, c) into out (b, output_dim), one row per sample.
    extract_batch calls it on the row slices of _chunks (_EXTRACT_CHUNK
    samples each unless a kind says otherwise), where the chunk's pixels are
    scaled and a kind keeps its working buffers in a scratch dict from chunk
    to chunk.

    The chunks are split into contiguous runs, one per worker thread. The
    worker count is the usable CPUs divided by the BLAS thread count that
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS gives when the
    process starts, and by the processes that share_cpus names, capped at
    the number of chunks; with none of the variables set it is 1, as
    OpenBLAS then already runs each product on every CPU. The calling
    thread extracts the first run and pool threads the others, each with
    its own scratch dict, so scratch memory is one chunk's buffers per
    worker, a few MB each.
    numpy releases the GIL in the products and elementwise loops, so the
    runs overlap. Each chunk makes the same calls into its own rows of the
    result whatever the worker count, so the features do not depend on it.
    Workers call only _transform, to_float and _buffer, none of which the
    benchmark's tracer wraps: its span stack is not thread-safe."""

    def __init__(self, spec: BackboneSpec):
        self.spec = spec

    def extract_batch(self, samples: np.ndarray) -> np.ndarray:
        """Features of every sample along the leading axis, one row each."""
        self._check_batch(samples)
        out = np.empty((samples.shape[0], self.spec.output_dim))

        def extract(run):
            scratch = {}
            for rows in run:
                x = samples[rows]
                if x.dtype == np.uint8:  # scaled into one buffer per chunk shape
                    x = to_float(x, _buffer(scratch, "pixels", x.shape))
                self._transform(to_float(x), out[rows], scratch)

        first, *rest = _runs(self._chunks(samples.shape[0]), _extract_workers())
        # the pool starts a thread per submit, so a single run starts none
        with ThreadPoolExecutor(max(1, len(rest))) as pool:
            futures = [pool.submit(extract, run) for run in rest]
            extract(first)
            for future in futures:
                future.result()
        return out

    def head_inputs(self, samples: np.ndarray) -> np.ndarray:
        """The (n, d) array a trainer keeps for the samples: to_float of any of
        its rows gives those samples' features, bit for bit. Here these are
        the features (float64, which to_float passes through); an elementwise
        kind keeps the flattened samples in their own dtype instead, so only
        the rows in use are ever converted."""
        return self.extract_batch(samples)

    def _chunks(self, n):
        return [slice(lo, lo + _EXTRACT_CHUNK) for lo in range(0, n, _EXTRACT_CHUNK)]

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
        return samples.reshape(samples.shape[0], -1)


class RandomProjectionBackbone(Backbone):
    """Fixed Gaussian projection; rows normalised to unit Euclidean norm.
    Extracts in row_chunks, whose products have the bits of one whole-set
    product."""

    # bound here as well, where the benchmark's tracer looks for it
    extract_batch = Backbone.extract_batch

    def __init__(self, spec):
        super().__init__(spec)
        rng = SeededRng(spec.seed)
        self.projection = _unit_rows(spec.output_dim, spec.flat_dim, rng)

    def _chunks(self, n):
        return row_chunks(n)

    def _transform(self, x, out, scratch):
        np.matmul(x.reshape(x.shape[0], -1), self.projection.T, out=out)


class TinyConvBackbone(Backbone):
    """Two frozen 3x3 valid convs (uniform weights in [-1, 1], no bias), each
    followed by ReLU and 2x2 stride-2 mean pooling, then a unit-row projection
    to output_dim."""

    def __init__(self, spec):
        super().__init__(spec)
        h, w, c = spec.input_shape
        rng = SeededRng(spec.seed)
        self.w1 = self._draw_conv(_CONV1_CHANNELS, c, rng)
        self.w2 = self._draw_conv(_CONV2_CHANNELS, _CONV1_CHANNELS, rng)
        self.projection = _unit_rows(spec.output_dim, _conv_stack_dim(h, w), rng)
        # (9 * c_in, c_out), rows in (dy, dx, c_in) order; used as kernel.T
        self._kernels = tuple(w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0]) for w in (self.w1, self.w2))

    @staticmethod
    def _draw_conv(c_out, c_in, rng):
        return rng.uniform(-1.0, 1.0, size=(c_out, c_in, 3, 3))

    @staticmethod
    def _conv_relu_pool(x, kernel, scratch):
        """Valid 3x3 conv of a channel-major batch (c_in, b, h, w) as one
        im2col GEMM, then ReLU and 2x2 stride-2 mean pooling; an odd axis
        drops its last row or column and an axis shorter than 2 passes
        through. The dropped row or column is never computed, and the
        outputs that are keep the bits of the full product
        (tests/test_backbone.py checks odd and even shapes). The result is
        channel-major and is one of the scratch buffers."""
        c_in, b, h, wd = x.shape
        c_out = kernel.shape[1]
        # conv outputs that pooling reads: an even count, or the 1 that passes
        oh, ow = (n // 2 * 2 if n >= 2 else n for n in (h - 2, wd - 2))
        # K-major patches: row (dy, dx, c_in) of the 9 * c_in rows holds input
        # channel c_in shifted by (dy, dx), so each tap is one slice copy.
        patches = _buffer(scratch, "patches", (9, c_in, b, oh, ow))
        for tap in range(9):
            dy, dx = divmod(tap, 3)
            patches[tap] = x[:, :, dy:dy + oh, dx:dx + ow]
        # With kernel.T a transposed view, this product has the bits of the
        # row-major im2col product patches.T @ kernel under 1, 2 and 4 BLAS
        # threads (tests/test_backbone.py); a contiguous (c_out, 9 * c_in)
        # kernel does not on small products.
        y = _buffer(scratch, "conv", (c_out, b, oh, ow))
        np.matmul(kernel.T, patches.reshape(9 * c_in, -1), out=y.reshape(c_out, -1))
        np.maximum(y, 0.0, out=y)
        if oh >= 2:
            pooled = _buffer(scratch, "pool_h", (c_out, b, oh // 2, ow))
            y = np.add(y[:, :, 0::2], y[:, :, 1::2], out=pooled)
            y *= 0.5
        if ow >= 2:
            pooled = _buffer(scratch, "pool_w", y.shape[:3] + (ow // 2,))
            y = np.add(y[..., 0::2], y[..., 1::2], out=pooled)
            y *= 0.5
        return y

    def _transform(self, x, out, scratch):
        y = x.transpose(3, 0, 1, 2)  # channel-major (c, b, h, w)
        for kernel in self._kernels:
            y = self._conv_relu_pool(y, kernel, scratch)
        flat = _buffer(scratch, "flat", y.shape[1:] + y.shape[:1])
        flat[...] = y.transpose(1, 2, 3, 0)  # back to (b, h, w, c)
        np.matmul(flat.reshape(x.shape[0], -1), self.projection.T, out=out)


def build_backbone(spec: BackboneSpec) -> Backbone:
    if spec.kind == "flatten":
        return FlattenBackbone(spec)
    if spec.kind == "randproj":
        return RandomProjectionBackbone(spec)
    return TinyConvBackbone(spec)
