import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import mnist_like
from driftclust.backbone import (_EXTRACT_CHUNK, BackboneSpec, TinyConvBackbone, build_backbone,
                                 to_float)


def extract_one(backbone, sample):
    """Features of one sample, through a one-row batch."""
    return backbone.extract_batch(sample[None])[0]


def _mean_pool2(x):
    """2x2 stride-2 mean pooling of one (h, w, c) map, per axis; axes shorter
    than 2 pass through."""
    h, w, c = x.shape
    if h >= 2:
        ph = h // 2
        x = x[: ph * 2].reshape(ph, 2, w, c).mean(axis=1)
        h = ph
    if w >= 2:
        pw = w // 2
        x = x[:, : pw * 2].reshape(h, pw, 2, c).mean(axis=2)
    return x


def _conv_relu_pool(x, w):
    """Valid 3x3 conv of one (h, w, c_in) map, tap by tap, then ReLU and pooling."""
    h, wd, c_in = x.shape
    out = np.zeros((h - 2, wd - 2, w.shape[0]))
    for dy in range(3):
        for dx in range(3):
            out += x[dy:h - 2 + dy, dx:wd - 2 + dx, :] @ w[:, :, dy, dx].T
    return _mean_pool2(np.maximum(out, 0.0))


def tinyconv_oracle(bb, sample):
    """Per-image tinyconv features: two conv stages, then the projection matvec."""
    y = _conv_relu_pool(to_float(sample), bb.w1)
    y = _conv_relu_pool(y, bb.w2)
    return bb.projection @ y.reshape(-1)


def test_flatten_is_reshaping():
    spec = BackboneSpec("flatten", (2, 2, 1), 4, seed=0)
    sample = np.array([[0.1, 0.2], [0.3, 0.4]]).reshape(2, 2, 1)
    out = extract_one(build_backbone(spec), sample)
    assert np.array_equal(out, np.array([0.1, 0.2, 0.3, 0.4]))


def test_flatten_output_dim_enforced():
    with pytest.raises(ValueError):
        BackboneSpec("flatten", (2, 2, 1), 5, seed=0)


def test_uint8_samples_are_scaled():
    spec = BackboneSpec("flatten", (1, 2, 1), 2, seed=0)
    sample = np.array([0, 255], dtype=np.uint8).reshape(1, 2, 1)
    assert np.array_equal(extract_one(build_backbone(spec), sample), np.array([0.0, 1.0]))


def test_to_float_into_a_buffer_matches_a_fresh_conversion():
    pixels = np.arange(256, dtype=np.uint8).reshape(4, 8, 8, 1)
    out = np.empty(pixels.shape)
    assert to_float(pixels, out) is out
    assert out.tobytes() == (pixels.astype(np.float64) / 255.0).tobytes()
    assert to_float(pixels).tobytes() == out.tobytes()


def test_flatten_head_inputs_keep_the_samples_and_convert_to_the_features():
    bb = build_backbone(BackboneSpec("flatten", (28, 28, 1), 784, seed=0))
    pixels, _ = mnist_like(40, seed=1)
    samples = pixels.reshape(40, 28, 28, 1)
    kept = bb.head_inputs(samples)
    assert kept.dtype == np.uint8 and np.shares_memory(kept, samples)
    rows = [3, 17, 0, 39]
    assert to_float(kept[rows]).tobytes() == bb.extract_batch(samples)[rows].tobytes()


def test_randproj_chunks_match_the_whole_set_product():
    # row_chunks of 1024 rows, the last overlapping the one before; chunks of 32
    # would end in one of 8 rows, a product with other bits in OpenBLAS
    bb = build_backbone(BackboneSpec("randproj", (28, 28, 1), 128, seed=1))
    pixels, _ = mnist_like(5992, seed=3)
    samples = pixels.reshape(5992, 28, 28, 1)
    whole = to_float(samples).reshape(5992, -1) @ bb.projection.T
    assert bb.extract_batch(samples).tobytes() == whole.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_randproj_chunks_match_the_whole_set_product_under_blas_threads(threads):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_randproj_chunks_match_the_whole_set_product"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_randproj_matches_matvec_of_flatten():
    spec = BackboneSpec("randproj", (3, 3, 1), 5, seed=42)
    bb = build_backbone(spec)
    sample = np.arange(9, dtype=np.float64).reshape(3, 3, 1) / 10.0
    expected = bb.projection @ to_float(sample).reshape(-1)
    assert np.allclose(extract_one(bb, sample), expected, atol=1e-12)


def test_randproj_rows_unit_norm():
    spec = BackboneSpec("randproj", (4, 4, 1), 8, seed=3)
    bb = build_backbone(spec)
    norms = np.sqrt((bb.projection ** 2).sum(axis=1))
    assert np.allclose(norms, 1.0, atol=1e-9)


@pytest.mark.parametrize("kind,out_dim", [("flatten", 81), ("randproj", 6), ("tinyconv", 6)])
def test_zero_sample_maps_to_zero(kind, out_dim):
    spec = BackboneSpec(kind, (9, 9, 1), out_dim, seed=5)
    out = extract_one(build_backbone(spec), np.zeros((9, 9, 1)))
    assert np.allclose(out, 0.0)


@pytest.mark.parametrize("kind,out_dim", [("flatten", 100), ("randproj", 10), ("tinyconv", 12)])
def test_extract_deterministic(kind, out_dim):
    spec = BackboneSpec(kind, (10, 10, 1), out_dim, seed=11)
    sample = np.linspace(0, 1, 100).reshape(10, 10, 1)
    a = extract_one(build_backbone(spec), sample)
    b = extract_one(build_backbone(spec), sample)  # freshly built, same seed
    assert np.array_equal(a, b)


def test_extract_rejects_wrong_shape():
    spec = BackboneSpec("flatten", (2, 3, 1), 6, seed=0)
    with pytest.raises(ValueError):
        extract_one(build_backbone(spec), np.zeros((3, 2, 1)))


def test_tinyconv_bounded_on_unit_inputs():
    spec = BackboneSpec("tinyconv", (10, 10, 1), 7, seed=9)
    bb = build_backbone(spec)
    assert np.all(np.abs(bb.w1) <= 1.0) and np.all(np.abs(bb.w2) <= 1.0)
    rng = np.random.RandomState(2)
    for _ in range(5):
        out = extract_one(bb, rng.rand(10, 10, 1))
        assert np.all(np.isfinite(out))


def test_tinyconv_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        BackboneSpec("tinyconv", (2, 2, 1), 4, seed=0)


def test_extract_batch_matches_extract():
    """Row independence: row i of a batch equals a one-row batch of sample i."""
    spec = BackboneSpec("tinyconv", (10, 10, 1), 4, seed=13)
    bb = build_backbone(spec)
    samples = np.random.RandomState(4).rand(_EXTRACT_CHUNK + 5, 10, 10, 1)
    batch = bb.extract_batch(samples)
    for i in range(samples.shape[0]):
        assert np.allclose(batch[i], extract_one(bb, samples[i]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(28, 28, 1), (9, 9, 1), (8, 11, 1), (10, 10, 3)])
def test_tinyconv_batch_matches_per_image_oracle(shape):
    bb = build_backbone(BackboneSpec("tinyconv", shape, 12, seed=21))
    n = 2 * _EXTRACT_CHUNK + 3  # the last chunk is partial
    samples = np.random.RandomState(5).randint(0, 256, size=(n, *shape)).astype(np.uint8)
    batch = bb.extract_batch(samples)
    assert batch.shape == (n, 12)
    for i in range(n):
        assert np.allclose(batch[i], tinyconv_oracle(bb, samples[i]), rtol=0, atol=1e-12)


def im2col_conv_relu_pool(x, w):
    """Valid 3x3 conv of a batch (b, h, w, c_in) as one sliding-window im2col
    GEMM, patches @ kernel with patch columns in (dy, dx, c_in) order, then
    ReLU and 2x2 stride-2 mean pooling, on fresh arrays at every step."""
    b, h, wd, c_in = x.shape
    c_out = w.shape[0]
    windows = sliding_window_view(x, (3, 3), axis=(1, 2))  # (b, h-2, w-2, c_in, 3, 3)
    patches = windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * c_in)
    kernel = w.transpose(2, 3, 1, 0).reshape(9 * c_in, c_out)
    y = np.maximum(patches @ kernel, 0.0).reshape(b, h - 2, wd - 2, c_out)
    if y.shape[1] >= 2:
        end = y.shape[1] // 2 * 2
        y = (y[:, 0:end:2] + y[:, 1:end:2]) * 0.5
    if y.shape[2] >= 2:
        end = y.shape[2] // 2 * 2
        y = (y[:, :, 0:end:2] + y[:, :, 1:end:2]) * 0.5
    return y


def tinyconv_im2col_reference(bb, samples):
    """Tinyconv features in the same chunks as extract_batch, each chunk
    through the im2col stages and one projection GEMM."""
    rows = []
    for start in range(0, samples.shape[0], _EXTRACT_CHUNK):
        y = to_float(samples[start:start + _EXTRACT_CHUNK])
        y = im2col_conv_relu_pool(y, bb.w1)
        y = im2col_conv_relu_pool(y, bb.w2)
        rows.append(y.reshape(y.shape[0], -1) @ bb.projection.T)
    return np.concatenate(rows)


@pytest.mark.parametrize("n", [2 * _EXTRACT_CHUNK + 3, 2 * _EXTRACT_CHUNK + 1])
@pytest.mark.parametrize("dtype", ["uint8", "float64"])
@pytest.mark.parametrize("shape", [(28, 28, 1), (9, 9, 1), (8, 11, 1), (10, 10, 3)])
def test_tinyconv_matches_im2col_reference_bit_for_bit(shape, dtype, n):
    bb = build_backbone(BackboneSpec("tinyconv", shape, 12, seed=21))
    rng = np.random.RandomState(6)
    if dtype == "uint8":
        samples = rng.randint(0, 256, size=(n, *shape)).astype(np.uint8)
    else:
        samples = rng.rand(n, *shape)
    assert np.array_equal(bb.extract_batch(samples), tinyconv_im2col_reference(bb, samples))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_tinyconv_matches_im2col_reference_under_blas_threads(threads):
    # The conv GEMM's operand layout must not make any thread count leave the
    # im2col bits; each count needs its own process, as OpenBLAS reads it once.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_tinyconv_matches_im2col_reference_bit_for_bit"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_tinyconv_scratch_is_per_call():
    spec = BackboneSpec("tinyconv", (10, 10, 1), 6, seed=17)
    bb = build_backbone(spec)
    rng = np.random.RandomState(8)
    first_in = rng.rand(2 * _EXTRACT_CHUNK, 10, 10, 1)
    second_in = rng.rand(_EXTRACT_CHUNK + 5, 10, 10, 1)  # ends in a partial chunk
    first = bb.extract_batch(first_in)
    first_bytes = first.tobytes()
    second = bb.extract_batch(second_in)
    assert first.tobytes() == first_bytes
    assert np.array_equal(first, build_backbone(spec).extract_batch(first_in))
    assert np.array_equal(second, build_backbone(spec).extract_batch(second_in))


def test_tinyconv_extracts_through_base_extract_batch():
    # Backbone.extract_batch is the traced span that extraction timings are
    # read from; tinyconv supplies only the batched _transform kernel.
    assert "extract_batch" not in vars(TinyConvBackbone)


@pytest.mark.parametrize("spec,attr,digest", [
    (BackboneSpec("tinyconv", (28, 28, 1), 64, seed=1), "w1",
     "e3ec3ea8e651f5efaeaceffaaa856ad6a5920015785582824ad0792a24ef466a"),
    (BackboneSpec("tinyconv", (28, 28, 1), 64, seed=1), "w2",
     "30f944e5d479ba7db4b4d670b604ca00bc81ea61313272591b91e9b70e536990"),
    (BackboneSpec("tinyconv", (28, 28, 1), 64, seed=1), "projection",
     "e7494819932dc6c8f16b74b702b972d51a8b26a2c7ea2132f6937378e1b0ed01"),
    (BackboneSpec("randproj", (1, 50, 1), 128, seed=1), "projection",
     "3792ab45ab9f615e0d51ebe91d28a70f5ce1b1fef4dfa0776d29eff42717146f"),
])
def test_frozen_parameters_are_pinned(spec, attr, digest):
    # as the per-weight scalar loops drew them
    weights = getattr(build_backbone(spec), attr)
    assert hashlib.sha256(weights.astype("<f8").tobytes()).hexdigest() == digest
