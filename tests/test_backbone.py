import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import blas_pinned_env, mnist_like
from driftclust import backbone
from driftclust.backbone import (_EXTRACT_CHUNK, BackboneSpec, TinyConvBackbone, build_backbone,
                                 to_float)
from driftclust.tensor import row_chunks


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
    env = blas_pinned_env(threads)
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
    n = 2 * _EXTRACT_CHUNK + 3  # the last chunk overlaps the one before
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
    through the im2col stages and one projection GEMM; a row of two
    overlapping chunks keeps the later chunk's features."""
    out = np.empty((samples.shape[0], bb.spec.output_dim))
    for rows in row_chunks(samples.shape[0], _EXTRACT_CHUNK):
        y = to_float(samples[rows])
        y = im2col_conv_relu_pool(y, bb.w1)
        y = im2col_conv_relu_pool(y, bb.w2)
        out[rows] = y.reshape(y.shape[0], -1) @ bb.projection.T
    return out


# at 2 * _EXTRACT_CHUNK + 9 images a short last chunk of 9 would put 4 in the
# conv GEMM's column tail; the overlapping full last chunk puts none there
@pytest.mark.parametrize("n", [_EXTRACT_CHUNK, 2 * _EXTRACT_CHUNK + 1, 2 * _EXTRACT_CHUNK + 3,
                               2 * _EXTRACT_CHUNK + 9])
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
    env = blas_pinned_env(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_tinyconv_matches_im2col_reference_bit_for_bit"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.parametrize("dtype", ["uint8", "float64"])
def test_tinyconv_features_do_not_depend_on_the_set_size(dtype):
    # every chunk is full, so an image's features are those it gets in a larger set
    bb = build_backbone(BackboneSpec("tinyconv", (28, 28, 1), 128, seed=1))
    pixels, _ = mnist_like(3 * _EXTRACT_CHUNK, seed=12)
    samples = pixels.reshape(-1, 28, 28, 1)
    if dtype == "float64":
        samples = to_float(samples)
    whole = bb.extract_batch(samples)
    for n in (41, 65, 73):
        assert bb.extract_batch(samples[:n]).tobytes() == whole[:n].tobytes()
        assert bb.extract_batch(samples[-n:]).tobytes() == whole[-n:].tobytes()


@pytest.mark.parametrize("kind,out_dim", [("flatten", 100), ("randproj", 6), ("tinyconv", 6)])
def test_empty_batch_gives_empty_features(kind, out_dim):
    # head_inputs are the features, or for flatten the flat_dim samples
    bb = build_backbone(BackboneSpec(kind, (10, 10, 1), out_dim, seed=3))
    for dtype in (np.uint8, np.float64):
        samples = np.zeros((0, 10, 10, 1), dtype=dtype)
        feats = bb.extract_batch(samples)
        assert feats.shape == (0, out_dim) and feats.dtype == np.float64
        assert bb.head_inputs(samples).shape == (0, out_dim)


def test_tinyconv_scratch_is_per_call():
    spec = BackboneSpec("tinyconv", (10, 10, 1), 6, seed=17)
    bb = build_backbone(spec)
    rng = np.random.RandomState(8)
    first_in = rng.rand(2 * _EXTRACT_CHUNK, 10, 10, 1)
    second_in = rng.rand(_EXTRACT_CHUNK + 5, 10, 10, 1)  # ends in an overlapping chunk
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


@pytest.mark.parametrize("shape", [(13, 17, 1), (14, 14, 1), (10, 11, 3), (8, 8, 2)])
def test_tinyconv_uncomputed_pool_remainders_keep_the_im2col_bits(shape):
    # An odd conv output axis drops its last row or column before the GEMM;
    # the reference computes it and drops it after.
    bb = build_backbone(BackboneSpec("tinyconv", shape, 12, seed=21))
    samples = np.random.RandomState(9).randint(0, 256, size=(2 * _EXTRACT_CHUNK + 3, *shape))
    samples = samples.astype(np.uint8)
    assert np.array_equal(bb.extract_batch(samples), tinyconv_im2col_reference(bb, samples))


@pytest.mark.parametrize("env,threads", [
    ({}, None),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"GOTO_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 3),
    ({"OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "many"}, None),
])
def test_blas_threads_come_from_the_first_variable_openblas_reads(env, threads):
    assert backbone._blas_threads(env) == threads


@pytest.mark.parametrize("threads,sharers,workers", [
    (None, 1, 1),  # OpenBLAS already runs on every CPU
    (1, 1, 4),
    (2, 1, 2),
    (3, 1, 1),
    (8, 1, 1),
    (1, 2, 2),  # two sweep workers on the same 4 CPUs
    (2, 2, 1),
    (1, 8, 1),
])
def test_extract_workers_divide_the_cpus_by_blas_threads_and_sharers(monkeypatch, threads,
                                                                       sharers, workers):
    monkeypatch.setattr(backbone, "_BLAS_THREADS", threads)
    monkeypatch.setattr(backbone, "_cpu_sharers", 1)
    backbone.share_cpus(sharers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert backbone._extract_workers() == workers


def test_runs_keep_an_overlapping_chunk_with_the_one_before():
    runs = backbone._runs(row_chunks(3000), 4)  # [0, 1024), [1024, 2048), [1976, 3000)
    assert runs == [[slice(0, 1024)], [slice(1024, 2048), slice(1976, 3000)]]
    chunks = [slice(lo, lo + _EXTRACT_CHUNK) for lo in range(0, 5 * _EXTRACT_CHUNK, _EXTRACT_CHUNK)]
    assert [len(run) for run in backbone._runs(chunks, 2)] == [2, 3]
    assert backbone._runs(chunks, 1) == [chunks]
    assert backbone._runs([], 2) == [[]]


def _tinyconv_batch(n):
    bb = build_backbone(BackboneSpec("tinyconv", (10, 10, 1), 6, seed=17))
    return bb, np.random.RandomState(10).rand(n, 10, 10, 1)


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_extraction_error_reaches_the_caller_and_the_pool_stops(monkeypatch, where):
    monkeypatch.setattr(backbone, "_extract_workers", lambda: 2)
    bb, samples = _tinyconv_batch(8 * _EXTRACT_CHUNK + 5)
    error = RuntimeError(f"chunk failed on the {where}")
    transform = bb._transform

    def failing(x, out, scratch):
        if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
            raise error
        transform(x, out, scratch)

    monkeypatch.setattr(bb, "_transform", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        bb.extract_batch(samples)
    assert raised.value is error
    assert threading.active_count() == before


def test_extraction_runs_on_pool_threads_only_when_blas_is_pinned(monkeypatch):
    bb, samples = _tinyconv_batch(8 * _EXTRACT_CHUNK + 5)
    transform = bb._transform
    seen = []

    def recording(x, out, scratch):
        seen.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
        transform(x, out, scratch)

    monkeypatch.setattr(bb, "_transform", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    before = threading.active_count()
    monkeypatch.setattr(backbone, "_BLAS_THREADS", None)
    bb.extract_batch(samples)
    assert seen == [(True, before)] * 9  # no thread was started
    monkeypatch.setattr(backbone, "_BLAS_THREADS", 1)
    seen.clear()
    bb.extract_batch(samples)
    assert not all(on_caller for on_caller, _ in seen)
    assert threading.active_count() == before


@pytest.mark.parametrize("kind,shape,n", [("tinyconv", (10, 10, 1), 8 * _EXTRACT_CHUNK + 5),
                                           ("randproj", (8, 8, 1), 3000)])
def test_more_workers_than_cores_write_every_row_once(monkeypatch, kind, shape, n):
    bb = build_backbone(BackboneSpec(kind, shape, 6, seed=17))
    samples = np.random.RandomState(11).randint(0, 256, size=(n, *shape)).astype(np.uint8)
    monkeypatch.setattr(backbone, "_extract_workers", lambda: 1)
    expected = bb.extract_batch(samples)
    monkeypatch.setattr(backbone, "_extract_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bb.extract_batch(samples)
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == expected.tobytes()


_WIDTH_CHILD = """
import hashlib, os, sys
if sys.argv[2] != "all":
    os.sched_setaffinity(0, {int(sys.argv[2])})
import numpy as np
from driftclust import backbone
samples = np.load(sys.argv[1])
print("workers", backbone._extract_workers())
for kind in ("tinyconv", "randproj"):
    bb = backbone.build_backbone(backbone.BackboneSpec(kind, (28, 28, 1), 128, seed=1))
    print(kind, hashlib.sha256(bb.extract_batch(samples).tobytes()).hexdigest())
"""


def test_features_do_not_depend_on_the_worker_count(tmp_path):
    # 3000 images: 94 tinyconv chunks and 3 randproj row_chunks, each kind's
    # last one overlapping the one before; randproj's runs on a pool thread.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("fewer than 2 CPUs available: every extraction runs one worker")
    pixels, _ = mnist_like(3000, seed=4)
    np.save(tmp_path / "samples.npy", pixels.reshape(3000, 28, 28, 1))
    outputs = []
    for cpu in ("all", str(cpus[0])):
        proc = subprocess.run([sys.executable, "-c", _WIDTH_CHILD, str(tmp_path / "samples.npy"), cpu],
                              env=blas_pinned_env(1), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-3000:]
        outputs.append(dict(line.split() for line in proc.stdout.splitlines()))
    wide, narrow = outputs
    assert (int(wide.pop("workers")), int(narrow.pop("workers"))) == (len(cpus), 1)
    assert wide == narrow


@pytest.mark.parametrize("spec,attr,digest", [
    (BackboneSpec("tinyconv", (28, 28, 1), 64, seed=1), "w1",
     "e3ec3ea8e651f5efaeaceffaaa856ad6a5920015785582824ad0792a24ef466a"),
    (BackboneSpec("tinyconv", (28, 28, 1), 64, seed=1), "w2",
     "30f944e5d479ba7db4b4d670b604ca00bc81ea61313272591b91e9b70e536990"),
    (BackboneSpec("tinyconv", (28, 28, 1), 64, seed=1), "projection",
     "07fa8badd071396c4931c1ece328539e8856ee9c2db0e11286c8e163771a38f7"),
    (BackboneSpec("randproj", (1, 50, 1), 128, seed=1), "projection",
     "2cd8b7724a503aed78dc21de7eedd733fbb1f61ac3814567383fe9f569f81399"),
])
def test_frozen_parameters_are_pinned(spec, attr, digest):
    # the conv weights as the per-weight scalar loops drew them, the
    # projections as Box-Muller from IEEE basic operations draws them
    # (test_gauss_is_within_the_ulp_bound_of_math_log_and_cos)
    weights = getattr(build_backbone(spec), attr)
    assert hashlib.sha256(weights.astype("<f8").tobytes()).hexdigest() == digest
