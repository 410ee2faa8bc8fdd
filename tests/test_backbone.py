import numpy as np
import pytest

from driftclust.backbone import BackboneSpec, build_backbone, to_float


def extract_one(backbone, sample):
    """Features of one sample, through a one-row batch."""
    return backbone.extract_batch(sample[None])[0]


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
    spec = BackboneSpec("randproj", (1, 8, 1), 4, seed=13)
    bb = build_backbone(spec)
    samples = np.random.RandomState(4).randn(6, 1, 8, 1)
    batch = bb.extract_batch(samples)
    for i in range(6):
        assert np.allclose(batch[i], extract_one(bb, samples[i]), atol=1e-12)
