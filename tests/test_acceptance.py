"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Criterion 5 needs the real MNIST training files; point MNIST_DIR
at a directory holding train-images-idx3-ubyte(.gz) and
train-labels-idx1-ubyte(.gz), or drop them under ./data/mnist."""

import math
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import acceptance_blob_setup, small_blob_setup
from driftclust.cli import main
from driftclust.clustering import CentroidBank, update_centroid
from driftclust.dataio import load_idx
from driftclust.head import FeatureHead, init_head, sse_loss
from driftclust.metrics import nmi
from driftclust.tensor import SeededRng
from driftclust.trainer import JointTrainer, TrainerConfig


def report(number, name, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"[criterion {number}] {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = SeededRng(10_001)
    step, rel_tol = 1e-5, 1e-4
    for _ in range(100):
        input_dim = 2 + rng.randint(7)
        hidden_dim = 2 + rng.randint(7)
        k = 2 + rng.randint(7)
        head = init_head(input_dim, hidden_dim, k, eta=0.1, rng=rng)
        x = rng.gauss(size=input_dim)
        label = rng.randint(k)
        trace = head.forward(x)
        grads = dict(zip(("hidden", "out"), head.backward(trace, label)))
        for name, w in (("hidden", head.w_hidden), ("out", head.w_out)):
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + step
                up = sse_loss(head.forward(x).y, label)
                w[idx] = orig - step
                down = sse_loss(head.forward(x).y, label)
                w[idx] = orig
                fd = (up - down) / (2.0 * step)
                analytic = grads[name][idx]
                denom = max(abs(fd), abs(analytic), 1e-8)
                assert abs(fd - analytic) / denom < rel_tol, \
                    f"{name}{idx}: analytic={analytic}, finite-diff={fd}"
    report(1, "gradient correctness vs central differences", started, 10.0)


def test_criterion_2_drift_rollback_identity():
    started = time.perf_counter()
    rng = SeededRng(10_002)
    for _ in range(100):
        input_dim = 2 + rng.randint(9)
        hidden_dim = 2 + rng.randint(9)
        k = 2 + rng.randint(7)
        eta = 0.001 + rng.random() * 0.5
        head = init_head(input_dim, hidden_dim, k, eta=eta, rng=rng)
        prev = head.copy()
        x = rng.gauss(size=input_dim)
        label = rng.randint(k)
        head.sgd_step(x, label)
        x_probe = rng.gauss(size=input_dim)
        rolled = head.rollback_hidden_batch(x_probe[None])[0]
        reference = prev.forward(x_probe).h
        assert np.max(np.abs(rolled - reference)) < 1e-9
    report(2, "single-step rollback reproduces previous features", started, 5.0)


def test_criterion_3_streaming_mean_telescoping():
    started = time.perf_counter()
    rng = SeededRng(10_003)
    for n in (2, 17, 1000):
        points = rng.gauss(size=(n, 8)) * 5
        bank = CentroidBank(points[:1].copy(), np.array([1]))
        update_centroid(bank, np.zeros(n - 1, dtype=np.int64), points[1:])
        assert np.max(np.abs(bank.centroids[0] - points.mean(axis=0))) < 1e-9
        assert bank.counts[0] == n
    report(3, "per-centroid rates telescope to the exact mean", started, 1.0)


def brute_force_nmi(truth, pred):
    n = len(truth)
    joint = Counter(zip(truth, pred))
    pt, pp = Counter(truth), Counter(pred)

    def ent(c):
        return -sum((v / n) * math.log(v / n) for v in c.values())

    h_t, h_p = ent(pt), ent(pp)
    if h_t == 0.0 or h_p == 0.0:
        return 1.0 if len(joint) == len(pt) == len(pp) else 0.0
    mi = sum((c / n) * math.log((c * n) / (pt[a] * pp[b])) for (a, b), c in joint.items())
    value = mi / math.sqrt(h_t * h_p)
    identical = all(v == 1 for v in Counter(a for a, _ in joint).values()) and \
        all(v == 1 for v in Counter(b for _, b in joint).values())
    return 1.0 if identical else min(max(value, 0.0), 1.0)


def test_criterion_4_nmi_oracle():
    started = time.perf_counter()
    assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == 0.0
    fixed = nmi([0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1])
    assert abs(fixed - brute_force_nmi([0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1])) < 1e-10

    rng = SeededRng(10_004)
    for _ in range(200):
        n = 1 + rng.randint(50)
        kt, kp = 1 + rng.randint(6), 1 + rng.randint(6)
        truth = [rng.randint(kt) for _ in range(n)]
        pred = [rng.randint(kp) for _ in range(n)]
        assert abs(nmi(truth, pred) - brute_force_nmi(truth, pred)) < 1e-10
    report(4, "NMI matches the brute-force contingency oracle", started, 5.0)


def locate_mnist():
    candidates = []
    if os.environ.get("MNIST_DIR"):
        candidates.append(Path(os.environ["MNIST_DIR"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    stems = [("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
             ("train-images.idx3-ubyte", "train-labels.idx1-ubyte")]
    for root in candidates:
        for img_stem, lab_stem in stems:
            for suffix in ("", ".gz"):
                img, lab = root / (img_stem + suffix), root / (lab_stem + suffix)
                if img.exists() and lab.exists():
                    return img, lab
    return None, None


def test_criterion_5_mnist_baseline3_lloyd_on_random_head_features():
    images, labels = locate_mnist()
    if images is None:
        pytest.skip("MNIST training files not found (no network in this environment); "
                    "set MNIST_DIR or place train-images-idx3-ubyte(.gz) and "
                    "train-labels-idx1-ubyte(.gz) under ./data/mnist to run the anchor")
    started = time.perf_counter()
    dataset = load_idx(images, labels)
    assert dataset.n == 60_000 and dataset.shape == (28, 28, 1)
    from driftclust.backbone import BackboneSpec
    spec = BackboneSpec("flatten", dataset.shape, 28 * 28, seed=1)
    config = TrainerConfig(k=10, mode="baseline3", seed=0)
    result = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
    value = result.nmi_history[-1]
    assert 0.40 <= value <= 0.60, f"MNIST k-means NMI {value:.4f} outside [0.40, 0.60]"
    report(5, f"MNIST full-set k-means anchor (nmi={value:.3f})", started, 600.0)


@pytest.mark.slow
def test_criterion_6_joint_training_sanity():
    started = time.perf_counter()
    finals = []
    for seed in range(10):
        dataset, spec, config = acceptance_blob_setup(seed)
        result = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
        finals.append(result.nmi_history[-1])
    passing = sum(v >= 0.95 for v in finals)
    assert passing >= 8, f"only {passing}/10 seeds reached NMI 0.95: " \
                         f"{[f'{v:.3f}' for v in finals]}"
    report(6, f"blob benchmark joint training ({passing}/10 seeds >= 0.95)", started, 180.0)


@pytest.mark.slow
def test_criterion_7_ablation_direction():
    started = time.perf_counter()
    full_scores, base_scores = [], []
    for seed in range(10):
        dataset, spec, config = acceptance_blob_setup(seed, eta=0.5)
        full_scores.append(JointTrainer(dataset, spec, config,
                                        ground_truth=dataset.labels).run().nmi_history[-1])
        dataset, spec, config = acceptance_blob_setup(seed, eta=0.5, mode="baseline1")
        base_scores.append(JointTrainer(dataset, spec, config,
                                        ground_truth=dataset.labels).run().nmi_history[-1])
    mean_full, mean_base = np.mean(full_scores), np.mean(base_scores)
    assert mean_full >= mean_base, \
        f"drift compensation should not hurt: full={mean_full:.4f} < baseline1={mean_base:.4f}"
    report(7, f"ablation direction (full={mean_full:.3f} >= baseline1={mean_base:.3f})",
           started, 360.0)


def test_criterion_8_cadence_and_determinism(tmp_path):
    started = time.perf_counter()
    # exact fine-tune cadence, divisible and non-divisible k_m
    for k_m in (5, 7):
        dataset, spec, config = small_blob_setup(points=55, n_m=20, k_m=k_m, epochs=3)
        result = JointTrainer(dataset, spec, config).run()
        assert result.finetunes == (result.iterations * k_m) // config.n_m

    base = ["--data", "blobs", "--k", "4", "--blob-points", "55", "--blob-dim", "8",
            "--blob-separation", "25.0", "--eta", "0.001", "--nm", "20", "--km", "7",
            "--seed", "11", "--hidden-dim", "16"]

    # byte-identical outputs for identical configs
    for sub in ("r1", "r2"):
        d = tmp_path / sub
        d.mkdir()
        assert main(["cluster"] + base + ["--epochs", "4",
                                          "--out-labels", str(d / "labels.csv"),
                                          "--out-metrics", str(d / "metrics.txt")]) == 0
    assert (tmp_path / "r1" / "labels.csv").read_bytes() == \
        (tmp_path / "r2" / "labels.csv").read_bytes()
    assert (tmp_path / "r1" / "metrics.txt").read_bytes() == \
        (tmp_path / "r2" / "metrics.txt").read_bytes()

    # checkpoint mid-run, resume, and match the unbroken labels exactly
    ckpt = tmp_path / "mid.ckpt"
    assert main(["cluster"] + base + ["--epochs", "2", "--checkpoint", str(ckpt),
                                      "--out-labels", str(tmp_path / "half.csv"),
                                      "--out-metrics", str(tmp_path / "half.txt")]) == 0
    assert main(["cluster"] + base + ["--epochs", "4", "--resume", str(ckpt),
                                      "--out-labels", str(tmp_path / "resumed.csv"),
                                      "--out-metrics", str(tmp_path / "resumed.txt")]) == 0
    assert (tmp_path / "resumed.csv").read_bytes() == \
        (tmp_path / "r1" / "labels.csv").read_bytes()
    report(8, "cadence formula, byte-identical reruns, exact resume", started, 120.0)


def test_criterion_9_mode_collapse_at_eta_zero():
    started = time.perf_counter()
    streams = {}
    for mode in ("full", "baseline1", "baseline2"):
        dataset, spec, config = small_blob_setup(seed=5, points=100, eta=0.0, mode=mode,
                                                 epochs=3)
        streams[mode] = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
    assert np.array_equal(streams["full"].labels, streams["baseline1"].labels)
    assert np.array_equal(streams["full"].labels, streams["baseline2"].labels)
    assert streams["full"].nmi_history == streams["baseline1"].nmi_history \
        == streams["baseline2"].nmi_history
    report(9, "eta=0 collapses full/baseline1/baseline2", started, 60.0)
