import dataclasses
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Sections, acceptance_blob_setup, mnist_like, small_blob_setup
from driftclust import tensor
from driftclust import trainer as trainer_module
from driftclust.backbone import BackboneSpec, build_backbone, to_float
from driftclust.cli import main
from driftclust.clustering import CentroidBank, assign_batch, lloyd_kmeans, update_centroid
from driftclust.dataio import Dataset, gen_blobs, load_checkpoint, save_checkpoint
from driftclust.head import FeatureHead, init_head, one_hot
from driftclust.tensor import DimensionError, SeededRng
from driftclust.trainer import LOSS_LIMIT, DivergenceError, JointTrainer, TrainerConfig, _top_indices


def test_select_top_km_examples():
    assert _top_indices(np.array([0.5, 0.1, 0.9, 0.3]), 2).tolist() == [1, 3]
    assert _top_indices(np.array([0.4, 0.2, 0.7]), 3).tolist() == [0, 1, 2]
    assert _top_indices(np.array([0.3, 0.1, 0.3, 0.3]), 2).tolist() == [0, 1]  # ties go low


def test_select_top_km_matches_sort_oracle():
    rng = SeededRng(44)
    dists = [rng.random() for _ in range(50)]
    got = _top_indices(np.array(dists), 10).tolist()
    oracle = sorted(sorted(range(50), key=lambda i: (dists[i], i))[:10])
    assert got == oracle


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 1.0, 4.0]) | st.floats(0.0, 10.0), min_size=1, max_size=40),
       st.integers(1, 50))
def test_select_top_km_takes_the_stable_order_prefix(dists, k_m):
    # distances tie often, and k_m may reach or pass the batch length
    d = np.array(dists)
    got = _top_indices(d, k_m).tolist()
    assert got == sorted(np.argsort(d, kind="stable")[:k_m].tolist())
    assert got == sorted(sorted(range(len(dists)), key=lambda i: (dists[i], i))[:k_m])


def test_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(k=1).validate()
    with pytest.raises(ValueError):
        TrainerConfig(k=3, k_m=0).validate()
    with pytest.raises(ValueError):
        TrainerConfig(k=3, k_m=60, n_m=50).validate()
    with pytest.raises(ValueError):
        TrainerConfig(k=3, eta=-0.1).validate()
    with pytest.raises(ValueError):
        TrainerConfig(k=3, mode="nope").validate()
    TrainerConfig(k=3, eta=0.0).validate()  # eta 0 is the degenerate test mode


def test_dataset_smaller_than_k_rejected():
    dataset, spec, config = small_blob_setup(k=4, points=50)
    tiny = dataclasses.replace(config, k=2048)
    with pytest.raises(ValueError):
        JointTrainer(dataset, spec, tiny)


def test_epochs_zero_is_seeding_plus_assignment():
    dataset, spec, config = small_blob_setup(epochs=0)
    trainer = JointTrainer(dataset, spec, config, ground_truth=dataset.labels)
    seeded = CentroidBank(trainer.bank.centroids.copy(), trainer.bank.counts.copy())
    result = trainer.run()
    assert result.iterations == 0 and result.finetunes == 0
    feats = trainer.head.hidden_batch(trainer.inputs)
    for i in range(dataset.n):
        assert result.labels[i] == assign_batch(seeded, feats[i:i + 1])[0][0]


def test_finetune_cadence_divisible():
    # 600 samples, n_m=20 -> 30 batches per epoch; k_m=5 fills the buffer
    # every 4 batches
    dataset, spec, config = small_blob_setup(points=150, n_m=20, k_m=5, epochs=2)
    result = JointTrainer(dataset, spec, config).run()
    total_batches = result.iterations
    assert total_batches == 60
    assert result.finetunes == (total_batches * config.k_m) // config.n_m


def test_finetune_cadence_non_divisible():
    # k_m=7 does not divide n_m=20; the floor formula must still hold exactly
    dataset, spec, config = small_blob_setup(points=150, n_m=20, k_m=7, epochs=3)
    result = JointTrainer(dataset, spec, config).run()
    assert result.finetunes == (result.iterations * 7) // 20


def test_labels_complete_and_in_range():
    dataset, spec, config = small_blob_setup()
    result = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
    assert result.labels.shape == (dataset.n,)
    assert result.labels.min() >= 0 and result.labels.max() < config.k
    assert len(result.nmi_history) == config.epochs


def test_run_deterministic():
    dataset, spec, config = small_blob_setup(eta=0.001)
    r1 = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
    r2 = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
    assert np.array_equal(r1.labels, r2.labels)
    assert r1.nmi_history == r2.nmi_history
    assert np.array_equal(r1.head.w_hidden, r2.head.w_hidden)
    assert np.array_equal(r1.centroid_bank.centroids, r2.centroid_bank.centroids)


def test_eta_zero_collapses_modes():
    outputs = {}
    for mode in ("full", "baseline1", "baseline2"):
        dataset, spec, config = small_blob_setup(eta=0.0, mode=mode)
        outputs[mode] = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
    assert np.array_equal(outputs["full"].labels, outputs["baseline2"].labels)
    assert np.array_equal(outputs["baseline1"].labels, outputs["baseline2"].labels)
    assert outputs["full"].nmi_history == outputs["baseline2"].nmi_history
    assert outputs["baseline1"].nmi_history == outputs["baseline2"].nmi_history
    # full/baseline1 still fine-tune (vacuously); baseline2 never does
    assert outputs["full"].finetunes > 0 and outputs["baseline2"].finetunes == 0


def test_baseline2_never_touches_head():
    dataset, spec, config = small_blob_setup(mode="baseline2")
    result = JointTrainer(dataset, spec, config).run()
    expected = init_head(spec.output_dim, config.hidden_dim, config.k, config.eta,
                         SeededRng(config.seed))
    assert np.array_equal(result.head.w_hidden, expected.w_hidden)
    assert np.array_equal(result.head.w_out, expected.w_out)
    assert result.head.last_delta_hidden is None
    assert result.finetunes == 0


def test_baseline2_two_points_keep_their_seeds():
    dataset = gen_blobs(k=2, points_per_cluster=1, dim=4, separation=9.0,
                        noise_sigma=0.0, rng=SeededRng(6))
    from driftclust.backbone import BackboneSpec
    spec = BackboneSpec("flatten", dataset.shape, 4, seed=7)
    config = TrainerConfig(k=2, n_m=2, k_m=1, epochs=1, mode="baseline2",
                           seed=6, hidden_dim=8)
    result = JointTrainer(dataset, spec, config).run()
    # both points were picked as seeds, so each keeps the label of its own
    # centroid and the centroids never move off the points
    assert sorted(result.labels.tolist()) == [0, 1]
    feats = result.head.hidden_batch(
        build_backbone(spec).extract_batch(dataset.samples))
    for i in range(2):
        assert np.allclose(result.centroid_bank.centroids[result.labels[i]], feats[i])


def test_baseline3_is_lloyd_on_frozen_features():
    dataset, spec, config = small_blob_setup(mode="baseline3")
    result = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
    # oracle replays the trainer's documented RNG consumption order:
    # head init first, then Lloyd's seeding from the same stream
    rng = SeededRng(config.seed)
    head = init_head(spec.output_dim, config.hidden_dim, config.k, config.eta, rng)
    feats = head.hidden_batch(build_backbone(spec).extract_batch(dataset.samples))
    labels, _ = lloyd_kmeans(feats, config.k, rng,
                             max_iters=config.lloyd_iters, tol=config.lloyd_tol)
    assert np.array_equal(result.labels, labels)
    assert result.iterations == 0


def watch_centroid_updates(monkeypatch, check):
    """Call check(trainer, pre_step_heads, xs, feats) at every centroid update.
    pre_step_heads holds a copy of the head taken before each SGD step so far,
    xs the batch's inputs and feats the rows that update the centroids."""
    pre_step_heads, batch = [], {}
    sgd_pass, update_features = FeatureHead.sgd_pass, JointTrainer._update_features

    def recording_sgd_pass(head, xs, labels):
        # replay the pass pair by pair through sgd_step, which is itself a
        # one-pair sgd_pass: the unpatched one while replaying
        done, loss = 0, 0.0
        with monkeypatch.context() as replay:
            replay.setattr(FeatureHead, "sgd_pass", sgd_pass)
            for x, label in zip(xs, labels):
                pre_step_heads.append(head.copy())
                loss = head.sgd_step(x, label)
                if not loss <= LOSS_LIMIT:
                    break
                done += 1
        return done, loss

    def recording_update_features(trainer, xs, assigned_hidden, tuned):
        batch.update(trainer=trainer, xs=xs)
        return update_features(trainer, xs, assigned_hidden, tuned)

    def checking_update_centroid(bank, labels, feats):
        check(batch["trainer"], pre_step_heads, batch["xs"], feats)
        update_centroid(bank, labels, feats)

    monkeypatch.setattr(FeatureHead, "sgd_pass", recording_sgd_pass)
    monkeypatch.setattr(JointTrainer, "_update_features", recording_update_features)
    monkeypatch.setattr(trainer_module, "update_centroid", checking_update_centroid)


@pytest.mark.parametrize("rollback", ["last_step", "snapshot"])
def test_full_mode_update_features_are_rolled_back(rollback, monkeypatch):
    checked = []

    def check(trainer, pre_step_heads, xs, feats):
        if not pre_step_heads:
            return  # before the first fine-tune the current feature is correct
        assert len(xs) == len(feats)
        # every pass is n_m steps: the last pass started n_m copies back
        rolled_back = pre_step_heads[-1] if rollback == "last_step" \
            else pre_step_heads[-trainer.config.n_m]
        for x, feature in zip(xs, feats):
            expected = np.maximum(rolled_back.w_hidden @ x, 0.0)
            assert np.max(np.abs(feature - expected)) < 1e-9
            checked.append(1)

    watch_centroid_updates(monkeypatch, check)
    dataset, spec, config = small_blob_setup(eta=0.001, epochs=2, drift_rollback=rollback)
    result = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
    assert result.finetunes > 0
    assert len(checked) > 100


def test_rollback_actually_differs_from_current_features():
    dataset, spec, config = small_blob_setup(eta=0.001, epochs=2)
    trainer = JointTrainer(dataset, spec, config)
    trainer.run()
    current = trainer.head.hidden_batch(trainer.inputs[:50])
    rolled = trainer.head.rollback_hidden_batch(trainer.inputs[:50])
    assert np.max(np.abs(current - rolled)) > 0.0


def test_baseline1_uses_post_finetune_features(monkeypatch):
    checked = []

    def check(trainer, pre_step_heads, xs, feats):
        if not pre_step_heads:
            return
        assert len(xs) == len(feats)
        for x, feature in zip(xs, feats):
            expected = np.maximum(trainer.head.w_hidden @ x, 0.0)
            assert np.max(np.abs(feature - expected)) < 1e-12
            checked.append(1)

    watch_centroid_updates(monkeypatch, check)
    dataset, spec, config = small_blob_setup(eta=0.001, epochs=2, mode="baseline1")
    JointTrainer(dataset, spec, config).run()
    assert len(checked) > 100


def test_baseline1_takes_features_again_only_in_batches_whose_pass_moved_the_head(monkeypatch):
    # n_m = 20 and k_m = 5: a pass every fourth batch. The other batches'
    # assignment features are the current ones, so each batch calls
    # hidden_batch once for its assignment and once more after a pass
    dataset, spec, config = small_blob_setup(eta=0.001, epochs=2, mode="baseline1")
    calls, hidden_batch = [], FeatureHead.hidden_batch

    def counted(head, xs):
        calls.append(1)
        return hidden_batch(head, xs)

    monkeypatch.setattr(FeatureHead, "hidden_batch", counted)
    result = JointTrainer(dataset, spec, config).run()
    assert result.iterations == 20 and result.finetunes == 5
    assert len(calls) == result.iterations + result.finetunes


def test_divergence_guard_names_iteration():
    dataset, spec, config = small_blob_setup(separation=2e4, sigma=0.0, eta=5.0,
                                             epochs=1)
    with pytest.raises(DivergenceError, match="iteration"):
        JointTrainer(dataset, spec, config).run()


def test_weight_overflow_in_single_step_pass_stops_before_centroid_update(tmp_path, capsys):
    # n_m = k_m = 1: every pass is one SGD step, so the first step's overflow
    # must be caught by the end-of-pass weight check of iteration 0, before
    # that batch's centroid update reads the head
    dataset, spec, config = small_blob_setup(n_m=1, k_m=1, eta=1e308, epochs=1)
    trainer = JointTrainer(dataset, spec, config)
    seeded = trainer.bank.centroids.copy()
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match="non-finite .* iteration 0$"):
        trainer.run()
    assert trainer.finetunes == 0 and trainer.bank.counts.tolist() == [1] * config.k
    assert np.array_equal(trainer.bank.centroids, seeded)

    args = ["cluster", "--data", "blobs", "--k", "4", "--blob-points", "50", "--blob-dim", "8",
            "--blob-separation", "25.0", "--nm", "1", "--km", "1", "--eta", "1e308",
            "--epochs", "1", "--seed", "0", "--hidden-dim", "16",
            "--out-labels", str(tmp_path / "labels.csv"),
            "--out-metrics", str(tmp_path / "metrics.txt")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == 3
    assert "iteration 0" in capsys.readouterr().err


def _check_one_hot(t):
    if t.ndim != 1:
        raise ValueError("target must be a 1-D one-hot vector")
    ones = np.count_nonzero(t == 1.0)
    if ones != 1 or np.count_nonzero(t) != ones:
        raise ValueError("target must be one-hot (exactly one 1, rest 0)")


class OracleHead:
    """The validated per-sample step the trainer's lean path replaced: a
    checked one-hot target, np.outer gradients, a whole-matrix finiteness
    check after every step, a copied rollback delta and the output gradient."""

    def __init__(self, head):
        self.w_hidden, self.w_out, self.eta = head.w_hidden.copy(), head.w_out.copy(), head.eta
        self.last_delta_hidden = self.grad_out = None
        self.steps = self.live_steps = 0

    def step(self, x, label):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.w_hidden.shape[1]:
            raise DimensionError("input does not match the head")
        u_hidden = self.w_hidden @ x
        h = np.maximum(u_hidden, 0.0)
        u_out = self.w_out @ h
        y = np.maximum(u_out, 0.0)
        t = one_hot(self.w_out.shape[0], label)
        _check_one_hot(t)
        d = y - t
        loss = 0.5 * float(np.dot(d, d))
        if not np.isfinite(loss) or loss > LOSS_LIMIT:
            raise FloatingPointError(f"loss {loss}")
        delta_out = (y - t) * (u_out > 0.0)
        grad_out = np.outer(delta_out, h)
        delta_hidden = (self.w_out.T @ delta_out) * (u_hidden > 0.0)
        grad_hidden = np.outer(delta_hidden, x)
        self.w_hidden -= self.eta * grad_hidden
        self.w_out -= self.eta * grad_out
        if not (np.all(np.isfinite(self.w_hidden)) and np.all(np.isfinite(self.w_out))):
            raise FloatingPointError("weights became non-finite during SGD step")
        self.last_delta_hidden = np.array(grad_hidden, dtype=np.float64)
        self.grad_out = np.array(grad_out, dtype=np.float64)
        self.steps += 1
        self.live_steps += bool(np.any(grad_hidden) or np.any(grad_out))


def test_finetune_pass_matches_validated_oracle():
    # 8 -> 16 -> 4 head on loosely separated blobs with random pseudo-labels,
    # so most steps apply a nonzero gradient
    dataset, spec, config = small_blob_setup(k=4, dim=8, hidden_dim=16, separation=2.0,
                                             sigma=1.0, eta=0.01, n_m=20)
    trainer = JointTrainer(dataset, spec, config)
    oracle = OracleHead(trainer.head)
    rng = SeededRng(404)
    for _ in range(5):
        pairs = [(rng.randint(dataset.n), rng.randint(config.k)) for _ in range(config.n_m)]
        trainer._finetune_pass(pairs)
        for sample_idx, label in pairs:
            oracle.step(trainer.inputs[sample_idx], label)
        for name in ("w_hidden", "w_out", "last_delta_hidden"):
            assert np.array_equal(getattr(trainer.head, name), getattr(oracle, name)), name
        assert np.array_equal(trainer.head._grad_layers[1], oracle.grad_out)  # the output half
    assert trainer.finetunes == 5 and oracle.steps == 100
    assert oracle.live_steps >= oracle.steps // 2, oracle.live_steps


@pytest.mark.xfail(strict=True, reason="dead ReLU outputs: on the blob benchmark only 26 of "
                   "10,000 SGD steps apply a nonzero gradient, so full and baseline1 end "
                   "bit-identical (ROADMAP item 1)")
def test_drift_compensation_changes_blob_benchmark_centroids():
    banks = []
    for mode in ("full", "baseline1"):
        dataset, spec, config = acceptance_blob_setup(0, mode=mode)
        banks.append(JointTrainer(dataset, spec, config).run().centroid_bank.centroids)
    assert not np.array_equal(banks[0], banks[1])


def test_max_iters_caps_minibatches():
    dataset, spec, config = small_blob_setup(epochs=10, max_iters=3)
    result = JointTrainer(dataset, spec, config).run()
    assert result.iterations == 3
    assert result.labels.shape == (dataset.n,)


@pytest.mark.parametrize("epochs,max_iters,truth,passes", [
    (3, 0, True, 3),  # one pass per epoch for its NMI; the last epoch's labels are returned
    (3, 20, True, 2),  # the cap falls on the end of epoch 2, whose labels still hold
    (3, 25, True, 3),  # the cap cuts epoch 3, which moved the head and the bank after epoch 2's pass
    (3, 0, False, 1),  # no NMI passes: one pass for the labels
    (0, 0, True, 1),  # no epoch ran
])
def test_run_returns_the_last_epochs_nmi_labels_without_another_pass(monkeypatch, epochs, max_iters,
                                                                      truth, passes):
    dataset, spec, config = small_blob_setup(epochs=epochs, max_iters=max_iters)
    trainer = JointTrainer(dataset, spec, config, ground_truth=dataset.labels if truth else None)
    calls = []
    assign_all = JointTrainer.assign_all

    def counted(self):
        calls.append(1)
        return assign_all(self)

    monkeypatch.setattr(JointTrainer, "assign_all", counted)
    result = trainer.run()
    assert len(calls) == passes
    assert result.labels.tobytes() == assign_all(trainer).tobytes()


def test_every_head_input_comes_through_rows(monkeypatch):
    # 1100 uint8 images in two row chunks: the seeding features, assign_all,
    # baseline3's Lloyd input, the mini-batches and the fine-tune pairs all
    # convert the kept inputs through _rows, the one head-input path
    images, _ = mnist_like(1100, seed=4, side=8)
    dataset = Dataset(images[..., None], None, "idx")
    spec = BackboneSpec("flatten", dataset.shape, 64, seed=1)
    config = TrainerConfig(k=10, n_m=50, k_m=10, epochs=1, hidden_dim=16, seed=3)
    calls, rows_of = [], JointTrainer._rows

    def recording(trainer, rows, out=None):
        calls.append(rows)
        return rows_of(trainer, rows, out)

    def whole_set_pass():
        # row chunks that together cover every sample once or more
        chunks = [rows for rows in calls if isinstance(rows, slice)]
        assert chunks and sorted({i for rows in chunks for i in range(dataset.n)[rows]}) == \
            list(range(dataset.n))
        return chunks

    monkeypatch.setattr(JointTrainer, "_rows", recording)
    trainer = JointTrainer(dataset, spec, config)  # k-means++ seeding features
    assert len(whole_set_pass()) == len(calls) == 2
    calls.clear()
    trainer.assign_all()
    assert len(whole_set_pass()) == len(calls) == 2
    calls.clear()
    trainer.run()  # one epoch, then assign_all for the final labels
    batches = [rows for rows in calls if isinstance(rows, np.ndarray)]
    pairs = [rows for rows in calls if isinstance(rows, list)]
    assert sorted(np.concatenate(batches).tolist()) == list(range(dataset.n))
    assert trainer.finetunes == len(pairs) > 0 and {len(p) for p in pairs} == {config.n_m}
    assert len(batches) + len(pairs) + len(whole_set_pass()) == len(calls)
    calls.clear()
    JointTrainer(dataset, spec, dataclasses.replace(config, mode="baseline3")).run()
    assert len(whole_set_pass()) == len(calls) == 2  # Lloyd's features


def test_rollback_after_resume_uses_the_restored_step():
    dataset, spec, config = small_blob_setup(epochs=2)
    trainer = JointTrainer(dataset, spec, config)
    trainer.run()
    xs = trainer._rows(slice(0, 30))
    before = trainer.head.rollback_hidden_batch(xs)
    resumed = JointTrainer(dataset, spec, config, resume=trainer.to_checkpoint("cfg"))
    head = trainer.head
    expected = np.maximum(xs @ (head.w_hidden + head.eta * head.last_delta_hidden).T, 0.0)
    assert resumed.head.rollback_hidden_batch(xs).tobytes() == expected.tobytes() == before.tobytes()


@pytest.mark.parametrize("mode,rollback", [("full", "last_step"), ("full", "snapshot"),
                                           ("baseline1", "last_step"), ("baseline2", "last_step")])
def test_only_full_checkpoints_store_the_rollback_weights(monkeypatch, tmp_path, mode, rollback):
    # at each epoch end: the hidden weights from before the latest step
    # (last_step) or the latest pass (snapshot), as a 16x8 matrix section, in a
    # full run; an absent (0 x 0) section in the baselines
    dataset, spec, config = small_blob_setup(epochs=2, mode=mode, drift_rollback=rollback)
    before_pass, sgd_pass = [], FeatureHead.sgd_pass

    def recording(head, xs, labels):
        before_pass.append(head.w_hidden.copy())
        return sgd_pass(head, xs, labels)

    def check(trainer):
        path = tmp_path / f"epoch{trainer.epochs_done}.ckpt"
        save_checkpoint(path, trainer.to_checkpoint("cfg"))
        body = Sections(path.read_bytes())["w_rollback"]
        head = trainer.head
        checked.append(trainer.epochs_done)
        if mode != "full":
            assert body == struct.pack("<II", 0, 0)
            return
        want = before_pass[-1] if rollback == "snapshot" else head.w_hidden + head.eta * head.last_delta_hidden
        assert body == struct.pack("<II", 16, 8) + want.astype("<f8").tobytes()

    monkeypatch.setattr(FeatureHead, "sgd_pass", recording)
    checked = []
    JointTrainer(dataset, spec, config).run(epoch_callback=check)
    assert checked == [1, 2] and len(before_pass) == (5 if mode != "baseline2" else 0)


def test_checkpoint_resume_reproduces_unbroken_run(tmp_path):
    # k_m=7 with n_m=20 keeps pairs waiting in the buffer across epoch
    # boundaries, so the checkpoint must carry them
    dataset, spec, config = small_blob_setup(eta=0.001, epochs=4, points=55, n_m=20, k_m=7)
    unbroken = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()

    dataset2, spec2, half_config = small_blob_setup(eta=0.001, epochs=2, points=55, n_m=20, k_m=7)
    half = JointTrainer(dataset2, spec2, half_config, ground_truth=dataset2.labels)
    half.run()
    assert half.buffer  # the interesting case: pending pairs persisted
    path = tmp_path / "mid.ckpt"
    save_checkpoint(path, half.to_checkpoint("cfg"))

    state = load_checkpoint(path)
    resumed = JointTrainer(dataset2, spec2, dataclasses.replace(half_config, epochs=4),
                           ground_truth=dataset2.labels, resume=state).run()
    assert np.array_equal(resumed.labels, unbroken.labels)
    assert resumed.nmi_history == unbroken.nmi_history
    assert resumed.finetunes == unbroken.finetunes
    assert np.array_equal(resumed.head.w_hidden, unbroken.head.w_hidden)
    assert np.array_equal(resumed.centroid_bank.centroids,
                          unbroken.centroid_bank.centroids)
    # the resumed run trained on copies: the state it started from is intact
    save_checkpoint(tmp_path / "again.ckpt", state)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_joint_training_beats_chance_on_easy_blobs():
    dataset, spec, config = small_blob_setup(epochs=5)
    result = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
    assert result.nmi_history[-1] >= 0.95


def test_counts_accumulate_across_epochs():
    dataset, spec, config = small_blob_setup(epochs=3)
    result = JointTrainer(dataset, spec, config).run()
    # seeds start at 1 and every sample visit adds 1 per epoch
    assert result.centroid_bank.counts.sum() == config.k + 3 * dataset.n


def pixel_setup(n, seed, **config_overrides):
    """n MNIST-shaped uint8 images with labels, a flatten spec and a config."""
    pixels, labels = mnist_like(n, seed=seed)
    spec = BackboneSpec("flatten", (28, 28, 1), 784, seed=seed + 1)
    config = TrainerConfig(k=10, seed=seed, **config_overrides)
    return pixels.reshape(n, 28, 28, 1), labels, spec, config


@pytest.mark.parametrize("mode", ["full", "baseline2", "baseline3"])
def test_uint8_flatten_run_equals_the_run_on_scaled_pixels(tmp_path, mode):
    # the trainer keeps uint8 pixels as they are and scales the rows it uses
    samples, labels, spec, config = pixel_setup(600, seed=2, mode=mode, epochs=2)
    runs = []
    for data in (samples, to_float(samples)):
        trainer = JointTrainer(Dataset(data, labels, "idx"), spec, config, ground_truth=labels)
        result = trainer.run()
        path = tmp_path / f"{len(runs)}.ckpt"
        save_checkpoint(path, trainer.to_checkpoint("cfg"))
        runs.append((trainer, result, path.read_bytes()))
    (raw, raw_result, raw_ckpt), (scaled, scaled_result, scaled_ckpt) = runs
    assert raw.inputs.dtype == np.uint8 and scaled.inputs.dtype == np.float64
    assert raw_result.labels.tobytes() == scaled_result.labels.tobytes()
    assert raw_result.nmi_history == scaled_result.nmi_history
    assert raw_result.centroid_bank.centroids.tobytes() == scaled_result.centroid_bank.centroids.tobytes()
    for name in ("w_hidden", "w_out"):
        assert getattr(raw_result.head, name).tobytes() == getattr(scaled_result.head, name).tobytes()
    assert raw_ckpt == scaled_ckpt
    assert (raw_result.finetunes > 0) == (mode == "full")


@pytest.mark.parametrize("rows", [300, 10**6])
def test_row_bound_leaves_seeding_assignment_and_lloyd_bits(monkeypatch, rows):
    # 5000 rows: one chunk, or 17 chunks of 300 rows. A bound of a few rows is
    # not tried here: OpenBLAS multiplies products that small with another
    # kernel, whose bits differ (at 7 rows, this set's seeded centroids do),
    # and row_chunks makes chunks that small only of sets that small.
    def outputs():
        dataset, spec, config = acceptance_blob_setup(2, epochs=1, max_iters=20)
        trainer = JointTrainer(dataset, spec, config)
        seeded = trainer.bank.centroids.copy()
        labels = trainer.run().labels
        lloyd = JointTrainer(dataset, spec, dataclasses.replace(config, mode="baseline3")).run()
        return [seeded, labels, lloyd.labels, lloyd.centroid_bank.centroids]

    expected = outputs()
    monkeypatch.setattr(tensor, "ROW_CHUNK", rows)
    assert [a.tobytes() for a in outputs()] == [a.tobytes() for a in expected]


def _pixel_run_peak(n):
    """tracemalloc peak of a one-epoch flatten run on n 28x28 images, and its config."""
    samples, _, spec, config = pixel_setup(n, seed=4, epochs=1)
    dataset = Dataset(samples, None, "idx")
    tracemalloc.start()
    try:
        JointTrainer(dataset, spec, config).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, config


def test_trainer_memory_per_sample_follows_hidden_dim_not_pixels(pass_workers):
    # seeding holds n x hidden_dim features (8 * 128 bytes a sample); a
    # float64 copy of the 28x28 pixels held 6272 bytes a sample more. One
    # worker at both sizes: 2000 rows make one run of chunks, 4000 rows
    # two, and each worker holds its own chunk (the test below)
    pass_workers(1)
    (small, _), (large, config) = _pixel_run_peak(2000), _pixel_run_peak(4000)
    per_sample = (large - small) / 2000
    assert per_sample < 2 * 8 * config.hidden_dim, per_sample


def test_each_pass_worker_adds_at_most_one_chunk_of_buffers(pass_workers):
    # a worker holds one chunk's float64 pixels (784 a row), hidden features
    # and distances to the k centroids, and a few chunk-long temporaries of
    # the distance kernel; 4000 rows make two runs of chunks
    peaks = []
    for workers in (1, 2):
        pass_workers(workers)
        peak, config = _pixel_run_peak(4000)
        peaks.append(peak)
    chunk_bytes = tensor.ROW_CHUNK * (784 + config.hidden_dim + 2 * config.k) * 8
    assert peaks[1] - peaks[0] <= 1.1 * chunk_bytes, (peaks, chunk_bytes)


@pytest.mark.parametrize("kind", ["randproj", "tinyconv"])
def test_whole_set_passes_do_not_depend_on_the_worker_count(pass_workers, kind):
    # 4500 rows: row_chunks makes 5 chunks, the last overlapping the one
    # before, so 4 workers take a run of chunks each; 141 tinyconv chunks
    samples = np.random.RandomState(12).randint(0, 256, size=(4500, 8, 8, 1)).astype(np.uint8)
    spec = BackboneSpec(kind, (8, 8, 1), 24, seed=3)
    config = TrainerConfig(k=10, hidden_dim=16, seed=5, epochs=0)
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads switch as often as they can
    try:
        for workers in (1, 2, 4):
            pass_workers(workers)
            with tensor.RowPool(4500) as pool:
                assert len(pool.runs) == workers
            trainer = JointTrainer(Dataset(samples, None, "idx"), spec, config)
            features = trainer._features()
            history = []
            labels, bank = lloyd_kmeans(features, 10, SeededRng(9), max_iters=30, tol=0.0,
                                        history_out=history)
            outputs.append([trainer.inputs, features, trainer.bank.centroids, trainer.assign_all(),
                            labels, bank.centroids, np.array(history)])
    finally:
        sys.setswitchinterval(interval)
    for got in outputs[1:]:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in outputs[0]]
