import dataclasses

import numpy as np
import pytest

from conftest import small_blob_setup
from driftclust.backbone import build_backbone
from driftclust.clustering import CentroidBank, assign_batch, lloyd_kmeans
from driftclust.dataio import gen_blobs, load_checkpoint, save_checkpoint
from driftclust.head import init_head
from driftclust.tensor import SeededRng
from driftclust.trainer import (DivergenceError, JointTrainer, TrainerConfig, TrainerHooks,
                                _top_indices)


def test_select_top_km_examples():
    assert _top_indices(np.array([0.5, 0.1, 0.9, 0.3]), 2) == [1, 3]
    assert _top_indices(np.array([0.4, 0.2, 0.7]), 3) == [0, 1, 2]
    assert _top_indices(np.array([0.3, 0.1, 0.3, 0.3]), 2) == [0, 1]  # ties go low


def test_select_top_km_matches_sort_oracle():
    rng = SeededRng(44)
    dists = [rng.random() for _ in range(50)]
    got = _top_indices(np.array(dists), 10)
    oracle = sorted(sorted(range(50), key=lambda i: (dists[i], i))[:10])
    assert got == oracle


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


class RollbackRecorder(TrainerHooks):
    def __init__(self):
        self.pre_pass = None
        self.pre_step = None
        self.checked = 0

    def after_finetune(self, trainer, pre_pass_head, pre_step_head):
        self.pre_pass = pre_pass_head
        self.pre_step = pre_step_head

    def on_centroid_update(self, trainer, sample_index, feature):
        if self.pre_step is None:
            return  # before the first fine-tune the current feature is correct
        x = trainer.inputs[sample_index]
        if trainer.config.drift_rollback == "last_step":
            expected = np.maximum(self.pre_step.w_hidden @ x, 0.0)
        else:
            expected = np.maximum(self.pre_pass.w_hidden @ x, 0.0)
        assert np.max(np.abs(feature - expected)) < 1e-9
        self.checked += 1


@pytest.mark.parametrize("rollback", ["last_step", "snapshot"])
def test_full_mode_update_features_are_rolled_back(rollback):
    dataset, spec, config = small_blob_setup(eta=0.001, epochs=2, drift_rollback=rollback)
    hooks = RollbackRecorder()
    result = JointTrainer(dataset, spec, config, ground_truth=dataset.labels, hooks=hooks).run()
    assert result.finetunes > 0
    assert hooks.checked > 100


def test_rollback_actually_differs_from_current_features():
    dataset, spec, config = small_blob_setup(eta=0.001, epochs=2)
    trainer = JointTrainer(dataset, spec, config)
    trainer.run()
    current = trainer.head.hidden_batch(trainer.inputs[:50])
    rolled = trainer.head.rollback_hidden_batch(trainer.inputs[:50])
    assert np.max(np.abs(current - rolled)) > 0.0


def test_baseline1_uses_post_finetune_features():
    class Catcher(TrainerHooks):
        def __init__(self):
            self.saw_finetune = False
            self.checked = 0

        def after_finetune(self, trainer, pre_pass_head, pre_step_head):
            self.saw_finetune = True

        def on_centroid_update(self, trainer, sample_index, feature):
            if not self.saw_finetune:
                return
            x = trainer.inputs[sample_index]
            expected = np.maximum(trainer.head.w_hidden @ x, 0.0)
            assert np.max(np.abs(feature - expected)) < 1e-12
            self.checked += 1

    dataset, spec, config = small_blob_setup(eta=0.001, epochs=2, mode="baseline1")
    hooks = Catcher()
    JointTrainer(dataset, spec, config, hooks=hooks).run()
    assert hooks.checked > 100


def test_divergence_guard_names_iteration():
    dataset, spec, config = small_blob_setup(separation=2e4, sigma=0.0, eta=5.0,
                                             epochs=1)
    with pytest.raises(DivergenceError, match="iteration"):
        JointTrainer(dataset, spec, config).run()


def test_max_iters_caps_minibatches():
    dataset, spec, config = small_blob_setup(epochs=10, max_iters=3)
    result = JointTrainer(dataset, spec, config).run()
    assert result.iterations == 3
    assert result.labels.shape == (dataset.n,)


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

    resumed = JointTrainer(dataset2, spec2, dataclasses.replace(half_config, epochs=4),
                           ground_truth=dataset2.labels, resume=load_checkpoint(path)).run()
    assert np.array_equal(resumed.labels, unbroken.labels)
    assert resumed.nmi_history == unbroken.nmi_history
    assert resumed.finetunes == unbroken.finetunes
    assert np.array_equal(resumed.head.w_hidden, unbroken.head.w_hidden)
    assert np.array_equal(resumed.centroid_bank.centroids,
                          unbroken.centroid_bank.centroids)


def test_joint_training_beats_chance_on_easy_blobs():
    dataset, spec, config = small_blob_setup(epochs=5)
    result = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
    assert result.nmi_history[-1] >= 0.95


def test_counts_accumulate_across_epochs():
    dataset, spec, config = small_blob_setup(epochs=3)
    result = JointTrainer(dataset, spec, config).run()
    # seeds start at 1 and every sample visit adds 1 per epoch
    assert result.centroid_bank.counts.sum() == config.k + 3 * dataset.n
