"""Joint clustering and representation learning loop, plus baseline modes.

One epoch shuffles the dataset and walks it in mini-batches. Per batch:
every sample is assigned to its nearest centroid; the k_m samples closest to
their centroids are buffered as (sample, pseudo-label) pairs; whenever the
buffer holds a full batch worth of pairs, the head is fine-tuned on them by
per-sample SGD; finally the batch updates its assigned centroids with one
streaming-mean call, row by row in batch order.

Once any fine-tune has happened, "full" mode compensates feature drift by
updating centroids with features reconstructed under rolled-back weights
(one SGD step back by default, or the snapshot taken before the latest
fine-tune pass with drift_rollback="snapshot"). Modes:

    full       the complete method with drift compensation
    baseline1  same loop, but centroid updates always use current features
    baseline2  frozen head, plain mini-batch k-means
    baseline3  frozen head, full-set Lloyd k-means
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .backbone import BackboneSpec, build_backbone
from .clustering import CentroidBank, assign_batch, lloyd_kmeans, seed_kmeanspp, update_centroid
from .dataio import Checkpoint, CheckpointError, Dataset
from .head import FeatureHead, init_head, sse_loss
from .metrics import nmi
from .tensor import SeededRng

MODES = ("full", "baseline1", "baseline2", "baseline3")
ROLLBACK_MODES = ("last_step", "snapshot")
LOSS_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Fine-tuning blew up (non-finite or absurd loss)."""


@dataclass
class TrainerConfig:
    k: int
    n_m: int = 50
    k_m: int = 10
    eta: float = 0.045
    epochs: int = 10
    max_iters: int = 0  # cap on mini-batch iterations, 0 means no cap
    mode: str = "full"
    seed: int = 0
    hidden_dim: int = 128
    drift_rollback: str = "last_step"
    lloyd_iters: int = 100
    lloyd_tol: float = 1e-6

    def validate(self):
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.n_m < 1:
            raise ValueError(f"n_m must be at least 1, got {self.n_m}")
        if not 1 <= self.k_m <= self.n_m:
            raise ValueError(f"k_m must satisfy 1 <= k_m <= n_m, got k_m={self.k_m}, n_m={self.n_m}")
        if not np.isfinite(self.eta) or self.eta < 0:
            raise ValueError(f"eta must be finite and nonnegative, got {self.eta}")
        if self.epochs < 0 or self.max_iters < 0:
            raise ValueError("epochs and max_iters must be nonnegative")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.drift_rollback not in ROLLBACK_MODES:
            raise ValueError(f"drift_rollback must be one of {ROLLBACK_MODES}, got {self.drift_rollback!r}")
        if self.lloyd_iters < 1 or self.lloyd_tol < 0:
            raise ValueError("lloyd_iters must be >= 1 and lloyd_tol >= 0")


@dataclass
class RunResult:
    labels: np.ndarray
    nmi_history: list
    centroid_bank: CentroidBank
    head: FeatureHead
    finetunes: int
    iterations: int
    wall_ms: int = 0


def _top_indices(dists: np.ndarray, k_m: int):
    """Batch positions of the k_m smallest distances, in ascending position
    order; distance ties resolve to the lower position."""
    picked = np.argsort(dists, kind="stable")[:k_m]
    return sorted(int(i) for i in picked)


class TrainerHooks:
    """Optional instrumentation points; every method is a no-op by default."""

    def after_finetune(self, trainer, pre_pass_head, pre_step_head):
        """Called after each fine-tune pass with copies of the head as it was
        before the pass and before the pass's final SGD step."""

    def on_centroid_update(self, trainer, sample_indices, features):
        """Called once per mini-batch, after its centroid update, with the sample
        indices and the exact feature rows (same order) that updated the centroids."""


class JointTrainer:
    """Holds the full training state so runs can be checkpointed and resumed.

    Without `resume` the head and the k-means++ seeds are drawn fresh from the
    config seed. With a Checkpoint the trainer continues from the state
    to_checkpoint wrote; with the stored RNG state this makes a resumed run
    indistinguishable from an unbroken one.
    """

    def __init__(self, dataset: Dataset, backbone_spec: BackboneSpec, config: TrainerConfig,
                 ground_truth=None, hooks: Optional[TrainerHooks] = None,
                 resume: Optional[Checkpoint] = None):
        config.validate()
        if dataset.n < config.k:
            raise ValueError(f"dataset has {dataset.n} samples, fewer than k={config.k}")
        if ground_truth is not None:
            ground_truth = np.asarray(ground_truth)
            if ground_truth.shape != (dataset.n,):
                raise ValueError("ground truth length must match the dataset")
        self.dataset = dataset
        self.config = config
        self.truth = ground_truth
        self.hooks = hooks
        self.extractor = build_backbone(backbone_spec)
        # the backbone is frozen, so extract every sample once up front
        self.inputs = self.extractor.extract_batch(dataset.samples)
        self.rng = SeededRng(config.seed)
        self.buffer = []  # (sample index, pseudo-label) pairs awaiting a fine-tune pass
        if resume is not None:
            self._restore(resume)
            return

        self.head = init_head(backbone_spec.output_dim, config.hidden_dim, config.k,
                              config.eta, self.rng)
        self.snapshot_head = None
        self.epochs_done = 0
        self.finetunes = 0
        self.iterations = 0
        self.nmi_history = []
        if config.mode == "baseline3":
            self.bank = None  # produced by the Lloyd pass in run()
        else:
            features = self.head.hidden_batch(self.inputs)
            self.bank = seed_kmeanspp(features, config.k, self.rng)

    def _restore(self, ckpt: Checkpoint):
        """Inverse of to_checkpoint. A checkpoint that does not fit this run's
        config and dataset raises CheckpointError."""
        cfg, n = self.config, self.dataset.n
        hidden_shape = (cfg.hidden_dim, self.inputs.shape[1])
        out_shape = (cfg.k, cfg.hidden_dim)
        shapes = {"w_hidden": hidden_shape, "w_out": out_shape,
                  "last_delta_hidden": hidden_shape, "last_delta_out": out_shape,
                  "snap_w_hidden": hidden_shape, "snap_w_out": out_shape,
                  "centroids": out_shape}
        for name, shape in shapes.items():
            m = getattr(ckpt, name)
            if m is not None and (m.shape != shape or not np.all(np.isfinite(m))):
                raise CheckpointError(f"checkpoint {name} has shape {m.shape} or non-finite "
                                      f"entries; this run needs a finite {shape[0]}x{shape[1]} matrix")
        for pair in (("last_delta_hidden", "last_delta_out"), ("snap_w_hidden", "snap_w_out")):
            if (getattr(ckpt, pair[0]) is None) != (getattr(ckpt, pair[1]) is None):
                raise CheckpointError(f"checkpoint holds one of {pair[0]} and {pair[1]} but not both")
        counts = np.asarray(ckpt.counts)
        if counts.shape != (cfg.k,) or np.any(counts < 0):
            raise CheckpointError(f"checkpoint must hold {cfg.k} nonnegative centroid counts")
        if len(ckpt.rng_state) != 4:
            raise CheckpointError(f"checkpoint RNG state has {len(ckpt.rng_state)} words, expected 4")
        if len(ckpt.buffer) >= cfg.n_m or \
                not all(0 <= idx < n and 0 <= lab < cfg.k for idx, lab in ckpt.buffer):
            raise CheckpointError(f"checkpoint buffer must hold fewer than n_m={cfg.n_m} pairs "
                                  f"with sample index < {n} and label < k={cfg.k}")

        self.rng.set_state(ckpt.rng_state)
        self.head = FeatureHead(ckpt.w_hidden, ckpt.w_out, cfg.eta,
                                ckpt.last_delta_hidden, ckpt.last_delta_out)
        self.snapshot_head = None if ckpt.snap_w_hidden is None else \
            FeatureHead(ckpt.snap_w_hidden, ckpt.snap_w_out, cfg.eta)
        self.bank = CentroidBank(ckpt.centroids, counts)
        self.buffer = [(int(idx), int(lab)) for idx, lab in ckpt.buffer]
        self.epochs_done = ckpt.epochs_done
        self.finetunes = ckpt.finetunes
        self.iterations = ckpt.iterations
        self.nmi_history = list(ckpt.nmi_history)

    def to_checkpoint(self, config_text: str) -> Checkpoint:
        return Checkpoint(
            config_text=config_text,
            w_hidden=self.head.w_hidden.copy(), w_out=self.head.w_out.copy(),
            last_delta_hidden=None if self.head.last_delta_hidden is None else self.head.last_delta_hidden.copy(),
            last_delta_out=None if self.head.last_delta_out is None else self.head.last_delta_out.copy(),
            centroids=self.bank.centroids.copy(), counts=self.bank.counts.copy(),
            rng_state=self.rng.state(),
            snap_w_hidden=None if self.snapshot_head is None else self.snapshot_head.w_hidden.copy(),
            snap_w_out=None if self.snapshot_head is None else self.snapshot_head.w_out.copy(),
            epochs_done=self.epochs_done, finetunes=self.finetunes, iterations=self.iterations,
            buffer=list(self.buffer), nmi_history=list(self.nmi_history),
        )

    def _capped(self):
        return self.config.max_iters > 0 and self.iterations >= self.config.max_iters

    def assign_all(self) -> np.ndarray:
        labels, _ = assign_batch(self.bank, self.head.hidden_batch(self.inputs))
        return labels

    def run(self, epoch_callback=None) -> RunResult:
        started = time.perf_counter()
        if self.config.mode == "baseline3":
            features = self.head.hidden_batch(self.inputs)
            labels, self.bank = lloyd_kmeans(features, self.config.k, self.rng,
                                             max_iters=self.config.lloyd_iters,
                                             tol=self.config.lloyd_tol)
            if self.truth is not None:
                self.nmi_history = [nmi(self.truth, labels)]
        else:
            while self.epochs_done < self.config.epochs and not self._capped():
                completed = self._run_epoch()
                if not completed:
                    break
                self.epochs_done += 1
                if self.truth is not None:
                    self.nmi_history.append(nmi(self.truth, self.assign_all()))
                if epoch_callback is not None:
                    epoch_callback(self)
            labels = self.assign_all()
        wall_ms = int(round((time.perf_counter() - started) * 1000))
        return RunResult(labels=labels, nmi_history=list(self.nmi_history),
                         centroid_bank=self.bank, head=self.head,
                         finetunes=self.finetunes, iterations=self.iterations,
                         wall_ms=wall_ms)

    def _run_epoch(self) -> bool:
        cfg = self.config
        order = list(range(self.dataset.n))
        self.rng.shuffle(order)
        for start in range(0, len(order), cfg.n_m):
            if self._capped():
                return False
            batch = order[start:start + cfg.n_m]
            xs = self.inputs[batch]
            hidden = self.head.hidden_batch(xs)
            labels, dists = assign_batch(self.bank, hidden)

            if cfg.mode in ("full", "baseline1"):
                k_m = min(cfg.k_m, len(batch))
                top = _top_indices(dists, k_m)
                self.buffer.extend((batch[pos], int(labels[pos])) for pos in top)
                while len(self.buffer) >= cfg.n_m:
                    pairs, self.buffer = self.buffer[:cfg.n_m], self.buffer[cfg.n_m:]
                    self._finetune_pass(pairs)

            feats = self._update_features(xs, hidden, cfg.mode)
            update_centroid(self.bank, labels, feats)
            if self.hooks is not None:
                self.hooks.on_centroid_update(self, batch, feats)
            self.iterations += 1
        return True

    def _update_features(self, xs, assigned_hidden, mode):
        """Feature rows used for the centroid updates of the current batch."""
        if mode == "full" and self.head.last_delta_hidden is not None:
            if self.config.drift_rollback == "last_step":
                return self.head.rollback_hidden_batch(xs)
            if self.snapshot_head is None:
                raise RuntimeError("snapshot rollback requested but no pre-pass snapshot exists")
            return self.snapshot_head.hidden_batch(xs)
        if mode == "baseline1" and self.finetunes > 0:
            # no compensation: whatever the weights are right now
            return self.head.hidden_batch(xs)
        return assigned_hidden

    def _finetune_pass(self, pairs):
        """Per-sample SGD on the pairs. The loss is checked every step, the weights
        once after the pass: before any centroid update reads them."""
        head = self.head
        pre_pass_head = head.copy()
        pre_step_head = None
        for i, (sample_idx, label) in enumerate(pairs):
            trace = head.forward(self.inputs[sample_idx])
            loss = sse_loss(trace.y, label)
            if not math.isfinite(loss) or loss > LOSS_LIMIT:
                raise DivergenceError(
                    f"fine-tune loss {loss} exceeded {LOSS_LIMIT:g} at iteration {self.iterations}"
                )
            if i == len(pairs) - 1 and self.hooks is not None:
                pre_step_head = head.copy()
            head.sgd_step(*head.backward(trace, label))
        if not (np.isfinite(head.w_hidden).all() and np.isfinite(head.w_out).all()):
            raise DivergenceError(f"non-finite weights after SGD at iteration {self.iterations}")
        self.snapshot_head = pre_pass_head
        self.finetunes += 1
        if self.hooks is not None:
            self.hooks.after_finetune(self, pre_pass_head, pre_step_head)
