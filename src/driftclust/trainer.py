"""Joint clustering and representation learning loop, plus baseline modes.

One epoch shuffles the dataset and walks it in mini-batches. Per batch:
every sample is assigned to its nearest centroid; the k_m samples closest to
their centroids are buffered as (sample, pseudo-label) pairs; whenever the
buffer holds a full batch worth of pairs, the head is fine-tuned on them by
per-sample SGD; finally the batch moves each centroid it was assigned to in
one running-mean step, as if its rows had been fed one by one at rate 1/count.

Once any fine-tune has happened, "full" mode compensates feature drift by
updating centroids with features reconstructed under rolled-back weights
(one SGD step back by default, or the snapshot taken before the latest
fine-tune pass with drift_rollback="snapshot"). Modes:

    full       the complete method with drift compensation
    baseline1  same loop, but centroid updates always use current features
    baseline2  frozen head, plain mini-batch k-means
    baseline3  frozen head, full-set Lloyd k-means
"""

import copy
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .backbone import BackboneSpec, build_backbone, to_float
from .clustering import (CentroidBank, assign_batch, assign_pass, lloyd_kmeans, seed_kmeanspp,
                         update_centroid)
from .dataio import CheckpointError, Dataset, TrainerState
from .head import LOSS_LIMIT, FeatureHead, init_head, relu_product
from .metrics import nmi
from .tensor import ConfigError, RowPool, SeededRng, label_array

MODES = ("full", "baseline1", "baseline2", "baseline3")
ROLLBACK_MODES = ("last_step", "snapshot")


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
            raise ConfigError(f"k must be at least 2, got {self.k}")
        if self.n_m < 1:
            raise ConfigError(f"n_m must be at least 1, got {self.n_m}")
        if not 1 <= self.k_m <= self.n_m:
            raise ConfigError(f"k_m must satisfy 1 <= k_m <= n_m, got k_m={self.k_m}, n_m={self.n_m}")
        if not np.isfinite(self.eta) or self.eta < 0:
            raise ConfigError(f"eta must be finite and nonnegative, got {self.eta}")
        if self.epochs < 0 or self.max_iters < 0:
            raise ConfigError("epochs and max_iters must be nonnegative")
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.drift_rollback not in ROLLBACK_MODES:
            raise ConfigError(f"drift_rollback must be one of {ROLLBACK_MODES}, got {self.drift_rollback!r}")
        if self.lloyd_iters < 1 or not self.lloyd_tol >= 0:  # a NaN tol would never stop Lloyd
            raise ConfigError("lloyd_iters must be >= 1 and lloyd_tol >= 0")


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
    """Batch positions of the k_m smallest distances as an int array, in
    ascending position order; distance ties resolve to the lower position."""
    return np.sort(np.argsort(dists, kind="stable")[:k_m])


class JointTrainer:
    """Holds the full training state so runs can be checkpointed and resumed.

    Without `resume` the head and the k-means++ seeds are drawn fresh from the
    config seed. With a TrainerState the trainer continues from the state
    to_checkpoint wrote; with the stored RNG state this makes a resumed run
    indistinguishable from an unbroken one.

    The trainer holds no whole-set float64 copy of its input: `inputs` is the
    backbone's head_inputs, which for flatten are the samples in their own
    dtype, and _rows converts the rows a step needs. A pass over the whole
    set runs in row_chunks on a tensor.RowPool; only seeding (and Lloyd)
    needs all n x hidden features at once.
    """

    def __init__(self, dataset: Dataset, backbone_spec: BackboneSpec, config: TrainerConfig,
                 ground_truth=None, resume: Optional[TrainerState] = None):
        config.validate()
        if dataset.n < config.k:
            raise ConfigError(f"dataset has {dataset.n} samples, fewer than k={config.k}")
        if ground_truth is not None:
            ground_truth = np.asarray(ground_truth)
            if ground_truth.shape != (dataset.n,):
                raise ConfigError("ground truth length must match the dataset")
        self.dataset = dataset
        self.config = config
        self.truth = ground_truth
        self.extractor = build_backbone(backbone_spec)
        # the backbone is frozen, so what is not elementwise is extracted once up front
        self.inputs = self.extractor.head_inputs(dataset.samples)
        self.rng = SeededRng(config.seed)
        if resume is not None:
            self._restore(resume)
            return

        self.head = init_head(backbone_spec.output_dim, config.hidden_dim, config.k,
                              config.eta, self.rng)
        self.snapshot_head = None
        self.buffer = []  # (sample index, pseudo-label) pairs awaiting a fine-tune pass
        self.epochs_done = self.finetunes = self.iterations = 0
        self.nmi_history = []
        if config.mode == "baseline3":
            self.bank = None  # produced by the Lloyd pass in run()
        else:
            self.bank = seed_kmeanspp(self._features(), config.k, self.rng)

    def _restore(self, state: TrainerState):
        """Inverse of to_checkpoint, and the one place resumed state is checked.
        The head, the bank and the RNG check their own inputs; this adds what
        only the run knows: shapes against the config and the input dimension,
        rollback state present exactly when a fine-tune pass happened, buffer
        bounds, and progress counters and centroid counts that agree with each
        other, the config and the dataset (checkpoints are written at epoch
        ends). A state that does not fit raises CheckpointError."""
        state = copy.deepcopy(state)  # training mutates what it adopts; the caller's state stays
        cfg, n = self.config, self.dataset.n
        tuned = state.finetunes > 0
        if any((m is not None) != tuned for m in (state.last_delta_hidden, state.last_delta_out,
                                                   state.snap_w_hidden, state.snap_w_out)):
            raise CheckpointError("checkpoint must hold both step deltas and both snapshot matrices "
                                  "if it records a fine-tune pass, and none of them otherwise")
        try:
            self.head = FeatureHead(state.w_hidden, state.w_out, cfg.eta,
                                    state.last_delta_hidden, state.last_delta_out)
            self.snapshot_head = FeatureHead(state.snap_w_hidden, state.snap_w_out, cfg.eta) \
                if tuned else None
            self.bank = CentroidBank(state.centroids, state.counts)
            self.rng.set_state(state.rng_state)
            label_array([lab for _, lab in state.buffer], cfg.k)  # the buffered pairs' labels
        except ValueError as exc:
            raise CheckpointError(f"checkpoint state is invalid: {exc}") from None
        dims = (self.inputs.shape[1], cfg.hidden_dim, cfg.k)
        heads = (self.head, self.snapshot_head) if tuned else (self.head,)
        if any((h.input_dim, h.hidden_dim, h.k) != dims for h in heads) \
                or self.bank.centroids.shape != (cfg.k, cfg.hidden_dim):
            raise CheckpointError(f"checkpoint shapes do not fit this run: it needs {dims[1]}x{dims[0]} "
                                  f"hidden and {cfg.k}x{cfg.hidden_dim} output weights and centroids")
        if len(state.buffer) >= cfg.n_m or not all(0 <= idx < n for idx, _ in state.buffer):
            raise CheckpointError(f"checkpoint buffer must hold fewer than n_m={cfg.n_m} pairs "
                                  f"with sample index < {n}")
        epochs = state.epochs_done
        pairs_per_epoch = (n // cfg.n_m) * cfg.k_m + min(cfg.k_m, n % cfg.n_m) \
            if cfg.mode in ("full", "baseline1") else 0
        if state.iterations != epochs * math.ceil(n / cfg.n_m) \
                or state.finetunes * cfg.n_m + len(state.buffer) != epochs * pairs_per_epoch:
            raise CheckpointError(f"checkpoint progress (epochs_done={epochs}, finetunes={state.finetunes}, "
                                  f"iterations={state.iterations}, {len(state.buffer)} buffered pairs) "
                                  f"does not match {epochs} epochs over {n} samples")
        # each seed starts at 1 and every epoch assigns every sample once; the sum
        # is taken in Python ints, so crafted counts cannot wrap it
        if cfg.mode != "baseline3" and (np.any(self.bank.counts < 1)
                                        or sum(self.bank.counts.tolist()) != cfg.k + epochs * n):
            raise CheckpointError(f"checkpoint counts must each be at least 1 and sum to "
                                  f"k + epochs_done * n = {cfg.k + epochs * n}")
        if len(state.nmi_history) != (epochs if self.truth is not None else 0) \
                or not all(0.0 <= v <= 1.0 for v in state.nmi_history):
            raise CheckpointError("checkpoint NMI history must hold one value in [0, 1] per "
                                  "completed epoch of a labeled run, and none otherwise")
        self.buffer = list(state.buffer)
        self.epochs_done, self.finetunes, self.iterations = epochs, state.finetunes, state.iterations
        self.nmi_history = list(state.nmi_history)

    def to_checkpoint(self, config_text: str) -> TrainerState:
        """The run's state as a copy that later training does not change."""
        head, snap = self.head, self.snapshot_head
        return copy.deepcopy(TrainerState(
            config_text=config_text, w_hidden=head.w_hidden, w_out=head.w_out,
            last_delta_hidden=head.last_delta_hidden, last_delta_out=head.last_delta_out,
            snap_w_hidden=None if snap is None else snap.w_hidden,
            snap_w_out=None if snap is None else snap.w_out,
            centroids=self.bank.centroids, counts=self.bank.counts, rng_state=self.rng.state(),
            epochs_done=self.epochs_done, finetunes=self.finetunes, iterations=self.iterations,
            buffer=self.buffer, nmi_history=self.nmi_history,
        ))

    def _capped(self):
        return self.config.max_iters > 0 and self.iterations >= self.config.max_iters

    def _rows(self, rows):
        """Head inputs (float64) of the samples that an index list, int array or slice picks."""
        return to_float(self.inputs[rows])

    def _pool(self) -> RowPool:
        """A tensor.RowPool over the samples; when the head inputs need
        scaling, each run gets a buffer for one chunk of them, made in the
        calling thread."""
        pool = RowPool(self.dataset.n)
        if self.inputs.dtype != np.float64:
            pool.buffers("inputs", (pool.chunk, self.inputs.shape[1]))
        return pool

    def _hidden(self, rows, scratch, out=None) -> np.ndarray:
        """Hidden features of a chunk's samples under the current head, on a pool run."""
        return relu_product(to_float(self.inputs[rows], scratch.get("inputs")), self.head.w_hidden, out)

    def _features(self) -> np.ndarray:
        """Hidden features of every sample under the current head."""
        out = np.empty((self.dataset.n, self.head.hidden_dim))

        def hidden(run, scratch):
            for rows in run:
                self._hidden(rows, scratch, out[rows])

        with self._pool() as pool:
            pool.each(hidden)
        return out

    def assign_all(self) -> np.ndarray:
        """Nearest-centroid labels of every sample under the current head."""
        with self._pool() as pool:
            pool.buffers("hidden", (pool.chunk, self.head.hidden_dim))
            return assign_pass(pool, self.bank,
                               lambda rows, scratch: self._hidden(rows, scratch, scratch["hidden"]))[0]

    def run(self, epoch_callback=None) -> RunResult:
        started = time.perf_counter()
        if self.config.mode == "baseline3":
            labels, self.bank = lloyd_kmeans(self._features(), self.config.k, self.rng,
                                             max_iters=self.config.lloyd_iters,
                                             tol=self.config.lloyd_tol)
            if self.truth is not None:
                self.nmi_history = [nmi(self.truth, labels)]
        else:
            labels = None  # the labels of the last completed epoch, when it computed them
            while self.epochs_done < self.config.epochs and not self._capped():
                if not self._run_epoch():
                    labels = None  # the cut epoch moved the head and the bank
                    break
                self.epochs_done += 1
                if self.truth is not None:
                    labels = self.assign_all()
                    self.nmi_history.append(nmi(self.truth, labels))
                if epoch_callback is not None:
                    epoch_callback(self)
            if labels is None:
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
        order = np.array(order, dtype=np.int64)
        for start in range(0, len(order), cfg.n_m):
            if self._capped():
                return False
            batch = order[start:start + cfg.n_m]
            xs = self._rows(batch)
            hidden = self.head.hidden_batch(xs)
            labels, dists = assign_batch(self.bank, hidden)

            if cfg.mode in ("full", "baseline1"):
                top = _top_indices(dists, cfg.k_m)  # a short last batch buffers all its rows
                self.buffer.extend(zip(batch[top].tolist(), labels[top].tolist()))
                while len(self.buffer) >= cfg.n_m:
                    pairs, self.buffer = self.buffer[:cfg.n_m], self.buffer[cfg.n_m:]
                    self._finetune_pass(pairs)

            feats = self._update_features(xs, hidden, cfg.mode)
            update_centroid(self.bank, labels, feats)
            self.iterations += 1
        return True

    def _update_features(self, xs, assigned_hidden, mode):
        """Feature rows used for the centroid updates of the current batch."""
        if mode == "full" and self.head.last_delta_hidden is not None:
            if self.config.drift_rollback == "last_step":
                return self.head.rollback_hidden_batch(xs)
            # a step delta implies a finished pass, and every pass leaves a snapshot
            return self.snapshot_head.hidden_batch(xs)
        if mode == "baseline1" and self.finetunes > 0:
            # no compensation: whatever the weights are right now
            return self.head.hidden_batch(xs)
        return assigned_hidden

    def _finetune_pass(self, pairs):
        """Per-sample SGD on the pairs, one sgd_pass call. The pass stops at a step
        whose loss is non-finite or above LOSS_LIMIT; the weights are checked once
        after the pass, before any centroid update reads them."""
        head = self.head
        pre_pass_head = head.copy()
        xs = self._rows([sample_idx for sample_idx, _ in pairs])
        # an overflowing step is reported below as DivergenceError, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            done, loss = head.sgd_pass(xs, [label for _, label in pairs])
        if done < len(pairs):
            raise DivergenceError(f"fine-tune loss {loss} exceeded {LOSS_LIMIT:g} "
                                  f"at iteration {self.iterations}")
        if not np.isfinite(head.params).all():
            raise DivergenceError(f"non-finite weights after SGD at iteration {self.iterations}")
        self.snapshot_head = pre_pass_head
        self.finetunes += 1
