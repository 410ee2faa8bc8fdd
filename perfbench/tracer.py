"""Spans around driftclust's public calls, installed from outside the package.

`Boundaries` wraps `JointTrainer.run` alone: it gives the end-to-end
boundaries (trainer ready, labels computed) and the per-epoch callback
times, with no per-call cost, so the untraced runs use it too. `Tracer`
adds a span around every function and method in TARGETS. A function is
replaced in every `driftclust.*` module that binds it, so names re-imported
into `driftclust.trainer` or `driftclust.cli` are traced too. Spans stay in
memory as (name, start, end, parent, run, amount) tuples; `restore` puts
every original back.
"""

import gzip
import json
import os
import shutil
import sys
import time
from collections import defaultdict
from statistics import median


def _rows(args, kwargs, result):
    return len(args[1])


def _idx_bytes(args, kwargs, result):
    return sum(os.path.getsize(p) for p in args[:2] if p is not None)


def _dataset_bytes(args, kwargs, result):
    return result.samples.nbytes + result.labels.nbytes


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _with_history(kwargs):
    if kwargs.get("history_out") is None:
        kwargs["history_out"] = []


def _sweeps(args, kwargs, result):
    return len(kwargs["history_out"])


# module, attribute (dotted for methods), span name, amount counter, argument hook
TARGETS = (
    ("cli", "main", "main", None, None),
    ("dataio", "load_idx", "ingest", _idx_bytes, None),
    ("dataio", "gen_blobs", "ingest", _dataset_bytes, None),
    ("dataio", "save_checkpoint", "checkpoint_save", _file_bytes, None),
    ("dataio", "load_checkpoint", "checkpoint_load", None, None),
    ("dataio", "save_labels", "labels_write", None, None),
    ("tensor", "SeededRng.shuffle", "shuffle", None, None),
    ("tensor", "matrix", "matrix", None, None),
    ("backbone", "build_backbone", "build", None, None),
    ("backbone", "Backbone.extract_batch", "extract", _rows, None),
    ("backbone", "FlattenBackbone.extract_batch", "extract", _rows, None),
    ("backbone", "RandomProjectionBackbone.extract_batch", "extract", _rows, None),
    ("head", "init_head", "init", None, None),
    ("head", "FeatureHead.forward", "forward", None, None),
    ("head", "FeatureHead.backward", "backward", None, None),
    ("head", "FeatureHead.sgd_step", "sgd_step", None, None),
    ("head", "FeatureHead.copy", "copy", None, None),
    ("head", "FeatureHead.hidden_batch", "hidden_batch", _rows, None),
    ("head", "FeatureHead.rollback_hidden_batch", "rollback_batch", _rows, None),
    ("head", "one_hot", "one_hot", None, None),
    ("head", "sse_loss", "loss", None, None),
    ("clustering", "seed_kmeanspp", "seed", None, None),
    ("clustering", "assign_batch", "assign_batch", _rows, None),
    ("clustering", "update_centroid", "update_centroid", None, None),
    ("clustering", "lloyd_kmeans", "lloyd", _sweeps, _with_history),
    ("metrics", "nmi", "nmi", None, None),
    ("trainer", "JointTrainer.__init__", "init", None, None),
    ("trainer", "JointTrainer.run", "run", None, None),
    ("trainer", "JointTrainer.assign_all", "assign_all", None, None),
)

MODULES = ("cli", "dataio", "tensor", "backbone", "head", "clustering", "metrics", "trainer")


def _resolve(module: str, attr: str):
    """(owner, name, original) or None when the package no longer has it."""
    owner = sys.modules.get(f"driftclust.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


def missing_targets():
    """TARGETS entries the imported package does not define."""
    return [f"{m}.{a}" for m, a, *_ in TARGETS if _resolve(m, a) is None]


class Boundaries:
    """Times `JointTrainer.run` and its epoch callbacks; keeps the trainer
    and result for the output checks. With `keep_epoch` set, the checkpoint
    written after that epoch is copied to `keep_path` for the resume check."""

    def __init__(self, checkpoint_path=None, keep_epoch=0, keep_path=None):
        self.checkpoint_path = checkpoint_path
        self.keep_epoch = keep_epoch
        self.keep_path = keep_path
        self.run_start = self.run_end = None
        self.epoch_ends = []
        self.trainer = self.result = None
        self._original = None

    def install(self, trainer_cls):
        original = self._original = (trainer_cls, trainer_cls.run)
        bounds = self

        def run(trainer, epoch_callback=None):
            def on_epoch(tr):
                epoch_callback(tr)
                bounds.epoch_ends.append(time.perf_counter())
                if tr.epochs_done == bounds.keep_epoch and bounds.keep_path is not None:
                    shutil.copyfile(bounds.checkpoint_path, bounds.keep_path)

            bounds.trainer = trainer
            bounds.run_start = time.perf_counter()
            result = original[1](trainer, None if epoch_callback is None else on_epoch)
            bounds.run_end = time.perf_counter()
            bounds.result = result
            return result

        trainer_cls.run = run

    def restore(self):
        if self._original is not None:
            cls, run = self._original
            cls.run = run
            self._original = None

    def epoch_s(self):
        """Median wall time of one epoch, 0 when the mode has no epochs."""
        marks = [self.run_start] + self.epoch_ends
        return median(b - a for a, b in zip(marks, marks[1:])) if self.epoch_ends else 0.0


class Tracer:
    """Records one span per call of every TARGETS entry while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = "main"
        self._patches = []

    def install(self):
        for module, attr, span, amount, hook in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                continue  # a layer removed by a later change reports zero
            owner, name, original = found
            wrapper = self._wrap(original, f"{module}.{span}", amount, hook)
            if isinstance(owner, type):
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "driftclust":
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, bound, original))
                        setattr(mod, bound, wrapper)

    def restore(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _wrap(self, original, span_name, amount, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (span_name, start, end, parent, tracer.run, 0)
            if amount is not None:
                spans[sid] = spans[sid][:5] + (amount(args, kwargs, result),)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for name, start, end, parent, run, amount in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run, "amount": amount}) + "\n")

    def layer_metrics(self):
        """Per-layer totals of the "main" run; checkpoint loads come from the
        "check" run, the only place the benchmark loads a checkpoint."""
        child_time = defaultdict(float)
        for name, start, end, parent, run, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        time_s, calls, amount = defaultdict(float), defaultdict(int), defaultdict(int)
        self_s = defaultdict(float)
        for sid, (name, start, end, parent, run, amt) in enumerate(self.spans):
            if run == "check" and name == "dataio.checkpoint_load":
                time_s[name] += end - start
            if run != "main":
                continue
            module = name.split(".")[0]
            time_s[name] += end - start
            calls[name] += 1
            amount[name] += amt
            self_s[module] += end - start - child_time[sid]
            calls[module] += 1

        out = {}
        for module in MODULES:
            out[f"{module}.self_s"] = self_s[module]
            out[f"{module}.calls"] = calls[module]
        out.update({
            "dataio.ingest_s": time_s["dataio.ingest"],
            "dataio.ingest_bytes": amount["dataio.ingest"],
            "dataio.checkpoint_save_s": time_s["dataio.checkpoint_save"],
            "dataio.checkpoint_bytes": amount["dataio.checkpoint_save"],
            "dataio.labels_write_s": time_s["dataio.labels_write"],
            "dataio.checkpoint_load_s": time_s["dataio.checkpoint_load"],
            "tensor.shuffle_s": time_s["tensor.shuffle"],
            "backbone.build_s": time_s["backbone.build"],
            "backbone.extract_s": time_s["backbone.extract"],
            "backbone.extract_rows": amount["backbone.extract"],
            "head.init_s": time_s["head.init"],
            "head.forward_s": time_s["head.forward"],
            "head.backward_s": time_s["head.backward"],
            "head.sgd_step_s": time_s["head.sgd_step"],
            "head.sgd_steps": calls["head.sgd_step"],
            "head.loss_s": time_s["head.loss"],
            "head.copy_s": time_s["head.copy"],
            "head.copy_calls": calls["head.copy"],
            "head.rollback_batch_s": time_s["head.rollback_batch"],
            "head.hidden_batch_s": time_s["head.hidden_batch"],
            "head.hidden_batch_rows": amount["head.hidden_batch"],
            "clustering.update_centroid_s": time_s["clustering.update_centroid"],
            "clustering.update_centroid_calls": calls["clustering.update_centroid"],
            "clustering.assign_batch_s": time_s["clustering.assign_batch"],
            "clustering.assign_batch_calls": calls["clustering.assign_batch"],
            "clustering.assign_rows": amount["clustering.assign_batch"],
            "clustering.seed_s": time_s["clustering.seed"],
            "clustering.lloyd_s": time_s["clustering.lloyd"],
            "clustering.lloyd_sweeps": amount["clustering.lloyd"],
            "metrics.nmi_s": time_s["metrics.nmi"],
        })
        return out
