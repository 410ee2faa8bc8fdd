"""One repetition of one workload, in a process of its own.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/child.py --root DIR --workload NAME --seed N --out DIR
        [--images F --labels F] [--trace] [--resume-check] [--spans F] [--tiny]

It runs `driftclust.cli.main` exactly as `driftclust cluster` would, times
the end-to-end boundaries, rescales them by the reference timed just
before and after (perfbench/reference.py), checks the outputs, and prints
one JSON record as the last line of standard output. The process's own peak RSS is the
workload's memory high-water mark, so run.py starts one child per
repetition and runs them one at a time.
"""

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference
import workloads
from tracer import Boundaries, Tracer


def import_driftclust(root: Path):
    """Import the package from the checkout's own sources, never an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import driftclust.cli  # noqa: F401  (loads every driftclust module)
    import driftclust
    if Path(driftclust.__file__).resolve().parent != src / "driftclust":
        raise ImportError(f"driftclust imported from {driftclust.__file__}, not from {src}")
    return driftclust


def _cli(driftclust, argv):
    with contextlib.redirect_stdout(sys.stderr):
        return driftclust.cli.main(argv)


def check_outputs(driftclust, out_dir, bounds, truth_path):
    """Checks every repetition must pass; returns (digest, labels)."""
    dio, metrics = driftclust.dataio, driftclust.metrics
    trainer, result = bounds.trainer, bounds.result
    labels_bytes = (out_dir / "labels.csv").read_bytes()
    labels = dio.load_labels(out_dir / "labels.csv")
    n, k = trainer.dataset.n, trainer.config.k
    if labels.shape != (n,) or labels.min() < 0 or labels.max() >= k:
        raise AssertionError(f"labels must be {n} values in [0, {k})")
    if not np.array_equal(labels, result.labels):
        raise AssertionError("labels file differs from the run's labels")
    if truth_path is not None:
        truth = np.frombuffer(Path(truth_path).read_bytes(), dtype=np.uint8, offset=8)
        if not np.array_equal(truth, trainer.truth):
            raise AssertionError("ground truth differs from the generated labels")
    if metrics.nmi(trainer.truth, labels) != result.nmi_history[-1]:
        raise AssertionError("NMI recomputed from the labels differs from nmi_history[-1]")
    cfg = trainer.config
    if result.finetunes != result.iterations * cfg.k_m // cfg.n_m:
        raise AssertionError(f"finetunes={result.finetunes} but iterations*k_m//n_m="
                             f"{result.iterations * cfg.k_m // cfg.n_m}")
    text = (out_dir / "metrics.txt").read_text()
    for key, value in (("finetunes", result.finetunes), ("iterations", result.iterations),
                       ("samples", n)):
        if f"\n{key}={value}\n" not in text:
            raise AssertionError(f"metrics file lacks {key}={value}")
    ckpt = dio.load_checkpoint(out_dir / "run.ckpt")
    if not (np.array_equal(ckpt.centroids, result.centroid_bank.centroids)
            and np.array_equal(ckpt.w_hidden, result.head.w_hidden)
            and ckpt.epochs_done == trainer.epochs_done):
        raise AssertionError("checkpoint does not round-trip the final trainer state")
    return hashlib.sha256(labels_bytes).hexdigest(), labels


def run_rep(args):
    root = Path(args.root)
    driftclust = import_driftclust(root)
    wl = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = (args.images, args.labels) if wl.uses_idx else None
    keep = out_dir / "resume-from.ckpt" if args.resume_check else None
    bounds = Boundaries(out_dir / "run.ckpt", wl.resume_epoch, keep)
    tracer = Tracer() if args.trace else None
    argv = wl.cluster_argv(args.seed, inputs, out_dir)

    if tracer is not None:
        tracer.install()
    bounds.install(driftclust.trainer.JointTrainer)
    try:
        ref_before = reference.measure()
        t0 = time.perf_counter()
        code = _cli(driftclust, argv)
        t1 = time.perf_counter()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ref_after = reference.measure()
        bounds.restore()
        if code != 0:
            raise RuntimeError(f"driftclust cluster exited {code}")
        if tracer is not None:
            tracer.run = "check"
        digest, labels = check_outputs(driftclust, out_dir, bounds, args.labels)
        if args.resume_check:
            if tracer is not None:
                tracer.run = "resume"
            resumed = out_dir / "resumed"
            resumed.mkdir(exist_ok=True)
            code = _cli(driftclust, wl.cluster_argv(args.seed, inputs, resumed, resume=keep))
            if code != 0:
                raise RuntimeError(f"resume exited {code}")
            for name in ("labels.csv", "metrics.txt"):
                if (resumed / name).read_bytes() != (out_dir / name).read_bytes():
                    raise AssertionError(f"resume from epoch {wl.resume_epoch} changed {name}")
    finally:
        bounds.restore()
        if tracer is not None:
            tracer.restore()

    result = bounds.result
    wall = {
        "setup_s": bounds.run_start - t0,
        "cluster_s": bounds.run_end - bounds.run_start,
        "time_to_labels_s": t1 - t0,
    }
    record = {
        "ok": True,
        "digest": digest,
        "e2e": {
            **{name: reference.rescale(value, ref_before, ref_after) for name, value in wall.items()},
            "peak_rss_mb": peak_kib * 1024 / 1e6,
        },
        "wall": wall,
        "reference_s": [ref_before, ref_after],
        "quality": {
            "metrics.final_nmi": result.nmi_history[-1],
            "metrics.clusters_used": int(np.unique(labels).size),
        },
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers.update({
            "trainer.epoch_s": bounds.epoch_s(),
            "trainer.iterations": result.iterations,
            "trainer.finetunes": result.finetunes,
            **record["quality"],
        })
        record["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--images")
    p.add_argument("--labels")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--resume-check", action="store_true")
    p.add_argument("--spans")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    try:
        record = run_rep(args)
    except Exception as exc:  # any failure fails this repetition, not the benchmark
        traceback.print_exc()
        record = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    record.update(workload=args.workload, seed=args.seed, traced=args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
