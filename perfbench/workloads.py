"""Workload definitions and the seeded inputs they run on.

Every workload is one `driftclust cluster` invocation with k = 10. The
benchmark seed picks the inputs; the program only ever sees the generated
files and the argv built here.

    blobs-joint   the 10-blob benchmark (5000 x 50, full mode, 10 epochs,
                  flatten, checkpoint every epoch); per-call Python overhead
                  of streaming centroid updates, per-sample SGD at 50->128->10
                  and scalar gauss() draws in gen_blobs.
    conv-lloyd    10k MNIST-shaped 28x28 uint8 images read through
                  load_idx, through tinyconv (128-d) and baseline3; batch
                  extraction, k-means++ seeding and Lloyd, with no SGD, no
                  streaming update and no rollback. At the
                  default tolerance Lloyd stops after a data-dependent number
                  of sweeps (6 to 56 on seeds 1-5), so lloyd_tol=0 makes it
                  run all lloyd_iters, the same work for every seed; 200
                  sweeps (about 1.2 s) keep that phase long against timer
                  noise.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

K = 10
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# MNIST-shaped generator: each image is one of PIXEL_CLASSES random
# prototypes (pixels uniform in [0, 255]) plus Gaussian pixel noise of
# standard deviation PIXEL_NOISE_SIGMA, rounded and clipped to [0, 255].
# Labels are uniform over the classes. Images are drawn in chunks of
# PIXEL_CHUNK from per-chunk streams, so a smaller set is a prefix of a
# larger one drawn from the same seed.
PIXEL_SIDE = 28
PIXEL_CLASSES = 10
PIXEL_NOISE_SIGMA = 64.0
PIXEL_CHUNK = 10_000

GENERATOR = {
    "kind": "mnist-shaped prototypes plus clipped gaussian pixel noise",
    "side": PIXEL_SIDE,
    "classes": PIXEL_CLASSES,
    "prototype_pixels": "uniform [0, 255]",
    "noise_sigma": PIXEL_NOISE_SIGMA,
    "chunk": PIXEL_CHUNK,
    "numpy_generator": "PCG64 via numpy.random.default_rng",
}


def mnist_like(n: int, seed: int):
    """(images uint8 (n, 28, 28), labels uint8 (n,)) drawn from `seed`."""
    protos = np.random.default_rng([seed, 0]).uniform(
        0.0, 255.0, size=(PIXEL_CLASSES, PIXEL_SIDE, PIXEL_SIDE))
    images = np.empty((n, PIXEL_SIDE, PIXEL_SIDE), dtype=np.uint8)
    labels = np.empty(n, dtype=np.uint8)
    for chunk, lo in enumerate(range(0, n, PIXEL_CHUNK)):
        hi = min(lo + PIXEL_CHUNK, n)
        rng = np.random.default_rng([seed, 1, chunk])
        lab = rng.integers(0, PIXEL_CLASSES, size=PIXEL_CHUNK)[: hi - lo]
        noise = rng.normal(0.0, PIXEL_NOISE_SIGMA, size=(PIXEL_CHUNK, PIXEL_SIDE, PIXEL_SIDE))
        images[lo:hi] = np.clip(np.rint(protos[lab] + noise[: hi - lo]), 0, 255)
        labels[lo:hi] = lab
    return images, labels


def write_idx(directory: Path, images: np.ndarray, labels: np.ndarray):
    """Write an IDX image file and label file; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    n, rows, cols = images.shape
    img_path = directory / "train-images-idx3-ubyte"
    lab_path = directory / "train-labels-idx1-ubyte"
    img_path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, n) + labels.tobytes())
    return img_path, lab_path


@dataclass(frozen=True)
class Workload:
    name: str
    # cli flags besides inputs and outputs
    flags: tuple
    # pixel images generated per invocation; 0 means the CLI generates blobs
    images: int
    # distinct input seeds one invocation cycles through
    seeds_per_run: int
    epochs: int
    # blob-only: resume from this epoch's checkpoint must match the unbroken run
    resume_epoch: int = 0

    @property
    def uses_idx(self) -> bool:
        return self.images > 0

    def input_seeds(self, bench_seed: int):
        return [bench_seed * self.seeds_per_run + j for j in range(self.seeds_per_run)]

    def cluster_argv(self, seed: int, inputs, out_dir: Path, resume=None):
        argv = ["cluster", "--k", str(K), "--seed", str(seed), "--epochs", str(self.epochs),
                *self.flags,
                "--out-labels", str(out_dir / "labels.csv"),
                "--out-metrics", str(out_dir / "metrics.txt")]
        if inputs is not None:
            images, labels = inputs
            argv += ["--data", "mnist", "--images", str(images), "--labels", str(labels)]
        else:
            argv += ["--data", "blobs"]
        if resume is None:
            argv += ["--checkpoint", str(out_dir / "run.ckpt")]
        else:
            argv += ["--resume", str(resume)]
        return argv


FULL = {
    "blobs-joint": Workload("blobs-joint", ("--mode", "full", "--backbone", "flatten"),
                            images=0, seeds_per_run=3, epochs=10, resume_epoch=5),
    "conv-lloyd": Workload("conv-lloyd", ("--mode", "baseline3", "--backbone", "tinyconv",
                                          "--lloyd-tol", "0", "--lloyd-iters", "200"),
                           images=10_000, seeds_per_run=1, epochs=1),
}

# Same code paths at a size the benchmark's own tests can afford.
TINY = {
    "blobs-joint": Workload("blobs-joint", ("--mode", "full", "--backbone", "flatten",
                                            "--blob-points", "20", "--blob-dim", "8"),
                            images=0, seeds_per_run=3, epochs=4, resume_epoch=2),
    "conv-lloyd": Workload("conv-lloyd", FULL["conv-lloyd"].flags,
                           images=200, seeds_per_run=1, epochs=1),
}
