import functools
import hashlib
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from driftclust import dataio, tensor
from driftclust.backbone import BackboneSpec
from driftclust.cli import main
from driftclust.dataio import gen_blobs
from driftclust.tensor import SeededRng
from driftclust.trainer import TrainerConfig


SRC = Path(__file__).resolve().parents[1] / "src"
MASK = (1 << 64) - 1


def blas_pinned_env(threads):
    """Environment for a child Python process: this one's, with OpenBLAS
    pinned to `threads` threads (read once, at its start) and the
    checkout's src/ first on PYTHONPATH."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)


def cli_digests(tmp_path, argv):
    """Run the CLI on argv with labels.csv, metrics.txt and run.ckpt written
    into tmp_path; {file name: sha256} of the three outputs."""
    names = ("labels.csv", "metrics.txt", "run.ckpt")
    flags = ("--out-labels", "--out-metrics", "--checkpoint")
    assert main(argv + [str(a) for flag, name in zip(flags, names) for a in (flag, tmp_path / name)]) == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}


class Sections(dict):
    """{TrainerState field name: section body} of checkpoint bytes, one field
    per section in file order (dataio._LAYOUT). blob() gives the bytes back
    with the current bodies, a valid CRC and the original magic and version."""

    def __init__(self, blob):
        payload, bodies, pos = blob[12:-4], [], 0
        while pos < len(payload):
            (length,) = struct.unpack_from("<Q", payload, pos)
            bodies.append(payload[pos + 8:pos + 8 + length])
            pos += 8 + length
        super().__init__(zip((name for name, _ in dataio._LAYOUT), bodies))
        self.head = blob[:12]

    def blob(self):
        payload = b"".join(struct.pack("<Q", len(body)) + body for body in self.values())
        return self.head + payload + struct.pack("<I", zlib.crc32(payload))


@pytest.fixture
def pass_workers(monkeypatch):
    """set_workers(n): every whole-set pass (extraction, features, seeding,
    assignment, Lloyd) runs its tensor.pool_chunks on n threads, fewer when
    it has fewer chunk runs, until the test ends. The count comes from
    tensor's own rule, for BLAS pinned to 1 thread on n usable CPUs with no
    sharers; set_workers(None) leaves BLAS unpinned, the CLI default, which
    runs every pass on the calling thread."""
    monkeypatch.setattr(tensor, "_cpu_sharers", 1)

    def set_workers(n):
        monkeypatch.setattr(tensor, "_BLAS_THREADS", None if n is None else 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n or 1)), raising=False)

    return set_workers


@pytest.fixture
def cold_jumps():
    """An empty jump ladder, so a bulk draw in the test builds it from the
    first rung whatever ran before."""
    tensor._jump.cache_clear()


def write_idx_fixture(tmp_path, pixels, labels=None):
    """Independent byte-level IDX writer used as the parsing oracle."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img_path = tmp_path / "images.idx"
    body = struct.pack(">IIII", 0x00000803, n, rows, cols) + pixels.tobytes()
    img_path.write_bytes(body)
    lab_path = None
    if labels is not None:
        lab_path = tmp_path / "labels.idx"
        lab_path.write_bytes(struct.pack(">II", 0x00000801, len(labels))
                             + bytes(int(v) for v in labels))
    return img_path, lab_path


def mnist_like(n, seed, side=28, classes=10, sigma=64.0, chunk=10_000):
    """(uint8 images (n, side, side), labels (n,)): each image is one of
    `classes` prototypes (pixels uniform in [0, 255]) plus Gaussian pixel
    noise, rounded and clipped. Drawn `chunk` images at a time, so a 60k set
    never holds its float64 noise at once."""
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0.0, 255.0, size=(classes, side, side))
    labels = rng.integers(0, classes, size=n)
    images = np.empty((n, side, side), dtype=np.uint8)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        noisy = protos[labels[lo:hi]] + rng.normal(0.0, sigma, size=(hi - lo, side, side))
        images[lo:hi] = np.clip(np.rint(noisy), 0, 255)
    return images, labels


def small_blob_setup(seed=0, k=4, points=50, dim=8, separation=25.0, sigma=0.5,
                     **config_overrides):
    """Tiny, crisply separated benchmark for fast trainer-level tests."""
    dataset = gen_blobs(k=k, points_per_cluster=points, dim=dim,
                        separation=separation, noise_sigma=sigma, rng=SeededRng(seed))
    spec = BackboneSpec("flatten", dataset.shape, dim, seed=seed + 1)
    defaults = dict(k=k, n_m=20, k_m=5, eta=0.001, epochs=3, mode="full",
                    seed=seed, hidden_dim=16)
    defaults.update(config_overrides)
    return dataset, spec, TrainerConfig(**defaults)


@functools.lru_cache(maxsize=None)
def _acceptance_blobs(seed):
    """The 10-blob set of one seed, generated once per test session; its arrays
    are read-only because every test that asks for the seed shares them."""
    dataset = gen_blobs(k=10, points_per_cluster=500, dim=50, separation=10.0,
                        noise_sigma=1.0, rng=SeededRng(seed))
    dataset.samples.setflags(write=False)
    dataset.labels.setflags(write=False)
    return dataset


def acceptance_blob_setup(seed, **config_overrides):
    """The 10-blob benchmark at its pinned parameters (5000 points, dim 50,
    separation 10, sigma 1), wired exactly like the CLI does it."""
    dataset = _acceptance_blobs(seed)
    spec = BackboneSpec("flatten", dataset.shape, 50, seed=seed + 1)
    defaults = dict(k=10, mode="full", seed=seed)
    defaults.update(config_overrides)
    return dataset, spec, TrainerConfig(**defaults)


# --- xoshiro256** states that yield chosen words --------------------------------

def rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK


def step_back(state):
    """Inverse of one xoshiro256** state update."""
    a0, a1, a2, a3 = state
    x3 = rotl(a3, 64 - 45)  # s3 ^ s1
    s0 = a0 ^ x3
    v = a1 ^ a2  # s1 ^ (s1 << 17)
    s1 = (v ^ (v << 17) ^ (v << 34) ^ (v << 51)) & MASK
    return (s0, s1, a1 ^ s1 ^ s0, x3 ^ s1)


def planted(state, position, *words):
    """A state whose stream yields `words` (one or two) from `position`
    (0-based) on: `state` with its s1 solved for the first word and its s2
    for the second (the next s1 is s0 ^ s1 ^ s2), then stepped back
    `position` times."""
    s0, _, s2, s3 = state
    x = [(rotl((w * pow(9, -1, 1 << 64)) & MASK, 64 - 7) * pow(5, -1, 1 << 64)) & MASK for w in words]
    if len(x) > 1:
        s2 = s0 ^ x[0] ^ x[1]
    state = (s0, x[0], s2, s3)
    for _ in range(position):
        state = step_back(state)
    return state
