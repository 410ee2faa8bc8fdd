import gzip
import hashlib
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import planted, write_idx_fixture
from driftclust import dataio, tensor
from driftclust.clustering import lloyd_kmeans
from driftclust.dataio import (CheckpointError, CsvFormatError, IdxFormatError, TrainerState,
                               atomic_write_bytes, gen_blobs, load_checkpoint, load_csv,
                               load_idx, load_labels, save_checkpoint, save_labels)
from driftclust.metrics import nmi
from driftclust.tensor import SeededRng


def test_idx_roundtrip_exact_bytes(tmp_path):
    pixels = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    img, lab = write_idx_fixture(tmp_path, pixels, labels=[7, 2])
    ds = load_idx(img, lab)
    assert ds.n == 2 and ds.shape == (3, 4, 1)
    assert np.array_equal(ds.samples.reshape(2, 3, 4), pixels)
    assert ds.labels.tolist() == [7, 2]


def test_idx_gzip_transparent(tmp_path):
    pixels = np.full((1, 2, 2), 9, dtype=np.uint8)
    img, _ = write_idx_fixture(tmp_path, pixels)
    gz = tmp_path / "images.idx.gz"
    gz.write_bytes(gzip.compress(img.read_bytes()))
    ds = load_idx(gz)
    assert np.array_equal(ds.samples.reshape(1, 2, 2), pixels)


def test_idx_load_holds_one_copy_of_the_pixels(tmp_path):
    pixels = np.random.RandomState(0).randint(0, 256, size=(5000, 28, 28)).astype(np.uint8)
    img, _ = write_idx_fixture(tmp_path, pixels)
    tracemalloc.start()
    try:
        ds = load_idx(img)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pixels.nbytes  # a second copy of the file would reach 2x
    assert ds.samples.flags.writeable
    assert np.array_equal(ds.samples.reshape(pixels.shape), pixels)


def test_idx_gzip_load_peaks_below_twice_the_pixels(tmp_path):
    # streamed into one buffer sized from the header; decompressing the whole
    # file at once peaked at 3.9x the pixel bytes
    pixels = np.random.RandomState(0).randint(0, 256, size=(5000, 28, 28)).astype(np.uint8)
    img, _ = write_idx_fixture(tmp_path, pixels)
    gz = tmp_path / "images.idx.gz"
    gz.write_bytes(gzip.compress(img.read_bytes()))
    tracemalloc.start()
    try:
        ds = load_idx(gz)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * pixels.nbytes
    assert ds.samples.flags.writeable
    assert np.array_equal(ds.samples.reshape(pixels.shape), pixels)


@pytest.mark.parametrize("piece", [7, 1 << 16])
def test_idx_gzip_members_and_zero_padding_read_piece_by_piece(tmp_path, monkeypatch, piece):
    # gzip.decompress reads concatenated members and skips zeros after one
    monkeypatch.setattr(dataio, "_GZIP_PIECE", piece)
    pixels = np.arange(3 * 5 * 4, dtype=np.uint8).reshape(3, 5, 4)
    img, lab = write_idx_fixture(tmp_path, pixels, labels=[4, 0, 9])
    raw = img.read_bytes()
    img_gz, lab_gz = tmp_path / "images.gz", tmp_path / "labels.gz"
    img_gz.write_bytes(gzip.compress(raw[:21]) + bytes(9) + gzip.compress(raw[21:]) + bytes(40))
    lab_gz.write_bytes(gzip.compress(lab.read_bytes()))
    ds = load_idx(img_gz, lab_gz)
    assert np.array_equal(ds.samples.reshape(pixels.shape), pixels)
    assert ds.labels.tolist() == [4, 0, 9]


_IDX_2X2X2 = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(range(8))
# The case ids below are the stream bytes, and a gzip header holds its write time:
# one fixed time keeps the bytes, and so the test names, the same on every run.
_GZIP_MTIME = 1792437845  # 2026-10-19 19:24:05 UTC


def _gzip(data):
    return gzip.compress(data, mtime=_GZIP_MTIME)


@pytest.mark.parametrize("body,message", [
    (_gzip(_IDX_2X2X2)[:-6], "bad gzip stream"),  # cut in the trailer
    (_gzip(_IDX_2X2X2)[:-8] + bytes(8), "bad gzip stream"),  # wrong CRC and length
    (_gzip(_IDX_2X2X2) + b"junk", "bad gzip stream"),
    (_gzip(_IDX_2X2X2 + b"\x01"), "expected 24 bytes, got 25"),
    (_gzip(_IDX_2X2X2[:-3]), "expected 24 bytes, got 21"),
    (_gzip(_IDX_2X2X2[:9]), "too short for an IDX header (9 bytes)"),
    (_gzip(b"\x00" * 24), "bad image magic"),
    (_gzip(b"\x00" * 24)[:-6], "bad gzip stream"),  # the stream is reported first
    (_gzip(struct.pack(">IIII", 0x00000803, 2**32 - 1, 2**32 - 1, 2**32 - 1)),
     "expected 79228162458924105385300197391 bytes, got 16"),
])
def test_idx_gzip_malformed_input_is_an_idx_error(tmp_path, body, message):
    path = tmp_path / "bad.idx.gz"
    path.write_bytes(body)
    with pytest.raises(IdxFormatError, match=re.escape(message)):
        load_idx(path)


def test_idx_reads_through_a_pipe(tmp_path):
    # plain bytes, and two gzip members with zero padding, from a FIFO that cannot seek
    pixels = np.arange(3 * 5 * 4, dtype=np.uint8).reshape(3, 5, 4)
    img, _ = write_idx_fixture(tmp_path, pixels)
    raw = img.read_bytes()
    for i, body in enumerate([raw, gzip.compress(raw[:21]) + bytes(9) + gzip.compress(raw[21:])]):
        fifo = tmp_path / f"images{i}.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(body,), daemon=True)
        writer.start()
        ds = load_idx(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(ds.samples.reshape(pixels.shape), pixels)


def test_idx_bad_magic_names_observed_value(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000999, 1, 1, 1) + b"\x00")
    with pytest.raises(IdxFormatError, match="0x00000999"):
        load_idx(path)


def test_idx_truncation_reports_byte_counts(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
    with pytest.raises(IdxFormatError, match="expected 24 bytes, got 21"):
        load_idx(path)


def test_idx_count_mismatch(tmp_path):
    pixels = np.zeros((2, 1, 1), dtype=np.uint8)
    img, _ = write_idx_fixture(tmp_path, pixels)
    lab = tmp_path / "labels.idx"
    lab.write_bytes(struct.pack(">II", 0x00000801, 3) + b"\x00\x01\x02")
    with pytest.raises(IdxFormatError, match="mismatch"):
        load_idx(img, lab)


def test_blobs_zero_noise_recoverable():
    ds = gen_blobs(k=3, points_per_cluster=20, dim=4, separation=5.0,
                   noise_sigma=0.0, rng=SeededRng(1))
    feats = ds.samples.reshape(ds.n, -1)
    labels, _ = lloyd_kmeans(feats, 3, SeededRng(2))
    assert nmi(ds.labels, labels) == 1.0
    # every point sits exactly on its center
    for lab in range(3):
        rows = feats[ds.labels == lab]
        assert np.all(rows == rows[0])


def test_blobs_deterministic():
    a = gen_blobs(4, 10, 6, 8.0, 1.0, SeededRng(33))
    b = gen_blobs(4, 10, 6, 8.0, 1.0, SeededRng(33))
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_benchmark_set_is_pinned():
    # the 10-blob set of seed 0 and the stream position after it; the floats
    # as Box-Muller from IEEE basic operations draws them, within the bound
    # of test_gauss_is_within_the_ulp_bound_of_math_log_and_cos
    rng = SeededRng(0)
    ds = gen_blobs(10, 500, 50, 10.0, 1.0, rng)
    assert hashlib.sha256(ds.samples.astype("<f8").tobytes()).hexdigest() == \
        "54f1b1f88d0df9ecf19d2b6b443941f8d750a1fa8d2a475a30306be3afc688e0"
    assert hashlib.sha256(ds.labels.astype("<i8").tobytes()).hexdigest() == \
        "c3556f4a243d7dc7c1fb41d5302fb5050146cd15b4b1e72e41d57339c79a1367"
    assert rng.state() == (16910642681060273710, 15705961282128593385,
                           9436931461749330467, 5928406104882842675)


def _per_cluster_blobs(k, points, dim, separation, sigma, rng):
    """The blob samples as one gauss call a cluster draws them."""
    centers = rng.gauss(size=(k, dim))
    for center in centers:
        center *= separation / float(np.sqrt(np.dot(center, center)))
    samples = np.empty((k * points, dim))
    for i, block in enumerate(samples.reshape(k, points, dim)):
        block[...] = rng.gauss(size=block.shape)
        block *= sigma
        block += centers[i]
    return samples


# noise items: inside the second cluster, and the last and first items of
# gauss slices, patched down to 256 items
@pytest.mark.parametrize("item", [230, 255, 256])
def test_gen_blobs_draws_the_noise_of_a_call_per_cluster(monkeypatch, item):
    monkeypatch.setattr(tensor, "_GAUSS_SLICE", 256)
    k, points, dim = 3, 40, 5  # 200 noise items a cluster
    u1 = 2 * (k * dim + item)  # the noise words follow the centers', two an item
    state = planted(SeededRng(item).state(), u1, 0)
    rng, reference, probe = SeededRng(0), SeededRng(0), SeededRng(0)
    for r in (rng, reference, probe):
        r.set_state(state)
    assert probe.raw(u1 + 1)[-1] == 0  # a zero u1, which both draw again
    ds = gen_blobs(k, points, dim, 10.0, 1.5, rng)
    expected = _per_cluster_blobs(k, points, dim, 10.0, 1.5, reference)
    assert ds.samples.reshape(k * points, dim).tobytes() == expected.tobytes()
    assert rng.state() == reference.state()


@pytest.mark.slow
def test_blobs_centers_separated_over_seeds():
    # separation 10, sigma 1, dim 50: pairwise center distances should clear
    # 6*sigma essentially always
    failures = 0
    for seed in range(300):
        ds = gen_blobs(k=10, points_per_cluster=1, dim=50, separation=10.0,
                       noise_sigma=0.0, rng=SeededRng(seed))
        centers = ds.samples.reshape(10, 50)
        d = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(axis=2))
        mind = d[np.triu_indices(10, k=1)].min()
        failures += mind <= 6.0
    assert failures <= 3


def test_blobs_shape_and_radius():
    ds = gen_blobs(k=2, points_per_cluster=5, dim=7, separation=4.0,
                   noise_sigma=0.0, rng=SeededRng(3))
    assert ds.shape == (1, 7, 1)
    radii = np.sqrt((ds.samples.reshape(ds.n, 7) ** 2).sum(axis=1))
    assert np.allclose(radii, 4.0, atol=1e-9)


def test_csv_plain_rows(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    ds = load_csv(path)
    assert ds.n == 2 and ds.shape == (1, 2, 1)
    assert ds.labels is None
    assert np.array_equal(ds.samples.reshape(2, 2), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_header_with_label_column(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text("f0,f1,label\n0.5,0.25,1\n0.125,2.0,0\n")
    ds = load_csv(path)
    assert ds.labels.tolist() == [1, 0]
    assert np.array_equal(ds.samples.reshape(2, 2), [[0.5, 0.25], [0.125, 2.0]])


def test_csv_labels_load_exactly_over_the_whole_int64_range(tmp_path):
    # 2^53 + 1 and 2^53 stay two ids, and both ends of int64 load
    labels = [2 ** 53 + 1, 2 ** 53, 2 ** 63 - 1, -2 ** 63, 0]
    path = tmp_path / "ids.csv"
    path.write_text("f0,label\n" + "".join(f"{i}.5,{lab}\n" for i, lab in enumerate(labels)))
    ds = load_csv(path)
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == labels


def test_csv_header_without_label_column(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("a,b\n1.0,2.0\n")
    ds = load_csv(path)
    assert ds.labels is None and ds.shape == (1, 2, 1)


def test_csv_matches_splitter_oracle(tmp_path):
    rng = np.random.RandomState(18)
    values = rng.randn(1000, 5)
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
    path = tmp_path / "big.csv"
    path.write_text(text + "\n")
    ds = load_csv(path)
    oracle = np.array([[float(v) for v in ln.split(",")] for ln in text.splitlines()])
    assert np.array_equal(ds.samples.reshape(1000, 5), oracle)


def test_csv_ragged_row_reports_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CsvFormatError, match="row 2"):
        load_csv(path)


def test_csv_empty_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError):
        load_csv(path)
    path.write_text("f0,f1,label\n")
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_csv(path)


def make_checkpoint():
    rng = SeededRng(5)
    return TrainerState(
        config_text="k=3\nmode='full'\n",
        w_hidden=np.arange(6, dtype=np.float64).reshape(2, 3),
        w_out=np.ones((3, 2)),
        w_rollback=np.full((2, 3), 0.25),
        centroids=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        counts=np.array([4, 5, 6]),
        rng_state=rng.state(),
        epochs_done=2, finetunes=7, iterations=40,
        buffer=[(3, 1), (999, 2)],
        nmi_history=[0.5, 0.75],
    )


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "state.ckpt"
    ckpt = make_checkpoint()
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.config_text == ckpt.config_text
    assert np.array_equal(back.w_hidden, ckpt.w_hidden)
    assert np.array_equal(back.w_out, ckpt.w_out)
    assert np.array_equal(back.w_rollback, ckpt.w_rollback)
    assert np.array_equal(back.centroids, ckpt.centroids)
    assert back.counts.tolist() == [4, 5, 6]
    assert tuple(back.rng_state) == ckpt.rng_state
    assert (back.epochs_done, back.finetunes, back.iterations) == (2, 7, 40)
    assert back.buffer == [(3, 1), (999, 2)]
    assert back.nmi_history == [0.5, 0.75]
    # byte-stable: saving the loaded state reproduces the same file
    path2 = tmp_path / "state2.ckpt"
    save_checkpoint(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bytes_are_pinned(tmp_path):
    # format version 3, byte for byte; the fixture holds no BLAS-dependent
    # floats, so the digest is the same on every platform
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, make_checkpoint())
    blob = path.read_bytes()
    assert len(blob) == 488
    assert hashlib.sha256(blob).hexdigest() == \
        "517840dd216aa222d03eb4763f97e02a3842ae9a278bd45317a5e099e5e12955"


def test_checkpoint_flipped_byte_is_corruption(tmp_path):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, make_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF  # somewhere inside the payload
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_checkpoint_version_bump_rejected(tmp_path):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, make_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[8] += 1  # little-endian version field
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "not.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    save_labels(path, [3, 1, 4, 1, 5])
    assert path.read_text() == "0,3\n1,1\n2,4\n3,1\n4,5\n"
    assert load_labels(path).tolist() == [3, 1, 4, 1, 5]
    bare = tmp_path / "bare.txt"
    bare.write_text("3\n1\n4\n-9223372036854775808\n9223372036854775807\n")
    assert load_labels(bare).tolist() == [3, 1, 4, -2 ** 63, 2 ** 63 - 1]


@pytest.mark.parametrize("body,message", [
    ("0,1\n1,2,3\n", "line 2: '1,2,3' is not index,label"),
    ("a,b,3\n", "line 1: 'a,b,3' is not index,label"),
    ("0,1\nx,3\n", "line 2: 'x,3' is not index,label"),
    (",3\n", "line 1: ',3' is not index,label"),
    ("0.5,3\n", "line 1: '0.5,3' is not index,label"),
    ("0,9223372036854775808\n", "line 1: label '9223372036854775808' is not a 64-bit"),
    ("-9223372036854775809\n", "line 1: label '-9223372036854775809' is not a 64-bit"),
    ("0,3.0\n", "line 1: label '3.0' is not a 64-bit"),
])
def test_labels_reject_malformed_lines(tmp_path, body, message):
    path = tmp_path / "labels.csv"
    path.write_text(body)
    with pytest.raises(CsvFormatError, match=message):
        load_labels(path)


def test_atomic_write_leaves_no_target_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"

    class Boom(RuntimeError):
        pass

    def explode(src, dst):
        raise Boom()

    monkeypatch.setattr("os.replace", explode)
    with pytest.raises(Boom):
        atomic_write_bytes(target, b"data")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # temp file cleaned up
