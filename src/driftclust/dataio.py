"""Dataset ingestion and binary state persistence.

Supported inputs: IDX image/label files (big-endian headers, magics
0x00000803 / 0x00000801, gzip accepted transparently), CSV feature tables
with an optional trailing "label" column, and synthetic Gaussian blobs.

Checkpoint layout (all multi-byte integers little-endian unless noted):

    8 bytes   magic "DRIFTCLU"
    u32       format version (currently 1)
    payload   u64-length-prefixed sections, in order:
                config text (utf-8 key=value lines)
                w_hidden, w_out, last_delta_hidden, last_delta_out  (matrices)
                snapshot w_hidden, snapshot w_out                (matrices)
                centroids                                     (matrix)
                counts        u32 k, then k x u64
                rng state     u32 word count, then u64 words
                progress      u64 epochs_done, u64 finetunes, u64 iterations
                buffer        u32 m, then m x (u64 sample index, u32 label)
                nmi history   u32 m, then m x f64
    u32       CRC-32 of the payload bytes

A matrix section body is u32 rows, u32 cols, then rows*cols f64 row-major;
an absent delta is stored as a 0 x 0 matrix. File writes go through a
temp-file-and-rename so readers never see partial state.
"""

import gzip
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tensor import SeededRng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CHECKPOINT_MAGIC = b"DRIFTCLU"
CHECKPOINT_VERSION = 1


class IdxFormatError(ValueError):
    """IDX file violates the expected layout."""


class CsvFormatError(ValueError):
    """CSV feature table cannot be parsed."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed, corrupted, or the wrong version."""


@dataclass
class Dataset:
    samples: np.ndarray  # (n, height, width, channels)
    shape: tuple
    labels: Optional[np.ndarray]
    name: str

    def __post_init__(self):
        if self.samples.ndim != 4:
            raise ValueError(f"samples must be (n, h, w, c), got shape {self.samples.shape}")
        if tuple(self.samples.shape[1:]) != tuple(self.shape):
            raise ValueError(f"sample shape {self.samples.shape[1:]} does not match declared {self.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.samples.shape[0],):
                raise ValueError("labels must match the sample count")

    @property
    def n(self):
        return self.samples.shape[0]


def _read_bytes(path) -> bytes:
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    return data


def load_idx(images_path, labels_path=None) -> Dataset:
    """Load an IDX image file (and optional matching label file).

    Pixels are kept as raw uint8 bytes; scaling to [0, 1] happens at feature
    extraction time.
    """
    data = _read_bytes(images_path)
    if len(data) < 16:
        raise IdxFormatError(f"image file too short for an IDX header ({len(data)} bytes)")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    expected = 16 + count * rows * cols
    if len(data) != expected:
        raise IdxFormatError(f"image file truncated or padded: expected {expected} bytes, got {len(data)}")
    samples = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, rows, cols, 1)

    labels = None
    if labels_path is not None:
        ldata = _read_bytes(labels_path)
        if len(ldata) < 8:
            raise IdxFormatError(f"label file too short for an IDX header ({len(ldata)} bytes)")
        lmagic, lcount = struct.unpack(">II", ldata[:8])
        if lmagic != IDX_LABEL_MAGIC:
            raise IdxFormatError(f"bad label magic 0x{lmagic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
        if len(ldata) != 8 + lcount:
            raise IdxFormatError(f"label file truncated or padded: expected {8 + lcount} bytes, got {len(ldata)}")
        if lcount != count:
            raise IdxFormatError(f"image/label count mismatch: {count} images vs {lcount} labels")
        labels = np.frombuffer(ldata, dtype=np.uint8, offset=8).astype(np.int64)

    return Dataset(samples=samples.copy(), shape=(rows, cols, 1), labels=labels, name="idx")


def gen_blobs(k: int, points_per_cluster: int, dim: int, separation: float,
              noise_sigma: float, rng: SeededRng) -> Dataset:
    """Synthetic benchmark: k centers uniform on a sphere of radius
    `separation`, points are center plus isotropic Gaussian noise. Ground
    truth labels are attached; samples are shaped (1, dim, 1)."""
    if k <= 0 or points_per_cluster <= 0 or dim <= 0:
        raise ValueError("k, points_per_cluster and dim must be positive")
    if separation <= 0 or noise_sigma < 0:
        raise ValueError("separation must be positive and noise_sigma nonnegative")
    centers = np.empty((k, dim))
    for i in range(k):
        norm = 0.0
        while norm == 0.0:
            for j in range(dim):
                centers[i, j] = rng.gauss()
            norm = float(np.sqrt(np.dot(centers[i], centers[i])))
        centers[i] *= separation / norm
    n = k * points_per_cluster
    samples = np.empty((n, dim))
    labels = np.empty(n, dtype=np.int64)
    row = 0
    for i in range(k):
        for _ in range(points_per_cluster):
            for j in range(dim):
                samples[row, j] = centers[i, j] + noise_sigma * rng.gauss()
            labels[row] = i
            row += 1
    return Dataset(samples=samples.reshape(n, 1, dim, 1), shape=(1, dim, 1),
                   labels=labels, name="blobs")


def load_csv(path) -> Dataset:
    """CSV feature table, one sample per row.

    A non-numeric first row is treated as a header; if its last column is
    named "label" the final column holds integer ground-truth labels,
    otherwise every column is a feature. Rows must all have the same width,
    every value must be finite and every label a 64-bit integer; a violation
    raises CsvFormatError naming the row and the column (both 1-based).
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip() != ""]
    if not lines:
        raise CsvFormatError("empty CSV file")

    first = [s.strip() for s in lines[0].split(",")]
    has_header = False
    try:
        [float(v) for v in first]
    except ValueError:
        has_header = True
    labeled = has_header and first[-1] == "label"
    width = len(first)
    data_lines = lines[1:] if has_header else lines
    if not data_lines:
        raise CsvFormatError("CSV has a header but no data rows")

    feat_dim = width - 1 if labeled else width
    feats = np.empty((len(data_lines), feat_dim))
    labels = np.empty(len(data_lines), dtype=np.int64) if labeled else None
    for i, line in enumerate(data_lines):
        rownum = i + 2 if has_header else i + 1
        parts = [s.strip() for s in line.split(",")]
        if len(parts) != width:
            raise CsvFormatError(f"row {rownum}: expected {width} columns, got {len(parts)}")
        try:
            values = [float(v) for v in parts]
        except ValueError as exc:
            raise CsvFormatError(f"row {rownum}: {exc}") from None
        for col, v in enumerate(values):
            if not math.isfinite(v):
                raise CsvFormatError(f"row {rownum}, column {col + 1}: non-finite value {parts[col]!r}")
        if labeled:
            if not (values[-1].is_integer() and abs(values[-1]) < 2.0 ** 63):
                raise CsvFormatError(f"row {rownum}, column {width}: label {parts[-1]!r} is not a 64-bit integer")
            feats[i] = values[:-1]
            labels[i] = int(values[-1])
        else:
            feats[i] = values
    n = feats.shape[0]
    return Dataset(samples=feats.reshape(n, 1, feat_dim, 1), shape=(1, feat_dim, 1),
                   labels=labels, name="csv")


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory plus rename, so the target
    path either holds the old content or the complete new content."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_labels(path, labels) -> None:
    """Label export: one "index,label" line per sample."""
    lines = [f"{i},{int(lab)}" for i, lab in enumerate(labels)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_labels(path) -> np.ndarray:
    """Read a label file; accepts "index,label" lines or bare labels."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for ln in f:
            ln = ln.strip()
            if not ln:
                continue
            out.append(int(ln.split(",")[-1]))
    if not out:
        raise ValueError(f"no labels found in {path}")
    return np.asarray(out, dtype=np.int64)


@dataclass
class Checkpoint:
    config_text: str
    w_hidden: np.ndarray
    w_out: np.ndarray
    last_delta_hidden: Optional[np.ndarray]
    last_delta_out: Optional[np.ndarray]
    centroids: np.ndarray
    counts: np.ndarray
    rng_state: tuple
    snap_w_hidden: Optional[np.ndarray] = None  # pre-pass weights for snapshot rollback
    snap_w_out: Optional[np.ndarray] = None
    epochs_done: int = 0
    finetunes: int = 0
    iterations: int = 0
    buffer: list = field(default_factory=list)  # (sample index, label) pairs
    nmi_history: list = field(default_factory=list)


def _section(body: bytes) -> bytes:
    return struct.pack("<Q", len(body)) + body


def _matrix_bytes(m: Optional[np.ndarray]) -> bytes:
    if m is None:
        return struct.pack("<II", 0, 0)
    a = np.ascontiguousarray(m, dtype="<f8")
    return struct.pack("<II", a.shape[0], a.shape[1]) + a.tobytes(order="C")


class _Reader:
    def __init__(self, payload: bytes):
        self.buf = payload
        self.pos = 0

    def section(self) -> bytes:
        if self.pos + 8 > len(self.buf):
            raise CheckpointError("payload ends inside a section length prefix")
        (length,) = struct.unpack_from("<Q", self.buf, self.pos)
        self.pos += 8
        if self.pos + length > len(self.buf):
            raise CheckpointError("section length exceeds remaining payload")
        body = self.buf[self.pos:self.pos + length]
        self.pos += length
        return body

    def done(self):
        if self.pos != len(self.buf):
            raise CheckpointError("unexpected trailing bytes in payload")


def _parse_matrix(body: bytes) -> Optional[np.ndarray]:
    if len(body) < 8:
        raise CheckpointError("matrix section shorter than its dims header")
    rows, cols = struct.unpack_from("<II", body, 0)
    if rows == 0 and cols == 0:
        if len(body) != 8:
            raise CheckpointError("empty-matrix sentinel carries data")
        return None
    if len(body) != 8 + rows * cols * 8:
        raise CheckpointError(f"matrix section size mismatch for {rows}x{cols}")
    return np.frombuffer(body, dtype="<f8", offset=8).reshape(rows, cols).copy()


def _count(body: bytes, what: str, item_size: int) -> int:
    """Item count of a section laid out as u32 count, then that many items of
    item_size bytes; the body length must match the count exactly."""
    if len(body) < 4:
        raise CheckpointError(f"{what} section shorter than its count header")
    (count,) = struct.unpack_from("<I", body, 0)
    if len(body) != 4 + count * item_size:
        raise CheckpointError(f"{what} section holds {len(body) - 4} bytes after its header, "
                              f"expected {count} x {item_size}")
    return count


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    parts = [_section(ckpt.config_text.encode("utf-8"))]
    for m in (ckpt.w_hidden, ckpt.w_out, ckpt.last_delta_hidden, ckpt.last_delta_out,
              ckpt.snap_w_hidden, ckpt.snap_w_out, ckpt.centroids):
        parts.append(_section(_matrix_bytes(m)))
    counts = np.asarray(ckpt.counts, dtype=np.int64)
    parts.append(_section(struct.pack("<I", counts.size) + counts.astype("<u8").tobytes()))
    words = tuple(int(w) for w in ckpt.rng_state)
    parts.append(_section(struct.pack("<I", len(words)) + struct.pack(f"<{len(words)}Q", *words)))
    parts.append(_section(struct.pack("<QQQ", ckpt.epochs_done, ckpt.finetunes, ckpt.iterations)))
    buf_body = struct.pack("<I", len(ckpt.buffer))
    for idx, lab in ckpt.buffer:
        buf_body += struct.pack("<QI", int(idx), int(lab))
    parts.append(_section(buf_body))
    hist = np.asarray(ckpt.nmi_history, dtype="<f8")
    parts.append(_section(struct.pack("<I", hist.size) + hist.tobytes()))

    payload = b"".join(parts)
    blob = (CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + payload
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    atomic_write_bytes(path, blob)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16 or blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {blob[:8]!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    payload, (crc,) = blob[12:-4], struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointError("checkpoint payload fails its CRC-32 check")

    r = _Reader(payload)
    try:
        config_text = r.section().decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError("config text section is not valid UTF-8") from None
    w_hidden = _parse_matrix(r.section())
    w_out = _parse_matrix(r.section())
    ld_hidden = _parse_matrix(r.section())
    ld_out = _parse_matrix(r.section())
    snap_w_hidden = _parse_matrix(r.section())
    snap_w_out = _parse_matrix(r.section())
    centroids = _parse_matrix(r.section())
    if w_hidden is None or w_out is None or centroids is None:
        raise CheckpointError("required matrix section is empty")

    body = r.section()
    counts = np.frombuffer(body, dtype="<u8", offset=4,
                           count=_count(body, "counts", 8)).astype(np.int64)

    body = r.section()
    rng_state = struct.unpack_from(f"<{_count(body, 'rng state', 8)}Q", body, 4)

    body = r.section()
    if len(body) != 24:
        raise CheckpointError(f"progress section holds {len(body)} bytes, expected 24")
    epochs_done, finetunes, iterations = struct.unpack("<QQQ", body)

    body = r.section()
    buffer = [struct.unpack_from("<QI", body, 4 + 12 * i) for i in range(_count(body, "buffer", 12))]

    body = r.section()
    history = list(np.frombuffer(body, dtype="<f8", offset=4, count=_count(body, "nmi history", 8)))
    r.done()

    return Checkpoint(
        config_text=config_text, w_hidden=w_hidden, w_out=w_out,
        last_delta_hidden=ld_hidden, last_delta_out=ld_out,
        centroids=centroids, counts=counts, rng_state=rng_state,
        snap_w_hidden=snap_w_hidden, snap_w_out=snap_w_out,
        epochs_done=int(epochs_done), finetunes=int(finetunes), iterations=int(iterations),
        buffer=buffer, nmi_history=history,
    )
