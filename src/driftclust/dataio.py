"""Dataset ingestion and binary state persistence.

Supported inputs: IDX image/label files (big-endian headers, magics
0x00000803 / 0x00000801, gzip accepted transparently), CSV feature tables
with an optional trailing "label" column, and synthetic Gaussian blobs.

Checkpoint layout (all multi-byte integers little-endian):

    8 bytes   magic "DRIFTCLU"
    u32       format version (currently 3; version-1 and version-2 files are refused)
    payload   u64-length-prefixed sections
    u32       CRC-32 of the payload bytes

The field declaration of TrainerState is the payload layout: each field is
one section, in file order, and names the codec of its section, so
save_checkpoint and load_checkpoint only walk that declaration. Matrices are
u32 rows, u32 cols, then f64 row-major (0 x 0 when absent); vectors are a u32
count, then the items; counters are one u64. File writes go through a
temp-file-and-rename so readers never see partial state.
"""

import functools
import gzip
import itertools
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from .tensor import ConfigError, SeededRng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CHECKPOINT_MAGIC = b"DRIFTCLU"
CHECKPOINT_VERSION = 3
_GZIP_PIECE = 1 << 16  # bytes per read of an IDX file and per decompressed piece of a gzipped one


class IdxFormatError(ValueError):
    """IDX file violates the expected layout."""


class CsvFormatError(ValueError):
    """CSV feature table or label file cannot be parsed."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed, corrupted, or the wrong version."""


@dataclass
class Dataset:
    samples: np.ndarray  # (n, height, width, channels)
    labels: Optional[np.ndarray]
    name: str

    def __post_init__(self):
        if self.samples.ndim != 4:
            raise ValueError(f"samples must be (n, h, w, c), got shape {self.samples.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.samples.shape[0],):
                raise ValueError("labels must match the sample count")

    @property
    def n(self):
        return self.samples.shape[0]

    @property
    def shape(self):
        return self.samples.shape[1:]


def _pieces(f, path):
    """The bytes of a readable file object in pieces of _GZIP_PIECE bytes
    (the last may be shorter); a bad gzip stream raises IdxFormatError."""
    try:
        yield from iter(functools.partial(f.read, _GZIP_PIECE), b"")
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{path}: bad gzip stream: {exc}") from None


def _read_idx(path, kind, header_len, size_of) -> np.ndarray:
    """The bytes of an IDX file as one writable uint8 array, gunzipped when
    they start with the gzip magic. size_of(head) checks the header at the
    start of head (raising IdxFormatError) and returns the file size it
    implies; a file of another size raises IdxFormatError. Plain files and
    pipes are read, and gzipped files decompressed by gzip.GzipFile (members
    one after another, zero padding skipped, CRC and length checked), piece
    by piece into an array of that size; a bad stream is reported before a
    bad header."""
    with open(path, "rb") as f:
        pieces = _pieces(gzip.GzipFile(fileobj=f) if f.peek(2)[:2] == b"\x1f\x8b" else f, path)
        head = b""
        for piece in pieces:
            head += piece
            if len(head) >= header_len:
                break
        data = size = None
        try:
            size = size_of(head)
            data = np.empty(size, dtype=np.uint8)  # pages never written cost no memory
        except (IdxFormatError, MemoryError, ValueError):
            pass  # the whole stream is read first: its own errors come first
        got = 0
        for piece in itertools.chain([head], pieces):
            if data is not None and got < size:
                data[got:got + len(piece)] = np.frombuffer(piece[:size - got], dtype=np.uint8)
            got += len(piece)
        size = size_of(head)
        if data is None and got == size:
            raise MemoryError(f"{path}: no room for its {size} bytes")
    if got != size:
        raise IdxFormatError(f"{kind} file truncated or padded: expected {size} bytes, got {got}")
    return data


def _image_size(head) -> int:
    if len(head) < 16:
        raise IdxFormatError(f"image file too short for an IDX header ({len(head)} bytes)")
    magic, count, rows, cols = struct.unpack(">IIII", head[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    if rows == 0 or cols == 0:
        raise IdxFormatError(f"image size {rows}x{cols} has no pixels")
    return 16 + count * rows * cols


def _label_size(head) -> int:
    if len(head) < 8:
        raise IdxFormatError(f"label file too short for an IDX header ({len(head)} bytes)")
    magic, count = struct.unpack(">II", head[:8])
    if magic != IDX_LABEL_MAGIC:
        raise IdxFormatError(f"bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
    return 8 + count


def load_idx(images_path, labels_path=None) -> Dataset:
    """Load an IDX image file (and optional matching label file).

    Pixels are kept as raw uint8 bytes, a writable view into the one buffer
    the file was read into; scaling to [0, 1] happens at feature extraction
    time.
    """
    data = _read_idx(images_path, "image", 16, _image_size)
    count, rows, cols = struct.unpack(">III", data[4:16].tobytes())
    samples = data[16:].reshape(count, rows, cols, 1)

    labels = None
    if labels_path is not None:
        ldata = _read_idx(labels_path, "label", 8, _label_size)
        lcount = len(ldata) - 8
        if lcount != count:
            raise IdxFormatError(f"image/label count mismatch: {count} images vs {lcount} labels")
        labels = ldata[8:].astype(np.int64)

    return Dataset(samples=samples, labels=labels, name="idx")


def gen_blobs(k: int, points_per_cluster: int, dim: int, separation: float,
              noise_sigma: float, rng: SeededRng) -> Dataset:
    """Synthetic benchmark: k centers uniform on a sphere of radius
    `separation`, points are center plus isotropic Gaussian noise. Ground
    truth labels are attached; samples are shaped (1, dim, 1). One gauss
    draw gives the centers and one more every cluster's noise, in order."""
    if k <= 0 or points_per_cluster <= 0 or dim <= 0:
        raise ConfigError("k, points_per_cluster and dim must be positive")
    if not (0 < separation < math.inf and 0 <= noise_sigma < math.inf):
        raise ConfigError("separation must be positive and noise_sigma nonnegative, both finite")
    # a gauss draw is never 0.0, so no center has norm 0 (tests/test_tensor.py
    # test_gauss_edge_words_give_finite_nonzero_draws_within_the_bound)
    centers = rng.gauss(size=(k, dim))
    for center in centers:
        center *= separation / float(np.sqrt(np.dot(center, center)))
    samples = rng.gauss(size=(k, points_per_cluster, dim))
    samples *= noise_sigma
    samples += centers[:, None, :]
    labels = np.repeat(np.arange(k, dtype=np.int64), points_per_cluster)
    return Dataset(samples=samples.reshape(-1, 1, dim, 1), labels=labels, name="blobs")


def _text_lines(path):
    """Yield (line number from 1, line without its newline) for each nonblank
    line of a UTF-8 text file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if line.strip() != "":
                    yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path} is not UTF-8 text: {exc}") from None


def _label(text: str, where: str) -> np.int64:
    """A label parsed as int() parses it (3, not 3.0 or 1e3); else CsvFormatError at where."""
    try:  # np.int64 parses as int() does and raises OverflowError outside 64 bits
        return np.int64(text)
    except (ValueError, OverflowError):
        raise CsvFormatError(f"{where}: label {text!r} is not a 64-bit integer") from None


def load_csv(path) -> Dataset:
    """CSV feature table, one sample per row.

    A non-numeric first row is treated as a header; if its last column is
    named "label" the final column holds integer ground-truth labels,
    otherwise every column is a feature. Rows must all have the same width,
    every value must be finite and every label a 64-bit integer (_label); a
    violation raises CsvFormatError naming the row and the column (1-based).
    """
    lines = [ln for _, ln in _text_lines(path)]
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
    if feat_dim == 0:
        raise CsvFormatError("CSV has no feature columns")
    feats = np.empty((len(data_lines), feat_dim))
    labels = np.empty(len(data_lines), dtype=np.int64) if labeled else None
    for i, line in enumerate(data_lines):
        rownum = i + 2 if has_header else i + 1
        parts = [s.strip() for s in line.split(",")]
        if len(parts) != width:
            raise CsvFormatError(f"row {rownum}: expected {width} columns, got {len(parts)}")
        try:
            values = [float(v) for v in parts[:feat_dim]]
        except ValueError as exc:
            raise CsvFormatError(f"row {rownum}: {exc}") from None
        for col, v in enumerate(values):
            if not math.isfinite(v):
                raise CsvFormatError(f"row {rownum}, column {col + 1}: non-finite value {parts[col]!r}")
        feats[i] = values
        if labeled:
            labels[i] = _label(parts[-1], f"row {rownum}, column {width}")
    n = feats.shape[0]
    return Dataset(samples=feats.reshape(n, 1, feat_dim, 1), labels=labels, name="csv")


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
    """Read a file of "index,label" lines or bare labels. Any other line, a label
    that is not a 64-bit integer, or a file with no labels raises CsvFormatError."""
    out = []
    for lineno, line in _text_lines(path):
        *index, text = [s.strip() for s in line.split(",")]
        if len(index) > 1 or index and not index[0].removeprefix("-").isdecimal():
            raise CsvFormatError(f"{path} line {lineno}: {line!r} is not index,label or a bare label")
        out.append(_label(text, f"{path} line {lineno}"))
    if not out:
        raise CsvFormatError(f"no labels found in {path}")
    return np.asarray(out, dtype=np.int64)




class _Codec(NamedTuple):
    """How one checkpoint section stores one TrainerState field."""
    encode: Callable  # field value -> section body
    decode: Callable  # (section body, field name) -> field value


def _decode_text(body: bytes, what: str):
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} section is not valid UTF-8") from None


def _encode_matrix(m: Optional[np.ndarray]) -> bytes:
    if m is None:
        return struct.pack("<II", 0, 0)
    a = np.ascontiguousarray(m, dtype="<f8")
    return struct.pack("<II", a.shape[0], a.shape[1]) + a.tobytes(order="C")


def _decode_matrix(body: bytes, what: str):
    """u32 rows, u32 cols, then rows*cols f64 row-major; absent is 0 x 0."""
    if len(body) < 8:
        raise CheckpointError(f"{what} section shorter than its dims header")
    rows, cols = struct.unpack_from("<II", body, 0)
    if rows == 0 and cols == 0:
        if len(body) != 8:
            raise CheckpointError(f"{what} empty-matrix sentinel carries data")
        return None
    if len(body) != 8 + rows * cols * 8:
        raise CheckpointError(f"{what} section size mismatch for {rows}x{cols}")
    return np.frombuffer(body, dtype="<f8", offset=8).reshape(rows, cols).copy()


def _vector(dtype, convert) -> _Codec:
    """u32 item count, then the items as `dtype`; `convert` maps the decoded
    array to the field's type."""
    dtype = np.dtype(dtype)

    def encode(items) -> bytes:
        return struct.pack("<I", len(items)) + np.asarray(items, dtype=dtype).tobytes()

    def decode(body: bytes, what: str):
        if len(body) < 4:
            raise CheckpointError(f"{what} section shorter than its count header")
        (count,) = struct.unpack_from("<I", body, 0)
        if len(body) != 4 + count * dtype.itemsize:
            raise CheckpointError(f"{what} section holds {len(body) - 4} bytes after its header, "
                                  f"expected {count} x {dtype.itemsize}")
        return convert(np.frombuffer(body, dtype=dtype, offset=4, count=count))
    return _Codec(encode, decode)


def _decode_counter(body: bytes, what: str):
    if len(body) != 8:
        raise CheckpointError(f"{what} section holds {len(body)} bytes, expected 8")
    return struct.unpack("<Q", body)[0]


_TEXT = _Codec(lambda text: text.encode("utf-8"), _decode_text)
_MATRIX = _Codec(_encode_matrix, _decode_matrix)
_COUNTER = _Codec(lambda value: struct.pack("<Q", value), _decode_counter)
_PAIR = np.dtype([("sample", "<u8"), ("label", "<u4")])  # 12 bytes, unpadded


def _stored(codec: _Codec):
    return field(metadata={"codec": codec})


@dataclass
class TrainerState:
    """Everything a joint run carries from one mini-batch to the next, and
    the checkpoint layout: one section per field, in declaration order."""
    config_text: str = _stored(_TEXT)
    w_hidden: np.ndarray = _stored(_MATRIX)
    w_out: np.ndarray = _stored(_MATRIX)
    w_rollback: Optional[np.ndarray] = _stored(_MATRIX)  # hidden weights of a full run's rollback
    centroids: np.ndarray = _stored(_MATRIX)
    counts: np.ndarray = _stored(_vector("<u8", lambda a: a.astype(np.int64)))
    rng_state: tuple = _stored(_vector("<u8", lambda a: tuple(a.tolist())))
    epochs_done: int = _stored(_COUNTER)
    finetunes: int = _stored(_COUNTER)
    iterations: int = _stored(_COUNTER)
    buffer: list = _stored(_vector(_PAIR, np.ndarray.tolist))  # (sample index, label) pairs
    nmi_history: list = _stored(_vector("<f8", np.ndarray.tolist))


_LAYOUT = tuple((f.name, f.metadata["codec"]) for f in fields(TrainerState))  # one section per field


def _split_sections(payload: bytes, count: int) -> list:
    """The payload's `count` u64-length-prefixed section bodies."""
    bodies, pos = [], 0
    for _ in range(count):
        if pos + 8 > len(payload):
            raise CheckpointError("payload ends inside a section length prefix")
        (length,) = struct.unpack_from("<Q", payload, pos)
        if pos + 8 + length > len(payload):
            raise CheckpointError("section length exceeds remaining payload")
        bodies.append(payload[pos + 8:pos + 8 + length])
        pos += 8 + length
    if pos != len(payload):
        raise CheckpointError("unexpected trailing bytes in payload")
    return bodies


def save_checkpoint(path, state: TrainerState) -> None:
    bodies = [codec.encode(getattr(state, name)) for name, codec in _LAYOUT]
    payload = b"".join(struct.pack("<Q", len(body)) + body for body in bodies)
    blob = (CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + payload
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    atomic_write_bytes(path, blob)


def load_checkpoint(path) -> TrainerState:
    """Read a checkpoint, checking its framing and every section against its
    own header; whether the state fits a run is JointTrainer's to check."""
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

    bodies = _split_sections(payload, len(_LAYOUT))
    return TrainerState(**{name: codec.decode(body, name)
                           for (name, codec), body in zip(_LAYOUT, bodies)})
