"""Validated dense float64 matrices and class labels, the row chunks of
whole-set passes and the threads that run them, a portable seeded RNG, and
the error classes the other modules share.

Matrices are 2-D row-major numpy float64 arrays; the constructor below
validates shape and finiteness so the rest of the package can assume
well-formed inputs.
"""

import functools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
_LANES = 512  # most lanes of a bulk pass, and most words per lane: 2 MiB of words
ROW_CHUNK = 1024  # rows per slice of a whole-set pass: 1 MiB of float64 at 128 columns
_GAUSS_CHUNK = 4096  # items per slice of a bulk gauss: its temporaries stay 32 KiB, in cache
# the variables OpenBLAS reads its thread count from, in the order it reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class DimensionError(ValueError):
    """Operand shapes do not line up."""


class ConfigError(ValueError):
    """Bad or missing run configuration: a setting, or a dataset that cannot
    serve the requested run. The CLI maps it to exit code 2."""


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")


def matrix(data) -> np.ndarray:
    """Validated dense matrix: 2-D, positive dims, finite, float64, row-major."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionError(f"expected a 2-D matrix with positive dims, got shape {m.shape}")
    _check_finite(m, "matrix")
    return m


def label_array(labels, k: int) -> np.ndarray:
    """Class labels as a 1-D int64 array, each an integer in [0, k); the first
    label that is not raises ValueError and names it. A 1-D integer ndarray is
    checked as a whole. Any other sequence is checked label by label:
    operator.index takes Python and numpy integers, not bools, floats or
    nested sequences, whatever dtype numpy would give the whole list."""
    if isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype.kind in "iu":
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            bad = labels[(labels < 0) | (labels >= k)][0]
            raise ValueError(f"label {int(bad)} is not an integer in [0, {k})")
        return labels.astype(np.int64, copy=False)
    checked = []
    for lab in labels:
        try:
            i = -1 if isinstance(lab, bool) else operator.index(lab)
        except TypeError:
            i = -1
        if not 0 <= i < k:
            raise ValueError(f"label {lab!r} is not an integer in [0, {k})")
        checked.append(i)
    return np.array(checked, dtype=np.int64)


def row_chunks(n: int, size=None) -> list:
    """Slices of `size` rows each (ROW_CHUNK when None; one slice of all n
    rows when n is smaller, none when n is 0) that cover rows 0..n-1 in
    order. The last slice ends at n and so may overlap the one before: a pass
    over them computes some rows twice, with the same bits, and must write
    its results row by row.

    Every slice has the same length, so no product is left with a short
    tail. OpenBLAS multiplies a product of a few rows (under about 1,200
    output entries in 0.3.31) with another kernel and other bits; on these
    slices a product row has the bits of the whole-set product.
    """
    size = ROW_CHUNK if size is None else size
    last = max(n - size, 0)
    starts = [*range(0, last, size), last] if n else []
    return [slice(lo, min(lo + size, n)) for lo in starts]


def _blas_threads(environ):
    """The BLAS thread count from the first variable in _BLAS_THREAD_VARS
    that holds a positive integer, or None when none does."""
    for var in _BLAS_THREAD_VARS:
        value = environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


# read once, when this module loads, as OpenBLAS reads them once when numpy
# (imported above) loads: a variable set later changes neither of them
_BLAS_THREADS = _blas_threads(os.environ)
# processes that run whole-set passes side by side on this process's CPUs
_cpu_sharers = 1


def share_cpus(processes):
    """Make this process's pass workers its share of the CPUs when
    `processes` processes, itself included, run passes side by side on
    them, as the workers of `driftclust sweep --parallel` do."""
    global _cpu_sharers
    _cpu_sharers = max(1, int(processes))


def _pass_workers():
    """Threads for one whole-set pass: the usable CPUs over the BLAS thread
    count and over the processes that share the CPUs, so that all their
    workers times BLAS threads stay within the CPUs. With no BLAS variable
    set at start-up OpenBLAS already runs every product on all CPUs, and
    more workers would only contend with it, so the count is 1."""
    if _BLAS_THREADS is None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // (_BLAS_THREADS * _cpu_sharers))


def _runs(chunks, workers):
    """The chunks split into at most `workers` contiguous runs of about equal
    length. A chunk that overlaps the one before stays in that chunk's run,
    so no two runs write the same row."""
    blocks = []
    for rows in chunks:
        if blocks and rows.start < blocks[-1][-1].stop:
            blocks[-1].append(rows)
        else:
            blocks.append([rows])
    workers = max(1, min(workers, len(blocks)))
    bounds = [len(blocks) * i // workers for i in range(workers + 1)]
    return [[rows for block in blocks[lo:hi] for rows in block] for lo, hi in zip(bounds, bounds[1:])]


class RowPool:
    """The row_chunks(n, size) of a whole-set pass split into contiguous
    runs, one per worker, and the threads that run them; a context manager,
    so one pool serves every pass of one call (each round of a seeding,
    each sweep of a Lloyd run) and its threads end with the `with` block.

    The worker count is _pass_workers(), capped at the number of chunks
    (a last chunk that overlaps the one before counts with it): the
    usable CPUs over the BLAS thread count that OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS or OMP_NUM_THREADS gives when the process starts, and
    over the processes that share_cpus names; with none of the variables
    set it is 1, as OpenBLAS then already runs each product on every CPU.
    each(work) calls work(run, scratch) on every run: the calling thread
    takes the first run and pool threads the others, each run with a
    scratch dict of its own that lives as long as the pool. numpy releases
    the GIL in products and elementwise loops, so the runs overlap. A pass
    makes the same calls on each chunk whatever the worker count, so its
    results do not depend on it. Work on a pool thread calls nothing that
    the benchmark's tracer wraps (perfbench/tracer.py), as the tracer's span
    stack is not thread-safe."""

    def __init__(self, n: int, size=None):
        chunks = row_chunks(n, size)
        self.n = n
        self.chunk = chunks[0].stop if chunks else 0  # rows in every chunk
        self.runs = _runs(chunks, _pass_workers())
        self._scratch = [{} for _ in self.runs]
        # the executor starts a thread per submit, so a single run starts none
        self._pool = ThreadPoolExecutor(max(1, len(self.runs) - 1))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.shutdown()  # waits for every run, also when the caller's raised

    def buffers(self, name: str, shape) -> None:
        """Put an empty float64 array of this shape under name in every
        run's scratch dict. They are made here, in the calling thread:
        memory that a pool thread allocates stays in that thread's malloc
        arena after the pool ends, resident, while the calling thread's is
        reused."""
        for scratch in self._scratch:
            scratch[name] = np.empty(shape)

    def each(self, work) -> None:
        """work(run, scratch) on every run; the first error raised reaches the caller."""
        first, *rest = zip(self.runs, self._scratch)
        futures = [self._pool.submit(work, *run) for run in rest]
        work(*first)
        for future in futures:
            future.result()


def _splitmix64(x: int) -> int:
    # SplitMix64 step (Steele et al.), used only to expand the seed.
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


def _to_bits(states: np.ndarray) -> np.ndarray:
    """(L, 4) uint64 states as (L, 256) rows of bits, word by word, low bit first."""
    return np.unpackbits(np.ascontiguousarray(states, dtype="<u8").view(np.uint8), axis=1, bitorder="little")


def _from_bits(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _gf2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(2) for 0/1 arrays, through a float32 GEMM: sums of at
    most 256 ones are exact in float32."""
    return ((a.astype(np.float32) @ b.astype(np.float32)).astype(np.uint16) & 1).astype(np.uint8)


def _advance(s0, s1, s2, s3, t) -> None:
    """One state update of every lane in place (next_u64's, on arrays); t is scratch."""
    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, 45, out=t)
    s3 >>= 19
    s3 |= t


@functools.lru_cache(maxsize=None)
def _jump(i: int) -> np.ndarray:
    """The GF(2) matrix that advances a bit row 2^i words; row b is the image
    of bit b. Up to J_16, the shortest lane, it is the 256 unit states
    stepped 2^i times; each rung above squares the one below, so the ladder
    grows only as far as draws reach. Kept packed, 8 KiB a rung."""
    if i <= 4:
        units = np.ascontiguousarray(_from_bits(np.eye(256, dtype=np.uint8)).T)
        for _ in range(1 << i):
            _advance(*units, np.empty(256, dtype=np.uint64))
        return np.packbits(_to_bits(units.T), axis=1)
    half = np.unpackbits(_jump(i - 1), axis=1)
    return np.packbits(_gf2(half, half), axis=1)


def _unit_floats(words: np.ndarray) -> np.ndarray:
    """random() of each word: 53 high bits scaled into [0, 1)."""
    floats = (words >> 11).astype(np.float64)
    floats *= 2.0 ** -53
    return floats


# Box-Muller from IEEE-754 basic operations alone (+ - * /, sqrt, frexp), each
# rounded the same way on every host, so a gauss draw's bits follow from its
# two words: no libm, no SIMD dispatch. The formulas are fdlibm's (e_log.c,
# k_cos.c, k_sin.c and the Cody-Waite steps of e_rem_pio2.c), written once as
# plain arithmetic that Python floats and float64 arrays run alike.
_RINT = 6755399441055744.0  # 1.5 * 2**52: (v + _RINT) - _RINT rounds v to an integer, ties to even
_TWO_PI = 2.0 * math.pi
_SQRT_HALF = math.sqrt(0.5)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LG1, _LG2, _LG3, _LG4, _LG5, _LG6, _LG7 = (
    6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01, 2.222219843214978396e-01,
    1.818357216161805012e-01, 1.531383769920937332e-01, 1.479819860511658591e-01)
_INV_PIO2 = 6.36619772367581382433e-01
_PIO2_1 = 1.57079632673412561417e+00  # pi/2 in three parts: 33 + 33 + 53 bits
_PIO2_2 = 6.07710050630396597660e-11
_PIO2_2T = 2.02226624879595063154e-21
_C1, _C2, _C3, _C4, _C5, _C6 = (
    4.16666666666666019037e-02, -1.38888888888741095749e-03, 2.48015872894767294178e-05,
    -2.75573143513906633035e-07, 2.08757232129817482790e-09, -1.13596475577881948265e-11)
_S1, _S2, _S3, _S4, _S5, _S6 = (
    -1.66666666666666324348e-01, 8.33333333332248946124e-03, -1.98412698298579493134e-04,
    2.75573137070700676789e-06, -2.50507602534068634195e-08, 1.58969099521155010221e-10)


def _log(u, frexp):
    """log(u) for 0 < u < 1: u = 2^k (1 + f) with sqrt(2)/2 <= 1 + f < sqrt(2),
    s = f / (2 + f), and log(1 + f) = f - hfsq + s (hfsq + R(s^2)) with
    hfsq = f^2 / 2 and fdlibm's degree-14 polynomial R; k ln 2 in two parts."""
    m, e = frexp(u)  # u = m 2^e, 1/2 <= m < 1, exactly
    low = (m < _SQRT_HALF) * 1.0  # then 1 + f = 2m, exactly
    f = (m + m * low) - 1.0
    k = e - low
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7))) + w * (_LG2 + w * (_LG4 + w * _LG6))
    hfsq = 0.5 * f * f
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)


def _cos(x):
    """cos(x) for 0 <= x < 2 pi: x = n pi/2 + y + yy with |y| <= pi/4 by two
    Cody-Waite steps over 119 bits of pi/2 (n <= 4, so n * _PIO2_1,
    n * _PIO2_2 and x - n * _PIO2_1 are exact); fdlibm's kernels give
    cos(y + yy) and sin(y + yy), and cos(x) = cos(n pi/2) cos(y) -
    sin(n pi/2) sin(y), where sin(j pi/2) = j - 2 rint(j/2) for an integer j."""
    n = (x * _INV_PIO2 + _RINT) - _RINT
    t = x - n * _PIO2_1
    w = n * _PIO2_2
    r = t - w
    w = n * _PIO2_2T - ((t - r) - w)  # minus the rounding error of t - w
    y = r - w
    yy = (r - y) - w
    z = y * y
    w = z * z
    cr = z * (_C1 + z * (_C2 + z * _C3)) + w * w * (_C4 + z * (_C5 + z * _C6))
    hz = 0.5 * z
    v = 1.0 - hz
    c = v + (((1.0 - v) - hz) + (z * cr - y * yy))
    sr = _S2 + z * (_S3 + z * _S4) + z * w * (_S5 + z * _S6)
    v = z * y
    s = y - ((z * (0.5 * yy - v * sr) - yy) - v * _S1)
    n1 = n + 1.0
    return (n1 - 2.0 * ((0.5 * n1 + _RINT) - _RINT)) * c - (n - 2.0 * ((0.5 * n + _RINT) - _RINT)) * s


def _box_muller(u1, u2, sqrt, frexp):
    """sqrt(-2 log u1) cos(2 pi u2) for u1 in (0, 1), u2 in [0, 1): floats
    with math.sqrt and math.frexp, float64 arrays with np.sqrt and np.frexp,
    the same bits either way."""
    return sqrt(-2.0 * _log(u1, frexp)) * _cos(_TWO_PI * u2)


class SeededRng:
    """Deterministic xoshiro256** generator.

    The stream is fully specified by its recurrence, so identical seeds give
    identical 64-bit outputs on every platform and run:

        result = rotl(s1 * 5, 7) * 9          (all mod 2^64)
        t  = s1 << 17
        s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3
        s2 ^= t;   s3 = rotl(s3, 45)

    State is initialised from the seed by four SplitMix64 steps. The floats
    are portable too: random and uniform scale words, and gauss runs
    Box-Muller from IEEE-754 basic operations alone (_box_muller), so their
    bits depend on the seed only, not on the platform's libm or numpy's CPU
    dispatch.

    next_u64, random, randint and gauss() are the scalar reference. raw(n)
    yields the same n words in bulk: the state update is linear over GF(2)
    (Blackman & Vigna, ACM TOMS 2021), so a 256x256 bit matrix jumps a state
    2^i words ahead. raw cuts a draw into lanes of about sqrt(n) words (a
    power of two in [16, _LANES]), starts up to _LANES lanes per pass from
    states jumped by doubling over one ladder of such matrices, steps them
    together in numpy uint64 arithmetic and leaves state() where n next_u64
    calls would. gauss(size=),
    uniform(size=) and shuffle draw through raw and return bit-identical
    floats and indices to the scalar helpers: they keep the scalar operation
    order, gauss runs _box_muller's one formula on arrays that gauss() runs
    on floats, and a call in which the scalar helper would
    reject a draw (probability about 2^-53 per gauss item, at most b/2^64 per
    shuffle item) is replayed through the scalar helper from its start state.
    """

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        x = self.seed
        state = []
        for _ in range(4):
            x = (x + 0x9E3779B97F4A7C15) & MASK64
            state.append(_splitmix64(x))
        self._s = state

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def raw(self, n: int) -> np.ndarray:
        """The next n words of the stream as uint64, equal to n next_u64 calls,
        and the state left where those calls would leave it."""
        lane = min(_LANES, max(16, 1 << (n.bit_length() // 2)))  # about sqrt(n) words
        out = np.empty(-(-n // lane) * lane, dtype=np.uint64)  # whole lanes: the last may run past n
        for start in range(0, n, lane * _LANES):
            block = out[start:start + lane * _LANES].reshape(-1, lane)  # a pass, one lane per row
            lanes = block.shape[0]
            last = min(n - start - (lanes - 1) * lane, lane)  # words the last lane yields
            states = np.array([self._s], dtype=np.uint64)
            for rung in range(lane.bit_length() - 1, lane.bit_length() - 1 + (lanes - 1).bit_length()):
                jumped = _gf2(_to_bits(states), np.unpackbits(_jump(rung), axis=1))
                states = np.concatenate([states, _from_bits(jumped)])
            s = np.ascontiguousarray(states[:lanes].T)
            s0, s1, s2, s3 = s
            words = np.empty((lane, lanes), dtype=np.uint64)
            t = np.empty(lanes, dtype=np.uint64)
            for i in range(min(n - start, lane)):
                words[i] = s1
                _advance(s0, s1, s2, s3, t)
                if i + 1 == last:
                    self._s = s[:, -1].tolist()
            np.copyto(block, words.T)
            t = words.reshape(block.shape)  # copied out, the words' buffer is scratch
            block *= 5
            np.left_shift(block, 7, out=t)
            block >>= 57
            block |= t
            block *= 9
            del words, t  # before the next pass's lane starts and buffers
        return out[:n]

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float, size=None):
        """lo + (hi - lo) * random(); with `size`, an array of that shape
        filled in stream order."""
        if size is None:
            return lo + (hi - lo) * self.random()
        return lo + (hi - lo) * _unit_floats(self.raw(int(np.prod(size)))).reshape(size)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def gauss(self, mu: float = 0.0, sigma: float = 1.0, size=None):
        """Standard Box-Muller draw (no cached spare, keeps state minimal); with
        `size`, an array of that shape filled in stream order."""
        if size is None:
            u1 = self.random()
            while u1 <= 0.0:
                u1 = self.random()
            return mu + sigma * _box_muller(u1, self.random(), math.sqrt, math.frexp)
        n = int(np.prod(size))
        saved = self.state()
        u = _unit_floats(self.raw(2 * n).reshape(n, 2))
        if np.any(u[:, 0] == 0.0):  # the scalar helper redraws such a u1: replay the call with it
            self.set_state(saved)
            return np.reshape([self.gauss(mu, sigma) for _ in range(n)], size)
        out = np.empty(n)
        for rows in row_chunks(n, _GAUSS_CHUNK):
            out[rows] = mu + sigma * _box_muller(u[rows, 0], u[rows, 1], np.sqrt, np.frexp)
        return out.reshape(size)

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates shuffle of a mutable sequence: one randint(i + 1)
        per position i from the end, drawn in bulk."""
        bounds = np.arange(len(seq), 1, -1, dtype=np.uint64)
        saved = self.state()
        words = self.raw(len(bounds))
        # randint(b) accepts u < 2^64 - (2^64 mod b), that is u <= ~(2^64 mod b)
        if np.any(words > ~((0 - bounds) % bounds)):  # it redraws such a u: replay the call with it
            self.set_state(saved)
            picks = [self.randint(int(b)) for b in bounds]
        else:
            picks = (words % bounds).tolist()
        for i, j in zip(range(len(seq) - 1, 0, -1), picks):
            seq[i], seq[j] = seq[j], seq[i]

    def weighted_index(self, weights: np.ndarray) -> int:
        """Index drawn with probability proportional to nonnegative weights."""
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        # draw below the end of the sequential sum, not below w.sum() (pairwise, it
        # can be larger); nextafter keeps a draw on a subnormal total below it too
        cum = np.cumsum(w)
        total = float(cum[-1])
        if not 0.0 < total < np.inf:  # an overflowing sum would search past the end
            raise ValueError("weights must sum to a positive finite total")
        r = min(self.random() * total, np.nextafter(total, 0.0))
        return int(np.searchsorted(cum, r, side="right"))

    def state(self):
        return tuple(self._s)

    def set_state(self, state) -> None:
        if len(state) != 4:
            raise ValueError("rng state must hold exactly 4 words")
        self._s = [int(x) & MASK64 for x in state]
