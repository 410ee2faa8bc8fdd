"""Validated dense float64 matrices, the row chunks of whole-set passes, a
portable seeded RNG, and the error classes the other modules share.

Matrices are 2-D row-major numpy float64 arrays; the constructor below
validates shape and finiteness so the rest of the package can assume
well-formed inputs.
"""

import functools
import math

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
_LANES = 512  # most lanes of a bulk pass, and most words per lane: 2 MiB of words
ROW_CHUNK = 1024  # rows per slice of a whole-set pass: 1 MiB of float64 at 128 columns


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


def row_chunks(n: int) -> list:
    """Slices of ROW_CHUNK rows each (one slice of all n rows when n is
    smaller) that cover rows 0..n-1 in order. The last slice ends at n and so
    may overlap the one before: a pass over them computes some rows twice,
    with the same bits, and must write its results row by row.

    Every slice has the same length, so no product is left with a short
    tail. OpenBLAS multiplies a product of a few rows (under about 1,200
    output entries in 0.3.31) with another kernel and other bits; on these
    slices a product row has the bits of the whole-set product.
    """
    last = max(n - ROW_CHUNK, 0)
    return [slice(lo, min(lo + ROW_CHUNK, n)) for lo in [*range(0, last, ROW_CHUNK), last]]


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


def _elementwise(f, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, values.tolist()), dtype=np.float64, count=values.size)


class SeededRng:
    """Deterministic xoshiro256** generator.

    The stream is fully specified by its recurrence, so identical seeds give
    identical 64-bit outputs on every platform and run:

        result = rotl(s1 * 5, 7) * 9          (all mod 2^64)
        t  = s1 << 17
        s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3
        s2 ^= t;   s3 = rotl(s3, 45)

    State is initialised from the seed by four SplitMix64 steps. Floating
    point helpers (gauss, uniform) are deterministic per platform; the
    portable contract is the integer stream.

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
    order, Box-Muller's log and cos go through math (np.log can differ from
    math.log in the last bit), and a call in which the scalar helper would
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
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            return mu + sigma * r * math.cos(2.0 * math.pi * u2)
        n = int(np.prod(size))
        saved = self.state()
        u = _unit_floats(self.raw(2 * n).reshape(n, 2))
        if np.any(u[:, 0] == 0.0):  # the scalar helper redraws such a u1: replay the call with it
            self.set_state(saved)
            return np.reshape([self.gauss(mu, sigma) for _ in range(n)], size)
        r = np.sqrt(-2.0 * _elementwise(math.log, u[:, 0]))
        return (mu + sigma * r * _elementwise(math.cos, 2.0 * math.pi * u[:, 1])).reshape(size)

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
