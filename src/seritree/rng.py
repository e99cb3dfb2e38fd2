"""Counter-based pseudo-random number generation.

The core generator is SplitMix64: the i-th output is
``mix64(seed + (i+1) * GOLDEN mod 2^64)`` where ``mix64`` is the standard
SplitMix64 finalizer and GOLDEN is the 64-bit golden-ratio constant.  Because
the state is a plain counter, any output can be recomputed from (seed, i)
alone, replicas can be sharded without coordination, and outputs are batched
through numpy for speed without changing the stream.

Parallel streams: replica ``r`` of a run with master seed ``s`` uses
``stream_seed(s, r) = mix64(s XOR ((r+1) * GOLDEN mod 2^64))``.

Blocked draws: `drive_blocks` runs a sequence of steps, each of which
normally reads a fixed number of words, as numpy blocks over `splitmix64`
words, and hands every step that reads another number of words to a scalar
fix-up on the same `CounterRng`.  The values and the words consumed are
those of running every step through the fix-up.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# a refill reads as many words as the stream has consumed, within these
# bounds, so a stream that serves a few draws computes a few words
_MIN_REFILL = 64
_BUFFER_SIZE = 4096
_MASK32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)

# step counts of one `drive_blocks` block; the cap bounds its memory.
# Fewer steps than _SCALAR_STEPS run one by one, where a block costs more.
_SCALAR_STEPS = 16
_MIN_BLOCK = 64
_MAX_BLOCK = 1 << 14


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective mixing function."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Words start+1 .. start+count of the stream `seed`, as a uint64 array."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


def lemire(words: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`CounterRng.randbelow(bound)` of one word each, vectorized.

    Returns the draws, floor(word * bound / 2^64), and whether each word is
    rejected; a rejected word makes the scalar draw read another one.  A
    bound of 1 reads no word in `randbelow`, which the caller must treat as
    its own case.
    """
    lo = words * bounds  # the low 64 bits of the product
    # the high 64 bits from 32-bit limbs, whose products fit in 64 bits
    a_lo, a_hi = words & _MASK32, words >> _U32
    b_lo, b_hi = bounds & _MASK32, bounds >> _U32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> _U32) + (lh & _MASK32) + (hl & _MASK32)
    hi = a_hi * b_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    # the rejection threshold (2^64 - bound) % bound is below the bound
    rejected = lo < bounds
    if rejected.any():
        b = bounds[rejected]
        rejected[rejected] = lo[rejected] < (np.uint64(MASK64) - b + np.uint64(1)) % b
    return hi, rejected


def stream_seed(master_seed: int, stream: int) -> int:
    """Derive the seed of parallel stream `stream` from a master seed."""
    if stream < 0:
        raise ValueError("stream index must be nonnegative")
    return mix64((master_seed & MASK64) ^ (((stream + 1) * GOLDEN) & MASK64))


class CounterRng:
    """Deterministic SplitMix64 stream with numpy-batched output.

    The visible state is (seed, counter); `counter` equals the number of
    64-bit words consumed so far.  Two instances with equal seeds produce
    identical streams regardless of which convenience methods are called.
    """

    __slots__ = ("seed", "_counter", "_buf", "_idx")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._counter = 0
        self._buf: list[int] = []
        self._idx = 0

    def __repr__(self) -> str:  # state is (seed, words consumed)
        return f"CounterRng(seed={self.seed:#x}, counter={self.counter})"

    @property
    def counter(self) -> int:
        return self._counter - (len(self._buf) - self._idx)

    def _refill(self) -> None:
        size = min(_BUFFER_SIZE, max(_MIN_REFILL, self._counter))
        self._buf = splitmix64(self.seed, self._counter, size).tolist()
        self._idx = 0
        self._counter += size

    def _words(self, idx: int) -> tuple[list[int], int, int]:
        """Store the read position `idx`; return the buffer, the position and the buffer's end.

        The buffer is refilled when the position is at its end.  A loop that
        reads the words itself keeps the position in a local, passes it here
        for more words, and stores it in `_idx` before it returns or raises,
        so its words, values and `counter` are those of `u64` calls.
        """
        self._idx = idx
        if idx >= len(self._buf):
            self._refill()
        return self._buf, self._idx, len(self._buf)

    def skip(self, count: int) -> None:
        """Consume `count` words unread."""
        if count <= len(self._buf) - self._idx:
            self._idx += count
        else:
            self._counter = self.counter + count
            self._buf = []
            self._idx = 0

    def u64(self) -> int:
        """Next raw 64-bit word."""
        if self._idx >= len(self._buf):
            self._refill()
        v = self._buf[self._idx]
        self._idx += 1
        return v

    def random(self) -> float:
        """Uniform float64 in [0, 1), 53 significant bits."""
        return (self.u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def exponential(self, rate: float = 1.0) -> float:
        """Exponential variate with the given rate (mean 1/rate), which must be finite and > 0."""
        if not 0.0 < rate < math.inf:
            raise ValueError(f"rate must be finite and > 0, got {rate}")
        return -math.log(1.0 - self.random()) / rate

    def randbelow(self, n: int) -> int:
        """Exactly uniform integer in [0, n) (Lemire multiply + rejection).

        One 64-bit word serves a bound of at most 2^64; above that the
        rejection threshold reaches 2^64, and no word would be accepted.
        """
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"bound must be in [1, 2^64], got {n}")
        if n == 1:
            return 0
        threshold = ((1 << 64) - n) % n
        while True:
            m = self.u64() * n
            if (m & MASK64) >= threshold:
                return m >> 64

    def spawn(self, stream: int) -> "CounterRng":
        """Independent child stream; deterministic in (self.seed, stream)."""
        return CounterRng(stream_seed(self.seed, stream))

    def numpy_rng(self) -> np.random.Generator:
        """Philox-backed numpy Generator keyed off child stream 0 of this seed.

        Used by vectorized Monte Carlo estimators; Philox is itself a
        counter-based 64-bit generator, so determinism guarantees carry over.
        """
        return np.random.Generator(np.random.Philox(key=stream_seed(self.seed, 0)))


def drive_blocks(
    rng: CounterRng,
    out: np.ndarray,
    first: int,
    words_per_step: int,
    block: Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]],
    fixup: Callable[[int], int],
) -> None:
    """Fill out[first:] step by step, as blocks of numpy draws.

    A step is regular when it reads exactly `words_per_step` words.
    ``block(i, words)`` gets the words of steps i, i+1, ... laid out as if
    all were regular and returns their values and a mask of the steps that
    are not; it may read out[:i].  The leading regular run is accepted, and
    the first irregular step i runs as ``fixup(i)``, which draws from `rng`
    itself and returns the value; so do the last steps when fewer than
    _SCALAR_STEPS are left.  Block lengths adapt to the accepted runs.
    """
    size = _MIN_BLOCK
    i = first
    while i < len(out):
        size = min(size, _MAX_BLOCK, len(out) - i)
        if size < _SCALAR_STEPS:
            out[i] = fixup(i)
            i += 1
            continue
        values, irregular = block(i, splitmix64(rng.seed, rng.counter, size * words_per_step))
        run = int(irregular.argmax())
        if not irregular[run]:
            run = size
        out[i : i + run] = values[:run]
        rng.skip(run * words_per_step)
        i += run
        if run < size:
            out[i] = fixup(i)
            i += 1
            size = max(_MIN_BLOCK, 2 * run)
        else:
            size *= 2
