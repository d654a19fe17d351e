"""Deterministic pseudo-random numbers for reproducible experiments.

The generator is SplitMix64: a 64-bit counter advances by the odd constant
0x9E3779B97F4A7C15 per draw, and each raw output is the counter passed
through an avalanche mixer (two xor-shift/multiply rounds, one final
xor-shift).  Uniform doubles take the top 53 bits of a raw output, so the
uniform stream is bit-reproducible wherever IEEE-754 doubles exist.  Normal
draws apply the Box-Muller transform to uniform pairs; their last ulp
depends on the SIMD loops numpy dispatches ``np.log`` to, not on libm: with
AVX-512 it differed from ``math.log`` in 666 of 200,000 values, with AVX2 in
none.  So normal streams are bitwise reproducible for one numpy build and
SIMD target, and are compared statistically across platforms.
"""

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / (1 << 53)

_TWO_PI = 2.0 * math.pi


class Rng:
    """SplitMix64 stream owned by a single consumer (never shared).

    Draw order is part of the contract: every method documents how many raw
    outputs it consumes, and block draws consume exactly the same raw stream
    as repeated scalar calls.  Normal draws are generated in pairs; when an
    odd number is requested the second half of the final pair is discarded,
    never cached.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        """Advance the state once and return one mixed 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def _raw_block(self, n: int) -> np.ndarray:
        """n raw outputs as uint64, consuming n states (same stream as n
        next_u64 calls)."""
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = np.uint64(self._state) + steps
        self._state = (self._state + n * _GOLDEN) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform_block(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1), consuming n raw outputs: the top 53 bits of
        each, divided by 2^53."""
        return (self._raw_block(n) >> np.uint64(11)).astype(np.float64) * _INV53

    def uniform_matrix(self, rows: int, cols: int, low: float, high: float) -> np.ndarray:
        """Row-major (rows x cols) matrix of low + (high - low) * uniform."""
        u = self.uniform_block(rows * cols).reshape(rows, cols)
        return low + (high - low) * u

    def _normals(self, drawn: int, size: int) -> np.ndarray:
        """A vector of ``size`` >= ``drawn`` entries whose first ``drawn``
        (even) are standard normals from drawn / 2 uniform pairs, consuming
        ``drawn`` raw outputs; the rest are left unset.

        Each pair of entries comes from one uniform pair (u1, u2) as
        sqrt(-2 ln u1) * (cos, sin)(2 pi u2), with u1 shifted into (0, 1] so
        the log stays finite."""
        bits = self._raw_block(drawn) >> np.uint64(11)
        u1 = (bits[0::2].astype(np.float64) + 1.0) * _INV53  # (0, 1]
        u2 = bits[1::2].astype(np.float64) * _INV53          # [0, 1)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = _TWO_PI * u2
        out = np.empty(size)
        out[0:drawn:2] = radius * np.cos(theta)
        out[1:drawn:2] = radius * np.sin(theta)
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Row-major (rows x cols) matrix of standard normals via Box-Muller
        (see ``_normals``).  Consumes 2 * ceil(rows * cols / 2) raw outputs:
        an odd count drops the second half of its last pair."""
        count = rows * cols
        drawn = count + count % 2
        return self._normals(drawn, drawn)[:count].reshape(rows, cols)

    def normal_batches(self, rows: int, batch: int, cols: int) -> np.ndarray:
        """(rows x cols) normals drawn as one normal_matrix(b, cols) call per
        consecutive batch of b = ``batch`` rows, the last batch keeping the
        remainder: the same values and the same raw stream, in one block.

        Each batch takes 2 * ceil(b * cols / 2) values and drops its spare
        one.  The values are laid out one batch per row of a grid whose rows
        start on a pair, and the spare and the unused tail of the short last
        row fall outside the rows returned."""
        if batch < 1:
            raise ValueError(f"normal_batches needs batch >= 1, got {batch}")
        full, rest = divmod(rows, batch)
        batches, count, tail = full + (rest > 0), batch * cols, rest * cols
        width = count + count % 2
        grid = self._normals(full * width + tail + tail % 2, batches * width).reshape(batches, width)
        return grid[:, :count].reshape(batches * batch, cols)[:rows]

    def integer(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling raw outputs."""
        if n <= 0:
            raise ValueError(f"integer() needs n > 0, got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: swaps item i with item
        integer(i + 1) for i from len(items) - 1 down to 1.

        The raw outputs are drawn as one block.  If integer() would reject
        any of them, the state is restored and integer() draws them one by
        one, so the stream is the same either way."""
        n = len(items)
        if n < 2:
            return
        saved = self._state
        sizes = np.arange(n, 1, -1, dtype=np.uint64)
        raw = self._raw_block(n - 1)
        # integer(m) rejects raw >= 2^64 - (2^64 mod m); 2^64 does not fit
        # in uint64, so compare raw > (2^64 - 1) - (2^64 mod m) instead.
        top = np.uint64(_MASK)
        if np.any(raw > top - (top % sizes + np.uint64(1)) % sizes):
            self._state = saved
            picks = [self.integer(i + 1) for i in range(n - 1, 0, -1)]
        else:
            picks = (raw % sizes).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list:
        """Shuffled list(range(n))."""
        idx = list(range(n))
        self.shuffle(idx)
        return idx
