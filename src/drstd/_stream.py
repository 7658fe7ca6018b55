"""numpy's `default_rng(seed)` stream, for the draws `synth` makes, without numpy.

`Generator(seed)` seeds PCG64 as `numpy.random.default_rng(seed)` does: a
`SeedSequence(seed)` hashes the seed into four 64-bit words, the first two
the 128-bit state and the last two the increment, and PCG64 (XSL-RR 128/64)
steps before each output. Each method draws as numpy's does on the same
stream, so every value equals numpy's bit for bit:

* `random`: the top 53 bits of one output, times 2**-53;
* `integers`: Lemire's bounded draw on 32-bit halves, the upper half of an
  output kept for the next 32-bit draw, across calls, as numpy keeps it;
* `choice(n, size)`: numpy's `choice(n, size, replace=False)`, Floyd's
  draw and then a shuffle, or a tail shuffle when n > 10000 and
  size > n // 50;
* `standard_exponential`: numpy's 256-level ziggurat on numpy's own tables.

The tables, `ziggurat_exp.bin`, are numpy's `ke_double`, `we_double` and
`fe_double`, 256 little-endian uint64 and 2 x 256 float64, copied from
numpy 2.4.6 under its BSD license (`ziggurat_exp.LICENSE`). The textbook
recurrence does not give them bit for bit.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterator
from itertools import chain, islice, repeat
from pathlib import Path

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / (1 << 53)
_ROTATE = (1 << 64) + 1  # x * _ROTATE >> r & _M64: x rotated right by r
_ZIGGURAT_R = 7.69711747013104972


def seed_words(seed: int) -> list[int]:
    """`SeedSequence(seed).generate_state(4, np.uint64)`: PCG64's seed."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")  # as numpy's
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def pcg64(seed: int) -> Iterator[int]:
    """PCG64's raw 64-bit outputs for numpy's `PCG64(seed)`."""
    s0, s1, i0, i1 = seed_words(seed)
    # PCG's seeding: an odd increment, one step from 0, the seed added,
    # another step
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = (inc + (s0 << 64 | s1)) * _PCG_MULT + inc & _M128
    return chain.from_iterable(_pcg64_blocks(state, inc))


def _pcg64_blocks(state: int, inc: int) -> Iterator[list[int]]:
    """PCG64 from `state`, 256 outputs a list: `chain` hands them out
    without resuming a Python frame for each."""
    while True:
        block = []
        for _ in repeat(None, 256):
            state = state * _PCG_MULT + inc & _M128
            # XSL-RR: (high ^ low) rotated right by the top 6 bits
            block.append(((state >> 64 ^ state) & _M64) * _ROTATE
                         >> (state >> 122) & _M64)
        yield block


class Generator:
    """`numpy.random.default_rng(seed)`, for the calls `synth` makes."""

    __slots__ = ("_outputs", "_next64", "_half", "_ke", "_we", "_fe")

    def __init__(self, seed: int):
        self._outputs = pcg64(seed)
        self._next64 = self._outputs.__next__
        self._half: int | None = None  # numpy's buffered upper 32 bits
        tables = struct.unpack("<256Q256d256d", Path(__file__).with_name(
            "ziggurat_exp.bin").read_bytes())
        self._ke, self._we, self._fe = tables[:256], tables[256:512], tables[512:]

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _M32

    def random(self, size: int | None = None) -> float | list[float]:
        """`random()` as a float, `random(size)` as a list."""
        if size is None:
            return (self._next64() >> 11) * _DOUBLE_UNIT
        return [(v >> 11) * _DOUBLE_UNIT for v in islice(self._outputs, size)]

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or in [0, low) without `high`."""
        if high is None:
            low, high = 0, low
        span = high - 1 - low  # numpy's inclusive range
        if span == 0:
            return low  # numpy draws nothing
        if span == _M32:
            return low + self._next32()
        if not 0 < span < _M32:
            raise ValueError(f"integers({low}, {high}): the range must be "
                             f"1 to 2**32")
        m = self._next32() * (span + 1)
        if m & _M32 <= span:
            threshold = (_M32 - span) % (span + 1)
            while m & _M32 < threshold:
                m = self._next32() * (span + 1)
        return low + (m >> 32)

    def choice(self, n: int, size: int) -> list[int]:
        """numpy's `choice(n, size, replace=False)`."""
        if n > 10000 and size > n // 50:  # numpy's tail shuffle
            drawn = list(range(n))
            self._shuffle(drawn, max(n - size, 1))
            return drawn[n - size:]
        seen, drawn = set(), []
        for j in range(n - size, n):  # Floyd's draw
            value = self.integers(j + 1)
            value = j if value in seen else value
            seen.add(value)
            drawn.append(value)
        self._shuffle(drawn, 1)
        return drawn

    def _shuffle(self, items: list[int], first: int) -> None:
        """numpy's `_shuffle_int`: Fisher-Yates down to index `first`."""
        for i in reversed(range(first, len(items))):
            j = self.integers(i + 1)
            items[i], items[j] = items[j], items[i]

    def standard_exponential(self, size: int) -> list[float]:
        ke, we, draws = self._ke, self._we, []
        for ri in islice(self._outputs, size):
            ri >>= 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * we[idx]
            draws.append(x if ri < ke[idx] else self._exponential_tail(idx, x))
        return draws

    def _exponential_tail(self, idx: int, x: float) -> float:
        """numpy's `standard_exponential_unlikely`."""
        if idx == 0:
            return _ZIGGURAT_R - math.log1p(-self.random())
        fe = self._fe
        if (fe[idx - 1] - fe[idx]) * self.random() + fe[idx] < math.exp(-x):
            return x
        return self.standard_exponential(1)[0]
