"""Draws of many numpy random streams at once, as uint64 array arithmetic.

Stream i of Streams(seed, tag, indices) draws exactly what
np.random.default_rng([seed, tag, indices[i]]) would, by numpy's own
recipes: SeedSequence and PCG64 seeding, PCG64 XSL-RR steps, and
Generator's buffered 32-bit draws, Lemire's bounded integers, random()
and choice(replace=False). Every stream makes each draw in lockstep; a
stream whose Lemire draw is rejected redraws alone.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_MULT_LO = np.uint64(0x4385DF649FCCF645)
_MULT_LO_0, _MULT_LO_1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)


def _words(x: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int; 0 is [0]."""
    out = [x & _MASK32]
    while x := x >> 32:
        out.append(x & _MASK32)
    return out


def _seed_sequence_words(entropy: list) -> Iterator:
    """The 8 uint32 words SeedSequence(entropy).generate_state(8) gives,
    in order, for entropy words that are each an int shared by all
    streams or a uint32 array with one word per stream; a result word is
    an array as soon as an array went into it."""
    entropy = entropy + [0] * (4 - len(entropy))
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * 0x931E8875 & _MASK32
        v = v * h & _MASK32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x & _MASK32) - (0x4973F715 * y & _MASK32) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hb = 0x8B51F9DD
    for i in range(8):
        v = pool[i % 4] ^ hb
        hb = hb * 0x58F38DED & _MASK32
        v = v * hb & _MASK32
        yield v ^ v >> 16


def floyd_limit(pop: int) -> int:
    """The most that numpy's choice(pop, size, replace=False) draws by
    Floyd's algorithm, which Streams.choice copies: above it, from over
    10000, numpy shuffles a tail instead."""
    return pop if pop <= 10000 else pop // 50


class Streams:
    """One PCG64 stream per index, seeded as default_rng([seed, tag,
    index]) is. A draw method draws once from each stream of rows (all
    by default) and returns the values in rows' order."""

    def __init__(self, seed: int, tag: int, indices: Sequence[int]) -> None:
        if indices and min(indices) < 0:
            raise ValueError(f"stream index {min(indices)} is negative")
        # SeedSequence([seed, tag, index]).generate_state(8), mixing the
        # indices of each uint32 word count together.
        n = len(indices)
        widths = np.fromiter(((i.bit_length() + 31) // 32 or 1 for i in indices), np.intp, n)
        u32 = np.empty((n, 8), dtype="<u4")
        for width in set(widths.tolist()):
            where = np.flatnonzero(widths == width)
            words = [np.fromiter((indices[t] >> s & _MASK32 for t in where), np.uint32, len(where))
                     for s in range(0, 32 * width, 32)]
            for i, word in enumerate(_seed_sequence_words(_words(seed) + _words(tag) + words)):
                u32[where, i] = word
        # PCG64: inc = words 2:3 << 1 | 1, and the state starts one step
        # from inc + words 0:1 (each pair high word first, mod 2**128).
        hi0, lo0, hi1, lo1 = u32.view("<u8").T
        self._inc_hi, self._inc_lo = hi1 << 1 | lo1 >> 63, lo1 << 1 | 1
        lo = self._inc_lo + lo0
        self._hi, self._lo = self._inc_hi + hi0 + (lo < lo0), lo
        self._all = np.arange(n)
        self._next64(self._all)
        self._has32, self._buf32 = np.zeros(n, dtype=bool), np.zeros(n, dtype=np.uint64)

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        """Step the streams of rows, state = state * MULT + inc (the high
        word of lo * MULT's low word from 32-bit halves), and return each
        one's XSL-RR output, rotr64(hi ^ lo, hi >> 58)."""
        hi, lo, inc_lo = self._hi[rows], self._lo[rows], self._inc_lo[rows]
        l0, l1 = lo & _MASK32, lo >> 32
        mid = l1 * _MULT_LO_0 + (l0 * _MULT_LO_0 >> 32)
        high = l1 * _MULT_LO_1 + (mid >> 32) + (l0 * _MULT_LO_1 + (mid & _MASK32) >> 32)
        new_lo = lo * _MULT_LO + inc_lo
        hi = high + lo * _MULT_HI + hi * _MULT_LO + self._inc_hi[rows] + (new_lo < inc_lo)
        self._hi[rows], self._lo[rows] = hi, new_lo
        xsl, rot = hi ^ new_lo, hi >> 58
        return xsl >> rot | xsl << (64 - rot & 63)

    def _uint32(self, rows: np.ndarray) -> np.ndarray:
        """A buffered high half, else a new output's low half, keeping
        its high half for the next call."""
        has = self._has32[rows]
        new = rows[~has]
        u = self._next64(new)
        value = self._buf32[rows]
        value[~has] = u & _MASK32
        self._buf32[new], self._has32[rows] = u >> 32, ~has
        return value

    def integers(self, bound: int, rows: np.ndarray | None = None) -> np.ndarray:
        """Generator.integers(bound) for 1 <= bound <= 2**32: Lemire's
        method, redrawing while the low word is under 2**32 % bound."""
        rows = self._all if rows is None else rows
        if bound == 1:
            return np.zeros(len(rows), dtype=np.intp)
        m = self._uint32(rows) * np.uint64(bound)
        threshold = (1 << 32) % bound
        redo = np.flatnonzero(m & _MASK32 < threshold)
        while redo.size:
            m[redo] = self._uint32(rows[redo]) * np.uint64(bound)
            redo = redo[m[redo] & _MASK32 < threshold]
        return (m >> 32).astype(np.intp)

    def random(self) -> np.ndarray:
        """Generator.random(): a whole output, leaving the 32-bit buffer."""
        return (self._next64(self._all) >> 11).astype(np.float64) * 2.0**-53

    def choice(self, pop: int, size: int) -> np.ndarray:
        """Generator.choice(pop, size, replace=False) of every stream, as a
        (streams, size) int32 array: Floyd's algorithm, then numpy's
        Fisher-Yates shuffle."""
        if size > floyd_limit(pop):
            raise ValueError(f"choice of {size} from {pop} is not Floyd's algorithm")
        idx = np.empty((len(self._all), size), dtype=np.int32)
        for c, j in enumerate(range(pop - size, pop)):
            val = self.integers(j + 1)
            idx[:, c] = np.where((idx[:, :c] == val[:, None]).any(axis=1), j, val)
        for i in range(size - 1, 0, -1):
            j = self.integers(i + 1)
            swap = idx[self._all, j]
            idx[self._all, j] = idx[:, i]
            idx[:, i] = swap
        return idx
