"""Draws of many numpy random streams at once, as uint64 array arithmetic.

Stream i of Streams(seed, tag, indices) draws exactly what
np.random.default_rng([seed, tag, indices[i]]) would, by numpy's own
recipes for a one-word seed, tag and index and a choice from at most
10000: SeedSequence and PCG64 seeding, PCG64 XSL-RR steps, and
Generator's buffered 32-bit draws, Lemire's bounded integers, random()
and random(size), and choice(replace=False) by Floyd's algorithm. Every
stream makes each draw in lockstep; a stream whose Lemire draw is
rejected redraws alone.

The simulator draws its trials, baseline probes and layout attempts
here, so a run never imports numpy.random, nor the OpenSSL bindings
that numpy.random loads through secrets.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_MULT_LO = np.uint64(0x4385DF649FCCF645)
_MULT_LO_0, _MULT_LO_1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)


def _seed_sequence_words(seed: int, tag: int, index: np.ndarray) -> Iterator:
    """The 8 uint32 words SeedSequence([seed, tag, index]).generate_state(8)
    gives, in order, for a one-word seed and tag and a uint64 array of
    one-word indices: each word is an array, one value per index."""
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

    # Three entropy words fill SeedSequence's pool of four with a 0.
    pool = [hashmix(w) for w in (seed, tag, index, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hb = 0x8B51F9DD
    for i in range(8):
        v = pool[i % 4] ^ hb
        hb = hb * 0x58F38DED & _MASK32
        v = v * hb & _MASK32
        yield v ^ v >> 16


class Streams:
    """One PCG64 stream per index, seeded as default_rng([seed, tag,
    index]) is, for a seed and indices in [0, 2**32): one SeedSequence
    word each. A draw method draws once from each stream of rows (all by
    default) and returns the values in rows' order."""

    def __init__(self, seed: int, tag: int, indices: Sequence[int]) -> None:
        for name, value in (("seed", seed), ("index", min(indices, default=0)),
                            ("index", max(indices, default=0))):
            if not 0 <= value <= _MASK32:
                raise ValueError(f"stream {name} {value} is outside [0, 2**32)")
        n = len(indices)
        u32 = np.empty((n, 8), dtype="<u4")
        index = np.array(indices, dtype=np.uint64)
        for i, word in enumerate(_seed_sequence_words(seed, tag, index)):
            u32[:, i] = word
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

    def random(self, size: int | None = None) -> np.ndarray:
        """Generator.random(size): a whole output a value, leaving the
        32-bit buffer. One value a stream, or with a size a (streams,
        size) array whose row holds that stream's next size values."""
        if size is None:
            return (self._next64(self._all) >> 11).astype(np.float64) * 2.0**-53
        out = np.empty((len(self._all), size))
        for j in range(size):
            out[:, j] = self.random()
        return out

    def choice(self, pop: int, size: int) -> np.ndarray:
        """Generator.choice(pop, size, replace=False) of every stream, as a
        (streams, size) int32 array: Floyd's algorithm, then numpy's
        Fisher-Yates shuffle, which numpy always takes for pop <= 10000."""
        if pop > 10000:
            raise ValueError(f"choice from {pop} is above 10000, where numpy's "
                             f"choice may leave Floyd's algorithm")
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
