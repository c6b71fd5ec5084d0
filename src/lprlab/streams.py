"""Draws of many numpy random streams at once, as uint64 array arithmetic.

Stream i of Streams(seed, tag, indices) draws exactly what
np.random.default_rng([seed, tag, indices[i]]) would, and with tag None
what default_rng([seed, indices[i]]) would, by numpy's own recipes for
one-word seeds, tags and indices and a choice from at most 10000:
SeedSequence and PCG64 seeding, PCG64 XSL-RR outputs, and Generator's
buffered 32-bit draws, Lemire's bounded integers, random() and
random(size), and choice(replace=False) by Floyd's algorithm.

PCG64 (O'Neill, 2014) is a 128-bit LCG, state -> a * state + inc, so
the next states of a stream follow from its state s by LCG jump-ahead
(Brown, "Random Number Generation with Arbitrary Strides", 1994):
state j is a**j * s + (the sum of a**i for i < j) * inc, mod 2**128.
A draw computes a block of the next outputs of all its streams at once
as array arithmetic, with no Python step per value. A bounded draw
takes its values from one block of 32-bit halves; a stream whose halves
hold a Lemire rejection redraws alone.

The simulator draws its trials, baseline probes and layout attempts
here, and the trace generator its users, so no lprlab command imports
numpy.random, nor the OpenSSL bindings that numpy.random loads through
secrets.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# A block holds at most this many states at once (rows times columns, or
# one column of more rows), so each of its working arrays stays within
# 16 KiB whatever the draw's size. Blocks of 8,192 draw long runs about
# 15 % faster, but raised sim-lpr's peak memory by about 0.1 MiB.
_BLOCK_VALUES = 1 << 11
# choice's Floyd step marks each stream's values in a table of one byte
# per population value, taking the streams in chunks of at most this many
# bytes of table. A chunk's draws add 16 bytes a stream per value chosen
# (2 * size int32 values and as many uint32 halves), so besides its int32
# result choice holds at most 17 times this, 4.25 MiB, and one rejecting
# stream's redraw (0.5 MiB at size 9800), whatever the number of streams.
_OCCUPANCY_BYTES = 1 << 18


def _seed_sequence_words(words: Sequence) -> Iterator:
    """The 8 uint32 words SeedSequence(words).generate_state(8) gives, in
    order, for two or three one-word entropy words, each an int or a
    uint64 array: each word given back is an array where one was given."""
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

    # The entropy words fill SeedSequence's pool of four, then 0s do.
    pool = [hashmix(w) for w in (*words, 0, 0)[:4]]
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


def _affine(hi, lo, mult: int, add_hi, add_lo):
    """(hi, lo) * mult + (add_hi, add_lo) mod 2**128, each operand in
    uint64 halves, high word first (arrays that broadcast), and mult a
    Python int: the high word of lo times mult's low word is summed from
    32-bit halves."""
    m_lo = mult & _MASK64
    c0, c1 = np.uint64(m_lo & _MASK32), np.uint64(m_lo >> 32)
    l0, l1 = lo & _MASK32, lo >> 32
    mid = l1 * c0 + (l0 * c0 >> 32)
    high = l1 * c1 + (mid >> 32) + (l0 * c1 + (mid & _MASK32) >> 32)
    new_lo = lo * np.uint64(m_lo) + add_lo
    new_hi = (high + lo * np.uint64(mult >> 64) + hi * np.uint64(m_lo) + add_hi
              + (new_lo < add_lo))
    return new_hi, new_lo


def _jump(steps: int) -> tuple[int, int]:
    """steps PCG64 steps as one map, state -> a * state + c * inc: (a, c)
    = (MULT**steps, the sum of MULT**i for i < steps) mod 2**128, by
    squaring."""
    acc_a, acc_c, a, c = 1, 0, _MULT, 1
    while steps:
        if steps & 1:
            acc_a, acc_c = acc_a * a & _MASK128, (acc_c * a + c) & _MASK128
        a, c = a * a & _MASK128, c * (a + 1) & _MASK128
        steps >>= 1
    return acc_a, acc_c


class Streams:
    """One PCG64 stream per index, seeded as default_rng([seed, tag,
    index]) is, or default_rng([seed, index]) with tag None, for a seed,
    tag and indices in [0, 2**32): one SeedSequence word each. A draw
    method draws from each stream of rows (all by default) and returns
    the values in rows' order."""

    def __init__(self, seed: int, tag: int | None, indices: Sequence[int]) -> None:
        for name, value in (("seed", seed), ("index", min(indices, default=0)),
                            ("index", max(indices, default=0))):
            if not 0 <= value <= _MASK32:
                raise ValueError(f"stream {name} {value} is outside [0, 2**32)")
        n = len(indices)
        u32 = np.empty((n, 8), dtype="<u4")
        index = np.array(indices, dtype=np.uint64)
        words = (seed, index) if tag is None else (seed, tag, index)
        for i, word in enumerate(_seed_sequence_words(words)):
            u32[:, i] = word
        # PCG64: inc = words 2:3 << 1 | 1, and the state starts one step
        # from inc + words 0:1 (each pair high word first, mod 2**128).
        hi0, lo0, hi1, lo1 = u32.view("<u8").T
        self._inc_hi, self._inc_lo = hi1 << 1 | lo1 >> 63, lo1 << 1 | 1
        lo = self._inc_lo + lo0
        hi = self._inc_hi + hi0 + (lo < lo0)
        self._hi, self._lo = _affine(hi, lo, _MULT, self._inc_hi, self._inc_lo)
        self._all = np.arange(n)
        self._has32, self._buf32 = np.zeros(n, dtype=bool), np.zeros(n, dtype=np.uint32)

    def _outputs(self, rows: np.ndarray, size: int) -> Iterator[np.ndarray]:
        """The next size XSL-RR outputs, rotr64(hi ^ lo, hi >> 58), of each
        stream of rows, as (len(rows), width) blocks in order; a stream's
        state moves past a block as it is yielded. The first width states
        double from the first, state j + w = a**w * state j + c_w * inc;
        each later block steps width states at once."""
        n = len(rows)
        if not (n and size):
            return
        width = min(size, max(1, _BLOCK_VALUES // n))
        inc_hi, inc_lo = self._inc_hi[rows, None], self._inc_lo[rows, None]
        hi = np.empty((n, width), dtype=np.uint64)
        lo = np.empty_like(hi)
        hi[:, :1], lo[:, :1] = _affine(self._hi[rows, None], self._lo[rows, None],
                                       _MULT, inc_hi, inc_lo)
        done = 1
        while done < width:
            take = min(done, width - done)
            a, c = _jump(done)
            hi[:, done:done + take], lo[:, done:done + take] = _affine(
                hi[:, :take], lo[:, :take], a, *_affine(inc_hi, inc_lo, c, 0, 0))
            done += take
        a, c = _jump(width)
        step_hi, step_lo = _affine(inc_hi, inc_lo, c, 0, 0)
        for start in range(0, size, width):
            k = min(width, size - start)
            if start:
                hi, lo = _affine(hi[:, :k], lo[:, :k], a, step_hi, step_lo)
            self._hi[rows], self._lo[rows] = hi[:, k - 1], lo[:, k - 1]
            xsl, rot = hi[:, :k] ^ lo[:, :k], hi[:, :k] >> 58
            yield xsl >> rot | xsl << (64 - rot & 63)

    def _uint32s(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next count 32-bit draws of each stream of rows, as a
        (len(rows), count) uint32 array: a buffered high half first, then
        each new output's low half and high half (its little-endian
        words). A high half left over stays buffered."""
        halves = np.empty((len(rows), count + 1), dtype=np.uint32)
        has = self._has32[rows]
        for first in (0, 1):
            group = np.flatnonzero(has == first)
            if not group.size:
                continue
            at = slice(None) if group.size == len(rows) else group
            if first:
                halves[at, 0] = self._buf32[rows[group]]
            col = first
            for block in self._outputs(rows[group], (count + 1 - first) // 2):
                end = col + 2 * block.shape[1]
                halves[at, col:end] = block.astype("<u8", copy=False).view("<u4")
                col = end
        left = (count + has) % 2 == 1
        self._buf32[rows[left]] = halves[left, count]
        self._has32[rows] = left
        return halves[:, :count]

    def _bounded(self, rows: np.ndarray, bounds: np.ndarray,
                 dtype: type = np.intp) -> np.ndarray:
        """Generator.integers(bound) of each stream of rows for each of
        bounds in turn (1 <= bound <= 2**32), as a (len(rows), len(bounds))
        array of dtype: Lemire's method on the streams' next 32-bit draws,
        which a bound of 1 takes none of. The products go in blocks of
        columns."""
        out = np.zeros((len(rows), len(bounds)), dtype=dtype)
        cols = np.flatnonzero(bounds > 1)
        bounds = bounds[cols].astype(np.uint64)
        halves = self._uint32s(rows, len(bounds))
        # Numpy's fast path: a low word at or above the bound is never
        # under the rejection threshold 2**32 % bound.
        suspect = np.zeros(len(rows), dtype=bool)
        step = max(1, _BLOCK_VALUES // max(1, len(rows)))
        for start in range(0, len(bounds), step):
            m = halves[:, start:start + step] * bounds[start:start + step]
            out[:, cols[start:start + step]] = m >> 32
            suspect |= (m & _MASK32 < bounds[start:start + step]).any(axis=1)
        for i in np.flatnonzero(suspect).tolist():
            out[i, cols] = self._redraw(rows[i:i + 1], halves[i], bounds)
        return out

    def _redraw(self, row: np.ndarray, halves: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """One stream's values for bounds when its halves may hold a Lemire
        rejection: a rejected half is skipped, so each later value takes
        the next half, and the stream draws more halves past the last."""
        threshold = np.uint64(1 << 32) % bounds
        values = np.empty(len(bounds), dtype=np.uint64)
        done = 0
        while done < len(bounds):
            if not halves.size:
                halves = self._uint32s(row, len(bounds) - done)[0]
            m = halves * bounds[done:done + len(halves)]
            bad = np.flatnonzero(m & _MASK32 < threshold[done:done + len(halves)])
            keep = int(bad[0]) if bad.size else len(halves)
            values[done:done + keep] = m[:keep] >> 32
            done += keep
            halves = halves[keep + 1:]
        return values

    def integers(self, bound: int, rows: np.ndarray | None = None,
                 size: int | None = None) -> np.ndarray:
        """Generator.integers(bound) for 1 <= bound <= 2**32: one value a
        stream of rows, or with a size a (streams, size) array whose row
        holds that stream's Generator.integers(bound, size=size)."""
        rows = self._all if rows is None else rows
        bounds = np.full(1 if size is None else size, bound, dtype=np.uint64)
        values = self._bounded(rows, bounds)
        return values[:, 0] if size is None else values

    def random(self, size: int | None = None) -> np.ndarray:
        """Generator.random(size): a whole output a value, leaving the
        32-bit buffer. One value a stream, or with a size a (streams,
        size) array whose row holds that stream's next size values."""
        out = np.empty((len(self._all), 1 if size is None else size))
        col = 0
        for block in self._outputs(self._all, out.shape[1]):
            out[:, col:col + block.shape[1]] = (block >> 11).astype(np.float64) * 2.0**-53
            col += block.shape[1]
        return out[:, 0] if size is None else out

    def choice(self, pop: int, size: int) -> np.ndarray:
        """Generator.choice(pop, size, replace=False) of every stream, as a
        (streams, size) int32 array: Floyd's algorithm, then numpy's
        Fisher-Yates shuffle, which numpy always takes for pop <= 10000.
        Their 2 * size - 1 bounded draws come first, as one block a chunk
        of streams, so besides the result only one chunk's draws and
        occupancy table are held at once."""
        if pop > 10000:
            raise ValueError(f"choice from {pop} is above 10000, where numpy's "
                             f"choice may leave Floyd's algorithm")
        bounds = np.concatenate([np.arange(pop - size + 1, pop + 1), np.arange(size, 1, -1)])
        idx = np.empty((len(self._all), size), dtype=np.int32)
        chunk = max(1, _OCCUPANCY_BYTES // pop)
        for first in range(0, len(idx), chunk):
            self._choose(self._all[first:first + chunk], pop, bounds, idx[first:first + chunk])
        return idx

    def _choose(self, rows: np.ndarray, pop: int, bounds: np.ndarray,
                picked: np.ndarray) -> None:
        """choice's draws, Floyd steps and shuffle for the streams of rows,
        written into picked, their rows of the result."""
        size = picked.shape[1]
        values = self._bounded(rows, bounds, np.int32)
        # Floyd's step c draws from [0, j]: the value, or j when the
        # stream's table marks the value taken (j itself never is).
        taken = np.zeros((len(rows), pop), dtype=bool)
        row = np.arange(len(rows))
        for c, j in enumerate(range(pop - size, pop)):
            val = values[:, c]
            pick = np.where(taken[row, val], j, val)
            taken[row, pick] = True
            picked[:, c] = pick
        for c, i in enumerate(range(size - 1, 0, -1), start=size):
            j = values[:, c]
            swap = picked[row, j]
            picked[row, j] = picked[:, i]
            picked[:, i] = swap
