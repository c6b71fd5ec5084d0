"""Per-node location profiles: variable-order context predictors.

A profile counts which grid cell a node occupied, keyed by progressively
more specific contexts: nothing (order 0), the hour of the week (order 1),
or the hour of the week plus the previously observed cell (order 3). Slot
indices count hours, so slot s falls in hour of week s % HOURS_PER_WEEK,
the week clock of the analytic models and the trace generator too. A
query walks from the most specific context that has data down to the
marginal, escape-style, with no blending between levels. Confidences are
plain relative frequencies; ranking is what matters downstream, and the
ranking tie-break (lexicographic cell coordinates) keeps every run
deterministic.

A profile holds flat arrays: its key table `keys`, one int32 row (level,
hour of week, previous x, previous y) per context in serialization order,
and `ends`, each context's end row in `cells` (int32, (e, 2)) and `counts`
(uint64). A context's rows are in rank order, count descending then
(x, y): the one order that `predict`, `top_k` and the mobility statistics
read. The dict `contexts` (key tuple -> slice of rows) is derived on first
read, so only a queried profile makes a Python object per context.

Profiles are value objects: building returns a new instance and readers
never see mutation. The rule is load-bearing: `predict` memoises each
context's ranking on the profile, so arrays changed after a query would
leave stale rankings behind. Derive a changed profile with
`dataclasses.replace`, which starts with an empty memo.
"""

from __future__ import annotations

import csv
import io
import struct
import warnings
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from .analytic import HOURS_PER_WEEK

__all__ = [
    "CellId",
    "ObservationTrace",
    "LocationProfile",
    "ProfileFormatError",
    "build_profile",
    "predict",
    "top_k",
    "serialize_profile",
    "deserialize_profile",
    "write_trace_csv",
    "read_trace_csv",
]

_ALLOWED_ORDERS = (0, 1, 3)


class CellId(NamedTuple):
    """Grid cell coordinates; tuple order (x, y) is the ranking tie-break."""

    x: int
    y: int


_new_tuple = tuple.__new__  # what CellId(x, y) runs, without its Python frame


class ObservationTrace:
    """Time-ordered (hourly slot_index, cell) observations for one node.

    Backed by flat arrays so multi-week traces for whole populations stay
    cheap. Slot indices must be strictly increasing: at most one
    observation per slot.
    """

    __slots__ = ("node_id", "slots", "cells")

    def __init__(self, node_id: str, slots: np.ndarray, cells: np.ndarray) -> None:
        slots = np.asarray(slots, dtype=np.int64)
        cells = np.asarray(cells, dtype=np.int32)
        if slots.ndim != 1 or cells.shape != (len(slots), 2):
            raise ValueError("slots must be (n,), cells must be (n, 2)")
        if len(slots) and np.any(np.diff(slots) <= 0):
            raise ValueError(f"slot indices must be strictly increasing for {node_id}")
        if len(slots) and slots[0] < 0:
            raise ValueError("slot indices must be non-negative")
        self.node_id = str(node_id)
        self.slots = slots
        self.cells = cells

    def __len__(self) -> int:
        return len(self.slots)

    def record(self, i: int) -> tuple[int, CellId]:
        cells = self.cells
        return self.slots.item(i), _new_tuple(CellId, (cells.item(i, 0), cells.item(i, 1)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObservationTrace):
            return NotImplemented
        return (
            self.node_id == other.node_id
            and np.array_equal(self.slots, other.slots)
            and np.array_equal(self.cells, other.cells)
        )


# Context keys of a profile:
#   ()                    order-0 marginal
#   (hour_of_week,)       order-1
#   (hour_of_week, cell)  order-3
ContextKey = tuple
Ranking = tuple[tuple[CellId, ...], tuple[float, ...]]


@dataclass(frozen=True, eq=False)
class LocationProfile:
    """Rank-ordered context counts (see the module docstring), made by
    `build_profile` and `deserialize_profile`."""

    order: int
    version: int
    keys: np.ndarray = field(default_factory=lambda: np.empty((0, 4), np.int32))
    ends: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    cells: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int32))
    counts: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint64))
    # Filled on first read: the `contexts` dict, and each queried context's
    # ranking as parallel (cells, confidences) tuples; callers get copies.
    _contexts: dict[ContextKey, slice] = field(default_factory=dict, init=False, repr=False)
    _rankings: dict[ContextKey, Ranking] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.order not in _ALLOWED_ORDERS:
            raise ValueError(f"order must be one of {_ALLOWED_ORDERS}, got {self.order}")
        if self.version < 0:
            raise ValueError(f"version must be non-negative, got {self.version}")

    @property
    def contexts(self) -> dict[ContextKey, slice]:
        """Each context key mapped to its slice of rows, in serialization order."""
        if len(self._contexts) < len(self.ends):
            ends = self.ends.tolist()
            self._contexts.update(zip(_context_keys(self.keys.tolist()),
                                      map(slice, [0] + ends, ends)))
        return self._contexts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocationProfile):
            return NotImplemented
        return ((self.order, self.version) == (other.order, other.version)
                and all(map(np.array_equal, (self.keys, self.ends, self.cells, self.counts),
                            (other.keys, other.ends, other.cells, other.counts))))


class ProfileFormatError(ValueError):
    """Malformed serialized profile; offset is the failing byte position."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def _profile(order: int, version: int, keys: np.ndarray, context: np.ndarray,
             cells: np.ndarray, counts: np.ndarray) -> LocationProfile:
    """The profile whose row i counts cells[i] in context keys[context[i]]
    (distinct key-table rows, in any order): contexts in serialization order,
    and each one's rows in rank order by the one sort every ranking reads."""
    key_order = np.lexsort(keys.T[::-1])
    place = np.argsort(key_order)  # each key's place in serialization order
    rows = np.lexsort((cells[:, 1], cells[:, 0], ~counts, place[context]))
    ends = np.cumsum(np.bincount(context, minlength=len(keys))[key_order])
    return LocationProfile(order, version, keys[key_order], ends, cells[rows], counts[rows])


def _key_rows(level: int, hours: Sequence[int], prev: np.ndarray | int = 0) -> np.ndarray:
    """Key-table rows of one level's contexts, with previous cells at level 3."""
    rows = np.empty((len(hours), 4), np.int32)
    rows[:, 0], rows[:, 1], rows[:, 2:] = level, hours, prev
    return rows


def build_profile(trace: ObservationTrace, order: int = 1) -> LocationProfile:
    """Count context occurrences over a trace; version starts at 1.

    An empty trace yields an empty profile that predicts nothing. The
    order-3 context pairs each observation with the cell of the
    immediately preceding record, so the first record feeds only the
    lower-order contexts.
    """
    if len(trace) == 0:
        return LocationProfile(order=order, version=1)

    # Each record's index into the trace's distinct cells: counting keys are
    # built from these indices, not from coordinates, so no int32
    # coordinate can overflow them.
    distinct, cell = np.unique(
        np.ascontiguousarray(trace.cells).view(np.int64).ravel(), return_inverse=True
    )
    xy = distinct.view(np.int32).reshape(-1, 2)
    n_cells = len(xy)
    sow = trace.slots % HOURS_PER_WEEK
    # Per level: its key-table rows, and each counted record's context and cell.
    levels = [(_key_rows(0, [0]), np.zeros_like(cell), cell)]
    if order >= 1:
        hours, hour = np.unique(sow, return_inverse=True)
        levels.append((_key_rows(1, hours), hour, cell))
    if order == 3 and len(cell) > 1:
        # Number each (hour of week, previous cell) context first, so the
        # context-and-cell key stays below len(trace) * n_cells.
        contexts, context = np.unique(sow[1:] * n_cells + cell[:-1], return_inverse=True)
        hour, prev = np.divmod(contexts, n_cells)
        levels.append((_key_rows(3, hour, xy[prev]), context, cell[1:]))
    n_keys = 0
    row_contexts, row_cells, counts = [], [], []
    for keys, context, counted in levels:
        pairs, n = np.unique(context * n_cells + counted, return_counts=True)
        row_contexts.append(pairs // n_cells + n_keys)
        row_cells.append(pairs % n_cells)
        counts.append(n)
        n_keys += len(keys)
    return _profile(order, 1, np.concatenate([keys for keys, _, _ in levels]),
                    np.concatenate(row_contexts), xy[np.concatenate(row_cells)],
                    np.concatenate(counts).astype(np.uint64))


def _ranking(profile: LocationProfile, key: ContextKey) -> Ranking:
    """The context's memoised ranking; empty when the profile lacks it."""
    ranked = profile._rankings.get(key)
    if ranked is None:
        rows = profile.contexts.get(key)
        if rows is None:
            return (), ()
        # Python ints: a total above 2**64 stays exact, and so does each
        # quotient. Zero counts rank last and are dropped.
        counts = profile.counts[rows].tolist()
        total = sum(counts)
        n = len(counts) - counts.count(0)
        ranked = profile._rankings[key] = (
            tuple(_new_tuple(CellId, cell) for cell in profile.cells[rows][:n].tolist()),
            tuple(count / total for count in counts[:n]),
        )
    return ranked


def _ranked(profile: LocationProfile, slot_index: int, prev_cell: CellId | None) -> Ranking:
    """The memoised ranking of the deepest context with data (see `predict`)."""
    sow = slot_index % HOURS_PER_WEEK
    if profile.order == 3 and prev_cell is not None:
        ranked = _ranking(profile, (sow, prev_cell))
        if ranked[0]:
            return ranked
    if profile.order >= 1:
        ranked = _ranking(profile, (sow,))
        if ranked[0]:
            return ranked
    return _ranking(profile, ())


def predict(
    profile: LocationProfile,
    slot_index: int,
    prev_cell: CellId | None = None,
) -> list[tuple[CellId, float]]:
    """Ranked (cell, confidence) for a query slot, as a new list.

    Uses the deepest context with data: (slot, prev) for order-3 when the
    pair was seen, then (slot,), then the marginal. Unknown contexts all
    the way down yield an empty list, never an error.
    """
    return list(zip(*_ranked(profile, slot_index, prev_cell)))


def top_k(
    profile: LocationProfile,
    slot_index: int,
    k: int,
    prev_cell: CellId | None = None,
) -> list[CellId]:
    """First k cells of the prediction ranking; shorter when the context
    knows fewer distinct cells (no padding)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return list(_ranked(profile, slot_index, prev_cell)[0][:k])


# ---------------------------------------------------------------------------
# Binary container
#
# Little-endian throughout:
#   magic "LPRF" | u16 format version (=1) | u8 order
#   | u16 slot duration in minutes (always 60: slots are hours)
#   | u64 profile version | u32 context count
# then per context, sorted by (level, hour of week, prev cell):
#   u8 level (0|1|3) | [u16 hour of week] | [i32 prev_x, i32 prev_y]
#   | u32 entry count | entries sorted by cell: i32 x | i32 y | u64 count
# ---------------------------------------------------------------------------

_MAGIC = b"LPRF"
_FORMAT_VERSION = 1
_SLOT_MINUTES = 60
_HEADER = struct.Struct("<4sHBHQI")
_ENTRY = struct.Struct("<iiQ")
_ENTRY_DTYPE = np.dtype([("x", "<i4"), ("y", "<i4"), ("count", "<u8")])
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32X2 = struct.Struct("<ii")
# Bytes of a context header (level, hour, previous cell, entry count) by level.
_HEAD_BYTES = np.array([5, 7, 0, 15])


def _context_sort_key(key: ContextKey) -> tuple:
    """(level byte, slot, x, y) of a context key: its key-table row."""
    if key == ():
        return (0, 0, 0, 0)
    if len(key) == 1:
        return (1, key[0], 0, 0)
    if len(key) == 2:
        return (3, key[0], key[1][0], key[1][1])
    raise ValueError(f"bad context key {key!r}")


def _context_keys(rows: list[list[int]]) -> list[ContextKey]:
    """The context key of each key-table row."""
    return [() if level == 0 else (hour,) if level == 1 else (hour, _new_tuple(CellId, (x, y)))
            for level, hour, x, y in rows]


def _every_offset(buffer, dtype) -> np.ndarray:
    """buffer viewed as one dtype value at each byte offset: element i is
    the value whose bytes start at byte i."""
    dtype = np.dtype(dtype)
    return np.ndarray((max(0, len(buffer) - dtype.itemsize + 1),), dtype, buffer, strides=(1,))


def _entry_offsets(heads: np.ndarray, level: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Byte offset of each entry, when context i's header, of level
    level[i], is at byte heads[i] and its lengths[i] entries follow it."""
    first = np.cumsum(lengths) - lengths  # each context's first entry
    return (np.repeat(heads + _HEAD_BYTES[level] - first * _ENTRY.size, lengths)
            + _ENTRY.size * np.arange(lengths.sum()))


def serialize_profile(profile: LocationProfile) -> bytes:
    """Byte stream for storage or transfer; deterministic for equal profiles."""
    level, lengths = profile.keys[:, 0], np.diff(profile.ends, prepend=0)
    sizes = _HEAD_BYTES[level] + lengths * _ENTRY.size
    heads = np.cumsum(sizes) - sizes
    body = np.empty(int(sizes.sum()), np.uint8)  # every byte is written below
    body[heads] = level
    deep, wide = level >= 1, level == 3
    _every_offset(body, "<u2")[heads[deep] + 1] = profile.keys[deep, 1]
    _every_offset(body, "<i4")[heads[wide, None] + (3, 7)] = profile.keys[wide, 2:]
    _every_offset(body, "<u4")[heads + _HEAD_BYTES[level] - 4] = lengths
    x, y = profile.cells.T
    by_cell = np.lexsort((y, x, np.repeat(np.arange(len(lengths)), lengths)))
    entries = np.empty(len(by_cell), _ENTRY_DTYPE)
    entries["x"], entries["y"], entries["count"] = x[by_cell], y[by_cell], profile.counts[by_cell]
    _every_offset(body, _ENTRY_DTYPE)[_entry_offsets(heads, level, lengths)] = entries
    return _HEADER.pack(_MAGIC, _FORMAT_VERSION, profile.order, _SLOT_MINUTES,
                        profile.version, len(lengths)) + body.tobytes()


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, s: struct.Struct, what: str) -> tuple:
        if self.pos + s.size > len(self.data):
            raise ProfileFormatError(f"truncated {what}", self.pos)
        vals = s.unpack_from(self.data, self.pos)
        self.pos += s.size
        return vals


def _first_repeat(rows: np.ndarray) -> list[int]:
    """[the index of the first row equal to an earlier row], or []."""
    by_row = np.lexsort(rows.T[::-1])  # stable: equal rows keep their order
    ordered = rows[by_row]
    repeats = by_row[1:][(ordered[1:] == ordered[:-1]).all(axis=1)]
    return [int(repeats.min())] if len(repeats) else []


def _raise_context_error(r: _Reader, order: int, earlier: set[ContextKey]) -> NoReturn:
    """Raise the first error of the context at r.pos by an entry-by-entry
    reader's checks in their order; earlier holds the contexts before it."""
    level_pos = r.pos
    (level,) = r.take(_U8, "context level")
    if level not in _ALLOWED_ORDERS:
        raise ProfileFormatError(f"bad context level {level}", level_pos)
    if level > order:
        raise ProfileFormatError(f"context level {level} exceeds profile order {order}", level_pos)
    key: ContextKey = ()
    if level >= 1:
        slot_pos = r.pos
        (slot,) = r.take(_U16, "context slot")
        if slot >= HOURS_PER_WEEK:
            raise ProfileFormatError(f"hour of week {slot} out of range", slot_pos)
        key = (slot,)
    if level == 3:
        key = (key[0], CellId(*r.take(_I32X2, "context cell")))
    count_pos = r.pos
    (n_entries,) = r.take(_U32, "entry count")
    if n_entries * _ENTRY.size > len(r.data) - r.pos:
        raise ProfileFormatError(f"entry count {n_entries} overruns input", count_pos)
    if key in earlier:
        raise ProfileFormatError(f"duplicate context {key!r}", level_pos)
    cells = set()
    for _ in range(n_entries):
        entry_pos = r.pos
        cell = r.take(_ENTRY, "entry")[:2]
        if cell in cells:
            raise ProfileFormatError(f"repeated cell {cell} in context {key!r}", entry_pos)
        cells.add(cell)
    raise AssertionError(f"the context at byte {level_pos} is well formed")


def deserialize_profile(data: bytes) -> LocationProfile:
    """Parse a serialized profile, whose contexts and entries may come in
    any order; malformed input raises ProfileFormatError, the error an
    entry-by-entry reader finds first, at its byte offset."""
    r = _Reader(data)
    magic, fmt, order, duration, version, n_contexts = r.take(_HEADER, "header")
    if magic != _MAGIC:
        raise ProfileFormatError(f"bad magic {magic!r}", 0)
    if fmt != _FORMAT_VERSION:
        raise ProfileFormatError(f"unsupported format version {fmt}", 4)
    if order not in _ALLOWED_ORDERS:
        raise ProfileFormatError(f"bad order {order}", 6)
    if duration != _SLOT_MINUTES:
        raise ProfileFormatError(
            f"slot duration must be {_SLOT_MINUTES} minutes, got {duration}", 7
        )

    # Walk the headers by level byte and entry count up to the first bad or cut one.
    head_bytes = {level: int(_HEAD_BYTES[level]) for level in _ALLOWED_ORDERS if level <= order}
    pos, end = r.pos, len(data)
    heads, lengths = [], []
    for _ in range(n_contexts):
        size = head_bytes.get(data[pos]) if pos < end else None
        if size is None or pos + size > end:
            break
        (n_entries,) = _U32.unpack_from(data, pos + size - 4)
        if n_entries * _ENTRY.size > end - pos - size:
            break
        heads.append(pos)
        lengths.append(n_entries)
        pos += size + n_entries * _ENTRY.size
    heads, lengths = np.array(heads, np.int64), np.array(lengths, np.int64)
    keys = np.zeros((len(heads), 4), np.int32)
    keys[:, 0] = level = np.frombuffer(data, np.uint8)[heads]
    deep, wide = level >= 1, level == 3
    keys[deep, 1] = _every_offset(data, "<u2")[heads[deep] + 1]
    keys[wide, 2:] = _every_offset(data, "<i4")[heads[wide, None] + (3, 7)]
    entries = _every_offset(data, _ENTRY_DTYPE)[_entry_offsets(heads, level, lengths)]
    cells = np.column_stack((entries["x"], entries["y"]))
    context = np.repeat(np.arange(len(heads)), lengths)
    # The first context with an hour out of range, a repeat of an earlier
    # context, or a repeated cell; else the one the walk refused, if any.
    repeat = _first_repeat(np.column_stack((context, cells)))
    bad = min([len(heads), *np.flatnonzero(keys[:, 1] >= HOURS_PER_WEEK)[:1].tolist(),
               *_first_repeat(keys), *context[repeat].tolist()])
    if bad < n_contexts:
        r.pos = int(heads[bad]) if bad < len(heads) else pos
        _raise_context_error(r, order, set(_context_keys(keys[:bad].tolist())))
    if pos != end:
        raise ProfileFormatError("trailing bytes after last context", pos)
    return _profile(order, version, keys, context, cells, entries["count"].astype(np.uint64))


def write_trace_csv(traces: Sequence[ObservationTrace], path: str) -> None:
    """One row per observation: node_id,slot_index,cell_x,cell_y."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "slot_index", "cell_x", "cell_y"])
        for trace in traces:
            # The csv module quotes the node id once, into a row template
            # whose %-escaped id stays quoted as the module would quote it
            # ('%' is no csv special character).
            template = io.StringIO()
            csv.writer(template).writerow(
                [trace.node_id.replace("%", "%%"), "%d", "%d", "%d"]
            )
            fields = np.column_stack((trace.slots, trace.cells)).ravel().tolist()
            fh.write((template.getvalue() * len(trace)) % tuple(fields))


# Lines per chunk of a trace CSV: the reader holds one chunk of lines, or
# of row lists once it reads by csv.reader.
_CSV_CHUNK = 4096

# The rows of a chunk as numpy's C reader gives them.
_TRACE_ROW = np.dtype([("node", object), ("slot", np.int64), ("x", np.int32), ("y", np.int32)])


def _store(node_ids: Sequence[str], slots: np.ndarray, cells: np.ndarray,
           nodes: dict[str, list[tuple]], last: dict[str, int]) -> bool:
    """Append each node's rows of a chunk to nodes[node] as one (slots,
    cells) piece and return True; last holds each node's last slot so far.
    Store nothing and return False when a slot does not follow its node's
    last, or -1 for a node not seen yet, so no slot is negative."""
    code = {node: i for i, node in enumerate(dict.fromkeys(node_ids))}  # file order
    codes = np.fromiter(map(code.__getitem__, node_ids), np.intp, len(node_ids))
    order = np.argsort(codes, kind="stable")
    slots = slots[order]
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    ends = np.append(starts[1:], len(slots))
    rising = np.diff(slots) > 0
    rising[starts[1:] - 1] = True  # where one node's rows end
    if not rising.all() or any(
        first <= last.get(node, -1) for node, first in zip(code, slots[starts].tolist())
    ):
        return False
    cells = cells[order]
    for node, a, b in zip(code, starts.tolist(), ends.tolist()):
        nodes.setdefault(node, []).append((slots[a:b], cells[a:b]))
        last[node] = int(slots[b - 1])
    return True


def _add_lines(lines: list[str], first_line: int,
               nodes: dict[str, list[tuple]], last: dict[str, int]) -> bool:
    """Store a chunk of lines, the first on first_line, parsed by numpy's C
    reader, and return True. Return False, storing nothing, for a chunk
    that numpy might read unlike csv.reader and int(), or that numpy or
    `_store` refuses: the csv path then reads it and names its bad row."""
    text = "".join(lines)
    # A quote is csv quoting, even in the header. \x1c-\x1f are whitespace
    # around a number to numpy, not to int(). numpy 2.4.6's reader crashed
    # on some non-ASCII code points in a number field, such as U+9C6CA.
    if not text.isascii() or any(c in text for c in '"\x1c\x1d\x1e\x1f'):
        return False
    if first_line == 1 and lines[0].split(",", 1)[0].rstrip("\r\n") == "node_id":
        lines = lines[1:]
    if all(line in ("\n", "\r\n", "\r") for line in lines):
        return True  # no rows, on which loadtxt would warn
    try:
        # numpy releases that parse an integer field through a float, as
        # 1.23 did for "1.5", warn when they do.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, delimiter=",", dtype=_TRACE_ROW, comments=None,
                               quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return False
    return _store(table["node"].tolist(), table["slot"],
                  np.column_stack((table["x"], table["y"])), nodes, last)


def _add_rows(rows: list[list[str]], first_line: int,
              nodes: dict[str, list[tuple]], last: dict[str, int]) -> None:
    """Store a chunk of CSV rows, the first on first_line, converting fields
    by int(); a chunk that fails a check stores nothing, and
    `_raise_first_bad_row` raises its first bad row's error."""
    if first_line == 1 and rows and rows[0] and rows[0][0] == "node_id":
        rows, first_line = rows[1:], 2
    kept = [row for row in rows if row]
    if not kept:
        return
    try:
        if set(map(len, kept)) != {4}:
            raise ValueError("a row without 4 fields")
        node_ids, slot_col, *cell_cols = zip(*kept)
        slots = list(map(int, slot_col))
        cells = [list(map(int, col)) for col in cell_cols]
        if not (0 <= min(slots) and max(slots) < 2**63) or not all(
            -(2**31) <= min(col) and max(col) < 2**31 for col in cells
        ):
            raise ValueError("a field out of range")
        # Columns of Python objects kept through the sort fragment the heap.
        slots, cells = np.array(slots, dtype=np.int64), np.array(cells, dtype=np.int32).T
        del slot_col, cell_cols
    except ValueError:
        pass
    else:
        if _store(node_ids, slots, cells, nodes, last):
            return
    _raise_first_bad_row(rows, first_line, last)


def _raise_first_bad_row(rows: list[list[str]], first_line: int, last: dict) -> NoReturn:
    """Raise the located error of the first bad row of a chunk that failed a check."""
    last = dict(last)
    for lineno, row in enumerate(rows, start=first_line):
        if row:
            last[row[0]] = _trace_row(row, lineno, last.get(row[0]))[0]
    raise AssertionError(f"no row of the chunk from line {first_line} is bad")


def _then_raise(lines: list[str], error: BaseException) -> Iterator[str]:
    """The lines, then the error that reading the next one raised."""
    yield from lines
    raise error


def read_trace_csv(path: str) -> list[ObservationTrace]:
    """Traces grouped by node in file order.

    Every malformed row raises ValueError naming its line: a wrong field
    count, a non-integer, a cell coordinate outside int32, a negative slot,
    a slot that does not follow the node's previous one, or bytes that are
    not UTF-8. The reader holds one chunk of lines at a time, plus int
    arrays of the rows before it, and checks each chunk on columns before
    it stores the chunk per node.

    numpy's C reader (`np.loadtxt`) parses each chunk of ASCII lines that
    holds no quote and no \\x1c-\\x1f: on other text, numpy 2.4.6 read
    unlike csv.reader and int(), or crashed. The first other chunk, or one
    that numpy or a check refuses, is read with the rest of the file by
    csv.reader, converting fields by int(): the one parser of quoted node
    ids, which `write_trace_csv` writes for ids holding a comma, a quote
    or a line break, and of the numbers numpy refuses, such as 1_0 and
    non-ASCII digits. No quote came before the switch, so each line so far
    was one CSV row and the line numbers hold. The accepted input, every
    stored value and every error message are those of csv.reader alone;
    that was tested with numpy 2.4.6 only. A csv chunk that fails a check
    is walked row by row to name its first bad row.
    """
    nodes: dict[str, list[tuple]] = {}  # each node's (slots, cells) pieces
    last: dict[str, int] = {}  # each node's last slot so far
    lines: list[str] = []
    rows: list[list[str]] = []
    lineno = 0  # CSV rows before `lines`, then before `rows`
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            source = None  # what csv.reader reads, once numpy's reader stops
            try:
                while True:
                    lines.extend(islice(fh, _CSV_CHUNK))
                    if not lines:
                        break
                    if not _add_lines(lines, lineno + 1, nodes, last):
                        source = chain(lines, fh)
                        break
                    lineno += len(lines)
                    lines = []
            except UnicodeDecodeError as exc:
                # The lines read before the error come first: extend() kept them.
                source = _then_raise(lines, exc)
            if source is not None:
                reader = csv.reader(source)
                while True:
                    rows.extend(islice(reader, _CSV_CHUNK))
                    if not rows:
                        break
                    _add_rows(rows, lineno + 1, nodes, last)
                    lineno += len(rows)
                    rows = []
    except csv.Error as exc:
        error: ValueError = ValueError(f"line {lineno + len(rows) + 1}: {exc}")
    except UnicodeDecodeError as exc:
        error = exc
    else:
        return [ObservationTrace(node, *map(np.concatenate, zip(*pieces)))
                for node, pieces in nodes.items()]
    # The rows the reader gave before it failed come first: extend() kept them.
    _add_rows(rows, lineno + 1, nodes, last)
    if isinstance(error, UnicodeDecodeError):
        # The decoder reads ahead, so find the bad byte in the whole file.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"line {line}: not UTF-8: {exc.reason}") from None
    raise error


def _trace_row(row: list[str], lineno: int, last_slot: int | None) -> tuple[int, int, int]:
    """(slot, x, y) of one CSV row, after its node's last slot."""
    if len(row) != 4:
        raise ValueError(f"line {lineno}: expected 4 fields, got {len(row)}")
    try:
        slot, x, y = int(row[1]), int(row[2]), int(row[3])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    if not 0 <= slot < 2**63:
        raise ValueError(f"line {lineno}: slot index {slot} is outside [0, 2**63)")
    if last_slot is not None and slot <= last_slot:
        raise ValueError(
            f"line {lineno}: slot {slot} of {row[0]} does not follow its slot "
            f"{last_slot}; slot indices must be strictly increasing"
        )
    for name, value in (("cell_x", x), ("cell_y", y)):
        if not -(2**31) <= value < 2**31:
            raise ValueError(f"line {lineno}: {name} {value} is outside int32")
    return slot, x, y
