"""Per-node location profiles: variable-order context predictors.

A profile counts which grid cell a node occupied, keyed by progressively
more specific contexts: nothing (order 0), the slot of the week (order 1),
or the slot of the week plus the previously observed cell (order 3). A
query walks from the most specific context that has data down to the
marginal, escape-style, with no blending between levels. Confidences are
plain relative frequencies; ranking is what matters downstream, and the
ranking tie-break (lexicographic cell coordinates) keeps every run
deterministic.

Profiles are value objects: building returns a new instance and readers
never see mutation.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MINUTES_PER_WEEK",
    "SlotConfig",
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

MINUTES_PER_WEEK = 10080

_ALLOWED_ORDERS = (0, 1, 3)


class CellId(NamedTuple):
    """Grid cell coordinates; tuple order (x, y) is the ranking tie-break."""

    x: int
    y: int


@dataclass(frozen=True)
class SlotConfig:
    """Time discretization: minutes per slot, derived slots per week."""

    slot_duration: int = 60

    def __post_init__(self) -> None:
        if self.slot_duration < 1 or MINUTES_PER_WEEK % self.slot_duration != 0:
            raise ValueError(
                f"slot duration must divide {MINUTES_PER_WEEK} minutes, "
                f"got {self.slot_duration}"
            )

    @property
    def slots_per_week(self) -> int:
        return MINUTES_PER_WEEK // self.slot_duration

    def slot_of_week(self, slot_index: int) -> int:
        return slot_index % self.slots_per_week


class ObservationTrace:
    """Time-ordered (slot_index, cell) observations for one node.

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
        return int(self.slots[i]), CellId(int(self.cells[i, 0]), int(self.cells[i, 1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObservationTrace):
            return NotImplemented
        return (
            self.node_id == other.node_id
            and np.array_equal(self.slots, other.slots)
            and np.array_equal(self.cells, other.cells)
        )


# Context keys inside a profile's counts map:
#   ()                    order-0 marginal
#   (slot_of_week,)       order-1
#   (slot_of_week, cell)  order-3
ContextKey = tuple


@dataclass(frozen=True)
class LocationProfile:
    order: int
    version: int
    slot_config: SlotConfig
    counts: dict[ContextKey, dict[CellId, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order not in _ALLOWED_ORDERS:
            raise ValueError(f"order must be one of {_ALLOWED_ORDERS}, got {self.order}")
        if self.version < 0:
            raise ValueError(f"version must be non-negative, got {self.version}")


class ProfileFormatError(ValueError):
    """Malformed serialized profile; offset is the failing byte position."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def _context_level(key: ContextKey) -> int:
    if key == ():
        return 0
    if len(key) == 1:
        return 1
    if len(key) == 2:
        return 3
    raise ValueError(f"bad context key {key!r}")


def _cell_ranks(cells: np.ndarray) -> tuple[list[CellId], np.ndarray]:
    """Distinct cells of an (n, 2) int32 array in (x, y) order, and each
    row's index into them.

    Counting keys are built from these indices, not from coordinates, so
    no int32 coordinate can overflow them.
    """
    pairs = np.ascontiguousarray(cells, dtype=np.int32)
    # One int64 per row, to find the distinct rows; they are then ranked
    # by (x, y).
    distinct, index = np.unique(pairs.view(np.int64).ravel(), return_inverse=True)
    xy = distinct.view(np.int32).reshape(-1, 2)
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return [CellId(x, y) for x, y in xy[order].tolist()], rank[index]


def build_profile(
    trace: ObservationTrace,
    order: int = 1,
    slot_config: SlotConfig | None = None,
) -> LocationProfile:
    """Count context occurrences over a trace; version starts at 1.

    An empty trace yields an empty profile that predicts nothing. The
    order-3 context pairs each observation with the cell of the
    immediately preceding record, so the first record feeds only the
    lower-order contexts. Contexts and their cells are stored in sorted
    order.
    """
    if order not in _ALLOWED_ORDERS:
        raise ValueError(f"order must be one of {_ALLOWED_ORDERS}, got {order}")
    if slot_config is None:
        slot_config = SlotConfig()
    counts: dict[ContextKey, dict[CellId, int]] = {}
    if len(trace) == 0:
        return LocationProfile(order=order, version=1, slot_config=slot_config, counts=counts)

    cells, cell = _cell_ranks(trace.cells)
    n_cells = len(cells)
    cell_ids, cell_counts = np.unique(cell, return_counts=True)
    counts[()] = {
        cells[c]: n for c, n in zip(cell_ids.tolist(), cell_counts.tolist())
    }
    if order >= 1:
        sow = trace.slots % slot_config.slots_per_week
        keys, key_counts = np.unique(sow * n_cells + cell, return_counts=True)
        for key, n in zip(keys.tolist(), key_counts.tolist()):
            s, c = divmod(key, n_cells)
            counts.setdefault((s,), {})[cells[c]] = n
    if order == 3 and len(cell) > 1:
        # Number each (slot of week, previous cell) context first, so the
        # context-and-cell key stays below len(trace) * n_cells.
        contexts, context = np.unique(
            sow[1:] * n_cells + cell[:-1], return_inverse=True
        )
        keys, key_counts = np.unique(context * n_cells + cell[1:], return_counts=True)
        context_keys = [
            (s, cells[c])
            for s, c in (divmod(key, n_cells) for key in contexts.tolist())
        ]
        for key, n in zip(keys.tolist(), key_counts.tolist()):
            ctx, c = divmod(key, n_cells)
            counts.setdefault(context_keys[ctx], {})[cells[c]] = n
    return LocationProfile(order=order, version=1, slot_config=slot_config, counts=counts)


def _ranked(entries: dict[CellId, int]) -> list[tuple[CellId, float]]:
    total = sum(entries.values())
    if total == 0:
        return []
    items = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(cell, count / total) for cell, count in items if count > 0]


def predict(
    profile: LocationProfile,
    slot_index: int,
    prev_cell: CellId | None = None,
) -> list[tuple[CellId, float]]:
    """Ranked (cell, confidence) for a query slot.

    Uses the deepest context with data: (slot, prev) for order-3 when the
    pair was seen, then (slot,), then the marginal. Unknown contexts all
    the way down yield an empty list, never an error.
    """
    sow = profile.slot_config.slot_of_week(slot_index)
    if profile.order == 3 and prev_cell is not None:
        entries = profile.counts.get((sow, prev_cell))
        if entries:
            ranked = _ranked(entries)
            if ranked:
                return ranked
    if profile.order >= 1:
        entries = profile.counts.get((sow,))
        if entries:
            ranked = _ranked(entries)
            if ranked:
                return ranked
    entries = profile.counts.get(())
    if entries:
        return _ranked(entries)
    return []


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
    return [cell for cell, _ in predict(profile, slot_index, prev_cell)[:k]]


# ---------------------------------------------------------------------------
# Binary container
#
# Little-endian throughout:
#   magic "LPRF" | u16 format version (=1) | u8 order | u16 slot duration
#   | u64 profile version | u32 context count
# then per context, sorted by (level, slot, prev cell):
#   u8 level (0|1|3) | [u16 slot] | [i32 prev_x, i32 prev_y]
#   | u32 entry count | entries sorted by cell: i32 x | i32 y | u64 count
# ---------------------------------------------------------------------------

_MAGIC = b"LPRF"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBHQI")
_ENTRY = struct.Struct("<iiQ")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32X2 = struct.Struct("<ii")


def _context_sort_key(key: ContextKey) -> tuple:
    level = _context_level(key)
    if level == 0:
        return (0, 0, 0, 0)
    if level == 1:
        return (1, key[0], 0, 0)
    return (3, key[0], key[1][0], key[1][1])


def serialize_profile(profile: LocationProfile) -> bytes:
    """Byte stream for storage or transfer; deterministic for equal profiles."""
    out = bytearray()
    out += _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        profile.order,
        profile.slot_config.slot_duration,
        profile.version,
        len(profile.counts),
    )
    for key in sorted(profile.counts, key=_context_sort_key):
        level = _context_level(key)
        out += _U8.pack(level)
        if level >= 1:
            out += _U16.pack(key[0])
        if level == 3:
            out += _I32X2.pack(key[1][0], key[1][1])
        entries = profile.counts[key]
        out += _U32.pack(len(entries))
        for cell in sorted(entries):
            out += _ENTRY.pack(cell[0], cell[1], entries[cell])
    return bytes(out)


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


def deserialize_profile(data: bytes) -> LocationProfile:
    """Parse a serialized profile; malformed input raises ProfileFormatError."""
    r = _Reader(data)
    magic, fmt, order, duration, version, n_contexts = r.take(_HEADER, "header")
    if magic != _MAGIC:
        raise ProfileFormatError(f"bad magic {magic!r}", 0)
    if fmt != _FORMAT_VERSION:
        raise ProfileFormatError(f"unsupported format version {fmt}", 4)
    if order not in _ALLOWED_ORDERS:
        raise ProfileFormatError(f"bad order {order}", 6)
    try:
        slot_config = SlotConfig(duration)
    except ValueError as exc:
        raise ProfileFormatError(str(exc), 7) from None

    counts: dict[ContextKey, dict[CellId, int]] = {}
    for _ in range(n_contexts):
        level_pos = r.pos
        (level,) = r.take(_U8, "context level")
        if level not in _ALLOWED_ORDERS:
            raise ProfileFormatError(f"bad context level {level}", level_pos)
        if level > order:
            raise ProfileFormatError(
                f"context level {level} exceeds profile order {order}", level_pos
            )
        key: ContextKey = ()
        if level >= 1:
            slot_pos = r.pos
            (slot,) = r.take(_U16, "context slot")
            if slot >= slot_config.slots_per_week:
                raise ProfileFormatError(f"slot of week {slot} out of range", slot_pos)
            key = (slot,)
        if level == 3:
            px, py = r.take(_I32X2, "context cell")
            key = (key[0], CellId(px, py))
        count_pos = r.pos
        (n_entries,) = r.take(_U32, "entry count")
        remaining = len(r.data) - r.pos
        if n_entries * _ENTRY.size > remaining:
            raise ProfileFormatError(
                f"entry count {n_entries} overruns input", count_pos
            )
        if key in counts:
            raise ProfileFormatError(f"duplicate context {key!r}", level_pos)
        entries: dict[CellId, int] = {}
        for _ in range(n_entries):
            entry_pos = r.pos
            x, y, count = r.take(_ENTRY, "entry")
            cell = CellId(x, y)
            if cell in entries:
                raise ProfileFormatError(
                    f"repeated cell {tuple(cell)} in context {key!r}", entry_pos
                )
            entries[cell] = count
        counts[key] = entries
    if r.pos != len(r.data):
        raise ProfileFormatError("trailing bytes after last context", r.pos)
    return LocationProfile(
        order=order, version=version, slot_config=slot_config, counts=counts
    )


def write_trace_csv(traces: Sequence[ObservationTrace], path: str) -> None:
    """One row per observation: node_id,slot_index,cell_x,cell_y."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "slot_index", "cell_x", "cell_y"])
        for trace in traces:
            writer.writerows(
                zip(
                    repeat(trace.node_id),
                    trace.slots.tolist(),
                    trace.cells[:, 0].tolist(),
                    trace.cells[:, 1].tolist(),
                )
            )


def read_trace_csv(path: str) -> list[ObservationTrace]:
    """Traces grouped by node in file order.

    Every malformed row raises ValueError naming its line: a wrong field
    count, a non-integer, a cell coordinate outside int32, a negative slot,
    a slot that does not follow the node's previous one, or bytes that are
    not UTF-8.
    """
    # Per node: slots and interleaved (x, y), in flat lists; a tuple per
    # row would double the peak memory of reading a large trace.
    grouped: dict[str, tuple[list[int], list[int]]] = {}
    lineno = 0
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if lineno == 1 and row and row[0] == "node_id":
                    continue
                if not row:
                    continue
                slots, cells = grouped.setdefault(row[0], ([], []))
                slot, x, y = _trace_row(row, lineno, slots[-1] if slots else None)
                slots.append(slot)
                cells.extend((x, y))
    except csv.Error as exc:
        raise ValueError(f"line {lineno + 1}: {exc}") from None
    except UnicodeDecodeError:
        # The decoder reads ahead, so find the bad byte in the whole file.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"line {line}: not UTF-8: {exc.reason}") from None
        raise
    return [
        ObservationTrace(
            node,
            np.array(slots, dtype=np.int64),
            np.array(cells, dtype=np.int32).reshape(-1, 2),
        )
        for node, (slots, cells) in grouped.items()
    ]


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
