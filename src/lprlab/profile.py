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
from typing import Iterable, NamedTuple, Sequence

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

    @classmethod
    def from_records(
        cls, node_id: str, records: Iterable[tuple[int, CellId]]
    ) -> "ObservationTrace":
        records = list(records)
        slots = np.array([slot for slot, _ in records], dtype=np.int64)
        cells = np.array(
            [(cell[0], cell[1]) for _, cell in records], dtype=np.int32
        ).reshape(len(records), 2)
        return cls(node_id, slots, cells)

    def __len__(self) -> int:
        return len(self.slots)

    def record(self, i: int) -> tuple[int, CellId]:
        return int(self.slots[i]), CellId(int(self.cells[i, 0]), int(self.cells[i, 1]))

    @property
    def records(self) -> list[tuple[int, CellId]]:
        return [self.record(i) for i in range(len(self))]

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


def build_profile(
    trace: ObservationTrace,
    order: int = 1,
    slot_config: SlotConfig | None = None,
) -> LocationProfile:
    """Count context occurrences over a trace; version starts at 1.

    An empty trace yields an empty profile that predicts nothing. The
    order-3 context pairs each observation with the cell of the
    immediately preceding record, so the first record feeds only the
    lower-order contexts.
    """
    if order not in _ALLOWED_ORDERS:
        raise ValueError(f"order must be one of {_ALLOWED_ORDERS}, got {order}")
    if slot_config is None:
        slot_config = SlotConfig()
    spw = slot_config.slots_per_week

    marginal: dict[CellId, int] = {}
    by_slot: dict[ContextKey, dict[CellId, int]] = {}
    by_slot_prev: dict[ContextKey, dict[CellId, int]] = {}

    slots = trace.slots
    cells = trace.cells
    prev_cell: CellId | None = None
    for i in range(len(slots)):
        cell = CellId(int(cells[i, 0]), int(cells[i, 1]))
        marginal[cell] = marginal.get(cell, 0) + 1
        if order >= 1:
            sow = int(slots[i]) % spw
            entries = by_slot.setdefault((sow,), {})
            entries[cell] = entries.get(cell, 0) + 1
            if order == 3 and prev_cell is not None:
                entries3 = by_slot_prev.setdefault((sow, prev_cell), {})
                entries3[cell] = entries3.get(cell, 0) + 1
        prev_cell = cell

    counts: dict[ContextKey, dict[CellId, int]] = {}
    if marginal:
        counts[()] = marginal
    counts.update(by_slot)
    counts.update(by_slot_prev)
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
            for i in range(len(trace)):
                writer.writerow(
                    [
                        trace.node_id,
                        int(trace.slots[i]),
                        int(trace.cells[i, 0]),
                        int(trace.cells[i, 1]),
                    ]
                )


def read_trace_csv(path: str) -> list[ObservationTrace]:
    """Traces grouped by node in file order; validates per-node slot order."""
    grouped: dict[str, list[tuple[int, int, int]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and row and row[0] == "node_id":
                continue
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields, got {len(row)}")
            try:
                node, slot, x, y = row[0], int(row[1]), int(row[2]), int(row[3])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            grouped.setdefault(node, []).append((slot, x, y))
    traces = []
    for node, rows in grouped.items():
        slots = np.array([r[0] for r in rows], dtype=np.int64)
        cells = np.array([(r[1], r[2]) for r in rows], dtype=np.int32).reshape(
            len(rows), 2
        )
        traces.append(ObservationTrace(node, slots, cells))
    return traces
