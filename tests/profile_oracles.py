"""Row-by-row and entry-by-entry versions of the profile layer's loops.

Each is the code that the array or memoised version in `lprlab.profile`
replaced, kept as the reference its tests compare against: equal results
on good input, the identical message (and byte offset) on bad input. The
loops count in per-context {cell: count} dicts; `profile_from_counts` and
`counts_of` convert between that form and a profile's rank-ordered arrays.
"""

import csv

import numpy as np

from lprlab.analytic import HOURS_PER_WEEK
from lprlab.profile import (
    _ALLOWED_ORDERS,
    _ENTRY,
    _FORMAT_VERSION,
    _HEADER,
    _I32X2,
    _MAGIC,
    _SLOT_MINUTES,
    _U8,
    _U16,
    _U32,
    CellId,
    ObservationTrace,
    ProfileFormatError,
    _context_sort_key,
    _profile,
    _Reader,
    _trace_row,
)


def profile_from_counts(order, version, counts):
    """The profile of per-context {cell: count} dicts, through the
    constructor that build_profile and deserialize_profile use; each
    context key becomes its key-table row by _context_sort_key."""
    keys = np.array([_context_sort_key(key) for key in counts], dtype=np.int32).reshape(-1, 4)
    cells = [cell for entries in counts.values() for cell in entries]
    values = [n for entries in counts.values() for n in entries.values()]
    context = np.repeat(np.arange(len(counts)), [len(entries) for entries in counts.values()])
    return _profile(
        order, version, keys, context,
        np.array(cells, dtype=np.int32).reshape(-1, 2), np.array(values, dtype=np.uint64),
    )


def counts_of(profile):
    """A profile's per-context {cell: count} dicts, the inverse of
    profile_from_counts."""
    return {
        key: {
            CellId(x, y): n
            for (x, y), n in zip(profile.cells[rows].tolist(), profile.counts[rows].tolist())
        }
        for key, rows in profile.contexts.items()
    }


def read_trace_csv_rows(path):
    """read_trace_csv one row at a time, into per-node Python lists."""
    grouped = {}
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


def deserialize_entries(data):
    """deserialize_profile taking one 16-byte entry at a time."""
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

    counts = {}
    for _ in range(n_contexts):
        level_pos = r.pos
        (level,) = r.take(_U8, "context level")
        if level not in _ALLOWED_ORDERS:
            raise ProfileFormatError(f"bad context level {level}", level_pos)
        if level > order:
            raise ProfileFormatError(
                f"context level {level} exceeds profile order {order}", level_pos
            )
        key = ()
        if level >= 1:
            slot_pos = r.pos
            (slot,) = r.take(_U16, "context slot")
            if slot >= HOURS_PER_WEEK:
                raise ProfileFormatError(f"hour of week {slot} out of range", slot_pos)
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
        entries = {}
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
    return profile_from_counts(order, version, counts)


def _ranked(entries):
    total = sum(entries.values())
    if total == 0:
        return []
    items = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(cell, count / total) for cell, count in items if count > 0]


def predict_unmemoised(profile, slot_index, prev_cell=None):
    """predict ranking the context's counts afresh on every call."""
    sow = slot_index % HOURS_PER_WEEK
    counts = counts_of(profile)
    if profile.order == 3 and prev_cell is not None:
        entries = counts.get((sow, prev_cell))
        if entries:
            ranked = _ranked(entries)
            if ranked:
                return ranked
    if profile.order >= 1:
        entries = counts.get((sow,))
        if entries:
            ranked = _ranked(entries)
            if ranked:
                return ranked
    entries = counts.get(())
    if entries:
        return _ranked(entries)
    return []
