"""Build and read observation traces as (slot, cell) record lists.

Tests state their traces as short record lists; the library itself works
on the traces' flat arrays.
"""

import numpy as np

from lprlab.profile import ObservationTrace


def trace_from_records(node_id, records):
    """ObservationTrace of (slot_index, (x, y)) records."""
    records = list(records)
    slots = np.array([slot for slot, _ in records], dtype=np.int64)
    cells = np.array(
        [(cell[0], cell[1]) for _, cell in records], dtype=np.int32
    ).reshape(len(records), 2)
    return ObservationTrace(node_id, slots, cells)


def records_of(trace):
    """The trace's (slot_index, CellId) records, in order."""
    return [trace.record(i) for i in range(len(trace))]
