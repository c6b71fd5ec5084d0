"""Location profile build/query/serialize tests."""

import csv
import dataclasses
import io
import os
import random
import struct
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lprlab import mobility
from lprlab import profile as profile_module
from lprlab.mobility import MobilityParams, generate_trace
from lprlab.profile import (
    _HEADER,
    CellId,
    LocationProfile,
    ObservationTrace,
    ProfileFormatError,
    _context_sort_key,
    build_profile,
    deserialize_profile,
    predict,
    read_trace_csv,
    serialize_profile,
    top_k,
    write_trace_csv,
)
from profile_oracles import (
    counts_of,
    deserialize_entries,
    predict_unmemoised,
    profile_from_counts,
    read_trace_csv_rows,
)
from trace_records import records_of, trace_from_records

A = CellId(3, 4)
B = CellId(7, 1)
C = CellId(0, 0)


def trace_of(records, node="n0"):
    return trace_from_records(node, records)


class TestTypes:
    def test_slots_are_hours(self):
        # Slots are hours: slot 169 is hour 1 of the second week.
        p = build_profile(trace_of([(1, A), (2, B), (167, C)]), order=1)
        assert predict(p, 169) == [(A, 1.0)]
        assert predict(p, 169 + 168 * 5) == [(A, 1.0)]
        assert predict(p, 335) == [(C, 1.0)]

    def test_slot_duration_is_60_minutes(self):
        # The header's u16 slot duration (byte 7) is always 60 minutes.
        data = serialize_profile(build_profile(trace_of([(1, A)]), order=1))
        assert data[7:9] == (60).to_bytes(2, "little")
        for duration in (0, 10, 11, 1440):
            bad = data[:7] + duration.to_bytes(2, "little") + data[9:]
            with pytest.raises(ProfileFormatError, match="slot duration") as exc:
                deserialize_profile(bad)
            assert exc.value.offset == 7

    def test_trace_requires_increasing_slots(self):
        with pytest.raises(ValueError):
            trace_of([(5, A), (5, B)])
        with pytest.raises(ValueError):
            trace_of([(5, A), (4, B)])

    def test_trace_rejects_bad_shapes_and_negative_slots(self):
        cells = np.zeros((2, 2), dtype=np.int32)
        for slots, bad_cells in (([[1], [2]], cells), ([1, 2], cells[:1]),
                                 ([1, 2], np.zeros((2, 3)))):
            with pytest.raises(ValueError, match=r"slots must be \(n,\), cells must be"):
                ObservationTrace("n0", np.array(slots), bad_cells)
        with pytest.raises(ValueError, match="slot indices must be non-negative"):
            ObservationTrace("n0", np.array([-1, 2]), cells)

    def test_trace_accessors(self):
        t = trace_of([(5, A), (8, B)])
        assert len(t) == 2
        assert t.record(1) == (8, B)
        assert records_of(t) == [(5, A), (8, B)]

    def test_cell_ordering_is_lexicographic(self):
        assert sorted([B, A, C]) == [C, A, B]

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            LocationProfile(order=2, version=1)
        with pytest.raises(ValueError):
            LocationProfile(order=1, version=-1)


class TestBuildAndPredict:
    def test_deterministic_trace(self):
        t = trace_of([(5 + 168 * w, A) for w in range(4)])
        p = build_profile(t, order=1)
        assert predict(p, 5) == [(A, 1.0)]
        assert p.version == 1

    def test_frequency_counting(self):
        t = trace_of([(5, A), (173, A), (341, A), (509, B)])
        p = build_profile(t, order=1)
        assert predict(p, 5) == [(A, 0.75), (B, 0.25)]

    def test_empty_trace_predicts_nothing(self):
        p = build_profile(trace_of([]), order=1)
        assert predict(p, 5) == []
        assert top_k(p, 5, 3) == []

    def test_unseen_slot_escapes_to_marginal(self):
        t = trace_of([(5, A), (6, A), (7, B)])
        p = build_profile(t, order=1)
        got = predict(p, 100)
        assert got[0] == (A, pytest.approx(2 / 3))
        assert got[1] == (B, pytest.approx(1 / 3))

    def test_order0_ignores_slot(self):
        t = trace_of([(5, A), (6, B), (7, B)])
        p = build_profile(t, order=0)
        assert predict(p, 5)[0][0] == B
        assert predict(p, 6) == predict(p, 5)

    def test_confidences_sum_to_one(self):
        rng = random.Random(99)
        records = []
        slot = 0
        for _ in range(500):
            slot += rng.randint(1, 3)
            records.append((slot, CellId(rng.randint(0, 4), rng.randint(0, 4))))
        p = build_profile(trace_of(records), order=3)
        for key in p.contexts:
            slot_q = key[0] if key else 11
            prev = key[1] if len(key) == 2 else None
            ranked = predict(p, slot_q, prev)
            assert sum(conf for _, conf in ranked) == pytest.approx(1.0, abs=1e-12)

    def test_tie_break_lexicographic(self):
        t = trace_of([(1, B), (2, A), (169, A), (170, B)])
        p = build_profile(t, order=0)
        ranked = predict(p, 0)
        assert [cell for cell, _ in ranked] == [A, B]

    def test_order1_beats_order0_on_slot_dependent_trace(self):
        # Morning slot always A, evening slot always B: the marginal is a
        # coin flip, the slot-keyed model is exact.
        records = []
        for week in range(6):
            records.append((9 + 168 * week, A))
            records.append((21 + 168 * week, B))
        t = trace_of(records)
        p0 = build_profile(t, order=0)
        p1 = build_profile(t, order=1)
        hits0 = sum(
            top_k(p0, slot, 1) == [cell] for slot, cell in [(9, A), (21, B)]
        )
        hits1 = sum(
            top_k(p1, slot, 1) == [cell] for slot, cell in [(9, A), (21, B)]
        )
        assert hits1 == 2
        assert hits1 > hits0

    def test_order3_uses_previous_cell(self):
        # At slot 10 the node goes to A after C but to B after A.
        records = []
        base = 0
        for week in range(5):
            records.append((8 + 168 * week, C))
            records.append((10 + 168 * week, A))
        for week in range(5, 8):
            records.append((8 + 168 * week, A))
            records.append((10 + 168 * week, B))
        p = build_profile(trace_of(records), order=3)
        assert predict(p, 10, prev_cell=C) == [(A, 1.0)]
        assert predict(p, 10, prev_cell=A) == [(B, 1.0)]
        # Slot-only view mixes both continuations.
        mixed = dict(predict(p, 10))
        assert mixed[A] == pytest.approx(5 / 8)

    def test_order3_unseen_context_escapes_to_slot(self):
        records = [(8, C), (10, A), (177, C), (345, C)]
        p = build_profile(trace_of(records), order=3)
        assert predict(p, 10, prev_cell=B) == [(A, 1.0)]

    def test_escape_never_used_when_context_seen(self):
        rng = random.Random(7)
        records = []
        slot = 0
        for _ in range(400):
            slot += 1
            records.append((slot, CellId(rng.randint(0, 2), rng.randint(0, 2))))
        p = build_profile(trace_of(records), order=3)
        for key, entries in counts_of(p).items():
            if len(key) != 2:
                continue
            sow, prev = key
            ranked = predict(p, sow, prev)
            expected = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
            assert [cell for cell, _ in ranked] == [cell for cell, _ in expected]

    def test_first_record_has_no_order3_context(self):
        p = build_profile(trace_of([(10, A)]), order=3)
        assert all(len(key) != 2 for key in p.contexts)

    def test_build_rejects_bad_order(self):
        with pytest.raises(ValueError):
            build_profile(trace_of([(1, A)]), order=2)


class TestTopK:
    def test_k1_deterministic(self):
        p = build_profile(trace_of([(5, A), (173, A)]), order=1)
        assert top_k(p, 5, 1) == [A]

    def test_k_exceeds_distinct_cells(self):
        p = build_profile(trace_of([(5, A), (173, B)]), order=1)
        got = top_k(p, 5, 10)
        assert sorted(got) == sorted([A, B])
        assert len(got) == 2

    def test_prefix_of_predict(self):
        rng = random.Random(31)
        records = []
        slot = 0
        for _ in range(300):
            slot += rng.randint(1, 2)
            records.append((slot, CellId(rng.randint(0, 5), rng.randint(0, 5))))
        p = build_profile(trace_of(records), order=1)
        for q in (3, 17, 90):
            full = [cell for cell, _ in predict(p, q)]
            for k in range(len(full) + 2):
                assert top_k(p, q, k) == full[:k]

    def test_negative_k_rejected(self):
        p = build_profile(trace_of([(5, A)]), order=1)
        with pytest.raises(ValueError):
            top_k(p, 5, -1)


def _context_bytes(key, entries):
    """One context of a serialized profile, its entries in the given order."""
    out = bytes([(0, 1, 3)[len(key)]])
    if key:
        out += struct.pack("<H", key[0])
    if len(key) == 2:
        out += struct.pack("<ii", *key[1])
    out += struct.pack("<I", len(entries))
    return out + b"".join(struct.pack("<iiQ", x, y, n) for (x, y), n in entries)


class TestSerialization:
    def random_profile(self, seed, order=3):
        rng = random.Random(seed)
        records = []
        slot = 0
        for _ in range(rng.randint(1, 600)):
            slot += rng.randint(1, 4)
            records.append((slot, CellId(rng.randint(-3, 40), rng.randint(0, 40))))
        return build_profile(trace_of(records), order=order)

    def test_round_trip_random_profiles(self):
        for seed in range(20):
            p = self.random_profile(seed, order=random.Random(seed).choice([0, 1, 3]))
            assert deserialize_profile(serialize_profile(p)) == p

    def test_round_trip_preserves_predictions(self):
        p = self.random_profile(4242)
        q = deserialize_profile(serialize_profile(p))
        for slot in range(0, 168, 7):
            assert predict(q, slot) == predict(p, slot)

    def test_empty_profile_minimal_stream(self):
        p = build_profile(trace_of([]), order=0)
        data = serialize_profile(p)
        assert len(data) == 21  # header only
        assert deserialize_profile(data) == p

    def test_deterministic_bytes(self):
        p = self.random_profile(7)
        assert serialize_profile(p) == serialize_profile(p)

    @pytest.mark.parametrize("key", [(1, A, 2), (1, A, 2, 3)])
    def test_malformed_context_key_rejected(self, key):
        with pytest.raises(ValueError, match="bad context key"):
            serialize_profile(profile_from_counts(3, 0, {(): {A: 1}, key: {B: 2}}))

    def test_bad_magic(self):
        data = bytearray(serialize_profile(self.random_profile(1)))
        data[0] = ord("X")
        with pytest.raises(ProfileFormatError) as exc:
            deserialize_profile(bytes(data))
        assert exc.value.offset == 0

    def test_truncated_header(self):
        with pytest.raises(ProfileFormatError):
            deserialize_profile(b"LPRF\x01")

    def test_corrupted_entry_count(self):
        p = build_profile(trace_of([(5, A), (173, B)]), order=0)
        data = bytearray(serialize_profile(p))
        # Entry count sits right after the header and the level byte.
        count_offset = 21 + 1
        data[count_offset : count_offset + 4] = (10**6).to_bytes(4, "little")
        with pytest.raises(ProfileFormatError) as exc:
            deserialize_profile(bytes(data))
        assert exc.value.offset == count_offset

    def test_truncated_tail(self):
        data = serialize_profile(self.random_profile(3))
        with pytest.raises(ProfileFormatError):
            deserialize_profile(data[:-5])

    def test_trailing_garbage(self):
        data = serialize_profile(self.random_profile(3))
        with pytest.raises(ProfileFormatError):
            deserialize_profile(data + b"\x00")

    def test_unsupported_format_version(self):
        data = bytearray(serialize_profile(self.random_profile(2)))
        data[4:6] = (9).to_bytes(2, "little")
        with pytest.raises(ProfileFormatError) as exc:
            deserialize_profile(bytes(data))
        assert exc.value.offset == 4

    def test_bad_order(self):
        data = bytearray(serialize_profile(self.random_profile(1)))
        data[6] = 2  # the header's order byte; orders are 0, 1 and 3
        with pytest.raises(ProfileFormatError, match="bad order 2") as exc:
            deserialize_profile(bytes(data))
        assert exc.value.offset == 6

    def test_context_level_above_profile_order(self):
        p = build_profile(trace_of([(5, A)]), order=0)
        data = bytearray(serialize_profile(p))
        data[21] = 1  # the level byte of the only context, after the header
        with pytest.raises(ProfileFormatError,
                           match="context level 1 exceeds profile order 0") as exc:
            deserialize_profile(bytes(data))
        assert exc.value.offset == 21

    def test_repeated_cell_in_context(self):
        p = build_profile(trace_of([(5, A), (173, B)]), order=0)
        data = bytearray(serialize_profile(p))
        # Header, level byte and entry count, then two 16-byte entries;
        # the second entry takes the first one's cell.
        first, second = 21 + 1 + 4, 21 + 1 + 4 + 16
        data[second : second + 8] = data[first : first + 8]
        with pytest.raises(ProfileFormatError, match="repeated cell") as exc:
            deserialize_profile(bytes(data))
        assert exc.value.offset == second

    def test_out_of_order_file_reads_as_sorted(self):
        # Contexts, and each context's entries, shuffled: the same profile,
        # which writes the sorted bytes back.
        for seed in range(10):
            p = self.random_profile(seed)
            canonical = serialize_profile(p)
            contexts = [(key, list(entries.items())) for key, entries in counts_of(p).items()]
            rng = random.Random(seed)
            rng.shuffle(contexts)
            for _, entries in contexts:
                rng.shuffle(entries)
            data = canonical[:21] + b"".join(_context_bytes(*c) for c in contexts)
            assert len(data) == len(canonical)
            assert data != canonical or len(contexts) < 3
            assert deserialize_profile(data) == p == deserialize_entries(data)
            assert serialize_profile(deserialize_profile(data)) == canonical

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        order=st.sampled_from([0, 1, 3]),
        cut=st.none() | st.integers(0, 10**6),
        flips=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4
        ),
    )
    def test_mutated_bytes_raise_only_format_errors(self, seed, order, cut, flips):
        data = bytearray(serialize_profile(self.random_profile(seed, order=order)))
        if cut is not None:
            del data[cut % (len(data) + 1) :]
        for pos, mask in flips:
            if data:
                data[pos % len(data)] ^= mask
        try:
            expected = deserialize_entries(bytes(data))
        except ProfileFormatError as exc:
            with pytest.raises(ProfileFormatError) as got:
                deserialize_profile(bytes(data))
            assert str(got.value) == str(exc)
            assert got.value.offset == exc.offset
            return
        p = deserialize_profile(bytes(data))
        assert p == expected
        assert deserialize_profile(serialize_profile(p)) == p

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        copies=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(1, 6)), min_size=1, max_size=3
        ),
    )
    def test_repeated_cells_match_entry_by_entry_reader(self, seed, copies):
        # 8 bytes copied 16*k bytes further on: where both are cells of one
        # context, the cell repeats, and the block reader must report the
        # first repeat at the oracle's offset.
        data = bytearray(serialize_profile(self.random_profile(seed)))
        for pos, stride in copies:
            first = 21 + pos % max(1, len(data) - 21)
            second = first + 16 * stride
            if second + 8 <= len(data):
                data[second : second + 8] = data[first : first + 8]
        try:
            expected = deserialize_entries(bytes(data))
        except ProfileFormatError as exc:
            with pytest.raises(ProfileFormatError) as got:
                deserialize_profile(bytes(data))
            assert (str(got.value), got.value.offset) == (str(exc), exc.offset)
            return
        assert deserialize_profile(bytes(data)) == expected


    # Each file below holds two errors; the one an entry-by-entry reader
    # meets first is raised, with its message and offset. The tail bytes
    # follow the counted contexts.
    @pytest.mark.parametrize("contexts, tail, message, offset", [
        # A repeated cell in an earlier context beats a later truncated header.
        ([_context_bytes((), [(A, 1), (A, 2)]), b"\x01\x05"], b"",
         "repeated cell (3, 4) in context ()", 21 + 5 + 16),
        # A duplicate context beats a later bad hour.
        ([_context_bytes((5,), [(A, 1)]), _context_bytes((5,), [(B, 1)]),
          _context_bytes((200,), [(A, 1)])], b"", "duplicate context (5,)", 21 + 23),
        # A bad hour beats an overrun entry count in the same context.
        ([struct.pack("<BHI", 1, 170, 1000)], b"", "hour of week 170 out of range", 22),
        ([struct.pack("<BHiiI", 3, 170, 0, 0, 1000)], b"", "hour of week 170 out of range", 22),
        # A repeated cell beats trailing bytes.
        ([_context_bytes((6, B), [(B, 1), (A, 2), (B, 3)])], b"\x00",
         "repeated cell (7, 1) in context (6, CellId(x=7, y=1))", 21 + 15 + 32),
    ], ids=["repeat-before-cut-header", "duplicate-before-bad-hour", "bad-hour-before-overrun",
            "order3-bad-hour-before-overrun", "repeat-before-trailing-bytes"])
    def test_first_of_two_errors_matches_entry_by_entry_reader(self, contexts, tail, message,
                                                               offset):
        data = _HEADER.pack(b"LPRF", 1, 3, 60, 1, len(contexts)) + b"".join(contexts) + tail
        for read in (deserialize_entries, deserialize_profile):
            with pytest.raises(ProfileFormatError) as got:
                read(data)
            assert (str(got.value), got.value.offset) == (f"{message} (at byte {offset})", offset)


# Counts whose context totals pass 2**64 (a uint64 sum wraps), zeros, and
# 2**53 + 1 beside 2**64 - 1, whose quotient float division gets wrong.
_WIDE_COUNTS = st.sampled_from([0, 1, 2, 2**53 + 1, 2**63, 2**64 - 2, 2**64 - 1])


class TestWideCounts:
    COUNTS = {
        (): {A: 2**53 + 1, B: 2**64 - 1, C: 0},
        (5,): {C: 0},
        (6,): {B: 2**64 - 1, A: 2**64 - 1, C: 1},
        (6, A): {A: 0, B: 0},
        (6, B): {C: 2**64 - 1, A: 0},
    }

    def test_exact_confidences(self):
        p = profile_from_counts(3, 7, self.COUNTS)
        total = 2**64 + 2**53
        assert predict(p, 0) == [(B, (2**64 - 1) / total), (A, (2**53 + 1) / total)]
        assert predict(p, 0)[1][1] != float(2**53 + 1) / float(total)
        assert predict(p, 5) == predict(p, 0)  # all-zero context escapes
        assert predict(p, 6, A) == predict(p, 6)
        assert predict(p, 6, B) == [(C, 1.0)]
        assert predict(p, 6) == [(A, (2**64 - 1) / (2**65 - 1)),
                                 (B, (2**64 - 1) / (2**65 - 1)), (C, 1 / (2**65 - 1))]
        data = serialize_profile(p)
        assert deserialize_profile(data) == p == deserialize_entries(data)
        assert serialize_profile(deserialize_profile(data)) == data

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.dictionaries(
            st.sampled_from([(), (5,), (6,), (5, A), (6, B), (6, C)]),
            st.dictionaries(st.sampled_from([A, B, C, CellId(-1, 5)]), _WIDE_COUNTS),
        )
    )
    def test_predict_and_bytes_match_the_oracles(self, counts):
        p = profile_from_counts(3, 1, counts)
        assert counts_of(p) == counts
        for slot in (5, 6, 7):
            for prev in (None, A, B, C):
                assert predict(p, slot, prev) == predict_unmemoised(p, slot, prev)
        data = serialize_profile(p)
        assert deserialize_profile(data) == p == deserialize_entries(data)
        assert serialize_profile(deserialize_profile(data)) == data


# Numbers, and text that numpy's reader and int() might read apart: signs,
# whitespace (int() takes \x1c-\x1f as no space, numpy's reader does),
# separators, non-ASCII digits, NUL and '#', and 19-digit and edge values.
_csv_numbers = st.sampled_from(
    ["-1", "0", "4", "10", "x", "", "1.5", "99999999999"]
    + ["+4", "-0", "- 5", "+-1", "1_0", "\u0661", "\uff11", "\U0009c6ca", "\x004", "4\x00",
       "#4", "4#", "0000000000000000007", "1000000000000000000", "-999999999999999999"]
    + [str(v) for b in (31, 63) for v in (2**b - 1, 2**b, -(2**b), -(2**b) - 1)]
) | st.tuples(*[st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x1f", "\x85", "\xa0", "\u3000"])] * 2).map("{0[0]}12{0[1]}".format)
# Rows of four fields, whose numbers may be out of order or out of range,
# and rows of any field count.
_csv_lines = st.one_of(
    st.tuples(st.sampled_from(["u0", "u1", "u9", " u0", "u\x00", "#u"]),
              *[_csv_numbers] * 3).map(",".join),
    st.lists(_csv_numbers | st.sampled_from(["u0", '"', "\r"]), max_size=6).map(
        ",".join
    ),
)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        t1 = trace_of([(5, A), (8, B), (200, C)], node="alpha")
        t2 = trace_of([(1, C)], node="beta")
        path = tmp_path / "traces.csv"
        write_trace_csv([t1, t2], str(path))
        back = read_trace_csv(str(path))
        assert back == [t1, t2]

    def test_header_present(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv([trace_of([(5, A)])], str(path))
        first = path.read_text().splitlines()[0]
        assert first == "node_id,slot_index,cell_x,cell_y"

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node_id,slot_index,cell_x,cell_y\nn0,1,2\n")
        with pytest.raises(ValueError):
            read_trace_csv(str(path))

    def test_rejects_non_integer(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n0,1,2,x\n")
        with pytest.raises(ValueError):
            read_trace_csv(str(path))

    def test_rejects_out_of_order_slots(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n0,5,1,1\nn0,5,2,2\n")
        with pytest.raises(ValueError):
            read_trace_csv(str(path))

    def test_write_matches_row_by_row_writer(self, tmp_path):
        traces = [
            trace_of([(5, A), (8, CellId(-(2**31), 2**31 - 1)), (2**40, C)], node="a,b"),
            trace_of([], node="empty"),
            trace_of([(1, C)], node="beta"),
            trace_of([(2, A), (3, B)], node="100%d %s%%"),
            trace_of([(4, B)], node='say "hi"'),
            trace_of([(5, C), (6, A)], node="two\nlines"),
            trace_of([(7, A)], node=""),
        ]
        path = tmp_path / "t.csv"
        write_trace_csv(traces, str(path))
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["node_id", "slot_index", "cell_x", "cell_y"])
        for trace in traces:
            for slot, (x, y) in records_of(trace):
                writer.writerow([trace.node_id, slot, x, y])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("u1,1,99999999999,2", "line 3: cell_x 99999999999 is outside int32"),
            ("u1,1,2,-2147483649", "line 3: cell_y -2147483649 is outside int32"),
            ("u1,-1,2,2", "line 3: slot index -1 is outside"),
            ("u1,9223372036854775808,2,2", "line 3: slot index 9223372036854775808 is"),
            ("u0,5,2,2", "line 3: slot 5 of u0 does not follow its slot 7"),
            ("u0,7,2,2", "line 3: slot 7 of u0 does not follow its slot 7"),
        ],
    )
    def test_rejected_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"node_id,slot_index,cell_x,cell_y\nu0,7,1,1\n{row}\nu2,1,1,1\n")
        with pytest.raises(ValueError) as exc:
            read_trace_csv(str(path))
        assert str(exc.value).startswith(message)

    def test_non_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = b"".join(b"u0,%d,1,1\n" % slot for slot in range(3000))
        path.write_bytes(b"node_id,slot_index,cell_x,cell_y\n" + rows + b"u\xff,1,1,1\n")
        with pytest.raises(ValueError, match="^line 3002: not UTF-8"):
            read_trace_csv(str(path))

    @settings(max_examples=300, deadline=None)
    @given(
        cut=st.none() | st.integers(0, 10**6),
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
        inserts=st.lists(st.tuples(st.integers(0, 10**6), _csv_lines), max_size=3),
        chunk=st.sampled_from([1, 2, 3, 4096]),
    )
    def test_mutated_csv_raises_only_located_value_errors(
        self, tmp_path_factory, cut, flips, inserts, chunk
    ):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_trace_csv(
            [trace_of([(1, A), (5, B), (9, C)], node="u0"),
             trace_of([(2, C), (3, CellId(-5, 2**31 - 1))], node="u1")],
            str(path),
        )
        data = bytearray(path.read_bytes())
        for pos, text in inserts:
            lines = data.split(b"\n")
            lines.insert(pos % (len(lines) + 1), text.encode("utf-8"))
            data = bytearray(b"\n".join(lines))
        if cut is not None:
            del data[cut % (len(data) + 1) :]
        for pos, mask in flips:
            if data:
                data[pos % len(data)] ^= mask
        path.write_bytes(bytes(data))
        try:
            expected = read_trace_csv_rows(str(path))
        except ValueError as exc:
            assert str(exc).startswith("line "), exc
            with mock.patch.object(profile_module, "_CSV_CHUNK", chunk):
                with pytest.raises(ValueError) as got:
                    read_trace_csv(str(path))
            assert str(got.value) == str(exc)
            return
        with mock.patch.object(profile_module, "_CSV_CHUNK", chunk):
            traces = read_trace_csv(str(path))
        assert traces == expected
        for trace in traces:
            assert np.all(np.diff(trace.slots) > 0) and np.all(trace.slots >= 0)

    @staticmethod
    def _interleaved_rows(n_rows):
        """Rows of three nodes taking turns, as the writer would emit them."""
        return [f"u{i % 3},{i // 3 * 2 + 1},{i % 7 - 3},{i % 5}" for i in range(n_rows)]

    def test_chunked_read_matches_row_by_row_reader(self, tmp_path):
        # Three chunks and a part, nodes interleaved, with a blank line and
        # a quoted node id spanning two lines in the second chunk.
        rows = self._interleaved_rows(3 * 4096 + 100)
        rows[5000] = ""
        rows[6000] = '"u\n9",1,2,3'
        path = tmp_path / "long.csv"
        path.write_text("node_id,slot_index,cell_x,cell_y\n" + "\n".join(rows) + "\n")
        got = read_trace_csv(str(path))
        assert got == read_trace_csv_rows(str(path))
        assert [t.node_id for t in got] == ["u0", "u1", "u2", "u\n9"]
        assert sum(len(t) for t in got) == len(rows) - 1

    def test_repeat_across_the_real_chunk_boundary_names_its_line(self, tmp_path):
        # Lines 1-4096 (the header and 4095 rows) are the first chunk. u1's
        # last row in it is line 4095, slot 2729; line 4098 repeats that slot.
        assert profile_module._CSV_CHUNK == 4096
        rows = self._interleaved_rows(4096 + 100)
        assert rows[4093].startswith("u1,2729,") and rows[4096].startswith("u1,")
        rows[4096] = "u1,2729,9,9"
        path = tmp_path / "long.csv"
        path.write_text("node_id,slot_index,cell_x,cell_y\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as exc:
            read_trace_csv(str(path))
        assert str(exc.value).startswith(
            "line 4098: slot 2729 of u1 does not follow its slot 2729;"
        )
        with pytest.raises(ValueError) as oracle:
            read_trace_csv_rows(str(path))
        assert str(exc.value) == str(oracle.value)

    def test_blank_rows_at_a_real_chunk_start_read_like_the_row_reader(self, tmp_path):
        # Lines 4097 and 8193 open the second and third chunks.
        assert profile_module._CSV_CHUNK == 4096
        rows = self._interleaved_rows(2 * 4096 + 100)
        for index in (10, 4095, 4096 + 4095, 4096 + 4096):
            rows[index] = ""
        path = tmp_path / "long.csv"
        path.write_text("node_id,slot_index,cell_x,cell_y\n" + "\n".join(rows) + "\n")
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines[4096] == [] and lines[8192] == []
        got = read_trace_csv(str(path))
        assert got == read_trace_csv_rows(str(path))
        assert sum(len(t) for t in got) == len(rows) - 4

    @pytest.mark.parametrize(
        "row, message",
        [
            ("u1,1,2,2", "slot 1 of u1 does not follow its slot"),
            ("u2,99999999,2,x", "invalid literal for int()"),
            ("u0,99999999,2,2147483648", "cell_y 2147483648 is outside int32"),
            ("u0,99999999,2", "expected 4 fields, got 3"),
        ],
    )
    def test_fault_in_a_later_chunk_names_its_line(self, tmp_path, row, message):
        rows = self._interleaved_rows(2 * 4096 + 1000)
        rows[9000] = row
        path = tmp_path / "long.csv"
        path.write_text("node_id,slot_index,cell_x,cell_y\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as exc:
            read_trace_csv(str(path))
        assert str(exc.value).startswith(f"line 9002: {message}")
        with pytest.raises(ValueError) as oracle:
            read_trace_csv_rows(str(path))
        assert str(exc.value) == str(oracle.value)

    @pytest.mark.parametrize("bad_index", [None, 4096 + 10])
    def test_csv_error_is_reported_after_earlier_rows_of_its_chunk(self, tmp_path, bad_index):
        # The reader stops mid-chunk on a field over the csv module's size
        # limit; a bad row before it in the same chunk is still the error.
        rows = self._interleaved_rows(4096 + 200)
        rows[4096 + 150] = "u0," + "9" * 200_000 + ",1,1"
        if bad_index is not None:
            rows[bad_index] = "u1,1,1,1"
        path = tmp_path / "long.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError) as exc:
            read_trace_csv(str(path))
        with pytest.raises(ValueError) as oracle:
            read_trace_csv_rows(str(path))
        assert str(exc.value) == str(oracle.value)
        expected = (
            "line 4247: field larger than field limit" if bad_index is None
            else f"line {bad_index + 1}: slot 1 of u1 does not follow"
        )
        assert str(exc.value).startswith(expected)

    def test_header_only_and_empty_files(self, tmp_path):
        # numpy's reader warns on input without rows; no warning reaches a caller.
        path = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # A quote the header opens takes in the lines after it.
            for text in ("", "node_id,slot_index,cell_x,cell_y\n", "\n\n",
                         'node_id,"slot_index\nu0,1,2,3\n'):
                path.write_text(text)
                assert read_trace_csv(str(path)) == []
            path.write_text("\n" * (profile_module._CSV_CHUNK + 1) + "u0,1,2,3\n")
            got = read_trace_csv(str(path))
        assert got == read_trace_csv_rows(str(path)) == [trace_of([(1, CellId(2, 3))], "u0")]

    def test_generated_traces_are_read_without_csv_reader(self, tmp_path):
        # A chunk and a part of quote-free ASCII lines (5,041): numpy's
        # reader takes them all.
        generated = generate_trace(MobilityParams(n_users=3, n_weeks=10, seed=5))
        path = tmp_path / "t.csv"
        write_trace_csv(generated, str(path))
        with mock.patch.object(profile_module.csv, "reader", side_effect=AssertionError):
            assert read_trace_csv(str(path)) == generated
        # A quoted node id in a later chunk hands it and the rest to csv.reader.
        quoted = [trace_of([(1, A), (4, B)], "u0"), trace_of([(2, C), (3, A)], "u1"),
                  trace_of([(5, B)], "a,b"), trace_of([(6, A)], 'say "hi"'),
                  trace_of([(7, C), (9, B)], "u0 again")]
        write_trace_csv(quoted, str(path))
        with mock.patch.object(profile_module, "_CSV_CHUNK", 3):
            assert read_trace_csv(str(path)) == read_trace_csv_rows(str(path)) == quoted

    @pytest.mark.parametrize(
        "number, slot",
        [("\x1c4", None), ("4\x1f", None), ("\U0009c6ca", None), ("\u06614", 14), ("1_0", 10)],
    )
    def test_numbers_numpy_reads_unlike_int_are_read_by_int(self, tmp_path, number, slot):
        # numpy's reader takes \x1c-\x1f as whitespace, crashed on U+9C6CA
        # in a number field, and refuses non-ASCII digits and '_'; such a
        # chunk goes to csv.reader and int().
        path = tmp_path / "t.csv"
        path.write_text(f"node_id,slot_index,cell_x,cell_y\nu0,1,1,1\nu0,{number},1,1\n",
                        encoding="utf-8")
        if slot is None:
            with pytest.raises(ValueError, match=r"^line 3: invalid literal for int\(\)"):
                read_trace_csv(str(path))
        else:
            cell = CellId(1, 1)
            assert read_trace_csv(str(path)) == [trace_of([(1, cell), (slot, cell)], "u0")]


def _loop_build_profile(trace, order=1):
    """build_profile as a per-record loop over dicts: test oracle for the
    array-counted version."""
    return profile_from_counts(order, 1, _loop_counts(trace, order))


def _loop_counts(trace, order):
    """The per-context {cell: count} dicts that _loop_build_profile counts."""
    marginal, by_slot, by_slot_prev = {}, {}, {}
    prev_cell = None
    for i in range(len(trace.slots)):
        cell = CellId(int(trace.cells[i, 0]), int(trace.cells[i, 1]))
        marginal[cell] = marginal.get(cell, 0) + 1
        if order >= 1:
            sow = int(trace.slots[i]) % 168
            entries = by_slot.setdefault((sow,), {})
            entries[cell] = entries.get(cell, 0) + 1
            if order == 3 and prev_cell is not None:
                entries3 = by_slot_prev.setdefault((sow, prev_cell), {})
                entries3[cell] = entries3.get(cell, 0) + 1
        prev_cell = cell
    counts = {(): marginal} if marginal else {}
    counts.update(by_slot)
    counts.update(by_slot_prev)
    return counts


_INT32 = st.integers(-(2**31), 2**31 - 1)


@st.composite
def _traces(draw, max_size=40):
    """Traces with few distinct cells (so counts and ties pile up), drawn
    from a small neighbourhood or from the whole int32 range."""
    coordinate = draw(st.sampled_from([st.integers(-2, 2), _INT32]))
    palette = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6))
    gaps = draw(st.lists(st.integers(1, 3000), max_size=max_size))
    first = draw(st.integers(0, 10**9))
    records = []
    slot = first
    for gap in gaps:
        records.append((slot, CellId(*draw(st.sampled_from(palette)))))
        slot += gap
    return trace_of(records)


class TestArrayCountedProfile:
    @settings(max_examples=300, deadline=None)
    @given(trace=_traces(), order=st.sampled_from([0, 1, 3]))
    def test_matches_loop(self, trace, order):
        got = build_profile(trace, order=order)
        expected = _loop_build_profile(trace, order)
        assert got == expected
        assert serialize_profile(got) == serialize_profile(expected)

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_empty_and_single_record(self, order):
        for records in ([], [(7, CellId(-(2**31), 2**31 - 1))]):
            trace = trace_of(records)
            got = build_profile(trace, order=order)
            expected = _loop_build_profile(trace, order)
            assert got == expected
            assert serialize_profile(got) == serialize_profile(expected)


def _assert_key_table(profile, counts):
    """The profile's key table, row ends and derived contexts hold the
    per-context counts, in serialization order."""
    order = sorted(counts, key=_context_sort_key)
    rows = [_context_sort_key(key) for key in order]
    assert profile.keys.dtype == np.int32 and profile.keys.shape == (len(rows), 4)
    table = [tuple(row) for row in profile.keys.tolist()]
    assert table == rows and all(a < b for a, b in zip(table, table[1:]))  # strictly rising
    lengths = [len(counts[key]) for key in order]
    assert np.diff(profile.ends, prepend=0).tolist() == lengths
    assert len(profile.cells) == len(profile.counts) == sum(lengths)
    assert list(profile.contexts) == order
    assert list(profile.contexts.values()) == [
        slice(end - n, end) for n, end in zip(lengths, profile.ends.tolist())]
    assert counts_of(profile) == counts


class TestKeyTable:
    @settings(max_examples=200, deadline=None)
    @given(trace=_traces(), order=st.sampled_from([0, 1, 3]))
    def test_built_and_read_profiles_hold_the_counts(self, trace, order):
        counts = _loop_counts(trace, order)
        for p in (build_profile(trace, order=order),
                  deserialize_profile(serialize_profile(build_profile(trace, order=order))),
                  profile_from_counts(order, 1, counts)):
            _assert_key_table(p, counts)

    @settings(max_examples=100, deadline=None)
    @given(counts=st.dictionaries(
        st.sampled_from([(), (0,), (5,), (167,), (5, A), (5, CellId(-(2**31), 2**31 - 1)),
                         (6, B), (0, CellId(-1, 0)), (0, CellId(0, -1))]),
        st.dictionaries(st.sampled_from([A, B, C, CellId(-1, 5)]), _WIDE_COUNTS, min_size=1),
    ))
    def test_contexts_of_any_key_set(self, counts):
        p = profile_from_counts(3, 1, counts)
        _assert_key_table(p, counts)
        _assert_key_table(deserialize_profile(serialize_profile(p)), counts)

    def test_only_a_queried_profile_builds_its_contexts(self):
        traces = generate_trace(MobilityParams(n_users=2, n_weeks=2))
        built = [build_profile(traces[0], order=order) for order in (0, 1, 3)]
        read = [deserialize_profile(serialize_profile(p)) for p in built]
        assert built == read
        statistics = []  # the profiles the mobility statistics build

        def build_and_keep(*args, **kwargs):
            statistics.append(build_profile(*args, **kwargs))
            return statistics[-1]

        with mock.patch.object(mobility, "build_profile", build_and_keep):
            mobility.empirical_regularity(traces)
            mobility.empirical_success_after_k(traces, 3)
        assert len(statistics) == 2 * len(traces)
        for p in built + read + statistics:
            assert p._contexts == {} and p._rankings == {}
        top_k(read[2], 5, 2, CellId(*traces[0].cells[0].tolist()))
        assert len(read[2]._contexts) == len(read[2].keys) > 0
        assert all(p._contexts == {} for p in built + read[:2] + statistics)


class TestPredictMemo:
    def profile(self):
        records = [(s, [A, B, C][s * 7 % 3]) for s in range(1, 400, 2)]
        return build_profile(trace_of(records), order=3)

    def test_mutating_an_answer_leaves_the_next_one(self):
        p = self.profile()
        first = predict(p, 9, A)
        expected = list(first)
        first.clear()
        again = predict(p, 9, A)
        again.append((C, 9.9))
        assert predict(p, 9, A) == expected == predict_unmemoised(p, 9, A)
        assert top_k(p, 9, 2, A) == [cell for cell, _ in expected[:2]]

    def test_equality_repr_and_bytes_ignore_the_memo(self):
        queried, fresh = self.profile(), self.profile()
        for slot in range(0, 168, 5):
            predict(queried, slot, B)
        assert queried._rankings and not fresh._rankings
        assert queried == fresh
        assert repr(queried) == repr(fresh)
        assert queried._contexts and not fresh._contexts
        assert "_rankings" not in repr(queried) and "_contexts" not in repr(queried)
        assert serialize_profile(queried) == serialize_profile(fresh)

    def test_replace_starts_with_an_empty_memo(self):
        p = self.profile()
        assert predict(p, 5) == predict_unmemoised(p, 5)
        other = profile_from_counts(3, 1, {(): {C: 1}, (5,): {B: 2, A: 1}})
        assert p.contexts
        q = dataclasses.replace(
            p, keys=other.keys, ends=other.ends, cells=other.cells, counts=other.counts
        )
        assert q._rankings == {} and q._contexts == {}
        assert predict(q, 5) == [(B, 2 / 3), (A, 1 / 3)]
        assert predict(q, 6) == [(C, 1.0)]
        for memo in ("_rankings", "_contexts"):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(p, **{memo: {}})

    @settings(max_examples=200, deadline=None)
    @given(
        trace=_traces(max_size=60),
        order=st.sampled_from([0, 1, 3]),
        queries=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.none() | st.integers(0, 5),
                st.integers(0, 8),
            ),
            max_size=40,
        ),
    )
    def test_query_sequence_matches_unmemoised_predict(self, trace, order, queries):
        p = build_profile(trace, order=order)
        # Previous cells from the trace itself, so order-3 contexts hit.
        cells = [CellId(int(x), int(y)) for x, y in trace.cells.tolist()] or [A]
        for slot, prev, k in queries:
            prev_cell = None if prev is None else cells[prev % len(cells)]
            expected = predict_unmemoised(p, slot, prev_cell)
            assert predict(p, slot, prev_cell) == expected
            assert top_k(p, slot, k, prev_cell) == [cell for cell, _ in expected[:k]]


def test_statistics_leave_numpy_ma_unimported():
    # A bare np.unique (one without return_counts or return_inverse)
    # imports numpy.ma, about 1.3 MiB of peak memory, to check for masked
    # input.
    code = (
        "import sys\n"
        "from lprlab import mobility, profile\n"
        "traces = mobility.generate_trace(mobility.MobilityParams(n_users=2, n_weeks=2))\n"
        "for order in (0, 1, 3):\n"
        "    profile.build_profile(traces[0], order=order)\n"
        "mobility.empirical_success_after_k(traces, 3)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
