"""Trace generator and empirical-measurement tests.

The heavier checks compare generated-trace statistics against the
closed-form models; sample sizes are chosen so sampling noise sits well
inside the asserted tolerances.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lprlab.analytic import (
    first_order_cdf,
    regularity,
    sequential_hit_pmf,
)
from lprlab.mobility import (
    GRID_SIDE,
    HOME_CELLS,
    UNPREDICTABLE_FLOOR,
    MobilityParams,
    empirical_regularity,
    empirical_success_after_k,
    generate_trace,
)
from lprlab.profile import (
    CellId,
    ObservationTrace,
    build_profile,
    read_trace_csv,
    top_k,
    write_trace_csv,
)
from trace_records import trace_from_records


def _rank_frequencies(traces, n_ranks):
    """Visit counts by per-user frequency rank, summed across users."""
    pooled = np.zeros(n_ranks, dtype=np.int64)
    for trace in traces:
        flat = trace.cells[:, 0].astype(np.int64) * (2**21) + trace.cells[:, 1]
        counts = np.sort(np.unique(flat, return_counts=True)[1])[::-1][:n_ranks]
        pooled[: len(counts)] += counts
    return pooled


class TestParams:
    def test_defaults(self):
        p = MobilityParams()
        assert (p.n_users, p.n_weeks, p.seed) == (40, 6, 0)
        assert HOME_CELLS == 40
        assert UNPREDICTABLE_FLOOR == 0.07
        assert GRID_SIDE == 50

    def test_validation(self):
        with pytest.raises(ValueError, match="n_users must be >= 1"):
            MobilityParams(n_users=0)
        with pytest.raises(ValueError, match="n_weeks must be >= 1"):
            MobilityParams(n_weeks=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            MobilityParams(seed=-1)


class TestGenerateTrace:
    def test_shape_and_slots(self):
        traces = generate_trace(MobilityParams(n_users=3, n_weeks=2, seed=1))
        assert len(traces) == 3
        assert {t.node_id for t in traces} == {"u0000", "u0001", "u0002"}
        for t in traces:
            assert len(t) == 2 * 168
            assert t.slots[0] == 0 and t.slots[-1] == 2 * 168 - 1

    def test_deterministic(self):
        p = MobilityParams(n_users=4, n_weeks=3, seed=99)
        assert generate_trace(p) == generate_trace(p)

    def test_seed_changes_output(self):
        a = generate_trace(MobilityParams(n_users=2, n_weeks=2, seed=1))
        b = generate_trace(MobilityParams(n_users=2, n_weeks=2, seed=2))
        assert a != b

    def test_per_user_streams_independent_of_population(self):
        # User i's trace must not depend on how many users run alongside,
        # so any parallel split over users reproduces the same data.
        small = generate_trace(MobilityParams(n_users=2, n_weeks=2, seed=5))
        large = generate_trace(MobilityParams(n_users=6, n_weeks=2, seed=5))
        assert small == large[:2]

    def test_cells_within_grid(self):
        traces = generate_trace(MobilityParams(n_users=3, n_weeks=3, seed=3))
        for t in traces:
            assert t.cells[:, 0].min() >= 0 and t.cells[:, 0].max() < 50
            assert t.cells[:, 1].min() >= 0 and t.cells[:, 1].max() < 50

    def test_unpredictable_fraction_near_floor(self):
        # Observations outside the user's home cells should appear at
        # floor * (1 - N/G): wandering that happens to land on a home
        # cell is indistinguishable from a home visit.
        params = MobilityParams(n_users=10, n_weeks=100, seed=17)
        traces = generate_trace(params)
        outside = 0
        total = 0
        for t in traces:
            flat = t.cells[:, 0].astype(np.int64) + t.cells[:, 1].astype(np.int64) * 10**6
            values, counts = np.unique(flat, return_counts=True)
            home = set(values[np.argsort(counts)[::-1][:HOME_CELLS]].tolist())
            outside += sum(c for v, c in zip(values, counts) if v not in home)
            total += len(t)
        expected = UNPREDICTABLE_FLOOR * (1 - HOME_CELLS / 2500)
        assert outside / total == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize(
        "params, digest",
        [
            (
                MobilityParams(seed=3),
                "ca43dcf8b59fe731e590cf9b113a10c565fc587801b5509b0f584ec1abe3d785",
            ),
        ],
        ids=["seed3"],
    )
    def test_pinned_trace_digest(self, tmp_path, params, digest):
        # SHA-256 of the CSV bytes, pinned so any change to the generated
        # traces shows here.
        path = tmp_path / "gen.csv"
        write_trace_csv(generate_trace(params), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_trace_csv_interop(self, tmp_path):
        traces = generate_trace(MobilityParams(n_users=3, n_weeks=1, seed=21))
        path = tmp_path / "gen.csv"
        write_trace_csv(traces, str(path))
        assert read_trace_csv(str(path)) == traces


class TestEmpiricalRegularity:
    def test_matches_model_at_scale(self):
        # 1e4 user-weeks: binomial noise per slot is ~0.005, so 0.02 is
        # a 3.5-sigma envelope.
        traces = generate_trace(MobilityParams(n_users=100, n_weeks=100, seed=5))
        er = empirical_regularity(traces)
        target = np.array([regularity(t + 0.5) for t in range(168)])
        assert np.abs(er - target).max() <= 0.02

    def test_shuffled_slots_flatten_to_marginal(self):
        traces = generate_trace(MobilityParams(n_users=30, n_weeks=100, seed=3))
        rng = np.random.default_rng(3)
        shuffled = [
            ObservationTrace(t.node_id, t.slots, t.cells[rng.permutation(len(t))])
            for t in traces
        ]
        er = empirical_regularity(shuffled)
        assert er.max() - er.min() < 0.08  # real weekly swing is ~0.35
        assert er.mean() == pytest.approx(0.657, abs=0.02)

    def test_empty_slots_are_nan(self):
        t = trace_from_records("n", [(0, (1, 1)), (1, (1, 1))])
        er = empirical_regularity([t])
        assert er[0] == 1.0
        assert math.isnan(er[5])

    def test_requires_traces(self):
        with pytest.raises(ValueError):
            empirical_regularity([])


class TestSuccessAfterK:
    def test_matches_curves_at_moderate_scale(self):
        traces = generate_trace(MobilityParams(n_users=2, n_weeks=1000, seed=42))
        for k in (1, 2, 5):
            s = empirical_success_after_k(traces, k)
            assert s == pytest.approx(first_order_cdf(k), abs=0.03)

    def test_default_calibration_k5_headline(self):
        traces = generate_trace(MobilityParams(n_users=2, n_weeks=1000, seed=42))
        assert empirical_success_after_k(traces, 5) == pytest.approx(0.85, abs=0.03)

    def test_default_calibration_k12_headline(self):
        # Known shortfall: the generator draws home-rank masses from
        # sequential_hit_pmf scaled by 1/(1 - floor) and caps the rank CDF
        # at 1. At the 7% floor pinned by the passing TestParams::
        # test_defaults, the cap binds in 63 of the 168 hours and the exact
        # expected top-12 coverage is 0.902, below the band's lower edge of
        # 0.91 by 11 binomial standard errors of this trace; profile
        # estimation costs about 0.005 more (measured 0.8974). It is this
        # generator's rank masses, not the floor alone, that cap coverage.
        # Which side is wrong needs the paper's body text to settle. The
        # target stays pinned here so the gap is visible, not hidden.
        traces = generate_trace(MobilityParams(n_users=2, n_weeks=1000, seed=42))
        assert empirical_success_after_k(traces, 12) == pytest.approx(0.93, abs=0.02)

    def test_nondecreasing_in_k(self):
        traces = generate_trace(MobilityParams(n_users=5, n_weeks=30, seed=13))
        vals = [empirical_success_after_k(traces, k) for k in range(1, 16)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        traces = generate_trace(MobilityParams(n_users=1, n_weeks=1, seed=1))
        with pytest.raises(ValueError):
            empirical_success_after_k(traces, 0)
        with pytest.raises(ValueError):
            empirical_success_after_k([], 3)
        short = trace_from_records("n", [(0, (1, 1))])
        with pytest.raises(ValueError):
            empirical_success_after_k([short], 3)


class TestRankFrequencies:
    def test_slope_matches_analytic_masses(self):
        # Oracle: regression over the model's own pooled per-rank masses,
        # mirrored by regression over generated counts.
        params = MobilityParams(n_users=20, n_weeks=200, seed=11)
        n = HOME_CELLS
        floor = UNPREDICTABLE_FLOOR
        per_cell = floor / (GRID_SIDE * GRID_SIDE)
        masses = np.zeros(n)
        for t in range(168):
            r = regularity(t + 0.5) - per_cell
            m = np.array(sequential_hit_pmf(r, n)) / (1 - floor)
            cum = np.minimum(np.cumsum(m), 1.0)
            cond = np.diff(np.concatenate([[0.0], cum]))
            masses += (1 - floor) * cond + per_cell
        masses /= 168
        ranks = np.log(np.arange(2, n + 1))
        oracle_slope = np.polyfit(ranks, np.log(masses[1:]), 1)[0]

        traces = generate_trace(params)
        counts = _rank_frequencies(traces, n)
        measured_slope = np.polyfit(ranks, np.log(counts[1:]), 1)[0]
        assert measured_slope == pytest.approx(oracle_slope, abs=0.15)

    def test_top_rank_dominates(self):
        traces = generate_trace(MobilityParams(n_users=10, n_weeks=20, seed=2))
        counts = _rank_frequencies(traces, 40)
        assert counts[0] > 4 * counts[1]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestProfileConvergence:
    def test_per_slot_top1_tracks_regularity(self):
        # Held-out top-1 hit rate per slot should sit inside the binomial
        # 99% interval around R(t) for nearly all slots.
        traces = generate_trace(MobilityParams(n_users=50, n_weeks=100, seed=23))
        spw = 168
        hits = np.zeros(spw)
        totals = np.zeros(spw)
        from lprlab.profile import CellId, build_profile, top_k

        for trace in traces:
            split = len(trace) // 2
            train = ObservationTrace(trace.node_id, trace.slots[:split], trace.cells[:split])
            prof = build_profile(train, order=1)
            tops = {s: top_k(prof, s, 1) for s in range(spw)}
            for i in range(split, len(trace)):
                sow = int(trace.slots[i]) % spw
                cell = CellId(int(trace.cells[i, 0]), int(trace.cells[i, 1]))
                hits[sow] += tops[sow] == [cell]
                totals[sow] += 1
        inside = 0
        for s in range(spw):
            target = regularity(s + 0.5)
            half_width = 2.576 * math.sqrt(target * (1 - target) / totals[s])
            inside += abs(hits[s] / totals[s] - target) <= half_width
        assert inside >= 0.94 * spw


def _loop_success_after_k(traces, k):
    """empirical_success_after_k as a per-observation loop over top_k
    sets: test oracle for the array-ranked version."""
    spw = 168
    hits = total = 0
    for trace in traces:
        split = len(trace) // 2
        if split == 0:
            continue
        train = ObservationTrace(trace.node_id, trace.slots[:split], trace.cells[:split])
        prof = build_profile(train, order=1)
        top_by_sow = {}
        for i in range(split, len(trace)):
            sow = int(trace.slots[i]) % spw
            if sow not in top_by_sow:
                top_by_sow[sow] = set(top_k(prof, sow, k))
            hits += CellId(int(trace.cells[i, 0]), int(trace.cells[i, 1])) in top_by_sow[sow]
            total += 1
    return hits / total


@st.composite
def _trace_sets(draw):
    """A few traces over a small cell palette. Wide slot gaps leave slots of
    week with no training data, and the palette is drawn from a
    neighbourhood or from the whole int32 range."""
    coordinate = draw(
        st.sampled_from([st.integers(-2, 2), st.integers(-(2**31), 2**31 - 1)])
    )
    palette = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8))
    traces = []
    for user in range(draw(st.integers(1, 3))):
        gaps = draw(st.lists(st.integers(1, 400), min_size=2, max_size=60))
        slots = np.cumsum([draw(st.integers(0, 10**6))] + gaps[:-1])
        cells = [draw(st.sampled_from(palette)) for _ in slots]
        traces.append(
            ObservationTrace(f"u{user}", slots, np.array(cells, dtype=np.int32))
        )
    return traces


class TestArrayRankedSuccess:
    @settings(max_examples=200, deadline=None)
    @given(traces=_trace_sets(), k=st.integers(1, 10))
    def test_matches_loop(self, traces, k):
        got = empirical_success_after_k(traces, k)
        assert got.hex() == _loop_success_after_k(traces, k).hex()

    def test_untrained_slot_and_k_above_distinct_cells(self):
        # Slot of week 3 is only in the held-out half, so it falls back to
        # the marginal; k = 5 exceeds the 2 distinct training cells.
        trace = trace_from_records(
            "u", [(0, (1, 1)), (1, (2, 2)), (2, (1, 1)), (3, (9, 9)), (171, (2, 2)),
                  (172, (1, 1))]
        )
        for k in (1, 2, 5):
            got = empirical_success_after_k([trace], k)
            assert got.hex() == _loop_success_after_k([trace], k).hex()
        assert empirical_success_after_k([trace], 5) == 2 / 3

    def test_matches_loop_on_generated_traces(self):
        traces = generate_trace(MobilityParams(n_users=3, n_weeks=20, seed=5))
        for k in (1, 5, 12, 60):
            assert (
                empirical_success_after_k(traces, k).hex()
                == _loop_success_after_k(traces, k).hex()
            )


def _unique_rows_modal_hits(trace):
    """Per hour of week, the modal cell's count and all observations, over
    distinct (hour, x, y) rows: test oracle for the per-hour counts of
    empirical_regularity."""
    sow = (trace.slots % 168).astype(np.int64)
    rows = np.column_stack(
        [sow, trace.cells[:, 0].astype(np.int64), trace.cells[:, 1].astype(np.int64)]
    )
    urows, counts = np.unique(rows, axis=0, return_counts=True)
    hits = np.zeros(168, dtype=np.int64)
    np.maximum.at(hits, urows[:, 0], counts)
    totals = np.bincount(sow, minlength=168).astype(np.int64)
    hits[totals == 0] = 0
    return hits, totals


_EXTREME_INT32 = st.sampled_from([-(2**31), -(2**31) + 1, -1, 0, 2**31 - 2, 2**31 - 1])


@st.composite
def _modal_traces(draw):
    """Empty, one-record and longer traces over a small cell palette whose
    coordinates come from a neighbourhood, the int32 extremes or anywhere
    in int32."""
    coordinate = draw(
        st.sampled_from(
            [st.integers(-2, 2), _EXTREME_INT32, st.integers(-(2**31), 2**31 - 1)]
        )
    )
    palette = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6))
    gaps = draw(st.lists(st.integers(1, 400), max_size=80))
    slots = np.cumsum([draw(st.integers(0, 10**9))] + gaps)[: len(gaps)]
    cells = np.array([draw(st.sampled_from(palette)) for _ in slots], dtype=np.int32)
    return ObservationTrace("u", slots, cells.reshape(-1, 2))


def _regularity(hits, totals):
    """empirical_regularity's fractions from per-hour counts."""
    with np.errstate(invalid="ignore"):
        return np.where(totals > 0, hits / np.maximum(totals, 1), np.nan)


class TestModalHits:
    @settings(max_examples=300, deadline=None)
    @given(trace=_modal_traces())
    @example(trace=trace_from_records("u", []))
    @example(trace=trace_from_records("u", [(7, (-(2**31), 2**31 - 1))]))
    def test_matches_unique_rows(self, trace):
        expected_hits, expected_totals = _unique_rows_modal_hits(trace)
        assert expected_totals.sum() == len(trace)
        assert np.array_equal(
            empirical_regularity([trace]),
            _regularity(expected_hits, expected_totals),
            equal_nan=True,
        )

    def test_matches_unique_rows_on_generated_traces(self):
        for seed in range(3):
            traces = generate_trace(MobilityParams(n_users=2, n_weeks=8, seed=seed))
            counts = [_unique_rows_modal_hits(trace) for trace in traces]
            expected_hits, expected_totals = map(sum, zip(*counts))
            assert np.array_equal(
                empirical_regularity(traces), _regularity(expected_hits, expected_totals)
            )
