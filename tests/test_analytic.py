"""Closed-form model tests.

Golden values were computed with an independent mpmath implementation
(50-digit precision) of the Beta-function forms and the 168-bin midpoint
average, then frozen here as literals.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lprlab import analytic
from lprlab.analytic import (
    GhlsCostModel,
    Grouping,
    HOURS_PER_WEEK,
    RegularityModel,
    conditional_cdf,
    enumerate_groupings,
    first_order_cdf,
    first_order_pmf,
    ghls_breakeven,
    ghls_total_cost,
    hourly_regularity,
    knee_point,
    log_beta,
    lpr_total_cost,
    mean_latency,
    mean_traffic,
    pareto_front,
    regularity,
    sequential_hit_pmf,
    zeroth_order_cdf,
    zeroth_order_pmf,
)


class TestLogBeta:
    def test_b_1_052(self):
        # B(1, 0.52) = 1/0.52
        assert log_beta(1.0, 0.52) == pytest.approx(0.6539264674066639, abs=1e-12)

    def test_b_2_052(self):
        assert log_beta(2.0, 0.52) == pytest.approx(0.23521613254847895, abs=1e-12)
        assert math.exp(log_beta(2.0, 0.52)) == pytest.approx(1.2651821862348178, abs=1e-12)

    def test_symmetry(self):
        assert log_beta(0.3, 2.7) == pytest.approx(log_beta(2.7, 0.3), abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, -2.0)

    def test_matches_gamma_ratio_small_args(self):
        for a, b in [(0.48, 0.52), (1.0, 3.0), (2.5, 4.5)]:
            direct = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
            assert math.exp(log_beta(a, b)) == pytest.approx(direct, rel=1e-12)

    def test_stable_at_large_k(self):
        # Direct gamma(171) overflows a float; the log form must not.
        val = log_beta(200.0, 0.52)
        assert math.isfinite(val)


class TestZerothOrder:
    def test_k1_equals_c(self):
        assert zeroth_order_cdf(1) == pytest.approx(0.48, abs=1e-12)

    def test_k2(self):
        # 1 - (1 - 0.48)(1 - 0.24)
        assert zeroth_order_cdf(2) == pytest.approx(0.6048, abs=1e-12)

    def test_k10(self):
        assert zeroth_order_cdf(10) == pytest.approx(0.8082891931604119, abs=1e-10)

    def test_k0_is_zero(self):
        assert zeroth_order_cdf(0) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            zeroth_order_cdf(-1)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            zeroth_order_cdf(2.0)

    def test_pmf_k2(self):
        assert zeroth_order_pmf(2) == pytest.approx(0.1248, abs=1e-12)

    def test_pmf_k1_equals_c(self):
        assert zeroth_order_pmf(1) == pytest.approx(0.48, abs=1e-12)

    def test_pmf_k0_rejected(self):
        with pytest.raises(ValueError):
            zeroth_order_pmf(0)

    def test_matches_sequential_product(self):
        # The Beta-ratio form equals 1 - prod_{i<=k} (1 - c/i): probing
        # ranks one by one with Zipf masses c/i.
        c = 0.48
        prod = 1.0
        for k in range(1, 21):
            prod *= 1.0 - c / k
            assert zeroth_order_cdf(k) == pytest.approx(1.0 - prod, abs=1e-9)

    def test_cdf_monotone_and_bounded(self):
        prev = 0.0
        for k in range(1, 200):
            cur = zeroth_order_cdf(k)
            assert prev < cur < 1.0
            prev = cur

    def test_pmf_telescopes(self):
        total = 0.0
        for k in range(1, 101):
            total += zeroth_order_pmf(k)
            assert total == pytest.approx(zeroth_order_cdf(k), abs=1e-12)
        assert total < 1.0

    def test_mean_rank_diverges(self):
        # Partial sums of k * pmf(k) pass 5 by k = 73 and never settle:
        # the distribution has no finite mean.
        partial = 0.0
        k = 0
        while partial <= 5.0:
            k += 1
            partial += k * zeroth_order_pmf(k)
            assert k <= 200
        assert k == 73


class TestRegularity:
    def test_monday_midnight(self):
        assert regularity(0.0) == pytest.approx(0.7417227371427150, abs=1e-12)

    def test_weekday_morning(self):
        assert regularity(3.0) == pytest.approx(0.8793762886242582, abs=1e-12)

    def test_weekly_mean_on_hour_grid(self):
        # Both sinusoids have whole periods in 24h, so hourly sampling
        # averages exactly to the constant term.
        mean = sum(regularity(t + 0.5) for t in range(168)) / 168.0
        assert mean == pytest.approx(0.657, abs=1e-12)

    def test_daily_periodicity(self):
        for t in [0.0, 3.7, 11.2, 23.9]:
            base = regularity(t)
            for day in range(1, 7):
                assert regularity(t + 24.0 * day) == pytest.approx(base, abs=1e-12)

    def test_range_on_fine_grid(self):
        vals = [regularity(i * 168.0 / 100000.0) for i in range(100000)]
        assert min(vals) == pytest.approx(0.5278995342501194, abs=1e-6)
        assert max(vals) == pytest.approx(0.8811441080134207, abs=1e-6)
        assert all(0.0 < v < 1.0 for v in vals)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            regularity(168.0)
        with pytest.raises(ValueError):
            regularity(-0.1)

    def test_custom_coefficients(self):
        flat = RegularityModel(c1=0.0, c2=0.0, c3=0.5)
        assert regularity(37.3, flat) == pytest.approx(0.5, abs=1e-12)
        assert hourly_regularity(flat) == (0.5,) * HOURS_PER_WEEK


class TestHourlyRegularity:
    @pytest.mark.parametrize("model", [
        None, RegularityModel(), RegularityModel(0.2, -0.1, 0.5),
        RegularityModel(-0.03, 0.11, 0.21),
    ])
    def test_is_regularity_at_each_hour_midpoint(self, model):
        table = hourly_regularity(model)
        assert len(table) == HOURS_PER_WEEK
        for t in range(HOURS_PER_WEEK):
            assert table[t].hex() == regularity(t + 0.5, model).hex()

    @pytest.mark.parametrize("c3, hour", [(0.05, "9.5"), (0.95, "0.5")])
    def test_model_outside_unit_interval_names_the_hour(self, c3, hour):
        # R leaves (0, 1) at some midpoint: every consumer of the hour
        # table refuses the model at that hour, not deep inside log_beta.
        model = RegularityModel(c3=c3)
        for call in (
            lambda: hourly_regularity(model),
            lambda: first_order_cdf(12, model),
            lambda: mean_latency(Grouping((2, 10)), model),
            lambda: pareto_front(12, model),
        ):
            with pytest.raises(ValueError, match=rf"at hour {hour}; it must lie in"):
                call()

    def test_conditional_cdf_refuses_regularity_outside_unit_interval(self):
        for r in (0.0, 1.0, -0.05, float("nan")):
            with pytest.raises(ValueError, match="regularity must be in"):
                conditional_cdf(5, r)


class TestFirstOrder:
    # Midpoint-sum values, frozen from the independent implementation.
    GOLDEN = {
        1: 0.657000000000000,
        2: 0.76271725,
        3: 0.810975278028253,
        5: 0.859046822033214,
        12: 0.915509730139411,
    }

    def test_golden_values(self):
        for k, expected in self.GOLDEN.items():
            assert first_order_cdf(k) == pytest.approx(expected, abs=1e-9)

    def test_k1_is_mean_regularity(self):
        assert first_order_cdf(1) == pytest.approx(0.657, abs=1e-12)

    def test_k0_is_zero(self):
        assert first_order_cdf(0) == 0.0

    def test_pmf_values(self):
        assert first_order_pmf(1) == pytest.approx(0.657, abs=1e-9)
        assert first_order_pmf(2) == pytest.approx(0.10571725, abs=1e-9)

    def test_pmf_telescopes(self):
        total = 0.0
        for k in range(1, 40):
            total += first_order_pmf(k)
            assert total == pytest.approx(first_order_cdf(k), abs=1e-12)

    def test_monotone(self):
        prev = 0.0
        for k in range(1, 60):
            cur = first_order_cdf(k)
            assert prev < cur < 1.0
            prev = cur

    def test_flat_model_collapses_to_zeroth_order(self):
        flat = RegularityModel(c1=0.0, c2=0.0, c3=0.48)
        for k in range(1, 15):
            assert first_order_cdf(k, flat) == pytest.approx(
                zeroth_order_cdf(k), abs=1e-12
            )

    def test_conditional_at_morning_peak(self):
        assert conditional_cdf(5, regularity(3.0)) == pytest.approx(
            0.9692829699429962, abs=1e-9
        )

    def test_sequential_hit_pmf_consistency(self):
        rng = random.Random(1113)
        for _ in range(50):
            r = rng.uniform(0.05, 0.95)
            n = rng.randint(1, 60)
            masses = sequential_hit_pmf(r, n)
            assert len(masses) == n
            assert masses[0] == pytest.approx(r, abs=1e-12)
            assert all(m > 0 for m in masses)
            assert sum(masses) == pytest.approx(_cdf_at(r, n), abs=1e-10)

    def test_sequential_hit_pmf_validation(self):
        with pytest.raises(ValueError):
            sequential_hit_pmf(0.0, 5)
        with pytest.raises(ValueError):
            sequential_hit_pmf(0.5, 0)


def _cdf_at(r, n):
    return 1.0 - math.exp(-math.log(n) - log_beta(n, 1.0 - r))


class TestGrouping:
    def test_construction(self):
        g = Grouping((1, 2, 9))
        assert g.k == 12
        assert str(g) == "1|2|9"

    def test_parse_roundtrip(self):
        assert Grouping.parse("1|2|9") == Grouping((1, 2, 9))
        with pytest.raises(ValueError):
            Grouping.parse("1|x")
        with pytest.raises(ValueError):
            Grouping.parse("1|0|2")

    def test_serial_parallel(self):
        assert Grouping.parse("1|1|1|1") == Grouping((1,) * 4)
        assert Grouping.parse("4") == Grouping((4,))

    def test_validation(self):
        with pytest.raises(ValueError):
            Grouping(())
        with pytest.raises(ValueError):
            Grouping((2, -1))

    def test_means_for_1_2(self):
        g = Grouping((1, 2))
        assert mean_latency(g) == pytest.approx(1.343, abs=1e-9)
        assert mean_traffic(g) == pytest.approx(1.686, abs=1e-9)

    def test_parallel_latency_is_one(self):
        for k in (1, 5, 12):
            g = Grouping((k,))
            assert mean_latency(g) == pytest.approx(1.0, abs=1e-12)
            assert mean_traffic(g) == pytest.approx(float(k), abs=1e-12)

    def test_serial_latency_equals_traffic(self):
        g = Grouping((1,) * 5)
        lat = mean_latency(g)
        assert lat == pytest.approx(mean_traffic(g), abs=1e-12)
        assert lat == pytest.approx(1.9296536333830245, abs=1e-9)

    def test_mean_bounds_random_groupings(self):
        rng = random.Random(2024)
        for _ in range(200):
            k = rng.randint(1, 14)
            sizes = []
            remaining = k
            while remaining:
                s = rng.randint(1, remaining)
                sizes.append(s)
                remaining -= s
            g = Grouping(tuple(sizes))
            lat = mean_latency(g)
            traf = mean_traffic(g)
            assert 1.0 <= lat <= len(sizes) + 1e-12
            assert lat - 1e-12 <= traf <= k + 1e-12

    def test_latency_increases_with_stage_splits(self):
        # Splitting a stage can only add serial exposure.
        assert mean_latency(Grouping((1, 2))) < mean_latency(Grouping((1, 1, 1)))
        assert mean_traffic(Grouping((1, 1, 1))) < mean_traffic(Grouping((1, 2)))


class TestEnumerationAndFront:
    def test_counts(self):
        for k in (1, 2, 3, 5, 10):
            assert len(enumerate_groupings(k)) == 2 ** (k - 1)

    def test_lexicographic_order_k3(self):
        got = [g.sizes for g in enumerate_groupings(3)]
        assert got == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_all_sum_to_k_and_unique(self):
        gs = enumerate_groupings(9)
        assert all(g.k == 9 for g in gs)
        assert len({g.sizes for g in gs}) == len(gs)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            enumerate_groupings(0)
        with pytest.raises(ValueError):
            enumerate_groupings(21)

    def test_front_k3(self):
        front = pareto_front(3)
        assert [p.grouping.sizes for p in front] == [
            (3,),
            (2, 1),
            (1, 2),
            (1, 1, 1),
        ]
        by_sizes = {p.grouping.sizes: p for p in front}
        assert by_sizes[(1, 2)].latency == pytest.approx(1.343, abs=1e-9)
        assert by_sizes[(1, 2)].traffic == pytest.approx(1.686, abs=1e-9)

    def test_front_k5_size_and_extremes(self):
        front = pareto_front(5)
        assert len(front) == 12
        assert front[0].grouping.sizes == (5,)
        assert front[0].latency == pytest.approx(1.0, abs=1e-12)
        assert front[-1].grouping.sizes == (1, 1, 1, 1, 1)
        assert front[-1].traffic == pytest.approx(1.9296536333830245, abs=1e-9)
        by_sizes = {p.grouping.sizes: p for p in front}
        assert by_sizes[(2, 3)].latency == pytest.approx(1.23728275, abs=1e-6)
        assert by_sizes[(2, 3)].traffic == pytest.approx(2.71184825, abs=1e-6)
        assert by_sizes[(3, 2)].latency == pytest.approx(1.1890247220, abs=1e-6)
        assert by_sizes[(3, 2)].traffic == pytest.approx(3.3780494439, abs=1e-6)

    def test_front_k12_size_and_members(self):
        front = pareto_front(12)
        assert len(front) == 102
        by_sizes = {p.grouping.sizes: p for p in front}
        assert (12,) in by_sizes
        p = by_sizes[(2, 10)]
        assert p.latency == pytest.approx(1.23728275, abs=1e-6)
        assert p.traffic == pytest.approx(4.3728275000, abs=1e-6)
        p = by_sizes[(1, 2, 4, 4, 1)]
        assert p.latency == pytest.approx(1.7368292401, abs=1e-6)
        assert p.traffic == pytest.approx(2.9945518270, abs=1e-6)

    def test_front_non_dominated_exhaustive(self):
        for k in (3, 5, 8):
            front = pareto_front(k)
            all_points = {
                g.sizes: (mean_latency(g), mean_traffic(g))
                for g in enumerate_groupings(k)
            }
            for p in front:
                for sizes, (lat, traf) in all_points.items():
                    if sizes == p.grouping.sizes:
                        continue
                    strictly_better = (
                        lat <= p.latency + 1e-12
                        and traf <= p.traffic + 1e-12
                        and (lat < p.latency - 1e-12 or traf < p.traffic - 1e-12)
                    )
                    assert not strictly_better, (p.grouping.sizes, sizes)

    def test_front_sorted_by_latency(self):
        for k in (5, 12):
            front = pareto_front(k)
            lats = [p.latency for p in front]
            assert lats == sorted(lats)

    def test_front_contains_parallel(self):
        for k in (1, 2, 7, 12):
            front = pareto_front(k)
            assert any(p.grouping.sizes == (k,) for p in front)

    def test_knee_k5(self):
        knee = knee_point(pareto_front(5))
        assert knee.grouping.sizes == (2, 3)
        assert knee.latency == pytest.approx(1.23728275, abs=1e-6)
        assert knee.traffic == pytest.approx(2.71184825, abs=1e-6)

    def test_knee_k12(self):
        knee = knee_point(pareto_front(12))
        assert knee.grouping.sizes == (2, 10)

    def test_knee_trivial_front(self):
        front = pareto_front(1)
        assert knee_point(front).grouping.sizes == (1,)
        with pytest.raises(ValueError):
            knee_point([])


class TestGhlsCost:
    def test_breakeven_examples(self):
        assert ghls_breakeven(1.0, 3.0) == pytest.approx(2.0, abs=1e-12)
        assert ghls_breakeven(2.0, 3.0) == pytest.approx(6.0, abs=1e-12)
        # t_bar = 1 means probing is pure gain; the server never wins back.
        assert ghls_breakeven(5.0, 1.0) == pytest.approx(-2.0, abs=1e-12)

    def test_breakeven_consistent_with_totals(self):
        rng = random.Random(4711)
        for _ in range(1000):
            s = rng.uniform(0.5, 20.0)
            p = rng.uniform(0.5, 20.0)
            t_bar = rng.uniform(1.0, 6.0)
            r = rng.uniform(0.1, 10.0)
            x = ghls_breakeven(p / s, t_bar)
            if x <= 0:
                continue
            m = GhlsCostModel(f=x * r, r=r, s=s, p=p, t_bar=t_bar)
            assert ghls_total_cost(m) == pytest.approx(lpr_total_cost(m), rel=1e-9)
            worse = GhlsCostModel(f=(x + 0.5) * r, r=r, s=s, p=p, t_bar=t_bar)
            assert ghls_total_cost(worse) > lpr_total_cost(worse)
            better = GhlsCostModel(f=max(x - 0.5, 0.0) * r, r=r, s=s, p=p, t_bar=t_bar)
            assert ghls_total_cost(better) < lpr_total_cost(better) + 1e-9

    def test_total_cost_forms(self):
        m = GhlsCostModel(f=4.0, r=2.0, s=3.0, p=5.0, t_bar=3.0)
        assert ghls_total_cost(m) == pytest.approx(4 * 3 + 2 * (6 + 10))
        assert lpr_total_cost(m) == pytest.approx(2 * 2 * 3 * 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            GhlsCostModel(f=1, r=0, s=1, p=1, t_bar=2)
        with pytest.raises(ValueError):
            GhlsCostModel(f=1, r=1, s=1, p=1, t_bar=0.5)
        for negative in ({"f": -1}, {"s": -1}, {"p": -1}):
            with pytest.raises(ValueError, match="f, s, p must be non-negative"):
                GhlsCostModel(**{"f": 1, "r": 1, "s": 1, "p": 1, "t_bar": 2, **negative})
        with pytest.raises(ValueError):
            ghls_breakeven(0.0, 2.0)
        with pytest.raises(ValueError):
            ghls_breakeven(1.0, 0.9)


@st.composite
def _regularity_models(draw):
    # |c1| + |c2| stays below min(c3, 1 - c3), so R(t) stays inside (0, 1).
    c3 = draw(st.floats(0.05, 0.95))
    room = 0.49 * min(c3, 1.0 - c3)
    c1 = room * draw(st.floats(-1.0, 1.0))
    c2 = room * draw(st.floats(-1.0, 1.0))
    return RegularityModel(c1, c2, c3)


def _curve_queries(data, k_max):
    """Interleaved (k, model) draws over a few shared models, so memoised
    entries are both reused and mixed up."""
    models = data.draw(
        st.lists(st.none() | _regularity_models(), min_size=1, max_size=3)
    )
    for _ in range(data.draw(st.integers(1, 10))):
        yield data.draw(st.integers(0, k_max)), data.draw(st.sampled_from(models))


class TestMemoisedCurve:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_uncached_midpoint_sum(self, data):
        for k, model in _curve_queries(data, 8):
            expected = 0.0
            for t in range(168):
                r = regularity(t + 0.5, model)
                expected += (1.0 / 168) * conditional_cdf(k, r)
            assert first_order_cdf(k, model).hex() == expected.hex()

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_front_points_match_cost_functions(self, data):
        for k, model in _curve_queries(data, 8):
            for p in pareto_front(max(k, 1), model):
                assert p.latency == mean_latency(p.grouping, model)
                assert p.traffic == mean_traffic(p.grouping, model)


def _brute_force_front(k, model=None):
    """pareto_front by enumeration: score all 2**(k-1) groupings, then
    keep those no other grouping dominates beyond eps. Test oracle for
    the label-setting front."""
    cdf = [first_order_cdf(i, model) for i in range(k)]
    points = []
    for grouping in enumerate_groupings(k):
        lat = traf = 0.0
        start = 1
        for size in grouping.sizes:
            p_try = 1.0 - cdf[start - 1]
            lat += p_try
            traf += size * p_try
            start += size
        points.append(analytic.ParetoPoint(grouping, lat, traf))
    eps = 1e-12
    front = [
        p
        for p in points
        if not any(
            q.latency <= p.latency + eps
            and q.traffic <= p.traffic + eps
            and (q.latency < p.latency - eps or q.traffic < p.traffic - eps)
            for q in points
        )
    ]
    front.sort(key=lambda p: (p.latency, len(p.grouping.sizes), p.grouping.sizes))
    return front


def _hex_points(front):
    return [(p.grouping.sizes, p.latency.hex(), p.traffic.hex()) for p in front]


class TestLabelSettingFront:
    @pytest.mark.parametrize("k", range(1, 15))
    def test_matches_enumeration_default_model(self, k):
        assert _hex_points(pareto_front(k)) == _hex_points(_brute_force_front(k))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 12), model=st.none() | _regularity_models())
    def test_matches_enumeration_random_models(self, k, model):
        assert _hex_points(pareto_front(k, model)) == _hex_points(
            _brute_force_front(k, model)
        )

    @settings(max_examples=2, deadline=None)
    @given(model=_regularity_models())
    def test_matches_enumeration_k14_random_models(self, model):
        assert _hex_points(pareto_front(14, model)) == _hex_points(
            _brute_force_front(14, model)
        )

    def test_k_range_shared_with_enumeration(self):
        for k in (0, 21, 2.0, True):
            for func in (pareto_front, enumerate_groupings):
                with pytest.raises(ValueError, match="k must be"):
                    func(k)

    def test_largest_k_front(self):
        front = pareto_front(20)
        assert front[0].grouping.sizes == (20,)
        assert front[-1].grouping.sizes == (1,) * 20
        lats = [p.latency for p in front]
        assert lats == sorted(lats)
        assert all(p.grouping.k == 20 for p in front)
