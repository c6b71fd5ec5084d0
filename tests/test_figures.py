"""Curve-family row builders and the atomic CSV writer."""

import os

import pytest

from lprlab.analytic import (
    HOURS_PER_WEEK,
    RegularityModel,
    conditional_cdf,
    first_order_cdf,
    first_order_pmf,
    regularity,
    zeroth_order_cdf,
    zeroth_order_pmf,
)
from lprlab.figures import (
    first_try_pmf_rows,
    format_value,
    grouping_front_rows,
    retry_pmf_rows,
    success_cdf_rows,
    time_averaged_rows,
    write_csv,
)


class TestRowBuilders:
    def test_success_cdf_rows(self):
        header, rows = success_cdf_rows(10)
        assert header == ["k", "success_cdf"]
        assert len(rows) == 10
        assert rows[0] == (1, pytest.approx(0.48))
        assert rows[9][1] == pytest.approx(zeroth_order_cdf(10))
        assert all(a[1] < b[1] for a, b in zip(rows, rows[1:]))

    @pytest.mark.parametrize("model", [None, RegularityModel(0.12, 0.05, 0.6)],
                             ids=["default", "c1-c2-c3"])
    def test_night_and_day_columns_are_best_and_worst_hour(self, model):
        # Each hour's curve at its bin midpoint, computed here hour by hour:
        # the night column is the best hour's, the day column the worst's.
        midpoints = [regularity(t + 0.5, model) for t in range(HOURS_PER_WEEK)]
        hourly = [[conditional_cdf(k, r) for r in midpoints] for k in range(1, 13)]
        _, rows = time_averaged_rows(12, model)
        assert [row[2] for row in rows] == [max(curve) for curve in hourly]
        assert [row[3] for row in rows] == [min(curve) for curve in hourly]

    def test_time_averaged_rows_ordering(self):
        header, rows = time_averaged_rows(15)
        assert header == ["k", "success_avg", "success_night", "success_day"]
        assert len(rows) == 15
        for k, avg, night, day in rows:
            # The average mixes hourly curves, so the best and worst
            # hours bracket it.
            assert day < avg < night
        assert rows[4][1] == pytest.approx(first_order_cdf(5))

    def test_first_try_pmf_rows(self):
        header, rows = first_try_pmf_rows(12)
        assert header == ["k", "first_success_pmf"]
        assert rows[0][1] == pytest.approx(0.48)
        assert rows[1][1] == pytest.approx(zeroth_order_cdf(2) - 0.48)
        total = sum(v for _, v in rows)
        assert total == pytest.approx(zeroth_order_cdf(12))
        assert [k for k, _ in rows] == list(range(1, 13))

    def test_retry_pmf_rows(self):
        header, rows = retry_pmf_rows(12)
        assert header == ["k", "first_success_pmf"]
        assert rows[0][1] == pytest.approx(first_order_cdf(1)) == pytest.approx(0.657)
        assert rows[1][1] == pytest.approx(0.10571725)
        assert rows[4][1] == pytest.approx(first_order_pmf(5))
        total = sum(v for _, v in rows)
        assert total == pytest.approx(first_order_cdf(12))

    def test_grouping_front_rows_small(self):
        header, rows = grouping_front_rows(3)
        assert header == ["success_rate", "mean_latency", "mean_traffic", "grouping"]
        assert [r[3] for r in rows] == ["3", "2|1", "1|2", "1|1|1"]
        assert rows[0][1] == 1.0 and rows[0][2] == 3.0
        assert rows[1][1] == pytest.approx(1.23728275)
        assert rows[3][2] == pytest.approx(1.58028275)
        assert all(r[0] == pytest.approx(first_order_cdf(3)) for r in rows)

    def test_grouping_front_rows_large(self):
        _, rows = grouping_front_rows(12)
        assert len(rows) == 102
        latencies = [r[1] for r in rows]
        traffics = [r[2] for r in rows]
        assert latencies == sorted(latencies)
        assert traffics == sorted(traffics, reverse=True)
        assert any(3.0 <= t <= 4.0 for t in traffics)

    def test_k_max_validation(self):
        for builder in (success_cdf_rows, time_averaged_rows, first_try_pmf_rows,
                        retry_pmf_rows):
            with pytest.raises(ValueError, match=r"^k_max must be >= 1, got 0$"):
                builder(0)


class TestCsvWriter:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value("2|1") == "2|1"
        assert format_value(0.657) == "0.657"
        assert format_value(1.2372827500000003) == "1.23728275"

    def test_write_and_rewrite_identical(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        header, rows = success_cdf_rows(5)
        write_csv(path, header, rows)
        first = open(path, "rb").read()
        write_csv(path, header, rows)
        assert open(path, "rb").read() == first
        lines = first.decode().splitlines()
        assert lines[0] == "k,success_cdf"
        assert lines[1] == "1,0.48"
        assert len(lines) == 6

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        write_csv(path, ["a"], [(1,), (2,)])
        assert os.listdir(tmp_path) == ["curve.csv"]

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        write_csv(path, ["a"], [(1,), (2,)])
        before = open(path, "rb").read()

        def rows():
            yield (3,)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_csv(path, ["a"], rows())
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["curve.csv"]
