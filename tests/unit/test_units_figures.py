"""Unit tests for units helpers and figure rendering."""

import pytest

from repro.bench.experiments import render_table
from repro.bench.metrics import (
    convergence_time,
    is_nondecreasing,
    max_jump,
    mean_abs_error,
    series_max,
    series_min,
    value_near,
)
from repro.core.units import (
    bytes_to_units,
    format_duration,
    remaining_time,
    units_to_bytes,
)


class TestUnits:
    def test_bytes_units_roundtrip(self):
        assert bytes_to_units(units_to_bytes(7.0, 8192), 8192) == pytest.approx(7.0)

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            bytes_to_units(100, 0)

    def test_remaining_time(self):
        assert remaining_time(100.0, 10.0) == pytest.approx(10.0)
        assert remaining_time(100.0, None) is None
        assert remaining_time(100.0, 0.0) is None

    def test_format_duration_paper_style(self):
        # The paper's Figure 2 shows "5 hour 3 min 7 sec".
        assert format_duration(5 * 3600 + 3 * 60 + 7) == "5 hour 3 min 7 sec"
        assert format_duration(65) == "1 min 5 sec"
        assert format_duration(9) == "9 sec"

    def test_format_duration_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1)


class TestMetrics:
    SERIES = [(0.0, 10.0), (10.0, 8.0), (20.0, None), (30.0, 4.0)]
    REFERENCE = [(0.0, 9.0), (10.0, 9.0), (20.0, 9.0), (30.0, 5.0)]

    def test_mean_abs_error_skips_undefined(self):
        error = mean_abs_error(self.SERIES, self.REFERENCE)
        assert error == pytest.approx((1.0 + 1.0 + 1.0) / 3)

    def test_mean_abs_error_empty(self):
        assert mean_abs_error([(0.0, None)], self.REFERENCE) is None

    def test_convergence_time_requires_staying(self):
        series = [(0.0, 100.0), (10.0, 50.0), (20.0, 51.0), (30.0, 49.0)]
        assert convergence_time(series, 50.0, 0.05) == 10.0

    def test_convergence_resets_on_departure(self):
        series = [(0.0, 50.0), (10.0, 100.0), (20.0, 50.0)]
        assert convergence_time(series, 50.0, 0.05) == 20.0

    def test_convergence_never(self):
        assert convergence_time([(0.0, 100.0)], 50.0, 0.05) is None

    def test_series_min_max(self):
        assert series_min(self.SERIES) == 4.0
        assert series_max(self.SERIES) == 10.0

    def test_series_min_empty_raises(self):
        with pytest.raises(ValueError):
            series_min([(0.0, None)])

    def test_value_near(self):
        assert value_near(self.SERIES, 15.0) == 8.0
        assert value_near(self.SERIES, -1.0) is None
        assert value_near(self.SERIES, 35.0) == 4.0

    def test_is_nondecreasing(self):
        assert is_nondecreasing([(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)])
        assert not is_nondecreasing([(0.0, 2.0), (1.0, 1.0)])

    def test_max_jump(self):
        assert max_jump([(0.0, 1.0), (1.0, 5.0), (2.0, 3.0)]) == pytest.approx(4.0)
        assert max_jump([(0.0, 1.0)]) == 0.0


class TestFigureRendering:
    def test_render_table_aligns_series(self):
        text = render_table(
            {"est": [(0.0, 1.0), (10.0, 2.0)], "actual": [(0.0, 1.5), (10.0, None)]},
            title="Figure X",
        )
        assert "Figure X" in text
        assert "est" in text and "actual" in text
        assert text.count("\n") >= 4
