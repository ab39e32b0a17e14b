"""Tests for statistics accumulators."""

from __future__ import annotations

import pytest

from repro.sim.monitor import Counter, TimeWeighted


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("msgs")
        c.add("msgs", 4)
        assert c.get("msgs") == 5
        assert c["msgs"] == 5
        assert c.get("other") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add("x", -1)

    def test_as_dict_is_copy(self):
        c = Counter()
        c.add("x")
        d = c.as_dict()
        d["x"] = 99
        assert c.get("x") == 1


class TestTimeWeighted:
    def test_piecewise_constant_average(self):
        tw = TimeWeighted()
        tw.update(0.0, 2.0)  # value 2 on [0, 4)
        tw.update(4.0, 6.0)  # value 6 on [4, 8)
        assert tw.average(8.0) == pytest.approx(4.0)
        assert tw.current == 6.0

    def test_average_at_last_update(self):
        tw = TimeWeighted()
        tw.update(0.0, 1.0)
        tw.update(2.0, 3.0)
        assert tw.average() == pytest.approx(1.0)

    def test_zero_span_returns_current(self):
        tw = TimeWeighted(start_time=5.0, initial=7.0)
        assert tw.average(5.0) == 7.0

    def test_backwards_time_rejected(self):
        tw = TimeWeighted()
        tw.update(3.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(2.0, 1.0)
        with pytest.raises(ValueError):
            tw.average(1.0)
