"""Unit tests for the benchmark harness helpers themselves."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))
import _common  # noqa: E402
sys.path.remove(str(BENCH_DIR))


class TestTimeOp:
    def test_returns_plausible_nanoseconds(self):
        ns = _common.time_op(lambda: sum(range(50)), target_seconds=0.005)
        assert 50 < ns < 1e6  # between 50ns and 1ms for this tiny op

    def test_explicit_repeat_honored(self):
        calls = []
        _common.time_op(lambda: calls.append(1), repeat=10)
        assert len(calls) == 30  # 3 batches x 10

    def test_slow_ops_do_not_explode(self):
        import time

        start = time.perf_counter()
        _common.time_op(lambda: time.sleep(0.002), target_seconds=0.01)
        assert time.perf_counter() - start < 2.0


class TestWriteTable:
    def test_writes_file_and_formats(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
        text = _common.write_table(
            "T0", "a test table",
            ["name", "value"],
            [["alpha", 1234.5], ["beta", 0.25]],
            notes="a note",
            headline=("alpha", 1234.5, "value"),
        )
        assert (tmp_path / "T0.txt").read_text() == text
        assert "== T0: a test table ==" in text
        assert "1,234" in text  # thousands formatting
        assert "0.2500" in text  # small-float formatting
        assert "a note" in text
        assert "alpha" in capsys.readouterr().out

    def test_headline_is_required(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
        with pytest.raises(TypeError, match="headline"):
            _common.write_table("T2", "unnamed", ["name", "ns"], [["alpha", 7.5]])
        assert not (tmp_path / "BENCH_T2.json").exists()

    def test_explicit_headline_wins(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
        _common.write_table(
            "T3", "explicit", ["config", "seed", "rate"],
            [["run", 7501, 0.5], ["full stack", 7502, 0.9]],
            headline=("full-stack rate", 0.9, "ratio"),
        )
        payload = json.loads((tmp_path / "BENCH_T3.json").read_text())
        assert (payload["metric"], payload["value"], payload["unit"]) == (
            "full-stack rate", 0.9, "ratio"
        )

    def test_empty_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
        text = _common.write_table(
            "T1", "empty", ["col"], [], headline=("col", 0, "col")
        )
        assert "== T1" in text


class TestBenchWorld:
    def test_domain_factory(self):
        from repro.credentials.rights import Rights

        world = _common.BenchWorld(seed=12345)
        domain = world.agent_domain(Rights.of("Buffer.get"))
        assert domain.credentials is not None
        domain.credentials.verify(world.ca, world.clock.now())
        context = world.context(domain)
        assert context.domain_id == domain.domain_id
