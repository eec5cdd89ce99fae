"""The calibration-driven execution planner: picks, fallbacks, gating."""

from __future__ import annotations

import json

import pytest

from repro.graph import generators, weighting
from repro.runtime.context import ExecutionContext
from repro.runtime.planner import (
    CALIBRATION_VERSION,
    CalibrationEntry,
    CalibrationTable,
    GraphStats,
    fixture_distance,
    plan,
    static_plan,
)


@pytest.fixture
def graph():
    topology = generators.preferential_attachment(500, 3, seed=1, directed=False)
    return weighting.weighted_cascade(topology)


def entry(n=500, m=2982, batch=256, jobs=1, seconds=1.0, model="IC", **kwargs):
    return CalibrationEntry(
        n=n,
        m=m,
        degree_skew=kwargs.get("degree_skew", 5.0),
        model=model,
        sample_batch_size=batch,
        mc_batch_size=kwargs.get("mc_batch_size"),
        jobs=jobs,
        kernel_backend=kwargs.get("kernel_backend", "auto"),
        seconds=seconds,
    )


def table_for(graph, *entries):
    sized = [
        CalibrationEntry(
            n=graph.n, m=graph.m, degree_skew=e.degree_skew, model=e.model,
            sample_batch_size=e.sample_batch_size, mc_batch_size=e.mc_batch_size,
            jobs=e.jobs, kernel_backend=e.kernel_backend, seconds=e.seconds,
        )
        for e in entries
    ]
    return CalibrationTable(entries=tuple(sized))


class TestFallbacks:
    def test_no_calibration_uses_heuristic(self, graph):
        decision = plan(graph, "IC")
        assert decision.source == "heuristic"
        assert "no calibration data" in decision.reason
        assert decision.sample_batch_size >= 64

    def test_unreadable_file_falls_back(self, graph, tmp_path):
        decision = plan(graph, "IC", calibration=str(tmp_path / "missing.json"))
        assert decision.source == "heuristic"
        assert "unreadable" in decision.reason

    def test_malformed_file_falls_back(self, graph, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "entries": [{"n": "oops"}]}')
        decision = plan(graph, "IC", calibration=str(path))
        assert decision.source == "heuristic"

    def test_stale_version_falls_back(self, graph):
        table = CalibrationTable(
            entries=(entry(),), version=CALIBRATION_VERSION + 1
        )
        decision = plan(graph, "IC", calibration=table)
        assert decision.source == "heuristic"
        assert "stale schema" in decision.reason

    def test_empty_table_falls_back(self, graph):
        decision = plan(graph, "IC", calibration=CalibrationTable(entries=()))
        assert decision.source == "heuristic"
        assert "empty" in decision.reason

    def test_wrong_model_falls_back(self, graph):
        table = table_for(graph, entry(model="LT"))
        decision = plan(graph, "IC", calibration=table)
        assert decision.source == "heuristic"
        assert "no calibration fixture" in decision.reason

    def test_distant_fixture_falls_back(self, graph):
        table = CalibrationTable(entries=(entry(n=5_000_000, m=80_000_000),))
        decision = plan(graph, "IC", calibration=table)
        assert decision.source == "heuristic"

    def test_heuristic_is_deterministic(self, graph):
        a = plan(graph, "IC")
        b = plan(graph, "IC")
        assert a == b


class TestCalibratedPicks:
    def test_argmin_pick(self, graph):
        table = table_for(
            graph,
            entry(batch=64, seconds=2.0),
            entry(batch=256, seconds=0.5),
            entry(batch=1024, seconds=1.0),
        )
        decision = plan(graph, "IC", calibration=table)
        assert decision.source == "calibration"
        assert decision.sample_batch_size == 256
        assert decision.fixture == (graph.n, graph.m)
        assert decision.distance == pytest.approx(0.0)

    def test_tie_breaks_deterministically(self, graph):
        table = table_for(
            graph,
            entry(batch=1024, seconds=1.0),
            entry(batch=64, seconds=1.0),
        )
        decision = plan(graph, "IC", calibration=table)
        assert decision.sample_batch_size == 64  # smaller batch on ties

    def test_file_round_trip(self, graph, tmp_path):
        table = table_for(graph, entry(batch=128, jobs=2, seconds=0.3))
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(table.to_dict()))
        decision = plan(graph, "IC", calibration=str(path))
        assert decision.source == "calibration"
        assert decision.sample_batch_size == 128
        assert decision.jobs == 2
        # A null jobs (tables written when the knob could be unset) is the
        # in-process route.
        payload = table.to_dict()
        payload["entries"][0]["jobs"] = None
        legacy = CalibrationTable.from_dict(payload)
        assert plan(graph, "IC", calibration=legacy).jobs == 1

    def test_nearest_fixture_wins(self, graph):
        near = entry(n=graph.n, m=graph.m, batch=128, seconds=1.0)
        far = CalibrationEntry(
            n=graph.n * 2, m=graph.m * 2, degree_skew=5.0, model="IC",
            sample_batch_size=512, mc_batch_size=None, jobs=1,
            kernel_backend="auto", seconds=0.1,
        )
        table = CalibrationTable(entries=(far, near))
        decision = plan(graph, "IC", calibration=table)
        assert decision.sample_batch_size == 128

    def test_model_object_label(self, graph):
        from repro.diffusion.ic import IndependentCascade

        table = table_for(graph, entry(batch=128, seconds=0.2))
        decision = plan(graph, IndependentCascade(), calibration=table)
        assert decision.source == "calibration"


class TestFromPlan:
    def test_from_plan_applies_knobs(self, graph):
        table = table_for(graph, entry(batch=128, jobs=1, seconds=0.2))
        with ExecutionContext.from_plan(graph, "IC", calibration=table) as context:
            assert context.sample_batch_size == 128
            assert context.jobs == 1
            assert context.diagnostics["plan_source"] == "calibration"

    def test_from_plan_overrides_win(self, graph):
        table = table_for(graph, entry(batch=128, seconds=0.2))
        with ExecutionContext.from_plan(
            graph, "IC", calibration=table, sample_batch_size=512
        ) as context:
            assert context.sample_batch_size == 512

    def test_from_plan_without_calibration(self, graph):
        with ExecutionContext.from_plan(graph, "IC") as context:
            assert context.diagnostics["plan_source"] == "heuristic"


class TestStats:
    def test_graph_stats(self, graph):
        stats = GraphStats.from_graph(graph)
        assert stats.n == graph.n and stats.m == graph.m
        assert stats.avg_degree == pytest.approx(graph.m / graph.n)
        assert stats.degree_skew > 1.0

    def test_distance_is_log_scale(self):
        stats = GraphStats(n=1000, m=10_000, avg_degree=10.0, degree_skew=2.0)
        assert fixture_distance(stats, 1000, 10_000) == pytest.approx(0.0)
        small = fixture_distance(stats, 1100, 11_000)
        large = fixture_distance(stats, 100_000, 1_000_000)
        assert small < 0.2 < large

    def test_static_plan_shape(self):
        tiny = GraphStats(n=100, m=500, avg_degree=5.0, degree_skew=2.0)
        decision = static_plan(tiny, "IC")
        assert decision.sample_batch_size == 1024  # clamped at the top
        assert decision.jobs == 1  # too small to pay for worker processes
        huge = GraphStats(n=10**7, m=10**8, avg_degree=10.0, degree_skew=2.0)
        assert static_plan(huge, "IC").sample_batch_size == 64
