"""The benchmark-trajectory merger: dedup keep-latest, stable sort."""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from aggregate_trajectory import (  # noqa: E402
    aggregate,
    dedupe_history,
    entry_identity,
)


def entry(stamp, speedup, **config):
    row = {"timestamp": stamp, "speedup": speedup}
    row.update(config)
    return row


class TestDedupe:
    def test_same_config_keeps_latest(self):
        history = [
            entry("2026-01-01T00:00:00", 1.0, graph_n=100, jobs=2),
            entry("2026-01-02T00:00:00", 2.0, graph_n=100, jobs=2),
        ]
        out = dedupe_history(history)
        assert len(out) == 1 and out[0]["speedup"] == 2.0

    def test_latest_is_append_order_not_timestamp(self):
        # A re-run with a clock set backwards still supersedes.
        history = [
            entry("2026-01-02T00:00:00", 1.0, graph_n=100),
            entry("2026-01-01T00:00:00", 2.0, graph_n=100),
        ]
        out = dedupe_history(history)
        assert [e["speedup"] for e in out] == [2.0]

    def test_distinct_configs_all_kept(self):
        history = [
            entry("2026-01-01T00:00:00", 1.0, graph_n=100, jobs=2),
            entry("2026-01-01T00:00:01", 2.0, graph_n=100, jobs=4),
            entry("2026-01-01T00:00:02", 3.0, graph_n=200, jobs=2),
        ]
        assert len(dedupe_history(history)) == 3

    def test_measurements_do_not_affect_identity(self):
        a = entry("2026-01-01T00:00:00", 1.0, graph_n=100)
        b = entry("2026-01-02T00:00:00", 99.0, graph_n=100)
        assert entry_identity(a) == entry_identity(b)

    def test_anonymous_entries_never_dropped(self):
        history = [{"note": "x"}, {"note": "x"}, "raw", 42]
        assert len(dedupe_history(history)) == 4

    def test_stable_chronological_sort(self):
        history = [
            entry("2026-01-03T00:00:00", 3.0, graph_n=300),
            entry("2026-01-01T00:00:00", 1.0, graph_n=100),
            entry("2026-01-02T00:00:00", 2.0, graph_n=200),
        ]
        out = dedupe_history(history)
        assert [e["speedup"] for e in out] == [1.0, 2.0, 3.0]

    def test_equal_timestamps_keep_append_order(self):
        history = [
            entry("2026-01-01T00:00:00", 1.0, graph_n=100),
            entry("2026-01-01T00:00:00", 2.0, graph_n=200),
        ]
        out = dedupe_history(history)
        assert [e["speedup"] for e in out] == [1.0, 2.0]


class TestAggregate:
    def test_folds_and_dedupes(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        history = [
            entry("2026-01-01T00:00:00", 1.0, graph_n=100, jobs=2),
            entry("2026-01-02T00:00:00", 2.0, graph_n=100, jobs=2),
        ]
        (results / "some_gate.json").write_text(json.dumps(history))
        (results / "scalar.json").write_text(json.dumps({"single": True}))
        merged = aggregate(results)
        assert merged["entry_counts"]["some_gate"] == 1
        assert merged["latest"]["some_gate"]["speedup"] == 2.0
        assert merged["entry_counts"]["scalar"] == 1

    def test_real_results_directory_aggregates(self):
        merged = aggregate()
        assert "pool_store" in merged["gates"]
        assert merged["entry_counts"]["pool_store"] >= 1

    def test_committed_trajectory_matches_fresh_merge(self):
        # BENCH_trajectory.json is derived data: after any change to
        # benchmarks/results/, rerun aggregate_trajectory.py and commit both.
        committed = json.loads(
            (REPO_ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8")
        )
        assert aggregate() == committed
