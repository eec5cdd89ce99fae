"""The benchmark's own tests: span arithmetic and a tiny run of each workload.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest
perfbench/selftest.py`` (the file name keeps it out of the library's
default test collection).
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run as entry  # noqa: E402
import service_mix  # noqa: E402
import spans  # noqa: E402
import sweeps  # noqa: E402


def test_self_time_subtracts_children_once_and_sums_siblings():
    recorded = [
        spans.Span("outer", 0.0, 10.0, None),
        spans.Span("inner", 1.0, 4.0, 0),
        spans.Span("leaf", 2.0, 3.0, 1),
        spans.Span("inner", 5.0, 7.0, 0),
    ]
    assert spans.self_times(recorded) == {"outer": 5.0, "inner": 4.0, "leaf": 1.0}


def test_installed_wrappers_nest_count_and_restore():
    namespace = SimpleNamespace()
    namespace.inner = lambda x: [x] * x
    namespace.outer = lambda x: namespace.inner(x) + namespace.inner(x)
    originals = (namespace.inner, namespace.outer)
    tracer = spans.Tracer()
    targets = [
        spans.Target(namespace, "outer", "outer"),
        spans.Target(
            namespace, "inner", "inner",
            lambda counts, args, kwargs, result: counts.__setitem__(
                "items", counts["items"] + len(result)
            ),
        ),
    ]
    with spans.installed(tracer, targets):
        assert namespace.outer(3) == [3] * 6
    assert (namespace.inner, namespace.outer) == originals
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0)]
    assert tracer.counts["items"] == 6
    own = spans.self_times(tracer.spans)
    assert own["outer"] + own["inner"] == pytest.approx(tracer.spans[0].seconds)


TINY_SWEEPS = {
    "paper_ic": sweeps.SweepSpec(
        "nethept-sim", "IC", 150, ("ASTI", "ASTI-4"), sweep_seconds=0.5
    ),
    "paper_lt": sweeps.SweepSpec(
        "epinions-sim", "LT", 150, ("ASTI", "ASTI-4"), sweep_seconds=0.5
    ),
    "sweep_store": sweeps.SweepSpec(
        "nethept-sim", "IC", 150, ("ASTI",), sweep_seconds=0.5, store=True
    ),
}
TINY_MIX = service_mix.MixSpec(
    n=150, eta=10, theta=200, solve_eta=8, rate=16.0
)


def _contract_names(kind: str) -> set[str]:
    return {metric["name"] for metric in entry._load_contract()[kind]}


def _check(outcome, kind: str) -> None:
    assert outcome.problems == []
    assert outcome.attempted > 0 and outcome.failed == 0
    if kind == "end_to_end":
        assert set(outcome.metrics) == _contract_names(kind)
        assert all(value > 0 for value in outcome.metrics.values())
    else:
        assert set(outcome.metrics) <= _contract_names(kind)
        assert outcome.metrics["trace.coverage_frac"] > 0.5


@pytest.mark.parametrize("name", sorted(TINY_SWEEPS))
@pytest.mark.parametrize("trace", [False, True])
def test_sweep_workloads_run_and_check(name, trace, tmp_path):
    # Three seconds at half a second a sweep: two sweeps, three passes each.
    outcome = sweeps.run(TINY_SWEEPS[name], 3, 3.0, trace, tmp_path)
    _check(outcome, "per_layer" if trace else "end_to_end")
    if trace:
        touched = "store.save.calls" if name == "sweep_store" else "bfs.reverse.sets"
        assert outcome.metrics[touched] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_service_mix_runs_and_checks(trace, tmp_path):
    outcome = service_mix.run(TINY_MIX, 3, 1.0, trace, entry.ROOT, tmp_path)
    _check(outcome, "per_layer" if trace else "end_to_end")
    if trace:
        assert outcome.metrics["service.compute.calls"] > 0


def test_schedule_is_seeded_and_keeps_the_mix():
    first = service_mix.schedule(TINY_MIX, 5, 4.0)
    assert first == service_mix.schedule(TINY_MIX, 5, 4.0)
    assert first != service_mix.schedule(TINY_MIX, 6, 4.0)
    kinds = [p.kind for p in first]
    assert kinds.count("warm") == kinds.count("cold") == len(first) * 3 // 8
    warm_keys = {p.payload["seed"] for p in first if p.kind == "warm"}
    assert len(warm_keys) <= service_mix.WARM_KEYS


def test_layer_names_match_the_contract():
    reported = set(layers.layer_metrics({}, {}, 1.0)) | {
        "trace.overhead_frac",
        "service.queue_ms_p50",
        "service.queue_ms_p90",
        "service.carry_adopted",
        "generator.late_ms_p90",
    }
    assert reported == _contract_names("per_layer")
