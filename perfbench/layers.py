"""Which public functions the traced run wraps, and the per-layer metrics.

Each layer is named after the module boundary it sits on; the wrapped
callables are the public entry points every adaptive round goes through.
:func:`sweep_targets` covers the offline sweeps (including the pool
store), :func:`service_targets` the service's compute phase plus the same
engine layers underneath it.

Which end-to-end metric a faster layer should move, and where:

====================  ==============================  =======================
layer                 end-to-end metric               workload
====================  ==============================  =======================
roots.draw            ms_per_op, latency_ms_p50       paper_ic, paper_lt,
                                                      service_mix
bfs.reverse           ms_per_op, latency_ms_p50       paper_ic (IC coins),
                                                      paper_lt (LT walk)
coverage.add          ms_per_op; latency_ms_p50 via   paper_ic; service_mix
                      warm adopts
coverage.greedy       ms_per_op, latency_ms_p90       paper_ic, paper_lt
                      (ASTI-4 rounds)
coverage.argmax       latency_ms_p50                  paper_ic
carry.*               latency_ms_p50                  paper_ic, service_mix
select (self)         latency_ms_p50                  every sweep
observe.reveal,       ms_per_op                       paper_lt
residual.shrink
store.save/load       ms_per_op (cold sweeps) /       sweep_store only
                      latency_ms_* (warm rounds)
service.*             latency_ms_p50/p90              service_mix
setup.*               setup_s                         every sweep
====================  ==============================  =======================
"""

from __future__ import annotations

from spans import CountFn, Target


def _add(name: str, value) -> CountFn:
    def count(counts, args, kwargs, result) -> None:
        counts[name] += value(args, kwargs, result)

    return count


def _calls(name: str) -> CountFn:
    return _add(name, lambda args, kwargs, result: 1)


def _both(*fns: CountFn) -> CountFn:
    def count(counts, args, kwargs, result) -> None:
        for fn in fns:
            fn(counts, args, kwargs, result)

    return count


def _revalidated(counts, args, kwargs, result) -> None:
    _, diagnostics = result
    counts["carry.offered"] += diagnostics.sets_offered
    counts["carry.carried"] += diagnostics.sets_carried


def _store_loaded(counts, args, kwargs, result) -> None:
    counts["store.load.calls"] += 1
    if result is not None:
        arrays, _ = result
        counts["store.load.hits"] += 1
        counts["store.load.bytes"] += sum(a.nbytes for a in arrays.values())


def _store_saved(counts, args, kwargs, result) -> None:
    arrays = args[2] if len(args) > 2 else kwargs["arrays"]
    counts["store.save.calls"] += 1
    counts["store.save.bytes"] += sum(a.nbytes for a in arrays.values())


def engine_targets() -> list[Target]:
    """The adaptive-round layers shared by sweeps and service requests."""
    from repro.core import session
    from repro.core.trim import TrimSelector
    from repro.core.trim_b import TrimBSelector
    from repro.diffusion.ic import IndependentCascade
    from repro.diffusion.lt import LinearThreshold
    from repro.sampling.coverage import CoverageIndex
    from repro.sampling.engine import RandomizedRoundingRootDrawer
    from repro.sampling.mrr import CarriedMRRPool, MRRCollection

    bfs_count = _both(
        _add("bfs.reverse.sets", lambda a, k, r: len(r[1]) - 1),
        _add("bfs.reverse.members", lambda a, k, r: len(r[0])),
    )
    return [
        Target(TrimSelector, "select_with_pool", "select"),
        Target(TrimBSelector, "select_with_pool", "select"),
        Target(
            RandomizedRoundingRootDrawer, "draw", "roots.draw",
            _add("roots.draw.roots", lambda a, k, r: len(r[0])),
        ),
        Target(IndependentCascade, "reverse_sample_batch", "bfs.reverse", bfs_count),
        Target(LinearThreshold, "reverse_sample_batch", "bfs.reverse", bfs_count),
        Target(
            CoverageIndex, "add_batch", "coverage.add",
            _add("coverage.add.members", lambda a, k, r: len(a[1])),
        ),
        Target(
            CoverageIndex, "greedy_max_coverage", "coverage.greedy",
            _calls("coverage.greedy.calls"),
        ),
        Target(CoverageIndex, "argmax_node", "coverage.argmax"),
        Target(CarriedMRRPool, "revalidate", "carry.revalidate", _revalidated),
        Target(MRRCollection, "export_carry", "carry.export"),
        Target(session, "batch_reachable_from", "observe.reveal"),
        Target(session, "shrink_residual", "residual.shrink"),
    ]


def setup_targets() -> list[Target]:
    """A sweep's set-up: its graph build and its shared realizations."""
    from repro.experiments import harness
    from repro.experiments.datasets import DatasetSpec

    return [
        Target(DatasetSpec, "build", "setup.graph"),
        Target(harness, "sample_shared_realizations", "setup.worlds"),
    ]


def sweep_targets() -> list[Target]:
    from repro.store.disk import PoolStore

    return [
        *setup_targets(),
        Target(PoolStore, "save", "store.save", _store_saved),
        Target(PoolStore, "load", "store.load", _store_loaded),
        *engine_targets(),
    ]


def service_targets() -> list[Target]:
    from repro.service import handlers

    return [
        Target(
            handlers, "load_graph", "service.graph_load",
            _calls("service.graph_load.calls"),
        ),
        Target(
            handlers, "run_estimate", "service.compute",
            _calls("service.compute.calls"),
        ),
        Target(
            handlers, "run_solve", "service.compute",
            _calls("service.compute.calls"),
        ),
        *engine_targets(),
    ]


#: Every layer whose self time is reported, in report order.
LAYERS = (
    "setup.graph",
    "setup.worlds",
    "select",
    "roots.draw",
    "bfs.reverse",
    "coverage.add",
    "coverage.greedy",
    "coverage.argmax",
    "carry.revalidate",
    "carry.export",
    "observe.reveal",
    "residual.shrink",
    "store.save",
    "store.load",
    "service.compute",
    "service.graph_load",
)

#: Counters reported as they were taken.
COUNTS = (
    "roots.draw.roots",
    "bfs.reverse.sets",
    "bfs.reverse.members",
    "coverage.add.members",
    "coverage.greedy.calls",
    "carry.offered",
    "carry.carried",
    "store.save.calls",
    "store.save.bytes",
    "store.load.calls",
    "store.load.bytes",
    "service.compute.calls",
    "service.graph_load.calls",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    self_seconds: dict[str, float], counts: dict[str, float], traced_wall: float
) -> dict[str, float]:
    """Per-layer self times, counts, and the ratios derived from them.

    ``trace.coverage_frac`` is the named layers' self time over the traced
    wall time: the share of the run the split accounts for.
    """
    unknown = set(self_seconds) - set(LAYERS)
    if unknown:
        raise ValueError(f"spans from unreported layers: {sorted(unknown)}")
    metrics = {f"{layer}.self_s": self_seconds.get(layer, 0.0) for layer in LAYERS}
    metrics.update({name: counts.get(name, 0.0) for name in COUNTS})
    metrics["bfs.reverse.members_per_s"] = _ratio(
        counts.get("bfs.reverse.members", 0.0), self_seconds.get("bfs.reverse", 0.0)
    )
    metrics["carry.carried_frac"] = _ratio(
        counts.get("carry.carried", 0.0), counts.get("carry.offered", 0.0)
    )
    metrics["store.hit_frac"] = _ratio(
        counts.get("store.load.hits", 0.0), counts.get("store.load.calls", 0.0)
    )
    metrics["trace.coverage_frac"] = _ratio(sum(self_seconds.values()), traced_wall)
    return metrics
