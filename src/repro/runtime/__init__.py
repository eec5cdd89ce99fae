"""Execution-policy runtime: the one object every engine layer shares.

:class:`~repro.runtime.context.ExecutionContext` owns all engine policy —
batch sizes and tolerances, pool-reuse, the worker count together with the
lazily created :class:`~repro.parallel.runtime.ParallelRuntime`, the
``SeedSequence``-rooted RNG factory, the compact-graph-storage policy, and
the aggregated diagnostics sink.  Construct one at the top of a run (or let
:meth:`repro.experiments.config.ExperimentConfig.to_context` do it) and
pass it down as the single ``context=`` argument every engine accepts.
"""

from repro.runtime.context import ExecutionContext, default_context
from repro.runtime.planner import (
    CalibrationEntry,
    CalibrationTable,
    GraphStats,
    PlanDecision,
    plan,
)

__all__ = [
    "ExecutionContext",
    "default_context",
    "CalibrationEntry",
    "CalibrationTable",
    "GraphStats",
    "PlanDecision",
    "plan",
]
