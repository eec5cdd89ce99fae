"""The calibration-table-driven execution planner.

Picks the :class:`~repro.runtime.context.ExecutionContext` performance
knobs — ``sample_batch_size``, ``mc_batch_size``, ``jobs``,
``kernel_backend`` — from graph statistics (n, m, degree skew) and the
diffusion model, using **measured** calibration data when available and a
conservative static heuristic otherwise.  The same measure-then-choose-a-
plan discipline as cost-based query planning: the calibration sweep
(``examples/context_tuning.py --out calibration.json``) records seconds
per knob combination on fixture graphs, and planning reduces to a nearest-
fixture lookup plus an argmin over the recorded combinations.

Entry points::

    context = ExecutionContext.from_plan(graph, model,
                                         calibration="calibration.json")
    repro solve ... --plan auto --calibration calibration.json

The decision (source, reason, chosen knobs, matched fixture and distance)
is recorded in the context's diagnostics via ``note_plan()``, so a planned
run is always auditable.

Invalidation: calibration files carry :data:`CALIBRATION_VERSION`; a
version mismatch (stale schema), an unreadable file, an empty table, or no
fixture within :data:`DEFAULT_MAX_DISTANCE` in log-space all fall back to
the static heuristic — planning never fails a run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

#: Schema version of calibration JSON files.  Bumped when the recorded
#: fields or their meaning change; stale files are ignored (with a reason
#: in the plan decision), never misread.
CALIBRATION_VERSION = 1

#: Maximum acceptable fixture distance in (ln n, ln m) space.  2.0 accepts
#: fixtures within roughly an order of magnitude in scale — beyond that,
#: measured timings say little about this graph and the heuristic is the
#: safer guide.
DEFAULT_MAX_DISTANCE = 2.0

#: Static-heuristic batch sizing: target roughly this many node-visits of
#: frontier working set per reverse-engine call, clamped to the calibrated
#: grid's extremes.
_HEURISTIC_BATCH_TARGET = 4_000_000
_HEURISTIC_BATCH_MIN = 64
_HEURISTIC_BATCH_MAX = 1024

#: Static-heuristic parallelism: workers only pay off once per-fill work
#: dwarfs the spawn + publish overhead, and only on genuinely multi-core
#: hosts.
_HEURISTIC_PARALLEL_EDGES = 200_000
_HEURISTIC_MIN_CPUS = 4
_HEURISTIC_MAX_JOBS = 4


@dataclass(frozen=True)
class GraphStats:
    """The planner's view of a graph: size, density, skew."""

    n: int
    m: int
    avg_degree: float
    degree_skew: float

    @classmethod
    def from_graph(cls, graph: Any) -> GraphStats:
        n = int(graph.n)
        m = int(graph.m)
        degrees = graph.out_degrees() + graph.in_degrees()
        mean = float(degrees.mean()) if n else 0.0
        skew = float(degrees.max() / mean) if n and mean > 0 else 1.0
        return cls(n=n, m=m, avg_degree=(m / n if n else 0.0), degree_skew=skew)


@dataclass(frozen=True)
class CalibrationEntry:
    """One measured knob combination on one fixture graph."""

    n: int
    m: int
    degree_skew: float
    model: str
    sample_batch_size: int
    mc_batch_size: Optional[int]
    jobs: int
    kernel_backend: str
    seconds: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "m": self.m,
            "degree_skew": self.degree_skew,
            "model": self.model,
            "sample_batch_size": self.sample_batch_size,
            "mc_batch_size": self.mc_batch_size,
            "jobs": self.jobs,
            "kernel_backend": self.kernel_backend,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class CalibrationTable:
    """A versioned collection of calibration measurements."""

    entries: tuple[CalibrationEntry, ...]
    version: int = CALIBRATION_VERSION

    @classmethod
    def from_dict(cls, payload: Any) -> CalibrationTable:
        if not isinstance(payload, dict):
            raise ValueError("calibration payload must be a JSON object")
        version = payload.get("version")
        if not isinstance(version, int):
            raise ValueError("calibration payload missing integer 'version'")
        raw_entries = payload.get("entries", [])
        if not isinstance(raw_entries, list):
            raise ValueError("calibration 'entries' must be a list")
        entries: list[CalibrationEntry] = []
        for raw in raw_entries:
            if not isinstance(raw, dict):
                raise ValueError(f"calibration entry must be an object: {raw!r}")
            entries.append(
                CalibrationEntry(
                    n=int(raw["n"]),
                    m=int(raw["m"]),
                    degree_skew=float(raw.get("degree_skew", 1.0)),
                    model=str(raw["model"]),
                    sample_batch_size=int(raw["sample_batch_size"]),
                    mc_batch_size=(
                        None
                        if raw.get("mc_batch_size") is None
                        else int(raw["mc_batch_size"])
                    ),
                    # A null jobs (older tables) is the in-process route.
                    jobs=1 if raw.get("jobs") is None else int(raw["jobs"]),
                    kernel_backend=str(raw.get("kernel_backend", "auto")),
                    seconds=float(raw["seconds"]),
                )
            )
        return cls(entries=tuple(entries), version=version)

    @classmethod
    def load(cls, path: Union[str, Path]) -> CalibrationTable:
        """Parse a calibration JSON file; raises on IO/shape problems."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(payload)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "entries": [entry.to_dict() for entry in self.entries],
        }


@dataclass(frozen=True)
class PlanDecision:
    """What the planner chose, and why."""

    source: str  # "calibration" | "heuristic"
    reason: str
    sample_batch_size: int
    mc_batch_size: Optional[int]
    jobs: int
    kernel_backend: str
    #: (n, m) of the calibration fixture the knobs came from, if any.
    fixture: Optional[tuple[int, int]] = None
    #: Distance to that fixture in (ln n, ln m) space.
    distance: Optional[float] = None

    def knobs(self) -> dict[str, Any]:
        """The planned values as ``ExecutionContext`` constructor kwargs."""
        return {
            "sample_batch_size": self.sample_batch_size,
            "mc_batch_size": self.mc_batch_size,
            "jobs": self.jobs,
            "kernel_backend": self.kernel_backend,
        }


def model_name_of(model: Any) -> str:
    """Normalize a model argument to the calibration table's model label."""
    if isinstance(model, str):
        return model
    return str(getattr(model, "name", type(model).__name__))


def fixture_distance(stats: GraphStats, n: int, m: int) -> float:
    """Scale distance in (ln n, ln m) space — size ratios, not differences."""
    dn = math.log(max(stats.n, 1)) - math.log(max(n, 1))
    dm = math.log(max(stats.m, 1)) - math.log(max(m, 1))
    return math.hypot(dn, dm)


def static_plan(stats: GraphStats, model: Any, reason: str = "") -> PlanDecision:
    """The conservative fallback: safe defaults scaled by graph size.

    Batch size targets a bounded frontier working set (small graphs take
    the large batches, large graphs step down); parallelism engages only
    when the edge count makes per-fill work dwarf worker spawn overhead on
    a genuinely multi-core host; the kernel backend stays on ``auto``
    (compiled when importable, numpy otherwise — always bit-identical).
    """
    batch = _HEURISTIC_BATCH_TARGET // max(stats.n, 1)
    batch = max(_HEURISTIC_BATCH_MIN, min(_HEURISTIC_BATCH_MAX, batch))
    cpus = os.cpu_count() or 1
    jobs = 1
    if stats.m >= _HEURISTIC_PARALLEL_EDGES and cpus >= _HEURISTIC_MIN_CPUS:
        jobs = min(_HEURISTIC_MAX_JOBS, cpus)
    detail = reason or "no calibration data"
    return PlanDecision(
        source="heuristic",
        reason=f"static heuristic ({detail})",
        sample_batch_size=int(batch),
        mc_batch_size=None,
        jobs=jobs,
        kernel_backend="auto",
    )


def plan_from_calibration(
    table: CalibrationTable,
    stats: GraphStats,
    model: Any,
    max_distance: float = DEFAULT_MAX_DISTANCE,
) -> Optional[PlanDecision]:
    """Nearest-fixture lookup + argmin over its measured combinations.

    Returns ``None`` (caller falls back to the heuristic) when the table
    has no entries for this model or no fixture close enough in scale.
    """
    label = model_name_of(model)
    entries = [entry for entry in table.entries if entry.model == label]
    if not entries:
        return None
    fixtures: dict[tuple[int, int], list[CalibrationEntry]] = {}
    for entry in entries:
        fixtures.setdefault((entry.n, entry.m), []).append(entry)
    nearest = min(
        fixtures,
        key=lambda fx: (fixture_distance(stats, fx[0], fx[1]), fx),
    )
    distance = fixture_distance(stats, nearest[0], nearest[1])
    if distance > max_distance:
        return None
    best = min(
        fixtures[nearest],
        key=lambda e: (
            e.seconds,
            e.sample_batch_size,
            str(e.jobs),
            str(e.mc_batch_size),
            e.kernel_backend,
        ),
    )
    return PlanDecision(
        source="calibration",
        reason=(
            f"calibrated fixture n={nearest[0]} m={nearest[1]} at "
            f"log-distance {distance:.3f} ({len(fixtures[nearest])} "
            f"measurements, best {best.seconds:.3f}s)"
        ),
        sample_batch_size=best.sample_batch_size,
        mc_batch_size=best.mc_batch_size,
        jobs=best.jobs,
        kernel_backend=best.kernel_backend,
        fixture=nearest,
        distance=distance,
    )


def plan(
    graph: Any,
    model: Any,
    calibration: Any = None,
    max_distance: float = DEFAULT_MAX_DISTANCE,
) -> PlanDecision:
    """Choose knobs for ``graph`` x ``model``; never raises.

    ``calibration`` may be a path to a calibration JSON, an already-loaded
    :class:`CalibrationTable`, or ``None``.  Unreadable, stale-versioned,
    or out-of-range calibration data degrades to the static heuristic with
    the reason recorded in the decision.
    """
    stats = graph if isinstance(graph, GraphStats) else GraphStats.from_graph(graph)
    table: Optional[CalibrationTable] = None
    fallback_reason = "no calibration data"
    if isinstance(calibration, CalibrationTable):
        table = calibration
    elif calibration is not None:
        try:
            table = CalibrationTable.load(calibration)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            table = None
            fallback_reason = f"calibration unreadable: {exc}"
    if table is not None and table.version != CALIBRATION_VERSION:
        fallback_reason = (
            f"calibration version {table.version} != expected "
            f"{CALIBRATION_VERSION} (stale schema)"
        )
        table = None
    if table is not None and not table.entries:
        fallback_reason = "calibration table is empty"
        table = None
    if table is not None:
        decision = plan_from_calibration(table, stats, model, max_distance)
        if decision is not None:
            return decision
        fallback_reason = (
            f"no calibration fixture for model {model_name_of(model)!r} "
            f"within log-distance {max_distance}"
        )
    return static_plan(stats, model, fallback_reason)


def graph_stats(graph: Any) -> GraphStats:
    """Convenience alias used by the calibration sweep."""
    return GraphStats.from_graph(graph)


__all__ = [
    "CALIBRATION_VERSION",
    "DEFAULT_MAX_DISTANCE",
    "CalibrationEntry",
    "CalibrationTable",
    "GraphStats",
    "PlanDecision",
    "fixture_distance",
    "graph_stats",
    "model_name_of",
    "plan",
    "plan_from_calibration",
    "static_plan",
]
