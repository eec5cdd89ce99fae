"""Run outcomes and the small statistics every workload reports."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class Outcome:
    """What one workload run measured, and whether its outputs were right."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Extra figures for the human-readable lines (not part of the result).
    notes: dict[str, Any] = field(default_factory=dict)

    def count(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def percentile_ms(seconds: list[float], q: float) -> float:
    """The ``q``-th percentile of durations given in seconds, in ms."""
    if not seconds:
        return 0.0
    return float(np.percentile(np.asarray(seconds) * 1000.0, q))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process, or of its largest waited-for
    child (Linux reports ``ru_maxrss`` in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
