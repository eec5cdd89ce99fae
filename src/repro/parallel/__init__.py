"""Shared-memory parallel runtime for the reproduction's hot paths.

The package has three layers:

* :mod:`repro.parallel.shm` — packing graphs and realization batches into
  ``multiprocessing.shared_memory`` and rebuilding zero-copy views in
  workers;
* :mod:`repro.parallel.runtime` — :class:`ParallelRuntime`, the persistent
  spawn-context worker pool plus publication cache that every parallel
  entry point shares;
* :mod:`repro.parallel.tasks` — the chunk kernels (reverse-sample chunks,
  CRN sweeps, harness realization shards) and their worker-side wrappers.

Every sampling path is chunk-seeded, so results are bit-identical for every
worker count; ``jobs=1`` (the default) runs the chunks in-process with no
pool.
"""

from repro.parallel.runtime import FaultPolicy, ParallelRuntime

__all__ = ["FaultPolicy", "ParallelRuntime"]
