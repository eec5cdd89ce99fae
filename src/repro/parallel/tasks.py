"""Work-unit kernels and their worker-process entry points.

Every parallel path in the library decomposes into chunks that are pure
functions of ``(shared arrays, small pickled payload, chunk seed)``:

* :func:`sample_chunk` — one engine call's worth of reverse samples
  (the unit :meth:`~repro.sampling.engine.BatchSampler.fill` fans out);
* :func:`crn_chunk` — one labeled forward sweep over a slice of the CRN
  evaluator's flattened candidate x world jobs;
* :func:`adaptive_shard` — a contiguous block of the harness's adaptive
  sessions, run through the round-synchronous batch engine;
* :func:`spread_shard` — non-adaptive evaluation of one fixed seed set on
  a block of ground-truth realizations.

Each kernel has a ``worker_*`` twin that first rebuilds its zero-copy
graph/realization views from the shared-memory handles
(:mod:`repro.parallel.shm`) and then calls the kernel — the in-process
``jobs=1`` route calls the kernels directly with live objects, so both
routes execute identical code on identical inputs.

Determinism: kernels that draw randomness receive an explicit
:class:`numpy.random.SeedSequence` for the chunk; nothing here touches
global RNG state, so a chunk's output depends only on its payload, never
on which worker (or how many workers) ran it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.parallel.shm import (
    ArrayHandle,
    GraphHandle,
    RealizationsHandle,
    disable_shm_tracking,
    graph_from_handle,
    realizations_from_handle,
)

if TYPE_CHECKING:
    from repro.diffusion.base import DiffusionModel
    from repro.graph.digraph import DiGraph


def worker_initializer() -> None:  # pragma: no cover - runs in workers
    """Per-worker setup: attachments must not fight the resource tracker."""
    disable_shm_tracking()


# One pooled visitation bitset per worker process, grown on demand and
# restored to all-False by every BFS driver call (the same contract as the
# engines' in-process scratch).
_scratch: Optional[np.ndarray] = None


def _scratch_for(size: int) -> np.ndarray:
    global _scratch
    if _scratch is None or len(_scratch) < size:
        _scratch = np.zeros(size, dtype=bool)
    return _scratch


# ----------------------------------------------------------------------
# Reverse-sampling chunks (BatchSampler.fill fan-out)
# ----------------------------------------------------------------------

def sample_chunk(
    graph: DiGraph,
    model: DiffusionModel,
    roots: Any,
    count: int,
    seed_seq: np.random.SeedSequence,
    scratch: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate ``count`` reverse samples from the chunk's own stream.

    Returns the CSR-packed ``(members, indptr, root_counts)`` triple the
    parent merges straight into its
    :class:`~repro.sampling.coverage.CoverageIndex`.
    """
    rng = np.random.default_rng(seed_seq)
    root_ids, roots_indptr = roots.draw(rng, count)
    members, indptr = model.reverse_sample_batch(
        graph, root_ids, roots_indptr, rng, scratch
    )
    # Members are node ids < n: ship them at the graph's (compact) index
    # width, halving the pickled result payload on int32-eligible graphs.
    return members.astype(graph.index_dtype, copy=False), indptr, np.diff(roots_indptr)


def worker_sample_chunk(
    graph_handle: GraphHandle,
    model: DiffusionModel,
    roots: Any,
    count: int,
    seed_seq: np.random.SeedSequence,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    graph = graph_from_handle(graph_handle)
    return sample_chunk(
        graph, model, roots, count, seed_seq, _scratch_for(count * graph.n)
    )


# ----------------------------------------------------------------------
# CRN evaluation chunks (CRNSpreadEvaluator.spread_matrix fan-out)
# ----------------------------------------------------------------------

def worker_crn_chunk(
    graph_handle: GraphHandle,
    kind: str,
    worlds_handle: ArrayHandle,
    sets_block: list[np.ndarray],
    world_ids: np.ndarray,
) -> np.ndarray:
    from repro.diffusion.montecarlo import crn_chunk
    from repro.parallel.shm import attach_arrays

    graph = graph_from_handle(graph_handle)
    worlds = attach_arrays(worlds_handle)["worlds"]
    return crn_chunk(
        graph,
        kind,
        worlds,
        sets_block,
        world_ids,
        _scratch_for(len(world_ids) * graph.n),
    )


# ----------------------------------------------------------------------
# Harness shards (independent realizations fan-out)
# ----------------------------------------------------------------------

def adaptive_shard(
    graph: DiGraph,
    realizations: Sequence[Any],
    algorithm_spec: dict[str, Any],
    eta: int,
    seed_seqs: Sequence[np.random.SeedSequence],
) -> list[tuple[int, int, float, tuple[int, ...]]]:
    """Run one algorithm over a block of ground-truth realizations.

    ``algorithm_spec`` holds :func:`repro.experiments.harness
    .build_algorithm` keyword arguments; each session gets the generator
    spawned from its own per-realization seed sequence, so shard
    boundaries never shift any session's stream.  Returns the
    per-realization ``(seed_count, spread, seconds, marginal_spreads)``
    tuples the harness folds into its outcome records.
    """
    from repro.experiments.harness import build_algorithm

    algorithm = build_algorithm(**algorithm_spec)
    streams = [np.random.default_rng(seq) for seq in seed_seqs]
    if hasattr(algorithm, "run_batch"):
        results = algorithm.run_batch(graph, eta, list(realizations), seeds=streams)
    else:  # pragma: no cover - every adaptive roster entry has run_batch
        results = [
            algorithm.run(graph, eta, realization=phi, seed=rng)
            for phi, rng in zip(realizations, streams)
        ]
    return [
        (
            result.seed_count,
            result.spread,
            result.seconds,
            tuple(result.marginal_spreads),
        )
        for result in results
    ]


def worker_adaptive_shard(
    graph_handle: GraphHandle,
    worlds_handle: RealizationsHandle,
    indices: Sequence[int],
    algorithm_spec: dict[str, Any],
    eta: int,
    seed_seqs: Sequence[np.random.SeedSequence],
) -> list[tuple[int, int, float, tuple[int, ...]]]:
    graph = graph_from_handle(graph_handle)
    realizations = realizations_from_handle(graph, worlds_handle, indices)
    return adaptive_shard(graph, realizations, algorithm_spec, eta, seed_seqs)


def spread_shard(
    realizations: Sequence[Any], seeds: Sequence[int]
) -> list[int]:
    """Realized spread of one fixed seed set on each realization."""
    return [int(phi.spread(seeds)) for phi in realizations]


def worker_spread_shard(
    graph_handle: GraphHandle,
    worlds_handle: RealizationsHandle,
    indices: Sequence[int],
    seeds: Sequence[int],
) -> list[int]:
    graph = graph_from_handle(graph_handle)
    realizations = realizations_from_handle(graph, worlds_handle, indices)
    return spread_shard(realizations, seeds)
