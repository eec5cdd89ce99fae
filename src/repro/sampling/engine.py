"""The batched (m)RR-set generation engine.

Every pool consumer in the library — TRIM, TRIM-B, AdaptIM's OPIM selector,
IMM, OPIM, ATEUC — grows its pool through :class:`BatchSampler`, which
requests ``batch_size`` reverse samples per call to
:meth:`~repro.diffusion.base.DiffusionModel.reverse_sample_batch` and hands
the CSR-packed result straight to
:meth:`~repro.sampling.coverage.CoverageIndex.add_batch`.  A ``grow_to``
that previously paid per-set Python dispatch thousands of times per round
now runs ``ceil(missing / batch_size)`` engine calls, each a handful of
vectorized NumPy operations over all samples at once.  Every engine call is
a chunk with its own ``SeedSequence``-spawned stream, so a pool is the same
whether its chunks run in-process or on worker processes.

Root selection is a strategy object so the same engine serves both set
families:

* :class:`UniformRootDrawer` — one uniform root per sample (vanilla RR
  sets, Borgs et al. 2014);
* :class:`RandomizedRoundingRootDrawer` — the paper's Theorem 3.3 root
  count ``k in {k_low, k_low + 1}`` with ``E[k] = n / eta``, drawn and
  deduplicated for a whole batch at a time (mRR sets, Definition 3.2).

The one-at-a-time ``RRSampler.sample`` / ``MRRSampler.sample`` paths remain
as the distributional reference that the batch-equivalence tests check
against.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.errors import ConfigurationError, SamplingError
from repro.graph.digraph import DiGraph
from repro.sampling.coverage import CoverageIndex
from repro.store.keys import artifact_key, graph_fingerprint, model_key
from repro.utils.rng import RandomSource, as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mrr imports engine)
    from repro.runtime.context import ExecutionContext
    from repro.sampling.mrr import RootCountRule

#: Default number of reverse samples generated per engine call.  Large
#: enough to amortize NumPy dispatch over the whole batch; the price is a
#: pooled ``batch * n`` boolean visitation bitset per sampler (one byte
#: per bit — 256 MB at n = 1M), so memory-constrained callers on very
#: large graphs should dial this down via the ``sample_batch_size`` knobs
#: (the bitset is allocated lazily with ``np.zeros``, i.e. copy-on-write
#: zero pages, and is reused across all calls of one sampler).
DEFAULT_BATCH_SIZE = 256


class RootDrawer(abc.ABC):
    """Strategy producing the root sets for a batch of reverse samples."""

    @abc.abstractmethod
    def draw(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Roots for ``count`` samples as a CSR ``(roots, indptr)`` pair.

        Each sample's roots must be distinct node ids; ``indptr`` has
        length ``count + 1`` and starts at 0.
        """


class UniformRootDrawer(RootDrawer):
    """One uniformly random root per sample — vanilla RR sets."""

    def __init__(self, n: int):
        if n < 1:
            raise ConfigurationError(f"need n >= 1, got {n}")
        self.n = int(n)

    def draw(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        roots = rng.integers(self.n, size=count, dtype=np.int64)
        return roots, np.arange(count + 1, dtype=np.int64)


class RandomizedRoundingRootDrawer(RootDrawer):
    """Multi-root sets with the paper's randomized-rounding count rule.

    Root counts are drawn for the whole batch in one Bernoulli draw; the
    distinct roots of all samples sharing a count ``k`` are then sampled
    together — by vectorized rejection when ``k`` is small relative to
    ``n`` (collisions are rare, the occasional colliding row is redrawn),
    or by row-wise permutation when ``k`` is a sizable fraction of ``n``.
    """

    def __init__(self, rule: RootCountRule):
        self.rule = rule
        self.n = int(rule.n)

    def draw(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        ks = np.full(count, self.rule.k_low, dtype=np.int64)
        if self.rule.fraction > 0.0:
            ks += rng.random(count) < self.rule.fraction
        np.clip(ks, 1, self.n, out=ks)

        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(ks, out=indptr[1:])
        roots = np.empty(indptr[-1], dtype=np.int64)
        for k in np.unique(ks):
            rows = np.flatnonzero(ks == k)
            block = self._distinct_rows(rng, len(rows), int(k))
            positions = indptr[rows, None] + np.arange(k, dtype=np.int64)
            roots[positions.ravel()] = block.ravel()
        return roots, indptr

    #: Workspace budget (elements) for the argpartition path; bounds the
    #: per-chunk ``(rows, n)`` scratch to ~32 MB of float64 keys.
    _WORKSPACE_ELEMENTS = 4_000_000

    def _distinct_rows(
        self, rng: np.random.Generator, rows: int, k: int
    ) -> np.ndarray:
        """``rows`` independent uniform k-subsets of ``range(n)``.

        Two regimes, split by the birthday bound:

        * ``k(k-1) <= 2n`` — whole-row rejection: a with-replacement draw
          is kept only if all entries are distinct (per-row acceptance
          ``~exp(-k(k-1)/2n) >= ~1/e``, so only rejected rows are redrawn
          and the loop finishes in a handful of shrinking rounds), which
          conditions on distinctness and is exactly uniform over
          k-subsets.  Rejection must NOT be used beyond this band: for
          ``k >> sqrt(n)`` the acceptance probability vanishes and the
          loop effectively never terminates.
        * otherwise — the positions of the ``k`` smallest of ``n`` iid
          uniform keys per row are a uniform k-subset; one vectorized
          ``argpartition`` per chunk, with chunks sized to keep the
          ``(chunk, n)`` key matrix inside a fixed workspace budget.
        """
        if k == 1:
            return rng.integers(self.n, size=(rows, 1), dtype=np.int64)
        if k * (k - 1) <= 2 * self.n:
            block = rng.integers(self.n, size=(rows, k), dtype=np.int64)
            suspect = np.arange(rows)  # rows not yet known collision-free
            while len(suspect):
                ordered = np.sort(block[suspect], axis=1)
                bad = suspect[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]
                if len(bad):
                    block[bad] = rng.integers(
                        self.n, size=(len(bad), k), dtype=np.int64
                    )
                suspect = bad
            return block
        block = np.empty((rows, k), dtype=np.int64)
        chunk = max(1, self._WORKSPACE_ELEMENTS // self.n)
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            keys = rng.random((stop - start, self.n))
            block[start:stop] = np.argpartition(keys, k - 1, axis=1)[:, :k]
        return block


class BatchSampler:
    """Grows an (m)RR pool ``batch_size`` sets per vectorized engine call.

    Parameters
    ----------
    graph:
        The (residual) graph to sample in.
    model:
        Diffusion model providing
        :meth:`~repro.diffusion.base.DiffusionModel.reverse_sample_batch`.
    roots:
        Root-selection strategy (uniform single root for RR pools, the
        randomized-rounding rule for mRR pools).
    seed:
        Random source; one draw from it seeds the root
        :class:`~numpy.random.SeedSequence` every chunk spawns from.
    batch_size:
        Samples per engine call.  Larger batches amortize dispatch further
        but grow the per-call ``batch * n`` visitation bitset.
    context:
        Optional :class:`~repro.runtime.context.ExecutionContext` supplying
        the default ``batch_size`` (``context.sample_batch_size``), the
        kernel backend, the pool store, and the parallel runtime
        (``context.runtime``) that :meth:`fill` shards its chunks across.
        An explicit ``batch_size`` overrides the context.
    """

    def __init__(
        self,
        graph: DiGraph,
        model: DiffusionModel,
        roots: RootDrawer,
        seed: RandomSource = None,
        batch_size: Optional[int] = None,
        context: Optional[ExecutionContext] = None,
    ):
        if graph.n < 1:
            raise SamplingError("cannot sample reverse sets on an empty graph")
        if batch_size is None:
            batch_size = (
                context.sample_batch_size if context is not None
                else DEFAULT_BATCH_SIZE
            )
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.graph = graph
        self.model = model
        self.roots = roots
        self.batch_size = int(batch_size)
        # Per-level BFS backend knob (see repro.kernels); pools are
        # bit-identical across backends, so this is pure policy.
        self._kernel = (
            context.kernel_backend if context is not None else "auto"
        )
        self._runtime = context.runtime if context is not None else None
        # Persistent artifact store (see repro.store): consulted before
        # regenerating a fill.  Disabled for unseeded samplers — their
        # stream is OS entropy, so no future run could ever hit the
        # entries they would write.
        self._store = (
            context.pool_store
            if context is not None and seed is not None
            else None
        )
        self._context = context
        self._recipe_fields: Optional[dict[str, object]] = None
        # Chunk-indexed seeding root: one draw from the caller's stream
        # fixes every future chunk's stream up front (SeedSequence.spawn
        # tracks how many children were already spawned, so the k-th chunk
        # of the sampler's lifetime gets the k-th child no matter how the
        # fill calls are sliced or sharded).
        self._chunk_root = np.random.SeedSequence(
            int(as_generator(seed).integers(np.iinfo(np.int64).max))
        )
        # Pooled visitation bitset, allocated lazily at batch_size * n and
        # restored to all-False by the BFS driver after every call — the
        # batched analogue of the scalar samplers' pooled scratch.
        self._scratch: np.ndarray = None

    def _ensure_scratch(self, count: int) -> np.ndarray:
        if self._scratch is None or len(self._scratch) < count * self.graph.n:
            self._scratch = np.zeros(
                max(count, self.batch_size) * self.graph.n, dtype=bool
            )
        return self._scratch

    def fill(self, index: CoverageIndex, count: int) -> np.ndarray:
        """Append ``count`` fresh sets to ``index``, batch by batch.

        Returns the per-set root counts in generation order (all ones for
        single-root RR pools).  The count splits into
        ``min(remaining, batch_size)`` chunks; chunk ``k`` (globally indexed
        over the sampler's lifetime) draws from the ``k``-th child of the
        sampler's root seed sequence and runs
        :func:`repro.parallel.tasks.sample_chunk` — in-process, or on the
        context runtime's workers when it is parallel — and the CSR-packed
        results merge into ``index`` in chunk order.  The pool is therefore
        bit-identical for every worker count.
        """
        from repro.parallel.tasks import sample_chunk, worker_sample_chunk

        if count < 0:
            raise SamplingError(f"count must be non-negative, got {count}")
        chunks: list[int] = []
        remaining = count
        while remaining > 0:
            step = min(remaining, self.batch_size)
            chunks.append(step)
            remaining -= step
        if not chunks:
            return np.empty(0, dtype=np.int64)
        store_key = None
        if self._store is not None:
            # Every chunk's stream is fixed by the root SeedSequence's
            # entropy and the global spawn offset, so those two values (plus
            # the chunk decomposition) *are* the exact randomness recipe.  A
            # hit spawns (and discards) the same children to keep the offset
            # aligned for subsequent fills.
            store_key = artifact_key(
                "pool",
                {
                    **self._recipe(),
                    "entropy": str(self._chunk_root.entropy),
                    "spawn_offset": int(self._chunk_root.n_children_spawned),
                    "chunks": chunks,
                },
            )
            cached = self._store.load(store_key)
            if cached is not None:
                arrays, _ = cached
                self._chunk_root.spawn(len(chunks))
                index.add_batch(arrays["members"], arrays["indptr"])
                self._tally("pool_store_pool_hits")
                return arrays["root_counts"]
        seqs = self._chunk_root.spawn(len(chunks))
        if self._runtime is None or not self._runtime.parallel:
            # A generator: each chunk merges before the next is sampled.
            results = (
                sample_chunk(
                    self.graph,
                    self.model,
                    self.roots,
                    step,
                    seq,
                    self._ensure_scratch(step),
                    kernel=self._kernel,
                )
                for step, seq in zip(chunks, seqs)
            )
        else:
            graph_handle = self._runtime.publish_graph(self.graph)
            results = self._runtime.map_ordered(
                worker_sample_chunk,
                [
                    (graph_handle, self.model, self.roots, step, seq,
                     self._kernel)
                    for step, seq in zip(chunks, seqs)
                ],
            )
        counts, stored = [], []
        for members, indptr, chunk_counts in results:
            index.add_batch(members, indptr)
            counts.append(chunk_counts)
            if store_key is not None:
                stored.append((members, indptr, chunk_counts))
        root_counts = np.concatenate(counts)
        if store_key is not None:
            members, indptr = _merge_csr_batches(stored)
            self._store.save(
                store_key,
                {"members": members, "indptr": indptr, "root_counts": root_counts},
                {},
            )
        return root_counts

    def grow_to(self, index: CoverageIndex, theta: int) -> np.ndarray:
        """Top ``index`` up to at least ``theta`` sets; see :meth:`fill`."""
        return self.fill(index, max(0, int(theta) - len(index)))

    # ------------------------------------------------------------------
    # Persistent-store plumbing
    # ------------------------------------------------------------------

    def _recipe(self) -> dict[str, object]:
        """The generation-recipe fields shared by every fill of this sampler."""
        if self._recipe_fields is None:
            self._recipe_fields = {
                "graph": graph_fingerprint(self.graph),
                "model": model_key(self.model),
                "roots": _roots_token(self.roots),
                "batch_size": self.batch_size,
            }
        return self._recipe_fields

    def _tally(self, name: str) -> None:
        if self._context is not None:
            self._context.tally(name)


def _roots_token(roots: RootDrawer) -> str:
    """A root-drawer's identity for the store's generation-recipe key."""
    if isinstance(roots, RandomizedRoundingRootDrawer):
        rule = roots.rule
        return (
            f"rounding(n={roots.n},k_low={rule.k_low},"
            f"fraction={rule.fraction!r})"
        )
    if isinstance(roots, UniformRootDrawer):
        return f"uniform(n={roots.n})"
    # Unknown drawers key on their type: never a wrong hit, at worst a
    # collision between two instances of the same (parameterless) class —
    # which the RNG-state / seed-recipe component still disambiguates.
    return f"{type(roots).__module__}.{type(roots).__qualname__}"


def _merge_csr_batches(
    batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-batch ``(members, indptr, _)`` CSR pieces."""
    members = np.concatenate([batch[0] for batch in batches])
    total_sets = sum(len(batch[1]) - 1 for batch in batches)
    indptr = np.zeros(total_sets + 1, dtype=np.int64)
    position, offset = 1, 0
    for _members, batch_indptr, _ in batches:
        size = len(batch_indptr) - 1
        indptr[position:position + size] = batch_indptr[1:] + offset
        position += size
        offset += int(batch_indptr[-1])
    return members, indptr


def rr_batch_sampler(
    graph: DiGraph,
    model: DiffusionModel,
    seed: RandomSource = None,
    batch_size: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> BatchSampler:
    """Engine for single-root RR pools."""
    return BatchSampler(
        graph, model, UniformRootDrawer(graph.n), seed, batch_size, context
    )


def mrr_batch_sampler(
    graph: DiGraph,
    model: DiffusionModel,
    rule: RootCountRule,
    seed: RandomSource = None,
    batch_size: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> BatchSampler:
    """Engine for multi-root mRR pools under a root-count rule."""
    return BatchSampler(
        graph, model, RandomizedRoundingRootDrawer(rule), seed, batch_size,
        context,
    )
