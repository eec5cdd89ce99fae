"""The shared-memory parallel runtime.

:class:`ParallelRuntime` owns the two resources every parallel path in the
library shares:

* a **persistent worker pool** — a ``spawn``-context
  :class:`~concurrent.futures.ProcessPoolExecutor` started lazily on the
  first parallel dispatch and reused for every subsequent fan-out (pool
  growth rounds, CRN sweeps, harness realizations alike), so process
  startup is paid once per runtime, not once per task;
* a **publication cache** — graphs and realization batches are packed into
  ``multiprocessing.shared_memory`` once (:mod:`repro.parallel.shm`) and
  addressed by picklable handles from then on; a small LRU keeps the
  per-round residual graphs of adaptive runs from accumulating segments.

``jobs=1`` is the degenerate runtime: :attr:`parallel` is False, no worker
processes or shared memory are ever created, and callers run the exact same
chunk functions in-process — the work decomposition (and therefore every
random draw) is identical for any worker count, which is what makes
``jobs=1`` the bit-exact reference for ``jobs=N``.

Dispatch is **supervised** (:meth:`ParallelRuntime.map_ordered`): a frozen
:class:`FaultPolicy` bounds how long the supervisor waits on any chunk, how
often a transiently failing chunk is retried (exponential backoff), how
many times a broken or hung pool is rebuilt (republishing any shared
segment that went missing, under its original name, so in-flight handles
stay valid), and what happens when those budgets run out — raise a
:class:`~repro.errors.WorkerPoolError`, or *degrade*: run the surviving
chunks in-process.  Because every chunk's randomness is fixed by its
lifetime index (the chunk-indexed seeding invariant), a retried, rebuilt,
or degraded chunk produces exactly the bytes the clean ``jobs=1`` run
would — recovery never changes results, only where the work happens.

The runtime is a context manager; :meth:`close` (or garbage collection, or
interpreter exit — a :func:`weakref.finalize` hook covers both) shuts the
pool down (killing hung workers rather than joining them forever) and
unlinks every published segment.
"""

from __future__ import annotations

import contextlib
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    import numpy as np

    from repro.graph.digraph import DiGraph
    from repro.parallel.shm import ArrayHandle
    from repro.testing.faults import FaultInjection

from repro.errors import (
    ConfigurationError,
    TransientWorkerError,
    WorkerPoolError,
)
from repro.parallel.shm import (
    GraphHandle,
    RealizationsHandle,
    SharedArrayBundle,
    share_graph,
    share_realizations,
    sweep_orphans,
)
from repro.utils.timing import Deadline, backoff_sleep
from repro.utils.validation import (
    check_optional_positive_int,
    check_positive_float,
    check_positive_int,
)

#: Published graphs kept mapped per runtime.  Two is the steady state of an
#: adaptive run (the round's residual plus the previous round's stragglers);
#: a little slack costs only address space.
_GRAPH_CACHE_SIZE = 4

#: Published realization batches kept mapped per runtime (the harness uses
#: one shared batch for a whole sweep).
_WORLDS_CACHE_SIZE = 2

#: The two terminal behaviors once a chunk's recovery budgets are spent.
POOL_FAILURE_MODES = ("raise", "degrade")


@dataclass(frozen=True)
class FaultPolicy:
    """All supervision knobs for one runtime, frozen at construction.

    Parameters
    ----------
    chunk_timeout:
        Maximum seconds the supervisor waits on one chunk once it becomes
        the gather head (earlier chunks' waits never count against it);
        exceeding it declares the worker hung and triggers a pool rebuild.
        ``None`` (default) waits forever — the pre-supervision behavior.
    max_retries:
        In-place retries per chunk for transient failures
        (:class:`~repro.errors.TransientWorkerError`) before the terminal
        ``on_pool_failure`` behavior applies to it.
    backoff_base:
        First retry delay in seconds; attempt ``k`` waits
        ``backoff_base * 2**(k-1)``.
    max_rebuilds:
        Worker-pool rebuilds (after ``BrokenProcessPool`` or a chunk
        timeout) per dispatch before the terminal behavior applies.
    on_pool_failure:
        ``"degrade"`` (default) re-runs the surviving chunks in-process —
        bit-identical to ``jobs=1`` by the chunk-indexed seeding
        invariant; ``"raise"`` fails the dispatch with a
        :class:`~repro.errors.WorkerPoolError`.
    max_segment_bytes:
        Publication budget: a single shared-memory segment larger than
        this raises :class:`~repro.errors.ResourceError` before the OS is
        asked.  ``None`` checks only the shm filesystem's free space.
    """

    chunk_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    max_rebuilds: int = 2
    on_pool_failure: str = "degrade"
    max_segment_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive_float(self.chunk_timeout, "chunk_timeout")
        if not isinstance(self.max_retries, int) or isinstance(self.max_retries, bool):
            raise ConfigurationError(
                f"max_retries must be an int, got {type(self.max_retries).__name__}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not isinstance(self.max_rebuilds, int) or isinstance(self.max_rebuilds, bool):
            raise ConfigurationError(
                f"max_rebuilds must be an int, got {type(self.max_rebuilds).__name__}"
            )
        if self.max_rebuilds < 0:
            raise ConfigurationError(
                f"max_rebuilds must be >= 0, got {self.max_rebuilds}"
            )
        if not self.backoff_base >= 0.0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.on_pool_failure not in POOL_FAILURE_MODES:
            raise ConfigurationError(
                f"on_pool_failure must be one of {POOL_FAILURE_MODES}, "
                f"got {self.on_pool_failure!r}"
            )
        check_optional_positive_int(self.max_segment_bytes, "max_segment_bytes")


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down even when workers are hung or already dead.

    ``shutdown(wait=True)`` alone joins worker processes — forever, if one
    of them is stuck in a chunk.  Cancel what is queued, kill whatever
    processes remain (SIGKILL: a hung worker ignores politeness), then let
    the executor's management machinery wind down.
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.kill()
    executor.shutdown(wait=True, cancel_futures=True)


def _release(state: dict[str, Any]) -> None:
    """Finalizer: tear down the executor and unlink every live segment.

    Leaves ``state`` with empty-but-present containers so that late calls
    on a closed runtime fail through the explicit closed checks rather
    than with a bare ``KeyError``.
    """
    executor = state.get("executor")
    state["executor"] = None
    if executor is not None:
        _shutdown_executor(executor)
    bundles = state.get("bundles") or {}
    state["bundles"] = {}
    for bundle in bundles.values():
        bundle.close()


class ParallelRuntime:
    """A persistent worker pool over a zero-copy shared graph.

    Parameters
    ----------
    jobs:
        Worker count.  ``1`` runs everything in-process (no pool, no shared
        memory) through the same chunked code route, so results are
        bit-identical to any ``jobs >= 2`` run with the same seed.
    fault_policy:
        Supervision knobs (:class:`FaultPolicy`); ``None`` uses the
        defaults (no timeout, 2 retries, 2 rebuilds, degrade).
    injection:
        A :class:`~repro.testing.faults.FaultInjection` spec wrapped
        around every worker-pool submission — test/benchmark chaos only;
        the in-process route and degraded re-runs are never injected.
    """

    def __init__(
        self,
        jobs: int = 1,
        fault_policy: Optional[FaultPolicy] = None,
        injection: Optional[FaultInjection] = None,
    ) -> None:
        check_positive_int(jobs, "jobs")
        if fault_policy is not None and not isinstance(fault_policy, FaultPolicy):
            raise ConfigurationError(
                f"fault_policy must be a FaultPolicy, "
                f"got {type(fault_policy).__name__}"
            )
        self.jobs = int(jobs)
        self.fault_policy = fault_policy if fault_policy is not None else FaultPolicy()
        self._injection = injection
        # Everything needing cleanup lives in _state so the finalizer can
        # reference it without keeping the runtime itself alive.
        self._state: dict[str, Any] = {"executor": None, "bundles": {}}
        self._graphs: OrderedDict[int, tuple[Any, GraphHandle, int]] = OrderedDict()
        self._worlds: OrderedDict[int, tuple[Any, RealizationsHandle, int]] = (
            OrderedDict()
        )
        self._closed = False
        self._chunks_dispatched = 0
        self._faults: dict[str, float] = {
            "retries": 0,
            "timeouts": 0,
            "rebuilds": 0,
            "republished_segments": 0,
            "degraded_chunks": 0,
            "recovered_seconds": 0.0,
            "swept_orphans": 0,
        }
        if self.jobs > 1:
            # Leak guard: reclaim segments orphaned by dead runs before
            # this run starts publishing its own (kill -9 mid-sweep, OOM).
            self._faults["swept_orphans"] = len(sweep_orphans())
        self._finalizer = weakref.finalize(self, _release, self._state)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Whether dispatches actually fan out to worker processes."""
        return self.jobs > 1

    @property
    def fault_stats(self) -> dict[str, float]:
        """A copy of the supervisor's recovery counters.

        Keys: ``retries`` (transient chunk re-runs), ``timeouts`` (chunks
        declared hung), ``rebuilds`` (worker pools replaced),
        ``republished_segments`` (shared segments restored under their
        original names during rebuilds), ``degraded_chunks`` (chunks
        re-run in-process after budget exhaustion), ``recovered_seconds``
        (wall-clock spent inside recovery), ``swept_orphans`` (leaked
        segments of dead runs unlinked at runtime start).
        """
        return dict(self._faults)

    def close(self) -> None:
        """Shut down the pool and unlink all shared segments (idempotent)."""
        self._closed = True
        self._graphs.clear()
        self._worlds.clear()
        self._finalizer()

    def __enter__(self) -> ParallelRuntime:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("parallel runtime is closed")

    def _executor(self) -> ProcessPoolExecutor:
        self._check_open()
        if self._state["executor"] is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            from repro.parallel.tasks import worker_initializer

            self._state["executor"] = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=worker_initializer,
            )
        return self._state["executor"]

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------

    def _adopt(self, bundle: SharedArrayBundle) -> None:
        self._state["bundles"][id(bundle)] = bundle

    def _drop(self, bundle_id: int) -> None:
        bundle = self._state["bundles"].pop(bundle_id, None)
        if bundle is not None:
            bundle.close()

    def publish_graph(self, graph: DiGraph) -> GraphHandle:
        """Shared-memory handle for ``graph``, packed once and cached.

        The cache holds a strong reference to the graph, so ``id(graph)``
        cannot be recycled while its handle is alive; the oldest entries
        are unlinked once more than ``_GRAPH_CACHE_SIZE`` distinct graphs
        (per-round residuals, typically) have been published.
        """
        self._check_open()
        key = id(graph)
        cached = self._graphs.get(key)
        if cached is not None:
            self._graphs.move_to_end(key)
            return cached[1]
        bundle, handle = share_graph(
            graph, max_bytes=self.fault_policy.max_segment_bytes
        )
        self._adopt(bundle)
        self._graphs[key] = (graph, handle, id(bundle))
        while len(self._graphs) > _GRAPH_CACHE_SIZE:
            _, (_, _, old_bundle_id) = self._graphs.popitem(last=False)
            self._drop(old_bundle_id)
        return handle

    def publish_arrays(
        self, arrays: Mapping[str, np.ndarray]
    ) -> tuple[ArrayHandle, Callable[[], None]]:
        """Share a dict of arrays; returns ``(ArrayHandle, release)``.

        The generic escape hatch (the CRN evaluator publishes its stacked
        live-edge worlds through this).  Not cached — callers hold the
        handle for the lifetime of their fan-outs and call ``release()``
        when done; anything not released is unlinked at :meth:`close`.
        Prefer :meth:`published` where the lifetime fits a ``with`` block:
        it cannot lose the release closure to an exception.
        """
        from repro.parallel.shm import pack_arrays

        self._check_open()
        bundle = pack_arrays(
            arrays, max_bytes=self.fault_policy.max_segment_bytes
        )
        self._adopt(bundle)
        bundle_id = id(bundle)
        return bundle.handle, lambda: self._drop(bundle_id)

    @contextlib.contextmanager
    def published(self, arrays: Mapping[str, np.ndarray]) -> Iterator[ArrayHandle]:
        """Context manager over :meth:`publish_arrays`.

        Yields the :class:`~repro.parallel.shm.ArrayHandle` and releases
        the segment on exit — including exceptional exit, which is the
        point: with the bare tuple API, an exception between publication
        and the caller stashing the release closure pins the segment until
        :meth:`close`.
        """
        handle, release = self.publish_arrays(arrays)
        try:
            yield handle
        finally:
            release()

    def publish_realizations(self, realizations: Sequence[Any]) -> RealizationsHandle:
        """Shared-memory handle for a homogeneous realization batch.

        Cached by the identity of ``realizations`` (with a strong
        reference, like :meth:`publish_graph`): the harness scores every
        algorithm and eta point against the *same* ground-truth worlds,
        so the ``count x m`` live-edge matrix is stacked and copied once
        per sweep, not once per fan-out.  Evicted / remaining segments
        are unlinked at eviction / :meth:`close`.
        """
        self._check_open()
        key = id(realizations)
        cached = self._worlds.get(key)
        if cached is not None:
            self._worlds.move_to_end(key)
            return cached[1]
        bundle, handle = share_realizations(
            realizations, max_bytes=self.fault_policy.max_segment_bytes
        )
        self._adopt(bundle)
        self._worlds[key] = (realizations, handle, id(bundle))
        while len(self._worlds) > _WORLDS_CACHE_SIZE:
            _, (_, _, old_bundle_id) = self._worlds.popitem(last=False)
            self._drop(old_bundle_id)
        return handle

    # ------------------------------------------------------------------
    # Supervised dispatch
    # ------------------------------------------------------------------

    def map_ordered(
        self, fn: Callable[..., Any], payloads: Sequence[tuple[Any, ...]]
    ) -> list[Any]:
        """Run ``fn(*payload)`` for every payload, results in input order.

        With ``jobs=1`` this is a plain loop (same functions, same order);
        with workers everything is submitted up front and gathered in
        order under the runtime's :class:`FaultPolicy` — transient chunk
        failures retry in place with backoff, a broken or hung pool is
        rebuilt (with missing shared segments republished under their
        original names), and once those budgets are spent the surviving
        chunks either run in-process (``on_pool_failure="degrade"``, the
        default — bit-identical by the chunk-indexed seeding invariant)
        or the dispatch raises a :class:`~repro.errors.WorkerPoolError`.
        Either way chunk results merge in their deterministic chunk order
        regardless of which worker (or process) finished first.
        """
        self._check_open()
        payloads = [tuple(payload) for payload in payloads]
        if not self.parallel:
            return [fn(*payload) for payload in payloads]
        return self._supervised_gather(fn, payloads)

    def _submit(
        self,
        executor: ProcessPoolExecutor,
        fn: Callable[..., Any],
        chunk_id: int,
        attempt: int,
        payload: tuple[Any, ...],
    ) -> Future[Any]:
        if self._injection is not None:
            from repro.testing.faults import run_with_injection

            return executor.submit(
                run_with_injection, self._injection, chunk_id, attempt, fn, payload
            )
        return executor.submit(fn, *payload)

    def _run_degraded(self, fn: Callable[..., Any], payload: tuple[Any, ...]) -> Any:
        """One chunk in-process: the graceful-degradation executor.

        The same function on the same payload the worker would have run —
        shared-memory handles attach fine in the parent (it owns the
        segments) — so by the chunk-indexed seeding invariant the result
        is byte-for-byte what the clean run produces.  Never injected:
        degraded execution is the reference, not the chaos.
        """
        self._faults["degraded_chunks"] += 1
        return fn(*payload)

    def _rebuild_pool(self) -> ProcessPoolExecutor:
        """Replace a broken/hung pool; republish any missing segments."""
        self._faults["rebuilds"] += 1
        executor = self._state["executor"]
        self._state["executor"] = None
        if executor is not None:
            _shutdown_executor(executor)
        restored = 0
        for bundle in self._state["bundles"].values():
            if not bundle.segment_exists():
                bundle.restore()
                restored += 1
        self._faults["republished_segments"] += restored
        return self._executor()

    def _terminal_failure(
        self,
        chunk_id: int,
        failure: str,
        attempts: int,
        error: Optional[BaseException] = None,
    ) -> None:
        """Budgets spent for a chunk: degrade from here on, or raise."""
        if self.fault_policy.on_pool_failure == "raise":
            raise WorkerPoolError(
                f"chunk {chunk_id} failed ({failure}) after {attempts} "
                f"attempt(s) and {self._faults['rebuilds']} pool rebuild(s); "
                f"fault policy on_pool_failure='raise' forbids degradation"
            ) from error
        # Degrade: the pool (possibly broken or hosting a hung worker) is
        # of no further use this dispatch — tear it down now so nothing
        # lingers; a later dispatch lazily builds a fresh one.
        executor = self._state["executor"]
        self._state["executor"] = None
        if executor is not None:
            _shutdown_executor(executor)

    def _supervised_gather(
        self, fn: Callable[..., Any], payloads: Sequence[tuple[Any, ...]]
    ) -> list[Any]:
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        policy = self.fault_policy
        count = len(payloads)
        first_id = self._chunks_dispatched
        self._chunks_dispatched += count
        chunk_ids = [first_id + i for i in range(count)]
        attempts = [0] * count
        results: list[Any] = [None] * count
        done = [False] * count
        degraded = False
        rebuilds_left = policy.max_rebuilds

        executor = self._executor()
        futures = [
            self._submit(executor, fn, chunk_ids[i], 0, payloads[i])
            for i in range(count)
        ]

        head = 0
        while head < count:
            if done[head]:
                head += 1
                continue
            if degraded:
                results[head] = self._run_degraded(fn, payloads[head])
                done[head] = True
                head += 1
                continue
            error: Optional[BaseException] = None
            # One Deadline per wait: the head chunk gets the policy's full
            # budget each attempt, measured on the same monotonic clock
            # the service layer's request deadlines use.
            wait = Deadline.after(policy.chunk_timeout)
            try:
                results[head] = futures[head].result(timeout=wait.remaining())
                done[head] = True
                head += 1
                continue
            except FuturesTimeout:
                failure = "timeout"
            except BrokenProcessPool as exc:
                failure = "broken pool"
                error = exc
            except TransientWorkerError as exc:
                failure = "transient failure"
                error = exc
            # Anything else — a deterministic chunk exception, or the
            # user's KeyboardInterrupt — propagates untouched; retrying
            # a genuine bug only hides it, and Ctrl-C means stop.

            recovery_started = time.perf_counter()
            try:
                if failure == "transient failure":
                    # The pool is healthy; retry just this chunk.
                    attempts[head] += 1
                    if attempts[head] > policy.max_retries:
                        self._terminal_failure(
                            chunk_ids[head], failure, attempts[head], error
                        )
                        degraded = True
                        continue
                    self._faults["retries"] += 1
                    backoff_sleep(policy.backoff_base, attempts[head])
                    futures[head] = self._submit(
                        executor, fn, chunk_ids[head], attempts[head],
                        payloads[head],
                    )
                    continue
                # Timeout or broken pool: the pool itself is suspect.
                if failure == "timeout":
                    self._faults["timeouts"] += 1
                # Chunks that finished before the pool died keep their
                # results; everything else reruns on the rebuilt pool.
                for j in range(head, count):
                    future = futures[j]
                    if done[j] or future is None or not future.done():
                        continue
                    if future.cancelled() or future.exception() is not None:
                        continue
                    results[j] = future.result()
                    done[j] = True
                if rebuilds_left <= 0:
                    self._terminal_failure(
                        chunk_ids[head], failure, attempts[head] + 1, error
                    )
                    degraded = True
                    continue
                rebuilds_left -= 1
                executor = self._rebuild_pool()
                for j in range(head, count):
                    if done[j]:
                        continue
                    # Every resubmitted chunk gets a fresh attempt number:
                    # the one that crashed must not replay its failure,
                    # and the innocent in-flight ones died with the pool.
                    attempts[j] += 1
                    futures[j] = self._submit(
                        executor, fn, chunk_ids[j], attempts[j], payloads[j]
                    )
            finally:
                self._faults["recovered_seconds"] = round(
                    float(self._faults["recovered_seconds"])
                    + (time.perf_counter() - recovery_started),
                    6,
                )
        return results
