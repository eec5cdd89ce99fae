"""ASTI: the Adaptive Seed minimization via Truncated Influence framework.

Paper Algorithm 1.  The framework is a thin loop over a
:class:`~repro.core.session.AdaptiveSession`:

    repeat
        select a batch maximizing expected marginal truncated spread
        observe its realized influence, shrink the residual graph
    until at least eta nodes are active

Instantiated with :class:`~repro.core.trim.TrimSelector` it carries the
paper's ``(ln eta + 1)^2 / ((1 - 1/e)(1 - eps))`` expected approximation
guarantee (Theorem 3.7); with :class:`~repro.core.trim_b.TrimBSelector` the
guarantee gains a ``rho_b`` factor (Theorem 4.2).

The generic :func:`run_adaptive_policy` driver is shared with the baseline
selectors so every algorithm in the evaluation is scored by the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Optional, Union

import numpy as np

from repro.core.policy import SeedSelector
from repro.core.session import AdaptiveSessionBatch, Observation
from repro.core.trim import TrimSelector
from repro.core.trim_b import TrimBSelector
from repro.diffusion.base import DiffusionModel
from repro.diffusion.realization import Realization
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.mrr import CarriedMRRPool
from repro.utils.rng import RandomSource, as_generator, spawn_generators
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_fraction, check_positive_int


@dataclass(frozen=True)
class RoundRecord:
    """One round of the adaptive loop, for reporting."""

    observation: Observation
    samples_generated: int          # fresh (m)RR sets paid for this round
    seconds: float
    samples_carried: int = 0        # sets reused from the previous round


@dataclass(frozen=True)
class AdaptiveRunResult:
    """Outcome of a full adaptive run on one ground-truth realization."""

    policy_name: str
    eta: int
    seeds: list[int]                 # original node ids, commitment order
    spread: int                      # realized activation count at the end
    rounds: list[RoundRecord] = field(repr=False, default_factory=list)
    seconds: float = 0.0

    @property
    def seed_count(self) -> int:
        """The paper's primary metric: ``|S(pi, phi)|``."""
        return len(self.seeds)

    @property
    def achieved_target(self) -> bool:
        """Adaptive policies always achieve it; kept for symmetric reports."""
        return self.spread >= self.eta

    @property
    def total_samples(self) -> int:
        """Total fresh (m)RR sets generated (paid for) across rounds."""
        return sum(r.samples_generated for r in self.rounds)

    @property
    def total_samples_carried(self) -> int:
        """Total mRR sets reused from earlier rounds instead of resampled."""
        return sum(r.samples_carried for r in self.rounds)

    @property
    def marginal_spreads(self) -> list[int]:
        """Per-round realized marginal spread (paper Figure 10's series)."""
        return [r.observation.marginal_spread for r in self.rounds]


def run_adaptive_policy(
    graph: DiGraph,
    eta: int,
    model: DiffusionModel,
    selector: SeedSelector,
    realization: Optional[Realization] = None,
    seed: RandomSource = None,
    max_rounds: Optional[int] = None,
    kernel: str = "auto",
) -> AdaptiveRunResult:
    """Run the select-observe loop to completion (Algorithm 1).

    Parameters
    ----------
    graph, eta, model:
        Problem instance.
    selector:
        Per-round strategy (TRIM, TRIM-B, or a baseline selector).
    realization:
        Ground truth world.  ``None`` samples a fresh one from ``model``;
        the experiment harness passes pre-sampled realizations so all
        algorithms face identical worlds.
    seed:
        Random stream for the selector's internal sampling (and for the
        realization, when one must be drawn here).
    max_rounds:
        Safety valve for tests; ``None`` allows up to ``eta`` rounds, which
        is the true worst case (every round activates >= 1 node).
    kernel:
        Per-level BFS backend for the reveal sweeps (see
        :mod:`repro.kernels`); runs are bit-identical across backends.
    """
    check_positive_int(eta, "eta")
    if eta > graph.n:
        raise ConfigurationError(f"eta={eta} exceeds node count {graph.n}")
    rng = as_generator(seed)
    if realization is None:
        realization = model.sample_realization(graph, rng)
    return run_adaptive_policy_batch(
        graph, eta, model, selector, [realization], seeds=[rng],
        max_rounds=max_rounds, kernel=kernel,
    )[0]


def run_adaptive_policy_batch(
    graph: DiGraph,
    eta: int,
    model: DiffusionModel,
    selector: SeedSelector,
    realizations: Sequence[Realization],
    seeds: Union[RandomSource, Sequence[RandomSource]] = None,
    max_rounds: Optional[int] = None,
    kernel: str = "auto",
) -> list[AdaptiveRunResult]:
    """Run Algorithm 1 on many ground-truth worlds round-synchronously.

    The batched adaptive-session engine: all sessions advance in lockstep
    through an :class:`~repro.core.session.AdaptiveSessionBatch`, so every
    round reveals its cascades in *one* batched reachability sweep, and the
    selector's cross-round mRR pool (TRIM/TRIM-B with ``reuse_pool``) is
    threaded per session via :meth:`SeedSelector.select_with_pool`.

    Parameters mirror :func:`run_adaptive_policy` except:

    realizations:
        The ground-truth worlds, one session each (the harness passes its
        shared per-dataset realizations).
    seeds:
        Either one random source — spawned into per-session streams with
        :func:`~repro.utils.rng.spawn_generators` — or an explicit sequence
        of per-session sources, so callers can reproduce sequential runs
        stream for stream.

    Returns one :class:`AdaptiveRunResult` per realization, in order.
    Selector sampling draws only from the session's own stream, so results
    are bit-identical to running the sessions one at a time.
    """
    check_positive_int(eta, "eta")
    if eta > graph.n:
        raise ConfigurationError(f"eta={eta} exceeds node count {graph.n}")
    if seeds is None or isinstance(
        seeds, (int, np.integer, np.random.Generator)
    ):
        rngs = spawn_generators(seeds, len(realizations))
    else:
        # Any other value must be the documented per-session sequence
        # (list, tuple, array, ...), one random source per realization.
        sources = list(seeds)
        if len(sources) != len(realizations):
            raise ConfigurationError(
                f"got {len(sources)} random sources for {len(realizations)} "
                f"realizations"
            )
        rngs = [as_generator(s) for s in sources]

    batch = AdaptiveSessionBatch(graph, eta, realizations, kernel=kernel)
    limit = max_rounds if max_rounds is not None else eta
    rounds: list[list[RoundRecord]] = [[] for _ in realizations]
    carries: list[Optional[CarriedMRRPool]] = [None for _ in realizations]
    while not batch.all_finished:
        active = batch.active_indices
        selections = {}
        select_seconds = {}
        for sid in active:
            if len(rounds[sid]) >= limit:
                raise ConfigurationError(
                    f"adaptive run exceeded {limit} rounds; either max_rounds "
                    f"is too small or the selector is not making progress"
                )
            watch = Stopwatch()
            with watch:
                selections[sid], carries[sid] = selector.select_with_pool(
                    batch.sessions[sid].residual, rngs[sid], carries[sid]
                )
            select_seconds[sid] = watch.elapsed
        observe_timer = Stopwatch()
        with observe_timer:
            observations = batch.observe_batch(
                {sid: selection.nodes for sid, selection in selections.items()}
            )
        observe_share = observe_timer.elapsed / len(active)
        for sid in active:
            rounds[sid].append(
                RoundRecord(
                    observation=observations[sid],
                    samples_generated=selections[sid].diagnostics.samples_generated,
                    seconds=select_seconds[sid] + observe_share,
                    samples_carried=selections[sid].diagnostics.samples_carried,
                )
            )
            if batch.sessions[sid].finished:
                # The final round's exported pool has no next round to feed;
                # release the theta-sized snapshot instead of pinning it for
                # the rest of the batch run.
                carries[sid] = None
    return [
        AdaptiveRunResult(
            policy_name=selector.name,
            eta=eta,
            seeds=session.seeds_committed,
            spread=session.activated_count,
            rounds=rounds[sid],
            seconds=sum(record.seconds for record in rounds[sid]),
        )
        for sid, session in enumerate(batch.sessions)
    ]


class ASTI:
    """User-facing facade: ASTI instantiated with TRIM or TRIM-B.

    Examples
    --------
    >>> from repro import ASTI, IndependentCascade
    >>> from repro.graph import generators, weighting
    >>> graph = weighting.weighted_cascade(
    ...     generators.preferential_attachment(300, 3, seed=1, directed=False))
    >>> result = ASTI(IndependentCascade(), epsilon=0.5).run(graph, eta=30, seed=7)
    >>> result.spread >= 30
    True
    """

    def __init__(
        self,
        model: DiffusionModel,
        epsilon: float = 0.5,
        batch_size: int = 1,
        max_samples: Optional[int] = None,
        context: Optional[ExecutionContext] = None,
    ):
        check_fraction(epsilon, "epsilon")
        check_positive_int(batch_size, "batch_size")
        # One execution context carries every engine knob.  An explicit
        # context= is used as-is (and never closed here — its builder owns
        # it); without one the facade builds and owns a default.  Every
        # round's pool growth is chunk-seeded, so the output is
        # bit-identical for every worker count.
        self._owns_context = context is None
        self.context = ExecutionContext() if context is None else context
        if max_samples is None:
            max_samples = self.context.max_samples
        self.model = model
        self.epsilon = epsilon
        self.batch_size = batch_size
        if batch_size == 1:
            self.selector: SeedSelector = TrimSelector(
                model,
                epsilon=epsilon,
                max_samples=max_samples,
                context=self.context,
            )
        else:
            self.selector = TrimBSelector(
                model,
                b=batch_size,
                epsilon=epsilon,
                max_samples=max_samples,
                context=self.context,
            )

    @property
    def sample_batch_size(self) -> int:
        return self.context.sample_batch_size

    @property
    def reuse_pool(self) -> bool:
        return self.context.reuse_pool

    @property
    def jobs(self) -> int:
        return self.context.jobs

    def close(self) -> None:
        """Release the private context's runtime (workers + shared memory).

        A no-op when an explicit ``context=`` was handed in (its owner
        closes it); safe to call repeatedly.  The runtime also cleans
        itself up on garbage collection and interpreter exit, so calling
        this is only required when recycling many facades in one
        long-lived process.
        """
        if self._owns_context:
            self.context.close()

    def __enter__(self) -> ASTI:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def name(self) -> str:
        """Report label: ``ASTI`` for b=1, ``ASTI-b`` otherwise."""
        return "ASTI" if self.batch_size == 1 else f"ASTI-{self.batch_size}"

    def run(
        self,
        graph: DiGraph,
        eta: int,
        realization: Optional[Realization] = None,
        seed: RandomSource = None,
        max_rounds: Optional[int] = None,
    ) -> AdaptiveRunResult:
        """Solve one ASM instance; see :func:`run_adaptive_policy`."""
        result = run_adaptive_policy(
            graph, eta, self.model, self.selector, realization, seed,
            max_rounds, kernel=self.context.kernel_backend,
        )
        return self._renamed(result)

    def run_batch(
        self,
        graph: DiGraph,
        eta: int,
        realizations: Sequence[Realization],
        seeds: Union[RandomSource, Sequence[RandomSource]] = None,
        max_rounds: Optional[int] = None,
    ) -> list[AdaptiveRunResult]:
        """Solve one ASM instance on many worlds at once.

        The facade over :func:`run_adaptive_policy_batch`: the harness (and
        any caller with several ground-truth realizations of one graph)
        gets round-synchronous batched observation plus per-session mRR
        pool carry-over in a single call.
        """
        results = run_adaptive_policy_batch(
            graph, eta, self.model, self.selector, realizations, seeds,
            max_rounds, kernel=self.context.kernel_backend,
        )
        return [self._renamed(result) for result in results]

    def _renamed(self, result: AdaptiveRunResult) -> AdaptiveRunResult:
        # Present under the facade's name (selector reports TRIM/TRIM-B).
        return AdaptiveRunResult(
            policy_name=self.name,
            eta=result.eta,
            seeds=result.seeds,
            spread=result.spread,
            rounds=result.rounds,
            seconds=result.seconds,
        )
