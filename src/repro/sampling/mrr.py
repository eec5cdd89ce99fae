"""Multi-root reverse reachable (mRR) sets — the paper's Section 3.3.

A random mRR set is the set of nodes that reach *any* of ``k`` uniformly
random roots in a random realization (Definition 3.2).  The associated
binary estimator::

    Gamma~(S) = eta  if S intersects the mRR set, else 0

is a biased-but-bounded estimator of the expected truncated spread
``E[Gamma(S)] = E[min{I(S), eta}]``:

    (1 - 1/e) * E[Gamma(S)]  <=  E[Gamma~(S)]  <=  E[Gamma(S)]

(Theorem 3.3), *provided* the root count ``k`` uses the paper's randomized
rounding: with ``k_low = floor(n/eta)`` and ``r = n/eta - k_low``, draw
``k = k_low + 1`` with probability ``r`` and ``k = k_low`` otherwise, so
that ``E[k] = n / eta`` exactly.  Fixing ``k`` at either integer weakens the
bounds (the Remark after Corollary 3.4; reproduced as an ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.errors import ConfigurationError, SamplingError
from repro.graph.digraph import DiGraph
from repro.graph.residual import ResidualGraph
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler
from repro.utils.rng import RandomSource, as_generator


@dataclass(frozen=True)
class RootCountRule:
    """The randomized-rounding distribution of the root-set size ``k``.

    ``k_low`` and ``k_low + 1`` with ``Pr[k_low + 1] = fraction``; both
    values are clamped to ``[1, n]`` so root sampling without replacement is
    always possible.
    """

    k_low: int
    fraction: float
    n: int

    @classmethod
    def for_target(cls, n: int, eta: int) -> RootCountRule:
        """Build the rule with ``E[k] = n / eta`` (paper Theorem 3.3).

        In round ``i`` callers pass the residual values ``n_i`` and
        ``eta_i`` (Corollary 3.4).
        """
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if not 1 <= eta <= n:
            raise ConfigurationError(f"eta must be in [1, n={n}], got {eta}")
        expectation = n / eta
        k_low = int(expectation)
        fraction = expectation - k_low
        return cls(k_low=k_low, fraction=fraction, n=n)

    @classmethod
    def fixed(cls, k: int, n: int) -> RootCountRule:
        """Degenerate rule that always draws exactly ``k`` roots.

        Used by the rounding ablation and to recover vanilla RR sets
        (``k = 1``).
        """
        if not 1 <= k <= n:
            raise ConfigurationError(f"k must be in [1, n={n}], got {k}")
        return cls(k_low=k, fraction=0.0, n=n)

    @property
    def expectation(self) -> float:
        """``E[k]``."""
        return self.k_low + self.fraction

    def support(self) -> tuple[int, ...]:
        """The root counts this rule can produce, after clamping to [1, n].

        ``(k_low,)`` for a degenerate rule, ``(k_low, k_low + 1)``
        otherwise; adjacent rounds whose supports overlap can carry mRR
        sets across (the adaptive engine's pool-reuse validity check).
        """
        values = {min(max(self.k_low, 1), self.n)}
        if self.fraction > 0.0:
            values.add(min(max(self.k_low + 1, 1), self.n))
        return tuple(sorted(values))

    def draw(self, rng: np.random.Generator) -> int:
        """Sample one root count."""
        k = self.k_low + (1 if rng.random() < self.fraction else 0)
        return min(max(k, 1), self.n)


class MRRSampler:
    """Generates mRR sets on a fixed (residual) graph.

    Parameters
    ----------
    graph:
        The residual graph ``G_i``.
    model:
        Diffusion model providing :meth:`reverse_sample`.
    eta:
        The (residual) truncation target ``eta_i``; determines the root
        count rule unless an explicit ``rule`` is supplied.
    rule:
        Override the root-count distribution (ablations only).
    """

    def __init__(
        self,
        graph: DiGraph,
        model: DiffusionModel,
        eta: int,
        seed: RandomSource = None,
        rule: RootCountRule = None,
    ):
        if graph.n < 1:
            raise SamplingError("cannot sample mRR sets on an empty graph")
        if not 1 <= eta <= graph.n:
            raise SamplingError(
                f"eta must be in [1, n={graph.n}], got {eta}; an infeasible "
                f"shortfall should be caught before sampling"
            )
        self.graph = graph
        self.model = model
        self.eta = int(eta)
        self.rule = rule if rule is not None else RootCountRule.for_target(graph.n, eta)
        self._rng = as_generator(seed)
        self._scratch = np.zeros(graph.n, dtype=bool)

    def sample(self) -> np.ndarray:
        """One random mRR set (array of member node ids, roots included)."""
        k = self.rule.draw(self._rng)
        if k * 8 < self.graph.n:
            # Rejection-free distinct sampling via permutation is O(n); for
            # small k the direct choice without replacement is cheaper.
            roots = self._rng.choice(self.graph.n, size=k, replace=False)
        else:
            roots = self._rng.permutation(self.graph.n)[:k]
        return self.model.reverse_sample(self.graph, roots, self._rng, self._scratch)

    def sample_into(self, index: CoverageIndex, count: int) -> None:
        """Append ``count`` fresh mRR sets to a coverage index."""
        if count < 0:
            raise SamplingError(f"count must be non-negative, got {count}")
        for _ in range(count):
            index.add(self.sample())


class MRRCollection:
    """Coverage index plus batched engine, with truncated-spread estimation.

    Pool growth runs through the vectorized
    :class:`~repro.sampling.engine.BatchSampler`; the single-set
    :class:`MRRSampler` remains available as the distributional reference.

    Per-set root counts are tracked alongside the index so a round's final
    pool can be exported (:meth:`export_carry`) and re-validated into the
    next round's pool (:meth:`adopt`) by the adaptive engine's cross-round
    carry-over.
    """

    def __init__(
        self,
        graph: DiGraph,
        model: DiffusionModel,
        eta: int,
        seed: RandomSource = None,
        rule: RootCountRule = None,
        batch_size: Optional[int] = None,
        context=None,
    ):
        rng = as_generator(seed)
        self.sampler = MRRSampler(graph, model, eta, rng, rule)
        self.engine = mrr_batch_sampler(
            graph, model, self.sampler.rule, rng, batch_size, context
        )
        self.index = CoverageIndex(graph.n)
        self._root_counts = np.empty(0, dtype=np.int64)
        self._adopted = 0

    @property
    def graph(self) -> DiGraph:
        return self.sampler.graph

    @property
    def eta(self) -> int:
        return self.sampler.eta

    def __len__(self) -> int:
        return len(self.index)

    @property
    def root_counts(self) -> np.ndarray:
        """Per-set root counts, aligned with the index (read-only view)."""
        return self._root_counts

    @property
    def adopted_count(self) -> int:
        """How many sets were carried over rather than freshly sampled."""
        return self._adopted

    @property
    def fresh_count(self) -> int:
        """How many sets this round actually paid for."""
        return len(self) - self._adopted

    def grow_to(self, theta: int) -> None:
        """Ensure the pool holds at least ``theta`` mRR sets (batched)."""
        missing = theta - len(self.index)
        if missing > 0:
            counts = self.engine.fill(self.index, missing)
            self._root_counts = np.concatenate([self._root_counts, counts])

    def adopt(
        self,
        members: np.ndarray,
        indptr: np.ndarray,
        root_counts: np.ndarray,
    ) -> None:
        """Seed an empty pool with carried-over sets (residual-local ids).

        Must run before any fresh sampling, so carried and fresh sets share
        one index; the carried sets count toward :attr:`adopted_count`, not
        toward :attr:`fresh_count`.
        """
        if len(self.index):
            raise SamplingError("can only adopt carried sets into an empty pool")
        if len(indptr) - 1 != len(root_counts):
            raise SamplingError("root_counts must have one entry per set")
        if len(root_counts) == 0:
            return
        # Carried sets lived in a coverage index last round and revalidation
        # only drops whole sets / remaps ids, so the invariants still hold.
        self.index.add_batch(members, indptr, validate=False)
        self._root_counts = np.asarray(root_counts, dtype=np.int64).copy()
        self._adopted = len(root_counts)

    def export_carry(self, residual: ResidualGraph) -> CarriedMRRPool:
        """Snapshot the pool in *original* node ids for the next round.

        ``residual`` must be the residual graph this pool was sampled on;
        original ids survive the next shrink, residual-local ids do not.
        """
        members, indptr = self.index.packed()
        return CarriedMRRPool(
            members=residual.original_ids[members],
            indptr=indptr.copy(),
            root_counts=self._root_counts.copy(),
        )

    def estimated_truncated_spread(self, seeds: Sequence[int]) -> float:
        """``E[Gamma~(S)] ~ eta * Lambda_R(S) / |R|``.

        By Theorem 3.3 this estimates ``E[Gamma(S)]`` up to a factor in
        ``[1 - 1/e, 1]``.
        """
        if len(self.index) == 0:
            raise SamplingError("no mRR sets generated yet")
        coverage = self.index.coverage_of_set(seeds)
        return self.eta * coverage / len(self.index)

    def estimated_node_truncated_spread(self, node: int) -> float:
        """Single-node estimate using the O(1) coverage counter."""
        if len(self.index) == 0:
            raise SamplingError("no mRR sets generated yet")
        return self.eta * self.index.coverage_of(node) / len(self.index)


@dataclass(frozen=True)
class CarryDiagnostics:
    """What happened to a carried pool during re-validation."""

    sets_offered: int            # pool size at the end of the previous round
    sets_carried: int            # sets that survived both checks
    dropped_activated: int       # sets containing a newly activated member
    dropped_root_count: int      # inactive sets with an invalid root count
    fallback: Optional[str] = None  # reason for a full from-scratch rebuild

    @property
    def carried_fraction(self) -> float:
        if self.sets_offered == 0:
            return 0.0
        return self.sets_carried / self.sets_offered


@dataclass(frozen=True)
class CarriedMRRPool:
    """A round's final mRR pool, exported in *original* node ids.

    The carry-over invariant: conditioned on every member being still
    inactive, a stored set is an exact reverse sample on the shrunk
    residual graph — the live-edge coins among inactive nodes are
    unconditioned by the survival event (a cascade enters the set only
    through an activated->member edge, and survival means precisely that
    all such coins came up blocked).  What carry-over cannot preserve
    exactly is the *root* distribution: the next round's rule
    ``E[k] = n_{i+1} / eta_{i+1}`` may shift to a different support, and
    surviving roots are uniform only conditioned on survival.
    :meth:`revalidate` therefore drops every set whose stored root count
    falls outside the new rule's support, and triggers a full from-scratch
    fallback when the supports are disjoint (the carried root-count
    distribution cannot represent the new rule at all).
    """

    members: np.ndarray        # packed member ids (original graph ids)
    indptr: np.ndarray         # set boundaries, length len(self) + 1
    root_counts: np.ndarray    # per-set root count k

    def __len__(self) -> int:
        return len(self.root_counts)

    def revalidate(
        self, residual: ResidualGraph
    ) -> tuple[Optional[tuple[np.ndarray, np.ndarray, np.ndarray]], CarryDiagnostics]:
        """Filter the pool against a new residual graph and shortfall.

        Returns ``((members_local, indptr, root_counts), diagnostics)``
        with surviving sets remapped to the new residual's local ids, or
        ``(None, diagnostics)`` when carry-over must fall back to a
        from-scratch pool (see ``diagnostics.fallback`` for the reason).
        """
        offered = len(self)
        if not 1 <= residual.shortfall <= residual.n:
            # The selector will raise InfeasibleTargetError (or finish)
            # before sampling; don't pretend the carried sets are valid.
            return None, CarryDiagnostics(
                offered, 0, 0, 0, fallback="infeasible shortfall"
            )
        rule = RootCountRule.for_target(residual.n, residual.shortfall)
        support = np.asarray(rule.support(), dtype=np.int64)
        k_valid = np.isin(self.root_counts, support)
        if offered and not k_valid.any():
            return None, CarryDiagnostics(
                offered,
                0,
                0,
                offered,
                fallback="root-count regime shifted off the carried support",
            )

        # Direct original -> local lookup table: one O(n) fill plus one
        # gather beats a log-factor searchsorted over the (much larger)
        # packed members array, which dominates revalidation cost.
        table_size = 1 + max(
            int(self.members.max(initial=-1)),
            int(residual.original_ids[-1]),
        )
        local_of = np.full(table_size, -1, dtype=np.int64)
        local_of[residual.original_ids] = np.arange(residual.n, dtype=np.int64)
        position = local_of[self.members]
        present = position >= 0
        inactive = (
            np.logical_and.reduceat(present, self.indptr[:-1])
            if offered
            else np.empty(0, dtype=bool)
        )
        keep = inactive & k_valid
        sizes = np.diff(self.indptr)
        members_local = position[np.repeat(keep, sizes)]
        indptr = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
        np.cumsum(sizes[keep], out=indptr[1:])
        diagnostics = CarryDiagnostics(
            sets_offered=offered,
            sets_carried=int(keep.sum()),
            dropped_activated=int((~inactive).sum()),
            dropped_root_count=int((inactive & ~k_valid).sum()),
        )
        return (members_local, indptr, self.root_counts[keep]), diagnostics


def build_round_pool(
    residual: ResidualGraph,
    model: DiffusionModel,
    rng: np.random.Generator,
    batch_size: Optional[int] = None,
    carry: Optional[CarriedMRRPool] = None,
    context=None,
) -> tuple[MRRCollection, CarryDiagnostics]:
    """One round's mRR pool, optionally pre-loaded from the previous round.

    The shared prologue of TRIM and TRIM-B with pool reuse enabled: build
    the :class:`MRRCollection` for ``(residual.graph, residual.shortfall)``,
    and when a :class:`CarriedMRRPool` is offered, adopt every set that
    survives :meth:`CarriedMRRPool.revalidate` before any fresh sampling.
    ``context`` supplies the ``batch_size`` default and the runtime.
    """
    pool = MRRCollection(
        residual.graph,
        model,
        residual.shortfall,
        seed=rng,
        batch_size=batch_size,
        context=context,
    )
    if context is not None:
        context.tally("mrr_pools_built")
    if carry is None:
        return pool, CarryDiagnostics(0, 0, 0, 0)
    kept, diagnostics = carry.revalidate(residual)
    if kept is not None:
        pool.adopt(*kept)
    if context is not None:
        context.tally("mrr_sets_carried", diagnostics.sets_carried)
        context.tally("mrr_sets_dropped", diagnostics.sets_offered - diagnostics.sets_carried)
    return pool, diagnostics


def estimate_truncated_spread_mrr(
    graph: DiGraph,
    model: DiffusionModel,
    seeds: Sequence[int],
    eta: int,
    theta: int = 2000,
    seed: RandomSource = None,
    rule: RootCountRule = None,
    batch_size: Optional[int] = None,
    context=None,
) -> float:
    """One-shot convenience: generate ``theta`` mRR sets and estimate.

    Used by tests, examples, and the rounding ablation; production code
    should reuse an :class:`MRRCollection` across queries instead.
    ``context`` supplies the batching policy and the runtime; the estimate
    is the same for every worker count.
    """
    collection = MRRCollection(
        graph, model, eta, seed, rule, batch_size, context=context
    )
    collection.grow_to(theta)
    return collection.estimated_truncated_spread(seeds)
