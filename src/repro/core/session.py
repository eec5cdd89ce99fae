"""The adaptive select-observe loop's state machine.

:class:`AdaptiveSession` owns the ground-truth realization (unknown to the
policy), the set of activated nodes, and the current residual graph.  A
policy interacts with it in two moves, mirroring the paper's Figure 1:

1. read :attr:`AdaptiveSession.residual` (the inactive-node subgraph and the
   shortfall ``eta_i``) and choose seeds on it;
2. call :meth:`AdaptiveSession.observe` with the chosen residual-local node
   ids — the session reveals the realized cascade from those seeds through
   still-inactive nodes, activates them, and shrinks the residual graph.

Keeping observation here (rather than in each algorithm) guarantees every
policy is scored against exactly the same ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.diffusion.realization import Realization, batch_reachable_from
from repro.errors import ConfigurationError, InfeasibleTargetError
from repro.graph.digraph import DiGraph
from repro.graph.residual import ResidualGraph, initial_residual, shrink_residual


@dataclass(frozen=True)
class Observation:
    """What one round of seeding revealed."""

    round_index: int
    seeds: np.ndarray               # original node ids committed this round
    newly_activated: np.ndarray     # original ids activated (includes seeds)
    total_activated: int            # cumulative activation count after the round
    shortfall_before: int           # eta_i at the start of the round

    @property
    def marginal_spread(self) -> int:
        """``I_phi(S_round | S_previous)``: nodes this round activated."""
        return len(self.newly_activated)


class AdaptiveSession:
    """Ground truth + bookkeeping for one adaptive run."""

    def __init__(self, graph: DiGraph, eta: int, realization: Realization):
        if realization.graph is not graph:
            # Identity (not equality) on purpose: a realization indexes the
            # graph's edge arrays positionally.
            raise ConfigurationError(
                "realization was sampled from a different graph object"
            )
        if not 1 <= eta <= graph.n:
            raise ConfigurationError(
                f"eta must be in [1, n={graph.n}], got {eta}"
            )
        self.graph = graph
        self.eta = int(eta)
        self.realization = realization
        self.active = np.zeros(graph.n, dtype=bool)
        self.residual: ResidualGraph = initial_residual(graph, eta)
        self.history: list[Observation] = []

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def activated_count(self) -> int:
        """Number of active nodes so far (``n - n_i``)."""
        return int(self.active.sum())

    @property
    def finished(self) -> bool:
        """Whether the target ``eta`` has been reached."""
        return self.activated_count >= self.eta

    @property
    def round_index(self) -> int:
        """1-based index of the round about to be played."""
        return self.residual.round_index

    @property
    def seeds_committed(self) -> list[int]:
        """All seeds selected so far, in commitment order (original ids)."""
        committed: list[int] = []
        for obs in self.history:
            committed.extend(int(s) for s in obs.seeds)
        return committed

    # ------------------------------------------------------------------
    # The observe half of select-observe
    # ------------------------------------------------------------------

    def observe(self, local_seed_ids: Sequence[int]) -> Observation:
        """Commit seeds (residual-local ids) and reveal their influence.

        Returns the :class:`Observation`; afterwards :attr:`residual`
        reflects round ``i + 1``.
        """
        original_seeds = self._commit_seeds(local_seed_ids)
        newly_mask = self.realization.reachable_from(
            original_seeds, allowed=~self.active
        )
        return self._apply_observation(original_seeds, newly_mask)

    def _commit_seeds(self, local_seed_ids: Sequence[int]) -> np.ndarray:
        """Validate a seed batch and map it to original ids (observe, part 1)."""
        if self.finished:
            raise ConfigurationError("session already reached its target")
        if len(local_seed_ids) == 0:
            raise ConfigurationError("must commit at least one seed")
        return self.residual.to_original(local_seed_ids)

    def _apply_observation(
        self, original_seeds: np.ndarray, newly_mask: np.ndarray
    ) -> Observation:
        """Fold a revealed cascade into the state (observe, part 2).

        Split from :meth:`observe` so :class:`AdaptiveSessionBatch` can
        compute many sessions' cascades in one batched sweep and still apply
        each one through exactly this code path.
        """
        newly = np.flatnonzero(newly_mask)
        self.active |= newly_mask

        shortfall_before = self.residual.shortfall
        newly_local = np.flatnonzero(newly_mask[self.residual.original_ids])
        self.residual = shrink_residual(self.residual, newly_local)

        observation = Observation(
            round_index=len(self.history) + 1,
            seeds=original_seeds,
            newly_activated=newly,
            total_activated=self.activated_count,
            shortfall_before=shortfall_before,
        )
        self.history.append(observation)

        if not self.finished and self.residual.shortfall > self.residual.n:
            # Cannot happen while shortfall accounting is consistent, but a
            # corrupted realization (or eta > n slipping through) must fail
            # loudly rather than loop forever.
            raise InfeasibleTargetError(self.residual.shortfall, self.residual.n)
        return observation


class AdaptiveSessionBatch:
    """Many adaptive sessions on one graph, advanced round-synchronously.

    The experiment harness scores every policy on a fixed set of sampled
    ground-truth worlds (the paper uses 20 per dataset).  Running those
    sessions in lockstep lets the engine reveal all of a round's cascades
    with *one* batched reachability sweep
    (:func:`~repro.diffusion.realization.batch_reachable_from`) instead of
    one Python-level BFS per realization; everything else — activation
    bookkeeping, residual shrinking, history — goes through the exact same
    :class:`AdaptiveSession` code, so a batch run is bit-identical to the
    equivalent sequential runs.

    Sessions finish at different times: :meth:`observe_batch` takes a
    mapping from *unfinished* session indices to their seed batches and
    skips the rest.
    """

    def __init__(
        self,
        graph: DiGraph,
        eta: int,
        realizations: Sequence[Realization],
    ):
        if len(realizations) == 0:
            raise ConfigurationError("need at least one realization")
        self.graph = graph
        self.eta = int(eta)
        self.sessions = [
            AdaptiveSession(graph, eta, phi) for phi in realizations
        ]

    def __len__(self) -> int:
        return len(self.sessions)

    @property
    def active_indices(self) -> list[int]:
        """Indices of sessions that have not reached their target yet."""
        return [i for i, s in enumerate(self.sessions) if not s.finished]

    @property
    def all_finished(self) -> bool:
        return all(s.finished for s in self.sessions)

    def observe_batch(
        self, selections: dict[int, Sequence[int]]
    ) -> dict[int, Observation]:
        """Commit one round of seeds for several sessions at once.

        ``selections`` maps session indices to residual-local seed ids; a
        finished session must not appear.  All cascades are revealed in one
        batched sweep; returns the per-session :class:`Observation` under
        the same keys.
        """
        if not selections:
            raise ConfigurationError("observe_batch needs at least one selection")
        indices = sorted(selections)
        committed = {
            sid: self.sessions[sid]._commit_seeds(selections[sid])
            for sid in indices
        }
        allowed = np.stack([~self.sessions[sid].active for sid in indices])
        newly = batch_reachable_from(
            [self.sessions[sid].realization for sid in indices],
            [committed[sid] for sid in indices],
            allowed=allowed,
        )
        return {
            sid: self.sessions[sid]._apply_observation(committed[sid], newly[row])
            for row, sid in enumerate(indices)
        }
