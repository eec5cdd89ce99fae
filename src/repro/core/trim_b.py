"""TRIM-B: the batched generalization of TRIM (paper Algorithm 3).

Selecting one node per round makes ASTI slow when ``eta`` is large: many
rounds, each paying its own sampling bill.  TRIM-B amortizes by committing
``b`` seeds per round, chosen by greedy maximum coverage over the mRR pool,
at the cost of a ``rho_b = 1 - (1 - 1/b)^b`` factor in the per-round
guarantee (and an unquantified adaptivity gap, per the paper's remark in
Section 4.2).  ``b = 1`` recovers TRIM exactly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.policy import SeedSelector, Selection, SelectionDiagnostics
from repro.diffusion.base import DiffusionModel
from repro.errors import BudgetExhaustedError, InfeasibleTargetError
from repro.graph.residual import ResidualGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.bounds import (
    coverage_lower_bound,
    coverage_upper_bound,
    log_binomial,
)
from repro.sampling.mrr import CarriedMRRPool, build_round_pool
from repro.utils.validation import check_fraction, check_positive_int

_ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


def batch_guarantee(b: int) -> float:
    """``rho_b = 1 - (1 - 1/b)^b``, the greedy max-coverage factor.

    Decreases from 1 (at ``b = 1``) toward ``1 - 1/e`` as ``b`` grows.
    """
    check_positive_int(b, "b")
    return 1.0 - (1.0 - 1.0 / b) ** b


class TrimBParameters:
    """The derived constants of Algorithm 3, Lines 1-5."""

    # repro-lint: disable=REP006 -- cap arrives resolved from the selector
    def __init__(
        self,
        n: int,
        eta: int,
        epsilon: float,
        b: int,
        max_samples: Optional[int] = None,
    ):
        check_fraction(epsilon, "epsilon")
        check_positive_int(b, "b")
        if not 1 <= eta <= n:
            raise InfeasibleTargetError(eta, n)
        if b > n:
            raise InfeasibleTargetError(eta, n)
        self.n = n
        self.eta = eta
        self.epsilon = epsilon
        self.b = b
        self.rho_b = batch_guarantee(b)

        # Line 1 (identical to TRIM).
        self.delta = epsilon / (100.0 * _ONE_MINUS_INV_E * (1.0 - epsilon) * eta)
        self.eps_hat = 99.0 * epsilon / (100.0 - epsilon)

        # Line 2: worst case now union-bounds over all C(n, b) batches.
        log_inv_delta = math.log(6.0 / self.delta)
        log_choose = log_binomial(n, b)
        root_sum = math.sqrt(log_inv_delta) + math.sqrt(
            (log_choose + log_inv_delta) / self.rho_b
        )
        self.theta_max = 2.0 * n * root_sum * root_sum / (b * self.eps_hat ** 2)
        if max_samples is not None:
            self.theta_max = min(self.theta_max, float(max_samples))

        # Lines 3-4.
        self.theta_0 = max(
            1, int(math.ceil(self.theta_max * b * self.eps_hat ** 2 / n))
        )
        self.iterations = max(
            1, int(math.ceil(math.log2(self.theta_max / self.theta_0))) + 1
        )

        # Line 5.
        log_3t_delta = math.log(3.0 * self.iterations / self.delta)
        self.a1 = log_3t_delta + log_choose
        self.a2 = log_3t_delta

    def pool_size_at(self, iteration: int) -> int:
        size = self.theta_0 * (2 ** iteration)
        return int(min(size, math.ceil(self.theta_max)))


class TrimBSelector(SeedSelector):
    """Algorithm 3 as an ASTI-compatible selector.

    Parameters match :class:`~repro.core.trim.TrimSelector` plus the batch
    size ``b``.  When fewer than ``b`` inactive nodes remain, the round
    shrinks its batch to what is available (and the guarantee parameters
    are recomputed for the effective batch).
    """

    def __init__(
        self,
        model: DiffusionModel,
        b: int,
        epsilon: float = 0.5,
        max_samples: Optional[int] = None,
        strict_budget: bool = False,
        context: Optional[ExecutionContext] = None,
    ):
        check_fraction(epsilon, "epsilon")
        check_positive_int(b, "b")
        self.context = ExecutionContext() if context is None else context
        self.model = model
        self.b = b
        self.epsilon = epsilon
        # Context supplies the sampling cap unless given explicitly.
        self.max_samples = (
            max_samples if max_samples is not None else self.context.max_samples
        )
        self.strict_budget = strict_budget
        self.name = f"TRIM-B({b})"
        self.batch_size = b

    @property
    def sample_batch_size(self) -> int:
        return self.context.sample_batch_size

    @property
    def reuse_pool(self) -> bool:
        return self.context.reuse_pool

    @property
    def runtime(self):
        return self.context.runtime

    def select(self, residual: ResidualGraph, rng: np.random.Generator) -> Selection:
        selection, _ = self.select_with_pool(residual, rng)
        return selection

    def select_with_pool(
        self,
        residual: ResidualGraph,
        rng: np.random.Generator,
        carry: Optional[CarriedMRRPool] = None,
    ) -> tuple[Selection, Optional[CarriedMRRPool]]:
        n = residual.n
        eta = residual.shortfall
        if eta > n:
            raise InfeasibleTargetError(eta, n)
        b = min(self.b, n, eta)
        if n <= b:
            # Seeding everything that's left trivially meets the target.
            selection = Selection(
                nodes=list(range(n)),
                diagnostics=SelectionDiagnostics(estimated_gain=float(eta)),
            )
            return selection, None

        params = TrimBParameters(n, eta, self.epsilon, b, self.max_samples)
        pool, carry_stats = build_round_pool(
            residual,
            self.model,
            rng,
            carry=carry if self.reuse_pool else None,
            context=self.context,
        )
        pool.grow_to(params.theta_0)

        batch = list(range(b))
        certified = 0.0
        iterations_used = params.iterations
        for t in range(params.iterations):
            greedy = pool.index.greedy_max_coverage(b)
            batch = greedy.nodes
            coverage = greedy.covered
            lower = coverage_lower_bound(coverage, params.a1)
            upper = coverage_upper_bound(coverage / params.rho_b, params.a2)
            certified = lower / upper if upper > 0 else 0.0
            if certified >= params.rho_b * (1.0 - params.eps_hat) or t == params.iterations - 1:
                iterations_used = t + 1
                break
            pool.grow_to(params.pool_size_at(t + 1))

        if (
            self.strict_budget
            and certified < params.rho_b * (1.0 - params.eps_hat)
            and self.max_samples is not None
        ):
            raise BudgetExhaustedError(
                f"TRIM-B could not certify a rho_b(1-1/e)(1-eps) batch "
                f"within {len(pool)} mRR sets (cap {self.max_samples})"
            )

        gain = pool.estimated_truncated_spread(batch)
        selection = Selection(
            nodes=[int(v) for v in batch],
            diagnostics=SelectionDiagnostics(
                samples_generated=pool.fresh_count,
                iterations=iterations_used,
                certified_ratio=certified,
                estimated_gain=gain,
                samples_carried=pool.adopted_count,
                carry=carry_stats if carry is not None else None,
            ),
        )
        new_carry = pool.export_carry(residual) if self.reuse_pool else None
        return selection, new_carry

    def __repr__(self) -> str:
        return f"TrimBSelector(b={self.b}, epsilon={self.epsilon})"
