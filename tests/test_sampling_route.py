"""The chunk-seeded sampling route against the single-stream draw it replaced.

Every (m)RR pool is now generated chunk by chunk, each chunk drawing from
its own ``SeedSequence``-spawned stream.  Pools used to be drawn batch by
batch from the caller's one generator instead.  ASTI's guarantee
(Theorem 3.3) is a statement about the *distribution* of the mRR estimator,
so the route change must leave that distribution alone.  Two checks:

* **distributional** — the old single-stream pool is rebuilt here from
  public calls (``RootDrawer.draw`` plus ``model.reverse_sample_batch`` on
  one generator) and compared with the chunk-seeded pool, 20,000 mRR sets
  each, for IC and LT: a two-sample Kolmogorov-Smirnov test on set sizes
  and per-node chi-square tests on inclusion frequencies (Bonferroni over
  nodes).  A negative control with a shifted root-count rule must be
  rejected by both, so the tests have power;
* **protocol** — the paper's 20-realization measurement (ASTI and ASTI-4,
  eta fractions 0.05/0.10/0.20) at n=200 keeps each model's sweep-mean
  seed count within 3% of the single-stream figures and every
  (algorithm, eta) cell within one seed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_sweep
from repro.graph import generators, weighting
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import (
    DEFAULT_BATCH_SIZE,
    RandomizedRoundingRootDrawer,
    mrr_batch_sampler,
)
from repro.sampling.mrr import RootCountRule

#: Sets per pool; both routes draw this many.
POOL_SETS = 20_000

#: Family-wise significance level of every distributional test.
ALPHA = 1e-3

MODELS = {"IC": IndependentCascade, "LT": LinearThreshold}


@pytest.fixture(scope="module")
def graph():
    topology = generators.preferential_attachment(300, 3, seed=5, directed=False)
    return weighting.weighted_cascade(topology)


def single_stream_pool(graph, model, rule, count, seed):
    """The historical route: every batch drawn from one shared generator."""
    rng = np.random.default_rng(seed)
    drawer = RandomizedRoundingRootDrawer(rule)
    sizes, members = [], []
    remaining = count
    while remaining > 0:
        step = min(remaining, DEFAULT_BATCH_SIZE)
        roots, roots_indptr = drawer.draw(rng, step)
        batch_members, batch_indptr = model.reverse_sample_batch(
            graph, roots, roots_indptr, rng
        )
        sizes.append(np.diff(batch_indptr))
        members.append(batch_members)
        remaining -= step
    return np.concatenate(sizes), np.concatenate(members)


def chunk_seeded_pool(graph, model, rule, count, seed):
    """The one remaining route: the batched engine's chunk-seeded fill."""
    index = CoverageIndex(graph.n)
    mrr_batch_sampler(graph, model, rule, seed=seed).fill(index, count)
    members, indptr = index.packed()
    return np.diff(indptr), np.asarray(members)


def ks_pvalue(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov p-value (asymptotic, Stephens 1970).

    Conservative for integer-valued samples such as set sizes: ties only
    shrink the statistic.
    """
    a, b = np.sort(a), np.sort(b)
    grid = np.union1d(a, b)
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    ne = len(a) * len(b) / (len(a) + len(b))
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    if lam < 0.2:
        return 1.0
    tail = sum(
        (-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 101)
    )
    return min(1.0, max(0.0, 2.0 * tail))


def inclusion_min_pvalue(members_a, sets_a, members_b, sets_b, n) -> float:
    """Bonferroni-adjusted smallest per-node 2x2 chi-square p-value.

    Node ``v``'s inclusion count is Binomial(sets, p_v) in each pool (sets
    are i.i.d.), so each node gets an exact-size 2x2 homogeneity test; the
    union bound over nodes holds however strongly inclusions correlate.
    Nodes with an expected count under 5 in either cell are skipped.
    """
    a = np.bincount(members_a, minlength=n).astype(np.float64)
    b = np.bincount(members_b, minlength=n).astype(np.float64)
    total = sets_a + sets_b
    pooled = (a + b) / total
    tested = (
        (pooled * min(sets_a, sets_b) >= 5)
        & ((1 - pooled) * min(sets_a, sets_b) >= 5)
    )
    a, b = a[tested], b[tested]
    cross = a * (sets_b - b) - b * (sets_a - a)
    chi2 = total * cross**2 / ((a + b) * (total - a - b) * sets_a * sets_b)
    p_min = float(math.erfc(math.sqrt(float(chi2.max()) / 2.0)))
    return min(1.0, p_min * int(tested.sum()))


@pytest.mark.parametrize("model_name", sorted(MODELS))
class TestPoolDistribution:
    def _pools(self, graph, model_name, chunk_eta):
        model = MODELS[model_name]()
        eta = graph.n // 10
        old = single_stream_pool(
            graph, model, RootCountRule.for_target(graph.n, eta), POOL_SETS, 101
        )
        new = chunk_seeded_pool(
            graph, model, RootCountRule.for_target(graph.n, chunk_eta),
            POOL_SETS, 202,
        )
        return old, new

    def test_chunk_route_matches_single_stream(self, graph, model_name):
        (old_sizes, old_members), (new_sizes, new_members) = self._pools(
            graph, model_name, graph.n // 10
        )
        assert len(old_sizes) == len(new_sizes) == POOL_SETS
        assert ks_pvalue(old_sizes, new_sizes) > ALPHA
        assert inclusion_min_pvalue(
            old_members, POOL_SETS, new_members, POOL_SETS, graph.n
        ) > ALPHA

    def test_shifted_rule_is_rejected(self, graph, model_name):
        # Negative control: a quarter more roots per set must fail both
        # tests, or the checks above would pass on anything.
        (old_sizes, old_members), (new_sizes, new_members) = self._pools(
            graph, model_name, graph.n // 10 * 4 // 5
        )
        assert ks_pvalue(old_sizes, new_sizes) < ALPHA
        assert inclusion_min_pvalue(
            old_members, POOL_SETS, new_members, POOL_SETS, graph.n
        ) < ALPHA


#: Mean seed count per ``(algorithm, eta)`` cell of the protocol below,
#: measured on the single-stream route at commit c687a62 (numpy kernels,
#: every other knob at its default): ``run_sweep`` of
#: ``ExperimentConfig(dataset, model, eta_fractions=(0.05, 0.10, 0.20),
#: algorithms=("ASTI", "ASTI-4"), realizations=20, graph_n=200, seed=7)``
#: with nethept-sim for IC and epinions-sim for LT.
SINGLE_STREAM_SEEDS = {
    "IC": {
        ("ASTI", 10): 1.5, ("ASTI-4", 10): 4.0,
        ("ASTI", 20): 3.35, ("ASTI-4", 20): 4.55,
        ("ASTI", 40): 9.4, ("ASTI-4", 40): 11.05,
    },
    "LT": {
        ("ASTI", 10): 2.55, ("ASTI-4", 10): 4.2,
        ("ASTI", 20): 4.65, ("ASTI-4", 20): 6.3,
        ("ASTI", 40): 10.85, ("ASTI-4", 40): 12.1,
    },
}

PROTOCOL_DATASETS = {"IC": "nethept-sim", "LT": "epinions-sim"}


@pytest.mark.parametrize("model_name", sorted(SINGLE_STREAM_SEEDS))
def test_protocol_seed_counts_match_single_stream(model_name):
    config = ExperimentConfig(
        dataset=PROTOCOL_DATASETS[model_name],
        model_name=model_name,
        eta_fractions=(0.05, 0.10, 0.20),
        algorithms=("ASTI", "ASTI-4"),
        realizations=20,
        graph_n=200,
        seed=7,
    )
    sweep = run_sweep(config)
    reference = SINGLE_STREAM_SEEDS[model_name]
    cells = {
        (algorithm, eta): sweep.outcomes[eta][algorithm].mean_seed_count
        for eta in sweep.eta_values
        for algorithm in config.algorithms
    }
    assert set(cells) == set(reference)
    for cell, seeds in cells.items():
        assert abs(seeds - reference[cell]) <= 1.0, (cell, seeds, reference[cell])
    old_mean = sum(reference.values()) / len(reference)
    new_mean = sum(cells.values()) / len(cells)
    assert abs(new_mean - old_mean) <= 0.03 * old_mean, (new_mean, old_mean)
