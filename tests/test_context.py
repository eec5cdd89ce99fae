"""ExecutionContext: propagation, explicit overrides, lifecycle.

The contract of the unified context:

* a default context reaches every engine untouched;
* an explicit context overrides the policy end to end;
* a per-call knob on a low-level engine agrees bit for bit with the same
  knob carried by a context;
* the engine-knob validators are shared, so every layer rejects a bad
  value with the identical message.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import ASTI, ExecutionContext, IndependentCascade
from repro.baselines.adaptim import AdaptIM
from repro.baselines.ateuc import ATEUC
from repro.baselines.celf import CELFMinimizer
from repro.diffusion.montecarlo import (
    DEFAULT_MC_BATCH_SIZE,
    CRNSpreadEvaluator,
    estimate_truncated_spread,
)
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig, quick_config
from repro.experiments.harness import build_algorithm, run_sweep
from repro.parallel.runtime import ParallelRuntime
from repro.sampling.engine import DEFAULT_BATCH_SIZE


@pytest.fixture
def model():
    return IndependentCascade()


class TestDefaults:
    def test_default_context_fields(self):
        ctx = ExecutionContext()
        assert ctx.sample_batch_size == DEFAULT_BATCH_SIZE
        assert ctx.mc_batch_size is None
        assert ctx.mc_tolerance is None
        assert ctx.reuse_pool is True
        assert ctx.jobs == 1
        assert ctx.max_samples is None
        assert ctx.graph_storage == "adaptive"
        assert ctx._runtime is None  # created lazily, on first use
        assert not ctx.runtime.parallel  # jobs=1: chunks run in-process
        ctx.close()

    def test_default_context_reaches_every_facade_untouched(self, model):
        for algorithm in (
            ASTI(model),
            AdaptIM(model),
            ATEUC(model),
            CELFMinimizer(model),
        ):
            ctx = algorithm.context
            assert ctx.sample_batch_size == DEFAULT_BATCH_SIZE
            assert ctx.jobs == 1
            assert ctx.reuse_pool is True

    def test_facade_shares_one_context_with_its_selector(self, model):
        asti = ASTI(model)
        assert asti.selector.context is asti.context
        asti_b = ASTI(model, batch_size=4)
        assert asti_b.selector.context is asti_b.context
        adaptim = AdaptIM(model)
        assert adaptim.selector.context is adaptim.context


class TestExplicitOverride:
    def test_explicit_context_overrides_end_to_end(self, model):
        ctx = ExecutionContext(
            sample_batch_size=32,
            mc_batch_size=16,
            reuse_pool=False,
            max_samples=5000,
        )
        asti = ASTI(model, context=ctx)
        assert asti.sample_batch_size == 32
        assert asti.reuse_pool is False
        assert asti.selector.sample_batch_size == 32
        assert asti.selector.max_samples == 5000  # context supplies the cap
        celf = CELFMinimizer(model, context=ctx)
        assert celf.mc_batch_size == 16
        ateuc = ATEUC(model, context=ctx)
        assert ateuc.sample_batch_size == 32

    def test_build_algorithm_threads_context(self, model):
        ctx = ExecutionContext(sample_batch_size=48, jobs=1)
        for label in ("ASTI", "ASTI-4", "AdaptIM", "ATEUC"):
            algorithm = build_algorithm(label, model, 0.5, 1000, context=ctx)
            assert algorithm.context is ctx
            assert algorithm.context.sample_batch_size == 48
        celf = build_algorithm("CELF", model, 0.5, None, context=ctx)
        assert celf.context is ctx
        ctx.close()

    def test_config_to_context_is_single_source_of_truth(self):
        config = quick_config().scaled(
            sample_batch_size=96,
            mc_batch_size=7,
            mc_tolerance=2.5,
            reuse_pool=False,
            jobs=2,
            max_samples=1234,
        )
        ctx = config.to_context()
        assert ctx.sample_batch_size == 96
        assert ctx.mc_batch_size == 7
        assert ctx.mc_tolerance == 2.5
        assert ctx.reuse_pool is False
        assert ctx.jobs == 2
        assert ctx.max_samples == 1234
        ctx.close()

    def test_mc_tolerance_defaults_the_estimator_early_stop(self, small_social, model):
        loose = ExecutionContext(mc_tolerance=1000.0)
        estimate = estimate_truncated_spread(
            small_social, model, [0], eta=30, samples=2000, seed=3, context=loose
        )
        # A huge tolerance stops after the first chunk.
        assert estimate.samples == DEFAULT_MC_BATCH_SIZE

    def test_sweep_records_graph_storage_decision(self):
        config = quick_config(
            graph_n=120,
            realizations=2,
            algorithms=("ASTI",),
            eta_fractions=(0.1,),
            max_samples=4000,
        )
        context = config.to_context()
        graph = context.apply_storage(config.build_graph())
        context.note_graph(graph)
        assert context.diagnostics["graph_storage"] == "adaptive"
        assert context.diagnostics["graph_index_dtype"] == "int32"
        assert "graph_csr_nbytes" in context.diagnostics
        context.close()

    def test_graph_storage_policy_applies_end_to_end(self):
        config = quick_config(
            graph_n=120,
            realizations=2,
            algorithms=("ASTI",),
            eta_fractions=(0.1,),
            max_samples=4000,
        ).scaled(graph_storage="wide")
        context = config.to_context()
        graph = context.apply_storage(config.build_graph())
        assert graph.storage == "wide"
        assert str(graph.index_dtype) == "int64"
        # Residual shrinks inherit the pinned layout.
        import numpy as _np

        keep = _np.ones(graph.n, dtype=bool)
        keep[0] = False
        sub, _ = graph.induced_subgraph(keep)
        assert sub.storage == "wide"
        context.close()
        with pytest.raises(ConfigurationError, match="graph_storage"):
            quick_config().scaled(graph_storage="sparse")

    def test_pool_tallies_land_in_diagnostics(self, small_social_damped, model):
        ctx = ExecutionContext(max_samples=4000)
        ASTI(model, context=ctx).run(small_social_damped, eta=15, seed=4)
        assert ctx.diagnostics["mrr_pools_built"] >= 1
        assert "mrr_sets_carried" in ctx.diagnostics  # reuse_pool default on
        ctx.close()


class TestLegacyEquivalence:
    """Per-call knobs kept on the low-level engines match the context route."""

    def test_legacy_crn_estimates_bit_identical(self, small_social, model):
        candidates = [[v] for v in range(12)]
        explicit = CRNSpreadEvaluator(
            small_social, model, n_sims=40, seed=9, mc_batch_size=64
        ).evaluate_many(candidates)
        via_context = CRNSpreadEvaluator(
            small_social,
            model,
            n_sims=40,
            seed=9,
            context=ExecutionContext(mc_batch_size=64),
        ).evaluate_many(candidates)
        assert np.array_equal(explicit, via_context)


class TestLifecycle:
    def test_owned_runtime_created_lazily_and_closed(self):
        ctx = ExecutionContext(jobs=1)
        assert ctx._runtime is None  # not created yet
        runtime = ctx.runtime
        assert runtime is not None and runtime.jobs == 1
        assert ctx.runtime is runtime  # cached
        ctx.close()
        assert ctx.runtime is None

    def test_attached_runtime_not_closed(self):
        with ParallelRuntime(1) as runtime:
            ctx = ExecutionContext().attach_runtime(runtime)
            assert ctx.runtime is runtime
            assert ctx.jobs == 1
            ctx.close()
            # Still open: owner closes it.
            runtime._check_open()

    def test_context_pickles_without_runtime(self):
        ctx = ExecutionContext(sample_batch_size=33, jobs=2)
        _ = ctx.runtime  # force creation
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.sample_batch_size == 33
        assert clone.jobs == 2
        assert clone._runtime is None  # never ships across processes
        ctx.close()

    def test_diagnostics_tally(self):
        ctx = ExecutionContext()
        ctx.tally("chunks", 3)
        ctx.tally("chunks", 2)
        ctx.record(stage="fill")
        assert ctx.diagnostics["chunks"] == 5
        assert ctx.diagnostics["stage"] == "fill"


class TestSharedValidation:
    """The jobs/batch-size validators live in one place; messages match."""

    def test_jobs_message_identical_across_layers(self):
        expected = "jobs must be >= 1, got 0"
        with pytest.raises(ConfigurationError, match=expected):
            ExecutionContext(jobs=0)
        with pytest.raises(ConfigurationError, match=expected):
            ExperimentConfig(dataset="nethept-sim", jobs=0)
        with pytest.raises(ConfigurationError, match=expected):
            ParallelRuntime(0)

    def test_sample_batch_size_message_identical_across_layers(self):
        expected = "sample_batch_size must be >= 1, got 0"
        with pytest.raises(ConfigurationError, match=expected):
            ExecutionContext(sample_batch_size=0)
        with pytest.raises(ConfigurationError, match=expected):
            ExperimentConfig(dataset="nethept-sim", sample_batch_size=0)

    def test_mc_batch_size_message_identical_across_layers(self):
        expected = "mc_batch_size must be >= 1, got -3"
        with pytest.raises(ConfigurationError, match=expected):
            ExecutionContext(mc_batch_size=-3)
        with pytest.raises(ConfigurationError, match=expected):
            ExperimentConfig(dataset="nethept-sim", mc_batch_size=-3)

    def test_cli_rejects_bad_jobs_with_the_same_message(self, capsys):
        from repro.cli import main

        code = main(
            [
                "solve",
                "--dataset",
                "nethept-sim",
                "--n",
                "60",
                "--eta",
                "5",
                "--jobs",
                "0",
            ]
        )
        assert code == 2
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err

    def test_mc_tolerance_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="mc_tolerance must be > 0"):
            ExecutionContext(mc_tolerance=0.0)
        with pytest.raises(ConfigurationError, match="mc_tolerance must be > 0"):
            ExperimentConfig(dataset="nethept-sim", mc_tolerance=-1.0)

    def test_graph_storage_policy_validated(self):
        with pytest.raises(ConfigurationError, match="graph_storage"):
            ExecutionContext(graph_storage="sparse")


def test_run_sweep_smoke_with_context_policy():
    """End-to-end: run_sweep builds one context and completes."""
    config = quick_config(
        graph_n=150,
        realizations=2,
        algorithms=("ASTI", "ATEUC"),
        eta_fractions=(0.08,),
        max_samples=4000,
    )
    sweep = run_sweep(config)
    eta = sweep.eta_values[0]
    assert set(sweep.outcomes[eta]) == {"ASTI", "ATEUC"}
    for outcome in sweep.outcomes[eta].values():
        assert len(outcome.runs) == 2
