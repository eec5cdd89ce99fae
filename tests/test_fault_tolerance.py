"""Tests for the fault-tolerant parallel runtime.

Four concerns:

* **policy plumbing**: :class:`FaultPolicy` / :class:`FaultInjection`
  validation, the ``ExperimentConfig`` / CLI knobs, and the context's
  ``note_faults()`` diagnostics;
* **supervisor unit behavior** on echo chunks: transient retry with
  backoff, crash/kill/hang recovery through pool rebuilds, graceful
  degradation and the ``raise`` policy, ``KeyboardInterrupt`` propagation;
* **shared-memory guard rails**: generation-tagged names, the orphan
  sweeper, publish-time budget validation, segment restoration;
* **recovery equivalence** (the load-bearing guarantee): a run that
  survived injected worker crashes must be *bit-identical* to the clean
  ``jobs=1`` reference — and the ``corrupt`` injector is the negative
  control proving these comparisons can fail.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.diffusion.ic import IndependentCascade
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.errors import (
    ConfigurationError,
    ResourceError,
    TransientWorkerError,
    WorkerPoolError,
)
from repro.experiments.config import ExperimentConfig, quick_config
from repro.experiments.harness import run_eta_point, sample_shared_realizations
from repro.graph import generators, weighting
from repro.parallel.runtime import FaultPolicy, ParallelRuntime
from repro.parallel.shm import (
    pack_arrays,
    sweep_orphans,
    validate_publication,
)
from repro.runtime.context import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler
from repro.sampling.mrr import (
    RootCountRule,
    estimate_truncated_spread_mrr,
)
from repro.testing.faults import (
    FaultInjection,
    _corrupt_result,
    echo_chunk,
    interrupt_chunk,
)


@pytest.fixture(scope="module")
def bench_graph():
    topology = generators.preferential_attachment(220, 3, seed=11, directed=False)
    return weighting.weighted_cascade(topology)


# ----------------------------------------------------------------------
# Policy and injection specs
# ----------------------------------------------------------------------

class TestFaultPolicy:
    def test_defaults(self):
        policy = FaultPolicy()
        assert policy.chunk_timeout is None
        assert policy.max_retries == 2
        assert policy.max_rebuilds == 2
        assert policy.on_pool_failure == "degrade"
        assert policy.max_segment_bytes is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_timeout": 0.0},
            {"chunk_timeout": -1.0},
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"max_rebuilds": -2},
            {"backoff_base": -0.1},
            {"on_pool_failure": "panic"},
            {"max_segment_bytes": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPolicy(**kwargs)

    def test_runtime_rejects_non_policy(self):
        with pytest.raises(ConfigurationError, match="FaultPolicy"):
            ParallelRuntime(2, fault_policy={"max_retries": 1})

    def test_context_carries_policy_into_runtime(self):
        policy = FaultPolicy(max_retries=7)
        with ExecutionContext(jobs=1, fault_policy=policy) as context:
            assert context.runtime.fault_policy.max_retries == 7
        with pytest.raises(ConfigurationError, match="FaultPolicy"):
            ExecutionContext(fault_policy="degrade")
        with pytest.raises(ConfigurationError, match="FaultInjection"):
            ExecutionContext(fault_injection="crash")

    def test_config_knobs_validate_and_propagate(self):
        config = quick_config().scaled(chunk_timeout=30.0, max_retries=1)
        assert config.fault_policy().chunk_timeout == 30.0
        with config.to_context() as context:
            assert context.fault_policy.max_retries == 1
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="nethept-sim", on_pool_failure="explode")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="nethept-sim", chunk_timeout=-3.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="nethept-sim", max_retries=-1)

    def test_cli_flags_reach_the_context(self):
        from repro.cli import _context_from_args, build_parser

        args = build_parser().parse_args(
            [
                "sweep", "--dataset", "nethept-sim", "--jobs", "2",
                "--chunk-timeout", "45", "--max-retries", "5",
                "--on-pool-failure", "raise",
            ]
        )
        assert args.chunk_timeout == 45.0
        assert args.max_retries == 5
        assert args.on_pool_failure == "raise"
        context = _context_from_args(args)
        assert context.fault_policy == FaultPolicy(
            chunk_timeout=45.0, max_retries=5, on_pool_failure="raise"
        )
        context.close()


class TestFaultInjection:
    def test_fires_on_exact_coordinates(self):
        spec = FaultInjection("raise", nth=3, attempts=(0, 1))
        assert spec.fires(3, 0)
        assert spec.fires(3, 1)
        assert not spec.fires(3, 2)
        assert not spec.fires(2, 0)

    @pytest.mark.parametrize(
        "kwargs", [{"kind": "meltdown"}, {"kind": "crash", "nth": -1}]
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultInjection(**kwargs)

    def test_corrupt_result_perturbs_first_array(self):
        clean = (np.arange(4), np.arange(3))
        dirty = _corrupt_result(clean)
        assert dirty[0][0] == 1  # +1 on the first element of the first array
        assert np.array_equal(dirty[1], clean[1])
        assert clean[0][0] == 0  # original untouched (copy semantics)
        assert _corrupt_result([2, 3]) == [3, 3]


# ----------------------------------------------------------------------
# Supervisor unit behavior (echo chunks, no domain code)
# ----------------------------------------------------------------------

class TestSupervisedDispatch:
    def test_transient_failure_retried_in_place(self):
        with ParallelRuntime(2, injection=FaultInjection("raise", nth=2)) as rt:
            assert rt.map_ordered(echo_chunk, [(i,) for i in range(6)]) == list(
                range(6)
            )
            stats = rt.fault_stats
            assert stats["retries"] == 1
            assert stats["rebuilds"] == 0
            assert stats["degraded_chunks"] == 0
            assert stats["recovered_seconds"] > 0

    def test_retry_budget_exhaustion_degrades(self):
        injection = FaultInjection("raise", nth=0, attempts=tuple(range(10)))
        policy = FaultPolicy(max_retries=1, backoff_base=0.0)
        with ParallelRuntime(2, fault_policy=policy, injection=injection) as rt:
            assert rt.map_ordered(echo_chunk, [(0,), (1,)]) == [0, 1]
            assert rt.fault_stats["retries"] == 1
            assert rt.fault_stats["degraded_chunks"] >= 1

    @pytest.mark.parametrize("kind", ["crash", "kill"])
    def test_worker_death_recovers_via_rebuild(self, kind):
        with ParallelRuntime(2, injection=FaultInjection(kind, nth=1)) as rt:
            assert rt.map_ordered(echo_chunk, [(i,) for i in range(6)]) == list(
                range(6)
            )
            stats = rt.fault_stats
            assert stats["rebuilds"] == 1
            assert stats["degraded_chunks"] == 0

    def test_hung_worker_recovers_via_timeout(self):
        policy = FaultPolicy(chunk_timeout=1.5)
        injection = FaultInjection("hang", nth=0, hang_seconds=120.0)
        with ParallelRuntime(2, fault_policy=policy, injection=injection) as rt:
            assert rt.map_ordered(echo_chunk, [(i,) for i in range(4)]) == list(
                range(4)
            )
            stats = rt.fault_stats
            assert stats["timeouts"] == 1
            assert stats["rebuilds"] == 1

    def test_rebuild_budget_exhaustion_degrades(self):
        injection = FaultInjection("crash", nth=0, attempts=tuple(range(10)))
        policy = FaultPolicy(max_rebuilds=0)
        with ParallelRuntime(2, fault_policy=policy, injection=injection) as rt:
            assert rt.map_ordered(echo_chunk, [(i,) for i in range(4)]) == list(
                range(4)
            )
            stats = rt.fault_stats
            # Chunks that finished on the surviving worker before the pool
            # broke are harvested, not re-run, so anywhere from 1 chunk
            # (the crashed one — it can never be harvested) to all 4
            # degrade depending on timing; never a rebuild.
            assert 1 <= stats["degraded_chunks"] <= 4
            assert stats["rebuilds"] == 0
            # Degradation tears the dead pool down; the next dispatch
            # lazily builds a fresh one and succeeds cleanly (the
            # injection's chunk 0 is long past).
            assert rt.map_ordered(echo_chunk, [(9,)]) == [9]

    def test_raise_policy_surfaces_worker_pool_error(self):
        injection = FaultInjection("crash", nth=0, attempts=tuple(range(10)))
        policy = FaultPolicy(max_rebuilds=0, on_pool_failure="raise")
        with ParallelRuntime(2, fault_policy=policy, injection=injection) as rt:
            with pytest.raises(WorkerPoolError, match="chunk 0"):
                rt.map_ordered(echo_chunk, [(i,) for i in range(4)])

    def test_transient_error_is_worker_pool_error(self):
        # Callers catching WorkerPoolError also see undeclared transients.
        assert issubclass(TransientWorkerError, WorkerPoolError)

    def test_chunk_ids_are_lifetime_global(self):
        # The injection targets chunk 6: dispatch two batches of 4 and the
        # fault must fire in the *second* batch (chunks 4..7).
        with ParallelRuntime(2, injection=FaultInjection("raise", nth=6)) as rt:
            rt.map_ordered(echo_chunk, [(i,) for i in range(4)])
            assert rt.fault_stats["retries"] == 0
            rt.map_ordered(echo_chunk, [(i,) for i in range(4)])
            assert rt.fault_stats["retries"] == 1

    def test_keyboard_interrupt_propagates_unretried(self):
        with ParallelRuntime(2) as rt:
            with pytest.raises(KeyboardInterrupt):
                rt.map_ordered(interrupt_chunk, [(0,), (1,)])
            assert rt.fault_stats["retries"] == 0
            assert rt.fault_stats["degraded_chunks"] == 0

    def test_deterministic_chunk_errors_propagate(self):
        # ValueError from int("nope") is not transient: no retry, no
        # degradation — the bug surfaces immediately.
        with ParallelRuntime(2) as rt:
            with pytest.raises(ValueError):
                rt.map_ordered(int, [("nope",)])
            assert rt.fault_stats["retries"] == 0


# ----------------------------------------------------------------------
# Shared-memory guard rails
# ----------------------------------------------------------------------

class TestSegmentRegistry:
    def test_names_are_generation_tagged(self):
        bundle = pack_arrays({"x": np.arange(8)})
        try:
            prefix, pid, token, generation = bundle.name.split("-")
            assert prefix == "reproshm"
            assert int(pid) == os.getpid()
            assert generation.startswith("g") and generation[1:].isdigit()
        finally:
            bundle.close()

    def test_sweep_unlinks_only_dead_runs(self, tmp_path):
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        (tmp_path / f"reproshm-{dead.pid}-deadbeef-g0").touch()
        (tmp_path / f"reproshm-{os.getpid()}-cafecafe-g1").touch()
        (tmp_path / "someone-elses-file").touch()
        removed = sweep_orphans(shm_dir=str(tmp_path))
        assert removed == [f"reproshm-{dead.pid}-deadbeef-g0"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"reproshm-{os.getpid()}-cafecafe-g1",
            "someone-elses-file",
        ]

    def test_sweep_missing_dir_is_noop(self):
        assert sweep_orphans(shm_dir="/nonexistent/shm") == []

    def test_publication_budget_enforced(self):
        with pytest.raises(ResourceError, match="segment budget"):
            pack_arrays({"x": np.zeros(1024, dtype=np.float64)}, max_bytes=64)
        validate_publication(64, max_bytes=64)  # at the limit is fine

    def test_publication_free_space_enforced(self, monkeypatch):
        import repro.parallel.shm as shm_module

        monkeypatch.setattr(shm_module, "_available_shm_bytes", lambda: 128)
        with pytest.raises(ResourceError, match="available"):
            validate_publication(256)

    def test_policy_budget_reaches_publications(self, bench_graph):
        policy = FaultPolicy(max_segment_bytes=16)
        with ParallelRuntime(2, fault_policy=policy) as rt:
            with pytest.raises(ResourceError, match="segment budget"):
                rt.publish_graph(bench_graph)
            with pytest.raises(ResourceError, match="segment budget"):
                rt.publish_arrays({"x": np.zeros(64)})

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs a POSIX shm filesystem"
    )
    def test_restore_recreates_segment_under_original_name(self):
        from multiprocessing import shared_memory

        source = np.arange(32, dtype=np.int64)
        bundle = pack_arrays({"x": source})
        try:
            os.unlink(os.path.join("/dev/shm", bundle.name))  # simulate leak
            assert not bundle.segment_exists()
            bundle.restore()
            assert bundle.segment_exists()
            probe = shared_memory.SharedMemory(name=bundle.name)
            try:
                spec = bundle.handle.specs[0]
                view = np.ndarray(
                    spec[2], dtype=spec[3], buffer=probe.buf, offset=spec[1]
                )
                assert np.array_equal(view, source)
            finally:
                probe.close()
            bundle.restore()  # still present: no-op
        finally:
            bundle.close()
        bundle.restore()  # released: no-op, nothing recreated
        assert not bundle.segment_exists()

    def test_published_releases_on_exception(self):
        with ParallelRuntime(2) as rt:
            with pytest.raises(RuntimeError, match="boom"):
                with rt.published({"x": np.arange(4)}) as handle:
                    assert handle.shm_name.startswith("reproshm-")
                    assert len(rt._state["bundles"]) == 1
                    raise RuntimeError("boom")
            assert len(rt._state["bundles"]) == 0


# ----------------------------------------------------------------------
# Recovery equivalence: recovered bytes == clean bytes
# ----------------------------------------------------------------------

def _mrr_pool(graph, runtime, seed=42, sets=240, batch_size=64):
    rule = RootCountRule.for_target(graph.n, max(1, graph.n // 10))
    engine = mrr_batch_sampler(
        graph,
        IndependentCascade(),
        rule,
        seed=seed,
        batch_size=batch_size,
        context=ExecutionContext().attach_runtime(runtime),
    )
    index = CoverageIndex(graph.n)
    counts = engine.fill(index, sets)
    members, indptr = index.packed()
    return members.copy(), indptr.copy(), counts


class TestRecoveryEquivalence:
    def test_mrr_pool_identical_after_worker_crash(self, bench_graph):
        with ParallelRuntime(1) as clean_rt:
            clean = _mrr_pool(bench_graph, clean_rt)
        with ParallelRuntime(
            2, injection=FaultInjection("crash", nth=0)
        ) as chaos_rt:
            recovered = _mrr_pool(bench_graph, chaos_rt)
            assert chaos_rt.fault_stats["rebuilds"] == 1
        for reference, survivor in zip(clean, recovered):
            assert np.array_equal(reference, survivor)

    def test_crn_estimates_identical_after_worker_crash(self, bench_graph):
        candidates = [[v] for v in range(25)] + [[0, 3, 9]]

        def estimates(runtime):
            with CRNSpreadEvaluator(
                bench_graph,
                IndependentCascade(),
                n_sims=30,
                seed=5,
                mc_batch_size=16,
                context=ExecutionContext().attach_runtime(runtime),
            ) as evaluator:
                return evaluator.evaluate_many(candidates, eta=25)

        with ParallelRuntime(1) as clean_rt:
            clean = estimates(clean_rt)
        with ParallelRuntime(
            2, injection=FaultInjection("crash", nth=0)
        ) as chaos_rt:
            recovered = estimates(chaos_rt)
            assert chaos_rt.fault_stats["rebuilds"] == 1
        assert np.array_equal(clean, recovered)

    def test_degraded_run_is_bit_identical_too(self, bench_graph):
        # Budgets at zero with an always-firing crash: every surviving
        # chunk runs in-process, and the answer still matches exactly.
        with ParallelRuntime(1) as clean_rt:
            clean = _mrr_pool(bench_graph, clean_rt)
        injection = FaultInjection("crash", nth=0, attempts=tuple(range(20)))
        policy = FaultPolicy(max_rebuilds=0)
        with ParallelRuntime(
            2, fault_policy=policy, injection=injection
        ) as chaos_rt:
            recovered = _mrr_pool(bench_graph, chaos_rt)
            assert chaos_rt.fault_stats["degraded_chunks"] >= 1
        for reference, survivor in zip(clean, recovered):
            assert np.array_equal(reference, survivor)

    def test_eta_point_identical_after_worker_crash(self, bench_graph):
        model = IndependentCascade()
        realizations = sample_shared_realizations(bench_graph, model, 3, seed=13)
        labels = ("ASTI", "ATEUC")

        def outcomes(runtime):
            context = (
                None if runtime is None
                else ExecutionContext().attach_runtime(runtime)
            )
            results = run_eta_point(
                bench_graph,
                model,
                eta=15,
                algorithms=labels,
                realizations=realizations,
                max_samples=4000,
                seed=2,
                context=context,
            )
            return {
                label: [
                    (r.seed_count, r.spread, r.achieved, r.marginal_spreads)
                    for r in results[label].runs
                ]
                for label in labels
            }

        clean = outcomes(None)
        with ParallelRuntime(
            2, injection=FaultInjection("crash", nth=0)
        ) as chaos_rt:
            recovered = outcomes(chaos_rt)
            assert chaos_rt.fault_stats["rebuilds"] == 1
        assert clean == recovered

    def test_corrupt_injection_is_detected(self, bench_graph):
        # Negative control: if silent corruption survived to the output
        # and the comparison still passed, none of the tests above would
        # be measuring anything.
        candidates = [[v] for v in range(25)]
        clean = CRNSpreadEvaluator(
            bench_graph, IndependentCascade(), n_sims=30, seed=5, mc_batch_size=16
        ).evaluate_many(candidates)
        with ParallelRuntime(
            2, injection=FaultInjection("corrupt", nth=0)
        ) as chaos_rt:
            with CRNSpreadEvaluator(
                bench_graph,
                IndependentCascade(),
                n_sims=30,
                seed=5,
                mc_batch_size=16,
                context=ExecutionContext().attach_runtime(chaos_rt),
            ) as evaluator:
                corrupted = evaluator.evaluate_many(candidates)
        assert not np.array_equal(clean, corrupted)

    def test_note_faults_records_recovery(self, bench_graph):
        context = ExecutionContext(
            jobs=2, fault_injection=FaultInjection("crash", nth=0)
        )
        with context:
            chaos = estimate_truncated_spread_mrr(
                bench_graph,
                IndependentCascade(),
                [0, 1],
                eta=20,
                theta=400,
                seed=3,
                batch_size=64,
                context=context,
            )
            context.note_faults()
        clean = estimate_truncated_spread_mrr(
            bench_graph,
            IndependentCascade(),
            [0, 1],
            eta=20,
            theta=400,
            seed=3,
            batch_size=64,
        )
        assert chaos == clean
        assert context.diagnostics["fault_rebuilds"] == 1
        assert context.diagnostics["fault_degraded_chunks"] == 0

    def test_note_faults_noop_without_runtime(self):
        context = ExecutionContext()
        context.note_faults()
        assert not any(key.startswith("fault_") for key in context.diagnostics)
        # And it must not *create* a runtime as a side effect.
        parallel = ExecutionContext(jobs=2)
        parallel.note_faults()
        assert parallel._runtime is None
        parallel.close()
