"""The content-addressed pool store: persistence, corruption, eviction.

Covers the :mod:`repro.store` disk layer directly (round trips, digest
verification, LRU eviction, concurrency) and its consumers (warm fills,
CRN replay, harness worlds, service warm-start/spill) end to end, always
with the bar that matters: a warm run is byte-for-byte the cold run.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.diffusion.ic import IndependentCascade
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.experiments.config import quick_config
from repro.experiments.harness import run_sweep
from repro.graph import generators, weighting
from repro.runtime.context import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler
from repro.sampling.mrr import RootCountRule
from repro.store import (
    ARTIFACT_FORMAT_VERSION,
    PoolStore,
    artifact_key,
    canonical_json,
    generator_state,
    graph_fingerprint,
    restore_generator_state,
)


@pytest.fixture
def graph():
    topology = generators.preferential_attachment(300, 3, seed=1, directed=False)
    return weighting.weighted_cascade(topology)


def make_store(tmp_path, **kwargs):
    return PoolStore(tmp_path / "store", **kwargs)


def sample_arrays(tag=0):
    return {
        "members": np.arange(10, dtype=np.int64) + tag,
        "weights": np.linspace(0.0, 1.0, 5),
    }


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 1})
        assert store.save(key, sample_arrays(), {"note": "x"})
        arrays, meta = store.load(key)
        assert np.array_equal(arrays["members"], sample_arrays()["members"])
        assert meta == {"note": "x"}
        assert store.stats.hits == 1 and store.stats.stores == 1

    def test_miss_returns_none(self, tmp_path):
        store = make_store(tmp_path)
        assert store.load("pool-deadbeef") is None
        assert store.stats.misses == 1

    def test_truncated_payload_discarded_silently(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 2})
        store.save(key, sample_arrays())
        payload = store.root / f"{key}.npz"
        payload.write_bytes(payload.read_bytes()[:20])
        assert store.load(key) is None
        assert store.stats.corrupt_discarded == 1
        # Both files were removed — the next save regenerates cleanly.
        assert not payload.exists()
        assert store.save(key, sample_arrays())
        assert store.load(key) is not None

    def test_digest_mismatch_discarded(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 3})
        store.save(key, sample_arrays())
        manifest_path = store.root / f"{key}.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["digest"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(key) is None
        assert store.stats.corrupt_discarded == 1

    def test_garbage_manifest_discarded(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 4})
        store.save(key, sample_arrays())
        (store.root / f"{key}.json").write_text("{not json")
        assert store.load(key) is None

    def test_version_mismatch_discarded(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 5})
        store.save(key, sample_arrays())
        manifest_path = store.root / f"{key}.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = ARTIFACT_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(key) is None

    def test_lru_eviction_order(self, tmp_path):
        clock = iter(range(1000))
        sizer = make_store(tmp_path / "sizer")
        sizer.save("pool-probe", sample_arrays())
        entry_bytes = sizer.total_bytes()
        # Budget for ~1.5 entries: each new save evicts the older one.
        store = make_store(
            tmp_path, max_bytes=int(1.5 * entry_bytes), clock=lambda: next(clock)
        )
        store.save("pool-aa", sample_arrays())
        store.save("pool-bb", sample_arrays())
        assert store.keys() == ["pool-bb"]
        assert store.stats.evictions == 1

    def test_oversized_entry_not_kept(self, tmp_path):
        store = make_store(tmp_path, max_bytes=1)
        store.save("pool-aa", sample_arrays())
        # An entry that alone exceeds the budget is evicted immediately,
        # mirroring the service cache's oversized-entry policy.
        assert store.keys() == []

    def test_touch_refreshes_recency(self, tmp_path):
        clock = iter(range(1000))
        nbytes = None
        store = make_store(tmp_path, max_bytes=10**9, clock=lambda: next(clock))
        store.save("pool-aa", sample_arrays())
        store.save("pool-bb", sample_arrays())
        store.save("pool-cc", sample_arrays())
        # Loading "aa" makes it most recent; shrink the budget so only
        # two entries fit and save another — "bb" must go first.
        store.load("pool-aa")
        entry_bytes = store.total_bytes() // 3
        store.max_bytes = int(2.5 * entry_bytes)
        store.save("pool-dd", sample_arrays())
        kept = set(store.keys())
        assert "pool-dd" in kept and "pool-aa" in kept
        assert "pool-bb" not in kept

    def test_save_never_raises(self, tmp_path):
        store = make_store(tmp_path)
        store.root.parent.chmod(0o555)
        try:
            ok = store.save("pool-ro", sample_arrays())
        finally:
            store.root.parent.chmod(0o755)
        if not ok:  # root (in CI containers) may bypass the chmod
            assert store.stats.store_failures == 1

    def test_concurrent_readers_and_writers(self, tmp_path):
        """Atomic publish: a reader never sees a half-written artifact."""
        store = make_store(tmp_path)
        key = artifact_key("pool", {"race": True})
        stop = threading.Event()
        bad = []

        def writer():
            i = 0
            while not stop.is_set():
                PoolStore(store.root).save(key, sample_arrays(i % 7))
                i += 1

        def reader():
            while not stop.is_set():
                loaded = PoolStore(store.root).load(key)
                if loaded is not None:
                    members = loaded[0]["members"]
                    tag = int(members[0])
                    if not np.array_equal(members, sample_arrays(tag)["members"]):
                        bad.append(members)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert not bad

    def test_pickled_store_drops_stats(self, tmp_path):
        import pickle

        store = make_store(tmp_path)
        store.save("pool-aa", sample_arrays())
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.stats.stores == 0
        assert clone.load("pool-aa") is not None

    def test_empty_root_rejected(self):
        # Path("") means the cwd; an empty root must never scatter
        # artifacts into the working tree (same guard at the CLI and
        # ExperimentConfig boundaries).
        with pytest.raises(ValueError, match="store root"):
            PoolStore("")
        with pytest.raises(ValueError, match="store root"):
            PoolStore("   ")


class TestKeys:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_graph_fingerprint_distinguishes_graphs(self, graph):
        other = weighting.weighted_cascade(
            generators.preferential_attachment(300, 3, seed=2, directed=False)
        )
        assert graph_fingerprint(graph) != graph_fingerprint(other)
        assert graph_fingerprint(graph) == graph_fingerprint(graph)

    def test_storage_policy_in_fingerprint(self, graph):
        wide = graph.with_storage("wide")
        assert graph_fingerprint(graph) != graph_fingerprint(wide)

    def test_artifact_key_isolates_kinds(self):
        assert artifact_key("pool", {"x": 1}) != artifact_key("crn", {"x": 1})
        assert artifact_key("pool", {"x": 1}).startswith("pool-")

    def test_generator_state_round_trip(self):
        rng = np.random.default_rng(42)
        rng.integers(0, 100, size=8)
        state = generator_state(rng)
        probe = rng.integers(0, 2**32, size=4)
        fresh = np.random.default_rng(0)
        assert restore_generator_state(fresh, state)
        assert np.array_equal(fresh.integers(0, 2**32, size=4), probe)

    def test_restore_rejects_foreign_state(self):
        rng = np.random.default_rng(0)
        assert not restore_generator_state(rng, {"bit_generator": "Philox"})
        assert not restore_generator_state(rng, {})


class TestWarmConsumers:
    def _fill(self, graph, store, seed=11, count=400, batch=128):
        context = ExecutionContext(sample_batch_size=batch, pool_store=store)
        engine = mrr_batch_sampler(
            graph,
            IndependentCascade(),
            RootCountRule.for_target(graph.n, 30),
            seed=seed,
            batch_size=batch,
            context=context,
        )
        index = CoverageIndex(graph.n)
        engine.fill(index, count)
        # A second fill continues the chunk stream: a hit on the first fill
        # must leave the spawn offset exactly where regenerating would.
        engine.fill(index, count // 2)
        members, indptr = index.packed()
        offset = np.array([engine._chunk_root.n_children_spawned])
        return members.copy(), indptr.copy(), offset

    def test_warm_pool_fill_bit_identical(self, graph, tmp_path):
        store = make_store(tmp_path)
        cold = self._fill(graph, store)
        warm_store = PoolStore(store.root)
        warm = self._fill(graph, warm_store)
        for c, w in zip(cold, warm):
            assert np.array_equal(c, w)
        assert warm_store.stats.hits >= 1

    def test_no_store_matches_store(self, graph, tmp_path):
        plain = self._fill(graph, None)
        cold = self._fill(graph, make_store(tmp_path))
        for p, c in zip(plain, cold):
            assert np.array_equal(p, c)

    def test_unseeded_sampler_skips_store(self, graph, tmp_path):
        store = make_store(tmp_path)
        context = ExecutionContext(pool_store=store)
        engine = mrr_batch_sampler(
            graph,
            IndependentCascade(),
            RootCountRule.for_target(graph.n, 30),
            seed=None,
            context=context,
        )
        engine.fill(CoverageIndex(graph.n), 100)
        assert len(store) == 0

    def test_warm_crn_bit_identical(self, graph, tmp_path):
        store = make_store(tmp_path)
        candidates = [[v] for v in range(16)]

        def evaluate(active_store):
            evaluator = CRNSpreadEvaluator(
                graph,
                IndependentCascade(),
                n_sims=40,
                seed=5,
                context=ExecutionContext(pool_store=active_store),
            )
            return np.asarray(evaluator.evaluate_many(candidates))

        plain = evaluate(None)
        cold = evaluate(store)
        warm_store = PoolStore(store.root)
        warm = evaluate(warm_store)
        assert np.array_equal(plain, cold)
        assert np.array_equal(cold, warm)
        assert warm_store.stats.hits >= 1

    def test_warm_sweep_seed_counts_identical(self, tmp_path):
        config = quick_config(
            graph_n=200,
            realizations=2,
            algorithms=("ASTI",),
            eta_fractions=(0.1,),
        )

        def counts(pool_store):
            sweep = run_sweep(config.scaled(pool_store=pool_store))
            return [
                r.seed_count
                for eta in sweep.eta_values
                for r in sweep.outcomes[eta]["ASTI"].runs
            ]

        store_dir = str(tmp_path / "sweep-store")
        plain = counts(None)
        cold = counts(store_dir)
        warm = counts(store_dir)
        assert plain == cold == warm

    def test_corrupt_store_regenerates(self, graph, tmp_path):
        store = make_store(tmp_path)
        cold = self._fill(graph, store)
        for payload in store.root.glob("*.npz"):
            payload.write_bytes(b"garbage")
        warm_store = PoolStore(store.root)
        warm = self._fill(graph, warm_store)
        for c, w in zip(cold, warm):
            assert np.array_equal(c, w)
        assert warm_store.stats.corrupt_discarded >= 1

    def test_context_pickles_with_store(self, tmp_path):
        import pickle

        context = ExecutionContext(pool_store=make_store(tmp_path))
        clone = pickle.loads(pickle.dumps(context))
        assert clone.pool_store.root == context.pool_store.root

    def test_note_store_diagnostics(self, tmp_path):
        store = make_store(tmp_path)
        store.save("pool-aa", sample_arrays())
        context = ExecutionContext(pool_store=store)
        context.note_store()
        assert context.diagnostics["pool_store_stores"] == 1
        assert str(store.root) in context.diagnostics["pool_store_root"]


class TestServiceIntegration:
    def _pool(self):
        from repro.sampling.mrr import CarriedMRRPool

        return CarriedMRRPool(
            members=np.array([0, 1, 2, 3], dtype=np.int64),
            indptr=np.array([0, 2, 4], dtype=np.int64),
            root_counts=np.array([1, 2], dtype=np.int64),
        )

    def test_spill_then_warm_start(self, tmp_path):
        from repro.service.handlers import carried_pool_nbytes
        from repro.service.server import SeedService, ServiceConfig

        store_dir = str(tmp_path / "service-store")
        service = SeedService(ServiceConfig(pool_store=store_dir))
        pool = self._pool()
        key = ("pool", "nethept-sim", 300, 0, "IC", 30, 64, 7, 256)
        service.cache.put(key, pool, carried_pool_nbytes(pool))
        service._spill_cache()
        assert service.counters["store_spilled"] == 1

        reborn = SeedService(ServiceConfig(pool_store=store_dir))
        assert reborn.counters["store_warm_loaded"] == 1
        cached = reborn.cache.get(key)
        assert cached is not None
        assert np.array_equal(cached.members, pool.members)
        assert np.array_equal(cached.indptr, pool.indptr)
        assert np.array_equal(cached.root_counts, pool.root_counts)

    def test_graph_entries_do_not_spill(self, tmp_path):
        from repro.service.server import SeedService, ServiceConfig

        store_dir = str(tmp_path / "service-store")
        service = SeedService(ServiceConfig(pool_store=store_dir))
        service.cache.put(("graph", "nethept-sim", 300, 0), object(), 64)
        service._spill_cache()
        assert service.counters["store_spilled"] == 0
        assert len(service.store) == 0

    def test_no_store_service_noop(self):
        from repro.service.server import SeedService, ServiceConfig

        service = SeedService(ServiceConfig())
        assert service.store is None
        service._spill_cache()  # must not raise

    def test_health_reports_store(self, tmp_path):
        from repro.service.server import SeedService, ServiceConfig

        service = SeedService(
            ServiceConfig(pool_store=str(tmp_path / "service-store"))
        )
        health = service._health()
        assert health["store"]["stores"] == 0
        assert "service-store" in health["store"]["root"]

    def test_cache_entries_snapshot(self):
        from repro.service.cache import ServiceCache

        cache = ServiceCache(max_bytes=1000)
        cache.put(("a",), 1, 10)
        cache.put(("b",), 2, 10)
        cache.get(("a",))  # most recent now
        entries = cache.entries()
        assert [key for key, _, _ in entries] == [("b",), ("a",)]
        assert [value for _, value, _ in entries] == [2, 1]
