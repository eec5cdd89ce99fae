"""Parallel-runtime throughput: in-process chunks vs multi-core workers.

Measures the three fan-outs of the shared-memory parallel runtime on the
~10k-node benchmark graph, each against the same chunk decomposition run
in-process (``jobs=1``), so the speedup isolates multi-core scaling from
vectorization (which earlier gates already cover):

* **pool** — (m)RR pool generation: ``BatchSampler.fill`` sharding its
  per-batch reverse-sample chunks across workers over the shared CSR graph;
* **crn** — common-random-number spread evaluation:
  ``CRNSpreadEvaluator`` sharding its flattened candidate x world sweeps;
* **harness** — the experiment harness running independent adaptive
  realizations across workers (recorded for the trajectory, not gated:
  its shards are few and coarse, so its scaling is lumpier than the
  chunk-level engines').

Determinism is part of the bar: every case also asserts the **worker-count
invariance** equivalence — ``jobs=N`` output must be bit-identical to
``jobs=1`` (and, for CRN, to the runtime-free path).

Results (throughputs, speedups, equivalence flags, worker/CPU counts) are
appended to ``benchmarks/results/parallel_runtime.json``.  Run::

    python benchmarks/bench_parallel_runtime.py                   # full, 4 workers
    python benchmarks/bench_parallel_runtime.py --quick --jobs 2  # CI profile

or through pytest (quick profile), which always asserts the equivalence
bars and additionally asserts the CI speedup gate (1.3x at 2 workers) when
the host actually has at least 2 CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.experiments.config import quick_config
from repro.experiments.harness import run_sweep
from repro.graph import generators, weighting
from repro.parallel import ParallelRuntime
from repro.runtime import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler
from repro.sampling.mrr import RootCountRule

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "parallel_runtime.json"

#: The pool case samples mRR sets at the representative eta/n = 0.1 point;
#: the CRN case scores singleton candidates on shared worlds with a fixed
#: sweep size so the chunk count (and thus the shardable work) is stable.
FULL = {
    "graph_n": 10_000,
    "pool_sets": 4_000,
    "batch_size": 256,
    "eta_fraction": 0.1,
    "crn_candidates": 96,
    "crn_worlds": 100,
    "crn_sweep": 256,
    "harness_n": 1_000,
    "harness_realizations": 8,
}
QUICK = {
    "graph_n": 10_000,
    "pool_sets": 3_000,
    "batch_size": 256,
    "eta_fraction": 0.1,
    "crn_candidates": 64,
    "crn_worlds": 60,
    "crn_sweep": 256,
    "harness_n": 600,
    "harness_realizations": 6,
}

#: Gate thresholds on the gated cases (pool and CRN): full runs on a
#: >= 4-core host should clear 2.5x at 4 workers; CI's 2-vCPU runner
#: gates a relaxed 1.3x at 2 workers via --min-speedup.
DEFAULT_MIN_SPEEDUP = 2.5
CI_MIN_SPEEDUP = 1.3

#: Compact-storage bar: a fully compact-eligible graph (int32 indices,
#: float32 probabilities) must pack into at most this fraction of its
#: int64/float64 segment bytes.  Hardware-independent, enforced always.
MAX_COMPACT_SEGMENT_RATIO = 0.55


def build_graph(n: int, seed: int = 0):
    """The ~10k-node benchmark graph: preferential attachment + WC weights."""
    topology = generators.preferential_attachment(n, 3, seed=seed, directed=False)
    return weighting.weighted_cascade(topology)


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _pool_once(graph, model, rule, profile, jobs, seed):
    with ParallelRuntime(jobs) as runtime:
        if jobs > 1:
            # Spawn the workers and map the graph outside the clock: the
            # runtime is persistent, so production runs pay this once per
            # process, not once per fill.
            warmup = mrr_batch_sampler(
                graph, model, rule, seed=seed,
                batch_size=profile["batch_size"],
                context=ExecutionContext().attach_runtime(runtime),
            )
            warmup.fill(CoverageIndex(graph.n), profile["batch_size"])
        engine = mrr_batch_sampler(
            graph,
            model,
            rule,
            seed=seed,
            batch_size=profile["batch_size"],
            context=ExecutionContext().attach_runtime(runtime),
        )
        index = CoverageIndex(graph.n)
        seconds = _time(lambda: engine.fill(index, profile["pool_sets"]))
        members, indptr = index.packed()
        return seconds, (members.copy(), indptr.copy())


def measure_pool(graph, model, profile, jobs, seed=0):
    eta = max(1, int(profile["eta_fraction"] * graph.n))
    rule = RootCountRule.for_target(graph.n, eta)
    base_seconds, base_pool = _pool_once(graph, model, rule, profile, 1, seed)
    par_seconds, par_pool = _pool_once(graph, model, rule, profile, jobs, seed)
    identical = np.array_equal(base_pool[0], par_pool[0]) and np.array_equal(
        base_pool[1], par_pool[1]
    )
    rate = profile["pool_sets"] / base_seconds
    par_rate = profile["pool_sets"] / par_seconds
    return {
        "jobs1_sets_per_s": round(rate, 1),
        "workers_sets_per_s": round(par_rate, 1),
        "speedup": round(par_rate / rate, 2),
        "bit_identical": bool(identical),
    }


def measure_relabeled(graph, profile, jobs, seed=0):
    """Stress the pool fan-out on a degree-relabeled copy of the graph.

    ``DiGraph.relabeled()`` packs the hubs into a compact id prefix; this
    case re-runs the gated pool measurement on that copy, so the
    worker-count-invariance bar (jobs=N bit-identical to jobs=1) is
    exercised under a node numbering whose chunk contents differ
    completely from the canonical graph's.  The relabeled graph must also
    be verifiably the same graph: same edge count, storage policy
    inherited, and ids actually sorted by descending total degree.
    """
    relabeled, order = graph.relabeled()
    degrees = relabeled.in_degrees() + relabeled.out_degrees()
    case = measure_pool(relabeled, IndependentCascade(), profile, jobs, seed)
    case["bit_identical"] = bool(
        case["bit_identical"]
        and relabeled.m == graph.m
        and relabeled.storage == graph.storage
        and np.array_equal(np.sort(order), np.arange(graph.n))
        and bool(np.all(degrees[:-1] >= degrees[1:]))
    )
    return case


def measure_crn(graph, model, profile, jobs, seed=0):
    candidates = [[int(v)] for v in range(profile["crn_candidates"])]
    kwargs = dict(
        n_sims=profile["crn_worlds"],
        seed=seed,
        mc_batch_size=profile["crn_sweep"],
    )
    no_runtime_values = CRNSpreadEvaluator(graph, model, **kwargs).evaluate_many(
        candidates
    )

    def timed(workers):
        with ParallelRuntime(workers) as runtime:
            evaluator = CRNSpreadEvaluator(
                graph, model,
                context=ExecutionContext().attach_runtime(runtime), **kwargs,
            )
            if workers > 1:
                # Warm with a full-size evaluation: anything smaller than
                # two sweeps stays in-process and would leave worker spawn
                # plus graph/worlds publication inside the timed run.
                evaluator.evaluate_many(candidates)
            holder = {}
            seconds = _time(
                lambda: holder.setdefault(
                    "values", evaluator.evaluate_many(candidates)
                )
            )
            return seconds, holder["values"]

    base_seconds, base_values = timed(1)
    par_seconds, par_values = timed(jobs)
    jobs_total = len(candidates) * profile["crn_worlds"]
    rate = jobs_total / base_seconds
    par_rate = jobs_total / par_seconds
    return {
        "jobs1_evals_per_s": round(rate, 1),
        "workers_evals_per_s": round(par_rate, 1),
        "speedup": round(par_rate / rate, 2),
        "bit_identical": bool(
            np.array_equal(no_runtime_values, base_values)
            and np.array_equal(base_values, par_values)
        ),
    }


def measure_harness(profile, jobs, seed=0):
    config = quick_config(
        graph_n=profile["harness_n"],
        realizations=profile["harness_realizations"],
        algorithms=("ASTI-4",),
        eta_fractions=(0.1,),
        max_samples=20_000,
        seed=seed,
    )

    def run(workers):
        holder = {}
        seconds = _time(
            lambda: holder.setdefault(
                "sweep", run_sweep(config.scaled(jobs=workers))
            )
        )
        sweep = holder["sweep"]
        counts = [
            r.seed_count
            for eta in sweep.eta_values
            for r in sweep.outcomes[eta]["ASTI-4"].runs
        ]
        return seconds, counts

    base_seconds, base_counts = run(1)
    par_seconds, par_counts = run(jobs)
    return {
        "jobs1_seconds": round(base_seconds, 2),
        "workers_seconds": round(par_seconds, 2),
        "speedup": round(base_seconds / par_seconds, 2),
        "bit_identical": bool(base_counts == par_counts),
    }


def measure_storage(profile, seed=0):
    """Shared-memory segment bytes: compact (adaptive) vs wide storage.

    Two graphs over the same ~10k-node topology:

    * ``weighted-cascade`` — the benchmark's WC weights (1/indeg is not
      float32-exact, so only the index arrays compact);
    * ``constant-p0.125`` — a fully compact-eligible graph (int32 indices
      *and* lossless float32 probabilities), which must pack into at most
      ``MAX_COMPACT_SEGMENT_RATIO`` of its int64/float64 bytes.

    Both segments really go through ``share_graph`` (alignment included),
    so the recorded bytes are exactly what workers map.
    """
    from repro.graph import generators, weighting
    from repro.parallel.shm import share_graph

    topology = generators.preferential_attachment(
        profile["graph_n"], 3, seed=seed, directed=False
    )
    cases = {}
    for name, graph in (
        ("weighted-cascade", weighting.weighted_cascade(topology)),
        ("constant-p0.125", weighting.constant(topology, 0.125)),
    ):
        compact_bundle, _ = share_graph(graph)
        wide_bundle, _ = share_graph(graph.with_storage("wide"))
        try:
            cases[name] = {
                "index_dtype": str(graph.index_dtype),
                "prob_dtype": str(graph.prob_dtype),
                "compact_segment_bytes": compact_bundle.nbytes,
                "wide_segment_bytes": wide_bundle.nbytes,
                "ratio": round(compact_bundle.nbytes / wide_bundle.nbytes, 3),
            }
        finally:
            compact_bundle.close()
            wide_bundle.close()
    return cases


def measure(profile: dict, jobs: int, seed: int = 0) -> dict:
    graph = build_graph(profile["graph_n"], seed=seed)
    cases = {}
    for model in (IndependentCascade(), LinearThreshold()):
        cases[f"pool/{model.name}-mrr"] = measure_pool(
            graph, model, profile, jobs, seed
        )
    cases["pool/IC-relabeled"] = measure_relabeled(graph, profile, jobs, seed)
    cases["crn/IC"] = measure_crn(graph, IndependentCascade(), profile, jobs, seed)
    harness = measure_harness(profile, jobs, seed)
    storage = measure_storage(profile, seed)
    result = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "graph_n": graph.n,
        "graph_m": graph.m,
        "jobs": jobs,
        "cpus": os.cpu_count(),
        "pool_sets": profile["pool_sets"],
        "crn_jobs": profile["crn_candidates"] * profile["crn_worlds"],
        "cases": cases,
        "harness": harness,
        "storage": storage,
    }
    if result["cpus"] is None or result["cpus"] < jobs:
        result["note"] = (
            f"host has {result['cpus']} CPU(s) for {jobs} workers: speedups "
            "measure timesharing overhead, not scaling; the bit_identical "
            "equivalence flags are the meaningful signal on this entry"
        )
    return result


def record(result: dict) -> None:
    """Append one measurement to the JSON trajectory file."""
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    history = []
    if RESULTS_PATH.exists():
        history = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    history.append(result)
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def report(result: dict, out=sys.stdout) -> None:
    print(
        f"graph: n={result['graph_n']} m={result['graph_m']} | "
        f"jobs={result['jobs']} on {result['cpus']} cpu(s)",
        file=out,
    )
    for name, case in result["cases"].items():
        rate_keys = [k for k in case if k.endswith("_per_s")]
        print(
            f"  {name:<14} jobs=1 {case[rate_keys[0]]:>10.1f}/s   "
            f"jobs={result['jobs']} {case[rate_keys[1]]:>10.1f}/s   "
            f"speedup {case['speedup']:>5.2f}x   "
            f"bit-identical {case['bit_identical']}",
            file=out,
        )
    harness = result["harness"]
    print(
        f"  {'harness':<14} jobs=1 {harness['jobs1_seconds']:>9.2f}s    "
        f"jobs={result['jobs']} {harness['workers_seconds']:>9.2f}s    "
        f"speedup {harness['speedup']:>5.2f}x   "
        f"bit-identical {harness['bit_identical']}",
        file=out,
    )
    for name, case in result.get("storage", {}).items():
        print(
            f"  storage/{name:<22} {case['compact_segment_bytes']:>10} B "
            f"vs wide {case['wide_segment_bytes']:>10} B   "
            f"ratio {case['ratio']:.3f}   "
            f"({case['index_dtype']}/{case['prob_dtype']})",
            file=out,
        )


def check_equivalence(result: dict) -> None:
    """Raise unless every parallel path matched its jobs=1 reference."""
    broken = [
        name
        for name, case in result["cases"].items()
        if not case["bit_identical"]
    ]
    if not result["harness"]["bit_identical"]:
        broken.append("harness")
    if broken:
        raise SystemExit(f"worker-count invariance violated: {broken}")
    check_storage(result)


def check_storage(result: dict) -> None:
    """Raise unless compact storage actually compacts.

    The fully compact-eligible graph must reach the
    ``MAX_COMPACT_SEGMENT_RATIO`` bar; the weighted-cascade graph (indices
    only) must still shrink below its wide layout.
    """
    storage = result.get("storage", {})
    eligible = storage.get("constant-p0.125")
    if eligible and eligible["ratio"] > MAX_COMPACT_SEGMENT_RATIO:
        raise SystemExit(
            f"compact-eligible graph segment ratio {eligible['ratio']} "
            f"exceeds {MAX_COMPACT_SEGMENT_RATIO}"
        )
    wc = storage.get("weighted-cascade")
    if wc and wc["ratio"] >= 1.0:
        raise SystemExit(
            f"weighted-cascade compact segment did not shrink: {wc}"
        )


def check_gates(result: dict, min_speedup: float) -> None:
    """Raise if a gated case (pool, crn) falls below ``min_speedup``."""
    check_equivalence(result)
    failures = {
        name: case["speedup"]
        for name, case in result["cases"].items()
        if case["speedup"] < min_speedup
    }
    if failures:
        raise SystemExit(
            f"speedup gate failed (< {min_speedup}x at {result['jobs']} "
            f"workers): {failures}"
        )


def test_parallel_runtime_gate():
    """Equivalence always; the speedup bar only on comfortably multi-core hosts.

    The worker-count-invariance bars are hardware-independent and always
    enforced.  The speedup assertion needs real, uncontended cores: on a
    single-CPU host the workers merely timeshare, and on an exactly-2-vCPU
    shared runner the measurement is noisy enough to flake tier-1 — there
    the dedicated CI benchmark step (``--gate --jobs 2 --min-speedup 1.3``)
    enforces the bar instead, with the recording that makes failures
    diagnosable.
    """
    import pytest

    jobs = 2
    result = measure(QUICK, jobs=jobs)
    report(result)
    check_equivalence(result)
    if os.cpu_count() is None or os.cpu_count() < 2 * jobs:
        pytest.skip(
            f"speedup assertion needs >= {2 * jobs} CPUs for a stable "
            f"measurement, host has {os.cpu_count()} "
            f"(the CI benchmark step gates it at {CI_MIN_SPEEDUP}x)"
        )
    for name, case in result["cases"].items():
        assert case["speedup"] >= CI_MIN_SPEEDUP, (name, case)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-scale profile")
    parser.add_argument("--jobs", type=int, default=4, help="worker count")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=DEFAULT_MIN_SPEEDUP,
        help="gate threshold for the pool and CRN cases "
        f"(full default {DEFAULT_MIN_SPEEDUP}; CI uses {CI_MIN_SPEEDUP} at 2 workers)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero unless equivalence holds and every gated case "
        "clears --min-speedup",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = measure(QUICK if args.quick else FULL, jobs=args.jobs, seed=args.seed)
    report(result)
    record(result)
    print(f"appended to {RESULTS_PATH}")
    if args.gate:
        check_gates(result, args.min_speedup)
    else:
        check_equivalence(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
