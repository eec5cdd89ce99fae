"""Chaos gate: recovered parallel runs must reproduce the clean bytes.

Injects deterministic worker faults (:mod:`repro.testing.faults`) into the
supervised parallel runtime and asserts the **recovery-equivalence** bar on
each engine fan-out: a run that survived a crash, a hang, or full
degradation to in-process execution must be *bit-identical* to the clean
``jobs=1`` reference — the chunk-indexed seeding invariant means recovery
can change where a chunk runs, never what it returns.

Cases:

* **pool/crash** — an mRR pool fill whose first chunk's worker dies
  (``os._exit``), recovered by a pool rebuild;
* **crn/crash** — a CRN spread evaluation through the same injector;
* **sweep/crash** — a TRIM-style eta point (ASTI + ATEUC over shared
  realizations) surviving a worker crash;
* **pool/hang** — a hung worker caught by the policy ``chunk_timeout``;
* **pool/degrade** — retry/rebuild budgets at zero with an always-firing
  crash, forcing every surviving chunk in-process;
* **negative-control/corrupt** — the silent-corruption injector, which the
  gate requires the equivalence comparison to *detect*: a chaos gate that
  stays green under corrupted results is measuring nothing.

Each case also records the supervisor's ``fault_stats`` (rebuilds,
timeouts, degraded chunks, recovery wall-time), so the trajectory shows
what the recovery cost, not just that it worked.  Results append to
``benchmarks/results/fault_recovery.json``.  Run::

    python benchmarks/bench_fault_recovery.py             # full profile
    python benchmarks/bench_fault_recovery.py --quick --gate   # CI chaos job

or through pytest (quick profile), which always enforces the gate.
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
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.experiments.harness import run_eta_point, sample_shared_realizations
from repro.graph import generators, weighting
from repro.parallel.runtime import FaultPolicy, ParallelRuntime
from repro.runtime import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler
from repro.sampling.mrr import RootCountRule
from repro.testing.faults import FaultInjection

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "fault_recovery.json"

#: Recovery is a correctness property, not a throughput one, so the graphs
#: stay small enough that every case (including the timeout wait) finishes
#: in seconds; ``jobs`` is fixed at 2 — one worker to kill, one to survive.
FULL = {
    "graph_n": 2_000,
    "pool_sets": 1_200,
    "batch_size": 128,
    "eta_fraction": 0.1,
    "crn_candidates": 48,
    "crn_worlds": 40,
    "crn_sweep": 128,
    "sweep_realizations": 3,
    "chunk_timeout": 5.0,
}
QUICK = {
    "graph_n": 600,
    "pool_sets": 600,
    "batch_size": 64,
    "eta_fraction": 0.1,
    "crn_candidates": 24,
    "crn_worlds": 24,
    "crn_sweep": 64,
    "sweep_realizations": 2,
    "chunk_timeout": 5.0,
}

JOBS = 2


def build_graph(n: int, seed: int = 0):
    topology = generators.preferential_attachment(n, 3, seed=seed, directed=False)
    return weighting.weighted_cascade(topology)


def _stats(runtime) -> dict:
    stats = runtime.fault_stats
    stats["recovered_seconds"] = round(stats["recovered_seconds"], 3)
    return stats


# ----------------------------------------------------------------------
# Fan-outs under injection
# ----------------------------------------------------------------------

def _pool_fill(graph, profile, runtime, seed):
    eta = max(1, int(profile["eta_fraction"] * graph.n))
    rule = RootCountRule.for_target(graph.n, eta)
    engine = mrr_batch_sampler(
        graph,
        IndependentCascade(),
        rule,
        seed=seed,
        batch_size=profile["batch_size"],
        context=ExecutionContext().attach_runtime(runtime),
    )
    index = CoverageIndex(graph.n)
    engine.fill(index, profile["pool_sets"])
    members, indptr = index.packed()
    return members.copy(), indptr.copy()


def _crn_values(graph, profile, runtime, seed):
    candidates = [[int(v)] for v in range(profile["crn_candidates"])]
    with CRNSpreadEvaluator(
        graph,
        IndependentCascade(),
        n_sims=profile["crn_worlds"],
        seed=seed,
        mc_batch_size=profile["crn_sweep"],
        context=ExecutionContext().attach_runtime(runtime),
    ) as evaluator:
        return evaluator.evaluate_many(candidates)


def _sweep_outcomes(graph, realizations, runtime, seed):
    labels = ("ASTI", "ATEUC")
    context = ExecutionContext().attach_runtime(runtime)
    results = run_eta_point(
        graph,
        IndependentCascade(),
        eta=max(1, graph.n // 10),
        algorithms=labels,
        realizations=realizations,
        max_samples=20_000,
        seed=seed,
        context=context,
    )
    return {
        label: [
            (r.seed_count, r.spread, r.achieved, r.marginal_spreads)
            for r in results[label].runs
        ]
        for label in labels
    }


def _case(reference, chaos_fn, policy=None, injection=None):
    """Run ``chaos_fn`` under an injected runtime; compare to ``reference``."""
    started = time.perf_counter()
    with ParallelRuntime(JOBS, fault_policy=policy, injection=injection) as rt:
        survivor = chaos_fn(rt)
        stats = _stats(rt)
    seconds = time.perf_counter() - started
    if isinstance(reference, tuple):
        identical = all(
            np.array_equal(ref, out) for ref, out in zip(reference, survivor)
        )
    elif isinstance(reference, np.ndarray):
        identical = bool(np.array_equal(reference, survivor))
    else:
        identical = reference == survivor
    return {
        "bit_identical": bool(identical),
        "seconds": round(seconds, 2),
        "faults": stats,
    }


def measure(profile: dict, seed: int = 0) -> dict:
    graph = build_graph(profile["graph_n"], seed=seed)
    realizations = sample_shared_realizations(
        graph, IndependentCascade(), profile["sweep_realizations"], seed=seed + 10
    )

    # Clean jobs=1 references (the bit-exact ground truth for every case).
    with ParallelRuntime(1) as rt:
        pool_reference = _pool_fill(graph, profile, rt, seed)
    with ParallelRuntime(1) as rt:
        crn_reference = _crn_values(graph, profile, rt, seed)
    sweep_reference = _sweep_outcomes(graph, realizations, None, seed)

    crash = FaultInjection("crash", nth=0)
    cases = {
        "pool/crash": _case(
            pool_reference,
            lambda rt: _pool_fill(graph, profile, rt, seed),
            injection=crash,
        ),
        "crn/crash": _case(
            crn_reference,
            lambda rt: _crn_values(graph, profile, rt, seed),
            injection=crash,
        ),
        "sweep/crash": _case(
            sweep_reference,
            lambda rt: _sweep_outcomes(graph, realizations, rt, seed),
            injection=crash,
        ),
        "pool/hang": _case(
            pool_reference,
            lambda rt: _pool_fill(graph, profile, rt, seed),
            policy=FaultPolicy(chunk_timeout=profile["chunk_timeout"]),
            injection=FaultInjection("hang", nth=0, hang_seconds=600.0),
        ),
        "pool/degrade": _case(
            pool_reference,
            lambda rt: _pool_fill(graph, profile, rt, seed),
            policy=FaultPolicy(max_retries=0, max_rebuilds=0),
            injection=FaultInjection("crash", nth=0, attempts=tuple(range(50))),
        ),
    }
    # Negative control: corruption must BREAK the equivalence comparison.
    control = _case(
        crn_reference,
        lambda rt: _crn_values(graph, profile, rt, seed),
        injection=FaultInjection("corrupt", nth=0),
    )
    control["detected"] = not control.pop("bit_identical")
    cases["negative-control/corrupt"] = control

    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "graph_n": graph.n,
        "graph_m": graph.m,
        "jobs": JOBS,
        "cpus": os.cpu_count(),
        "pool_sets": profile["pool_sets"],
        "crn_jobs": profile["crn_candidates"] * profile["crn_worlds"],
        "cases": cases,
    }


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
        verdict = (
            f"detected {case['detected']}"
            if "detected" in case
            else f"bit-identical {case['bit_identical']}"
        )
        faults = case["faults"]
        print(
            f"  {name:<24} {verdict:<21} {case['seconds']:>6.2f}s   "
            f"rebuilds {faults['rebuilds']}  timeouts {faults['timeouts']}  "
            f"retries {faults['retries']}  degraded {faults['degraded_chunks']}  "
            f"recovery {faults['recovered_seconds']:.3f}s",
            file=out,
        )


def check_gates(result: dict) -> None:
    """Raise unless every recovery matched and the control was detected.

    Three bars, all hardware-independent:

    * every injected case is bit-identical to its clean ``jobs=1``
      reference;
    * each case's fault counters prove its recovery path actually ran
      (a crash case with zero rebuilds recovered nothing);
    * the corrupt negative control was *detected* by the comparison.
    """
    broken = [
        name
        for name, case in result["cases"].items()
        if "bit_identical" in case and not case["bit_identical"]
    ]
    if broken:
        raise SystemExit(f"recovery equivalence violated: {broken}")
    idle = []
    for name, case in result["cases"].items():
        faults = case["faults"]
        if name.endswith("/crash") and faults["rebuilds"] < 1:
            idle.append(name)
        if name.endswith("/hang") and faults["timeouts"] < 1:
            idle.append(name)
        if name.endswith("/degrade") and faults["degraded_chunks"] < 1:
            idle.append(name)
    if idle:
        raise SystemExit(f"injected fault never fired: {idle}")
    if not result["cases"]["negative-control/corrupt"]["detected"]:
        raise SystemExit(
            "negative control failed: corrupted results passed the "
            "equivalence comparison — the gate is not measuring anything"
        )


def test_fault_recovery_gate():
    """The pytest entry point: quick profile, gate always enforced."""
    result = measure(QUICK)
    report(result)
    check_gates(result)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-scale profile")
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero unless every recovery is bit-identical, every "
        "injected fault fired, and the corruption control was detected",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = measure(QUICK if args.quick else FULL, seed=args.seed)
    report(result)
    record(result)
    print(f"appended to {RESULTS_PATH}")
    if args.gate:
        check_gates(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
