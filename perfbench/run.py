"""The repository benchmark: one command per workload, outputs checked.

Run from the repository root (``src`` must sit beside ``perfbench``)::

    python3 perfbench/run.py --workload paper_ic --seed 1 --seconds 25 --trace 0

Workloads (the seed derives every graph, world and request seed):

* ``paper_ic`` — the Fig. 4/5 IC sweep protocol (nethept-sim n=1000, ASTI
  and ASTI-4, eta fractions 0.05/0.10/0.20), one independent graph per
  sweep;
* ``paper_lt`` — the Fig. 6/7 LT sweep on epinions-sim n=500;
* ``service_mix`` — an open-loop estimate/solve mix against ``repro
  serve`` in its own process;
* ``sweep_store`` — ASTI sweeps (n=300) into a fresh pool store (cold),
  each replayed against its store (warm).

A sweep workload runs as many sweeps as ``--seconds`` fits (see
``sweeps.SweepSpec.sweep_seconds``); the service's replays of its
schedule fill it (see ``service_mix.schedule_seconds``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with no spans installed.  ``--trace 1`` reports the per-layer
split instead: the workload runs once with spans around each layer's
public functions, and its first quarter also runs untraced, which gives
the tracing overhead.  Metric names and units come from
``BENCHMARK.json``; the lines above the result spell the figures out for
a reader.  The benchmark's own tests: ``python3 -m pytest
perfbench/selftest.py``.

Sweep workloads make ``PASSES`` identical passes and take each sweep, set-up
and round at its fastest pass; the service serves its schedule on several
fresh servers and takes each request at its fastest.  What the end-to-end
metrics mean per workload:

=================  =====================  ===================================
metric             sweeps                 service_mix
=================  =====================  ===================================
setup_s            one sweep's graph      boot ``repro serve`` to its first
                   build and shared       reply (graph cache filled); median
                   worlds, timed inside   over the servers
                   ``run_sweep``; median
                   over the sweeps
ms_per_op          the ``run_sweep``      server CPU time over the mix per
                   calls (cold passes on  request
                   ``sweep_store``) per
                   committed seed
latency_ms_p50/90  one adaptive round     due time to reply, per request
                   (warm replay rounds
                   on ``sweep_store``)
seeds_mean         mean seeds per session mean seeds per solve reply
peak_rss_mb        this process           the largest server process
=================  =====================  ===================================

Other names for the same figures: ``round_ms_*`` and ``request_ms_*`` are
``latency_ms_*``; ``sweep_s`` (the cold sweeps' total), ``warm_sweep_s``
and ``round_ms_p95`` are printed among the notes.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_ic", "paper_lt", "service_mix", "sweep_store")


def _load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _check_checkout() -> None:
    """Refuse to run without the library sources beside the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fails loudly if the sources do not import)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path):
    import service_mix
    import sweeps

    if name == "service_mix":
        return service_mix.run(service_mix.SERVICE_MIX, seed, seconds, trace, ROOT, work_root)
    spec = {
        "paper_ic": sweeps.PAPER_IC,
        "paper_lt": sweeps.PAPER_LT,
        "sweep_store": sweeps.SWEEP_STORE,
    }[name]
    return sweeps.run(spec, seed, seconds, trace, work_root)


def _finite(value: float):
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    contract = _load_contract()
    _check_checkout()
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    # Layers a workload never enters report zero self time and counts.
    metrics = {
        m["name"]: {"value": _finite(float(outcome.metrics.get(m["name"], 0.0))), "unit": m["unit"]}
        for m in wanted
    }
    if not args.trace and missing:
        outcome.problems.append(f"end-to-end metrics not measured: {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']!s:>16} {entry['unit']}")
    for name, value in outcome.notes.items():
        print(f"  ({name}) {value}")
    print(f"  sessions/requests attempted {outcome.attempted}, failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not outcome.problems and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
