"""The service workload: an open-loop request mix against ``repro serve``.

The server runs in its own process (TCP, ``--jobs 1``).  One generator
process sends a seeded schedule whose arrival times are those of a
Poisson process at a fixed rate, over one connection, whatever the
replies do: a stall makes later requests wait, and their latency, timed
from when each was due, shows it.  One connection, because the server
answers each connection in order and computes under one interpreter
lock: with two, a request's time would hang on whether another happened
to overlap it, and the median would jump with the schedule.  The mix:

* 3/8 ``estimate`` requests drawn from four repeated request seeds, so
  their mRR pools are cached and adopted (warm);
* 3/8 ``estimate`` requests with fresh seeds (cold);
* 1/4 ``solve`` requests (a full adaptive ASTI run each).

The schedule is served whole by ``REPLAYS`` fresh servers in
turn, and each request's latency is its fastest over them: other work on
a shared host only ever adds time, and it comes and goes over seconds.
Fresh servers, because a server that has served the schedule once holds
every cold request's pool, which would make the replay warm.

Warm replies take a few milliseconds and cold ones tens, so with warm
requests at exactly half the median latency would sit on the gap between
the two groups and jump between them from run to run; at 3/8 it falls
inside the cold group.

Every warm reply, and a seeded sample of the cold estimates and the
solves, is compared with a cold offline ``jobs=1`` run of the same request
through the library.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

import layers
import spans
from report import Outcome, peak_rss_mb, percentile_ms

DATASET = "nethept-sim"
#: The served dataset instance is fixed, as a deployment's would be; the
#: workload seed draws the requests.
GRAPH_SEED = 0
#: Distinct request seeds the warm estimates repeat.
WARM_KEYS = 4
#: Nodes each estimate request asks about.
QUERIED_NODES = 3
#: Cold estimates and solves, each, compared with an offline run.
VERIFIED_PER_KIND = 20
BOOT_TIMEOUT = 60.0
#: Fresh servers that each serve the whole schedule; their median
#: boot-to-first-reply time is ``setup_s``.
REPLAYS = 3


def schedule_seconds(seconds: float) -> float:
    """The schedule's length: the run's time shared among the replays, less
    a fifth for the boots, the drains and the offline checks."""
    return 0.8 * seconds / REPLAYS


@dataclass(frozen=True)
class MixSpec:
    """The sizes the benchmark's tiny smoke run shrinks."""

    n: int = 1000
    eta: int = 50
    theta: int = 1000
    #: Solves target a lower eta.  At eta 30 a solve commits 1 to 4 seeds,
    #: one round each, so its time comes in steps of about 35 ms, and which
    #: step the 90th latency percentile landed on changed with the few
    #: dozen solves a workload seed draws.  At eta 10 every solve commits
    #: one seed.
    solve_eta: int = 10
    #: Requests per second: a hundred requests a replay at 25 seconds a
    #: run, so the 90th percentile has ten beyond it.  The server's CPU is
    #: busy about a fifth of the time: queueing still sets the tail, but a
    #: host that runs a third slower for a while does not push the queue
    #: toward saturation, which would amplify the slowdown in every latency.
    rate: float = 15.0


SERVICE_MIX = MixSpec()


@dataclass(frozen=True)
class Planned:
    due: float  # seconds after the schedule starts
    kind: str  # "warm", "cold" or "solve"
    payload: dict[str, Any]


@dataclass
class Sent:
    planned: Planned
    due_at: float = 0.0  # perf_counter time the request was due
    sent_at: float = 0.0
    reply: Optional[dict[str, Any]] = None
    arrived_at: float = 0.0


def schedule(spec: MixSpec, seed: int, seconds: float) -> list[Planned]:
    """The seeded request list: fixed kind counts, Poisson arrival times.

    Given their number, the arrival times of a Poisson process are sorted
    uniform draws, so each run carries the same work at the same mean rate.
    """
    rng = np.random.default_rng(seed)
    total = max(4, round(spec.rate * seconds))
    kinds = ["warm"] * (total * 3 // 8) + ["cold"] * (total * 3 // 8)
    kinds += ["solve"] * (total - len(kinds))
    rng.shuffle(kinds)
    dues = np.sort(rng.uniform(0.0, seconds, total))
    request_seeds = rng.choice(10**9, size=total + WARM_KEYS, replace=False)
    warm_seeds = request_seeds[:WARM_KEYS]
    warm_nodes = [
        rng.choice(spec.n, size=QUERIED_NODES, replace=False) for _ in range(WARM_KEYS)
    ]
    graph = {"dataset": DATASET, "n": spec.n, "graph_seed": GRAPH_SEED}
    planned = []
    for i, (kind, due) in enumerate(zip(kinds, dues)):
        request_seed = int(request_seeds[WARM_KEYS + i])
        params: dict[str, Any] = {**graph, "eta": spec.eta}
        if kind == "warm":
            key = int(rng.integers(WARM_KEYS))
            request_seed = int(warm_seeds[key])
            nodes = warm_nodes[key]
        else:
            nodes = rng.choice(spec.n, size=QUERIED_NODES, replace=False)
        if kind == "solve":
            op = "solve"
            params["eta"] = spec.solve_eta
        else:
            op = "estimate"
            params.update(seeds=[int(v) for v in nodes], theta=spec.theta)
        payload = {"op": op, "id": f"r{i}", "seed": request_seed, "params": params}
        planned.append(Planned(float(due), kind, payload))
    return planned


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------

class Server:
    """``repro serve`` in a child process; optionally behind the tracer."""

    def __init__(self, root: Path, spans_out: Optional[Path] = None):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        serve = ["serve", "--port", "0", "--jobs", "1"]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = Path(__file__).resolve().parent / "serve_traced.py"
            command = [sys.executable, str(launcher), str(spans_out), *serve]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float) -> int:
        """Read the announced port from the banner line."""
        assert self.process.stdout is not None
        banner: list[str] = []
        reader = threading.Thread(
            target=lambda: banner.append(self.process.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout)
        line = banner[0] if banner else ""
        if "listening on" not in line:
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        return self.port

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server process has used so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout: float = 60.0) -> int:
        """Drain via SIGTERM and wait; kill if the drain hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        return code


def start(root: Path, spans_out: Optional[Path] = None) -> Server:
    """Start a server and wait until it listens."""
    server = Server(root, spans_out)
    try:
        server.wait_ready(BOOT_TIMEOUT)
    except BaseException:
        server.stop()
        raise
    return server


def boot(root: Path, spec: MixSpec) -> tuple[Server, float]:
    """Start an untraced server and time it until its first reply, which
    fills the graph cache."""
    from repro.service import ServiceClient

    server = start(root)
    try:
        probe = {
            "op": "estimate", "id": "probe", "seed": 0,
            "params": {
                "dataset": DATASET, "n": spec.n, "graph_seed": GRAPH_SEED,
                "eta": spec.eta, "seeds": [0], "theta": 1,
            },
        }
        with ServiceClient("127.0.0.1", server.port, timeout=BOOT_TIMEOUT) as client:
            reply = client.request(probe)
        if not reply.get("ok"):
            raise RuntimeError(f"probe request failed: {reply}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------

def drive(port: int, planned: list[Planned]) -> list[Sent]:
    """Send every request when due and collect every reply."""
    from repro.service import ServiceClient
    from repro.utils.timing import backoff_sleep

    sent = [Sent(p) for p in planned]
    errors: list[Exception] = []

    def read(client) -> None:
        try:
            for item in sent:  # the connection answers in request order
                item.reply = client.read_reply()
                item.arrived_at = time.perf_counter()
        except Exception as exc:  # reported by the caller
            errors.append(exc)

    with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
        reader = threading.Thread(target=read, args=(client,), daemon=True)
        reader.start()
        start = time.perf_counter()
        for item in sent:
            item.due_at = start + item.planned.due
            delay = item.due_at - time.perf_counter()
            if delay > 0:
                backoff_sleep(delay, 1)  # the repository's one sanctioned blocking wait
            item.sent_at = time.perf_counter()
            client.send(item.planned.payload)
        reader.join(300.0)
        if reader.is_alive():
            errors.append(TimeoutError("replies still outstanding after 300 s"))
    reader.join(5.0)
    if errors:
        raise RuntimeError(f"generator failed: {errors[0]!r}")
    return sent


@dataclass
class MixResult:
    sent: list[Sent]
    #: CPU time the server spent while the mix ran.
    cpu_seconds: float
    duration: float

    @property
    def ok(self) -> list[Sent]:
        return [s for s in self.sent if s.reply and s.reply.get("ok")]

    @property
    def failures(self) -> Counter:
        return Counter(
            s.reply.get("error", {}).get("code", "no_reply") if s.reply else "no_reply"
            for s in self.sent
            if not (s.reply and s.reply.get("ok"))
        )

    def latencies(self) -> list[float]:
        # A failed request counts as missing every latency limit.
        return [
            s.arrived_at - s.due_at if s.reply and s.reply.get("ok") else float("inf")
            for s in self.sent
        ]

    def busy_seconds(self) -> float:
        """Server compute time (envelope ``ms``) summed over ok replies."""
        return sum(s.reply["ms"] for s in self.ok) / 1000.0

    def queue_seconds(self) -> list[float]:
        return [s.arrived_at - s.due_at - s.reply["ms"] / 1000.0 for s in self.ok]

    def late_seconds(self) -> list[float]:
        return [s.sent_at - s.due_at for s in self.sent]

    def carry_adopted(self) -> int:
        return sum(1 for s in self.ok if s.reply.get("meta", {}).get("carry") == "adopted")

    def results(self) -> dict[str, Any]:
        return {s.planned.payload["id"]: s.reply.get("result") for s in self.ok}


def run_mix(server: Server, planned: list[Planned]) -> MixResult:
    assert server.port is not None
    cpu = server.cpu_seconds()
    started = time.perf_counter()
    sent = drive(server.port, planned)
    return MixResult(
        sent, server.cpu_seconds() - cpu, time.perf_counter() - started
    )


# ----------------------------------------------------------------------
# Offline references
# ----------------------------------------------------------------------

def checked_subset(seed: int, mix: MixResult) -> list[Sent]:
    """Every warm reply (four distinct requests) plus a seeded sample of the
    cold estimates and the solves, ``VERIFIED_PER_KIND`` of each."""
    rng = np.random.default_rng([seed, 1])
    chosen = [s for s in mix.ok if s.planned.kind == "warm"]
    for kind in ("cold", "solve"):
        replies = [s for s in mix.ok if s.planned.kind == kind]
        picks = rng.choice(len(replies), min(VERIFIED_PER_KIND, len(replies)), replace=False)
        chosen.extend(replies[i] for i in sorted(picks))
    return chosen


def verify(spec: MixSpec, replies: list[Sent]) -> list[str]:
    """Compare each reply with a cold offline ``jobs=1`` library run."""
    from repro.core.asti import ASTI
    from repro.diffusion.ic import IndependentCascade
    from repro.experiments import datasets
    from repro.runtime import ExecutionContext
    from repro.sampling.mrr import estimate_truncated_spread_mrr

    graph = datasets.load_dataset(DATASET, n=spec.n, seed=GRAPH_SEED)
    references: dict[str, Any] = {}
    problems = []
    for item in replies:
        payload = item.planned.payload
        params = payload["params"]
        key = json.dumps([payload["op"], payload["seed"], params], sort_keys=True)
        if key not in references:
            with ExecutionContext(jobs=1) as context:
                if payload["op"] == "estimate":
                    references[key] = {"estimate": estimate_truncated_spread_mrr(
                        graph, IndependentCascade(), params["seeds"], params["eta"],
                        theta=params["theta"], seed=payload["seed"], context=context,
                    )}
                else:
                    run = ASTI(IndependentCascade(), context=context).run(
                        graph, params["eta"], seed=payload["seed"]
                    )
                    references[key] = {
                        "seeds": [int(s) for s in run.seeds],
                        "spread": int(run.spread),
                        "total_samples": int(run.total_samples),
                    }
        result = item.reply["result"]
        expected = references[key]
        if any(result.get(name) != value for name, value in expected.items()):
            problems.append(f"{payload['id']} ({item.planned.kind}) differs from offline")
    return problems


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------

def _account(outcome: Outcome, mix: MixResult) -> None:
    failures = mix.failures
    outcome.count(len(mix.sent), sum(failures.values()), [])
    if failures:
        outcome.problems.append(f"failed requests by code: {dict(failures)}")


def _solve_seed_counts(mix: MixResult) -> list[int]:
    return [s.reply["result"]["seed_count"] for s in mix.ok if s.planned.kind == "solve"]


def run(spec: MixSpec, seed: int, seconds: float, trace: bool, root: Path, work_root: Path) -> Outcome:
    planned = schedule(spec, seed, schedule_seconds(seconds))
    if trace:
        return _run_traced(spec, seed, planned, root, work_root)
    outcome = Outcome()
    setup, mixes = [], []
    for _ in range(REPLAYS):
        server, booted = boot(root, spec)
        setup.append(booted)
        try:
            mixes.append(run_mix(server, planned))
        finally:
            server.stop()
    for mix in mixes:
        _account(outcome, mix)
    mix = mixes[0]
    if any(other.results() != mix.results() for other in mixes[1:]):
        outcome.problems.append("the replays replied differently")
    outcome.problems.extend(verify(spec, checked_subset(seed, mix)))
    # Each request at its fastest replay; the schedule, and so the queue it
    # builds, is the same in every replay.
    latencies = [min(each) for each in zip(*(m.latencies() for m in mixes))]
    cpu_seconds = min(m.cpu_seconds for m in mixes)
    solves = _solve_seed_counts(mix)
    outcome.metrics = {
        "setup_s": statistics.median(setup),
        "ms_per_op": 1000.0 * cpu_seconds / len(planned),
        "latency_ms_p50": percentile_ms(latencies, 50),
        "latency_ms_p90": percentile_ms(latencies, 90),
        "seeds_mean": sum(solves) / len(solves) if solves else 0.0,
        # Every server this run booted has been waited for; the largest
        # is reported.
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    kinds = [s.planned.kind for s in mix.sent]
    by_kind = {
        kind: percentile_ms([t for t, k in zip(latencies, kinds) if k == kind], 50)
        for kind in ("warm", "cold", "solve")
    }
    outcome.notes = {
        "requests": len(mix.sent),
        "replays": REPLAYS,
        "server_cpu_s": cpu_seconds,
        "server_cpu_util": mix.cpu_seconds / mix.duration,
        "failed_by_code": dict(sum((m.failures for m in mixes), Counter())),
        "generator.late_ms_p90": percentile_ms(mix.late_seconds(), 90),
        "carry_adopted": mix.carry_adopted(),
        "replay_p50_ms": [round(percentile_ms(m.latencies(), 50), 2) for m in mixes],
        **{f"{kind}_ms_p50": value for kind, value in by_kind.items()},
    }
    return outcome


def _run_traced(spec: MixSpec, seed: int, planned, root: Path, work_root: Path) -> Outcome:
    """The mix on a fresh untraced server, then on a fresh traced one: the
    traced run gives the split, the pair the tracing overhead.

    These servers get no boot probe: each mix's first request fills the
    graph cache, so every span, count and envelope ``ms`` belongs to a
    request of the mix."""
    outcome = Outcome()
    spans_out = work_root / f"spans-{os.getpid()}.json"
    mixes = []
    for traced in (None, spans_out):
        server = start(root, traced)
        try:
            mixes.append(run_mix(server, planned))
        finally:
            server.stop()
    base, traced_mix = mixes
    for mix in mixes:
        _account(outcome, mix)
    outcome.problems.extend(verify(spec, checked_subset(seed, traced_mix)))
    if traced_mix.results() != base.results():
        outcome.problems.append("the traced and untraced servers replied differently")
    payload = json.loads(spans_out.read_text(encoding="utf-8"))
    spans_out.unlink()
    recorded, counts = spans.from_json(payload)
    traced_busy = traced_mix.busy_seconds()
    outcome.metrics = layers.layer_metrics(spans.self_times(recorded), counts, traced_busy)
    outcome.metrics.update({
        # Compute time from the reply envelopes: finer than the server's
        # CPU clock, which counts in 10 ms ticks.
        "trace.overhead_frac": traced_busy / base.busy_seconds() - 1.0,
        "service.queue_ms_p50": percentile_ms(traced_mix.queue_seconds(), 50),
        "service.queue_ms_p90": percentile_ms(traced_mix.queue_seconds(), 90),
        "service.carry_adopted": float(traced_mix.carry_adopted()),
        "generator.late_ms_p90": percentile_ms(traced_mix.late_seconds(), 90),
    })
    outcome.notes = {
        "spans": len(recorded),
        "untraced_busy_s": base.busy_seconds(),
        "traced_busy_s": traced_busy,
    }
    return outcome
