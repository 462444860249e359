"""The benchmark's three workloads, driven from the benchmark process.

Each repetition of a workload launches ``repro-power`` (through
``child.py``, which calls ``repro.cli.main``) in a fresh process,
measures it and checks its outputs.  :func:`measure` runs the
repetitions and reports each metric's median over them.  See README.md
for why each workload exists and what each metric means.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: Per-process wall-clock limit for the process under test.
CHILD_TIMEOUT_S = 150.0

#: Environment of the process under test: hash seed and BLAS threads
#: pinned, and the repo's own cache/worker/fault variables and
#: PYTHONPATH removed, so a user's shell cannot change what is measured.
_DROP_ENV = (
    "REPRO_CACHE_DIR", "REPRO_SWEEP_WORKERS", "REPRO_FAULT_PLAN",
    "REPRO_FLIGHT_DIR", "PYTHONPATH",
)
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _DROP_ENV}
    env.update(PINNED_ENV)
    return env


def pin_environment() -> None:
    """Re-execute this script under :data:`PINNED_ENV` unless already.

    The benchmark process trains the offline reference suite for the
    serve_ingest check, so it must match the process under test bit for
    bit: same hash seed, same single-threaded BLAS.
    """
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Outcome:
    """What one repetition (or the median of several) measured and checked."""

    #: Workload-specific metrics: name -> (value, unit); None = not reportable.
    named: "dict[str, tuple[float | None, str]]" = field(default_factory=dict)
    #: The BENCHMARK.json end-to-end metrics (workload-neutral names).
    end_to_end: "dict[str, float]" = field(default_factory=dict)
    #: Output checks: (name, passed, detail).
    checks: "list[tuple[str, bool, str]]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    flags: "list[str]" = field(default_factory=list)
    #: Launch of the measured process and its timed-phase window
    #: (monotonic seconds), for the trace analysis.
    launched: float = 0.0
    window: "tuple[float, float]" = (0.0, 0.0)
    spans: "str | None" = None
    #: Workload-specific inputs to the per-layer report and digests.
    extra: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))
        self.attempted += 1
        if not passed:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def quantile(values: "list[float]", q: float) -> "float | None":
    """Nearest-rank ``q`` quantile, or None unless >= 10 samples lie beyond it."""
    n = len(values)
    if n * (1.0 - q) < 10.0 - 1e-9:
        return None
    ordered = sorted(values)
    return ordered[min(n - 1, max(0, math.ceil(q * n) - 1))]


def name_quantile(outcome: Outcome, name: str, values: "list[float]", q: float,
                  unit: str = "ms") -> None:
    outcome.named[name] = (quantile(values, q), unit)
    outcome.named[name + ".n"] = (float(len(values)), "count")


def close(a: "list[float]", b: "list[float]", rtol: float = 1e-9) -> bool:
    return len(a) == len(b) and all(
        math.isclose(x, y, rel_tol=rtol, abs_tol=0.0) for x, y in zip(a, b)
    )


def step_latencies_ms(stamps: "list[float]", end: float) -> "list[float]":
    """Wall ms of each simulated second, from per-second start stamps."""
    edges = list(stamps) + [end]
    return [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]


# -- the process under test --------------------------------------------------


class Child:
    """One ``repro-power`` process started through ``child.py``."""

    def __init__(self, kind: str, args: "list[str]", run_dir: Path, tag: str,
                 spans: bool = False, inject=None, ready: bool = False) -> None:
        self.results_path = run_dir / f"{tag}.results.json"
        self.ready_path = run_dir / f"{tag}.ready.json"
        self.spans_path = run_dir / f"{tag}.spans.jsonl" if spans else None
        plan = {
            "kind": kind,
            "src": str(SRC),
            "results": str(self.results_path),
            "ready": str(self.ready_path) if ready else None,
            "spans": str(self.spans_path) if spans else None,
            "inject": inject,
        }
        plan_path = run_dir / f"{tag}.plan.json"
        plan_path.write_text(json.dumps(plan))
        self.log_path = run_dir / f"{tag}.log"
        self._log = open(self.log_path, "wb")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(plan_path), "--", *args],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            cwd=str(run_dir),
            env=child_env(),
        )

    def wait_ready(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        deadline = time.monotonic() + timeout
        while not self.ready_path.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"process under test exited ({self.proc.returncode}) "
                    f"before its timed phase; see {self.log_path}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("process under test never became ready")
            time.sleep(0.005)
        return json.loads(self.ready_path.read_text())

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        try:
            self.proc.wait(timeout=timeout)
        finally:
            self.stop()
        if not self.results_path.exists():
            raise RuntimeError(
                f"process under test exited ({self.proc.returncode}) without "
                f"results; see {self.log_path}"
            )
        return json.loads(self.results_path.read_text())

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def stop(self) -> None:
        """Kill if still running, reap, close the log (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def load_digest(workload: str, key: str) -> "dict | None":
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(key)


def _digest_check(outcome: Outcome, workload: str, key: str, observed: dict,
                  record: bool, what: str) -> None:
    if record:
        outcome.extra["digest"] = observed
        return
    digest = load_digest(workload, key)
    if digest is None:
        outcome.flags.append(f"no recorded {workload} digest for seed:duration {key}")
        return
    outcome.check(f"{what} match the recorded digest (rtol 1e-9)",
                  all(close(observed[k], digest[k]) for k in observed))


def _common(outcome: Outcome, child: Child, result: dict, setup_s: float,
            throughput: float, steps: "list[float]") -> None:
    outcome.end_to_end = {
        "setup_s": setup_s,
        "throughput": throughput,
        "latency_p50_ms": quantile(steps, 0.5),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    outcome.named["setup_wall_s"] = (setup_s, "s")
    outcome.check("exit code 0", result["rc"] == 0, f"rc={result['rc']}")
    outcome.launched = child.launched
    outcome.spans = str(child.spans_path) if child.spans_path else None


# -- dc_cap --------------------------------------------------------------------


def dc_duration(seconds: int) -> int:
    """Simulated seconds: 3 per wall second asked for (CLI minimum 30)."""
    return max(30, 3 * int(seconds))


def dc_once(seed: int, seconds: int, run_dir: Path, tag: str, *,
            spans: bool = False, inject=None, record: bool = False) -> Outcome:
    args = [
        "datacenter", "--dc-zones", "3", "--nodes-per-zone", "128",
        "--no-regret", "--no-static", "--json",
        "--seed", str(seed), "--duration", str(dc_duration(seconds)),
        "--workers", "1",
    ]
    outcome = Outcome()
    child = Child("dc", args, run_dir, tag, spans=spans, inject=inject)
    result = child.wait()
    marks, out = result["marks"], result["outputs"]
    elapsed = marks["end"] - marks["start"]
    duration = out["duration_s"]
    node_s_per_s = out["n_nodes"] * duration / elapsed
    steps = step_latencies_ms(result["stamps"], marks["end"])
    power, est = out["power_w"], out["estimated_power_w"]
    offered, served = out["offered_threads"], out["served_threads"]
    _common(outcome, child, result, marks["start"] - child.launched,
            node_s_per_s, steps)
    outcome.named.update({
        "dc.node_s_per_s": (node_s_per_s, "node-s/s"),
        "dc.est_error_pct": (statistics.fmean(
            abs(e - p) / p for e, p in zip(est, power)) * 100.0, "%"),
        "dc.step_p50_ms": (quantile(steps, 0.5), "ms"),
        "dc.step_p50_ms.n": (float(len(steps)), "count"),
    })
    over = sum(1 for p in power if p > out["cap_w"])
    outcome.attempted += duration
    outcome.failed += over
    outcome.check("zero cap violations",
                  over == 0 and out["cap_violations"] == 0,
                  f"{over} second(s) over {out['cap_w']:.0f} W")
    outcome.check("served <= offered every second",
                  all(s <= o for s, o in zip(served, offered)))
    _digest_check(outcome, "dc_cap", f"{seed}:{duration}",
                  {"power_w": power, "estimated_power_w": est}, record,
                  "true and estimated power series")
    outcome.window = (marks["start"], marks["end"])
    return outcome


# -- fleet_monitor ---------------------------------------------------------------

FLEET_WIDTH = 256
PERTURBED = (5, 21)


def fleet_duration(seconds: int) -> int:
    """Simulated seconds: 3 per wall second asked for, at least 20 (so
    the per-second median has ten samples beyond it)."""
    return max(20, 3 * int(seconds))


def fleet_once(seed: int, seconds: int, run_dir: Path, tag: str, *,
               spans: bool = False, inject=None, record: bool = False) -> Outcome:
    store = run_dir / f"{tag}.store"
    args = [
        "monitor", "--fleet", str(FLEET_WIDTH), "--perturb", "1.6",
        "--perturb-lanes", ",".join(map(str, PERTURBED)), "--slo", "30",
        "--store", str(store), "--port", "0",
        "--seed", str(seed), "--duration", str(fleet_duration(seconds)),
        "--workers", "1",
    ]
    outcome = Outcome()
    child = Child("fleet", args, run_dir, tag, spans=spans, inject=inject)
    result = child.wait()
    marks, out = result["marks"], result["outputs"]
    lane_ticks_per_s = out["width"] * out["ticks"] / (marks["end"] - marks["start"])
    steps = step_latencies_ms(result["stamps"], marks["end"])
    _common(outcome, child, result, marks["start"] - child.launched,
            lane_ticks_per_s, steps)
    outcome.named.update({
        "fleet.lane_ticks_per_s": (lane_ticks_per_s, "lane-ticks/s"),
        "fleet.step_p50_ms": (quantile(steps, 0.5), "ms"),
        "fleet.step_p50_ms.n": (float(len(steps)), "count"),
    })
    outcome.attempted += len(steps)
    outcome.check("firing lanes are exactly {5, 21}",
                  out["firing_lanes"] == list(PERTURBED),
                  f"firing lanes {out['firing_lanes']}")
    outcome.check("store persisted segments", any(store.rglob("state.bin")))
    ewma = out["ewma_total_pct"]
    _digest_check(
        outcome, "fleet_monitor", f"{seed}:{fleet_duration(seconds)}",
        {"energy_j": out["energy_j"],
         # Estimation side: drift EWMA over all lanes and the perturbed ones.
         "ewma_total_pct": [sum(ewma)] + [ewma[lane] for lane in PERTURBED]},
        record, "per-lane energy and drift",
    )
    outcome.window = (marks["start"], marks["end"])
    outcome.extra.update(
        store_document=out.get("store_document"), store_bytes=dir_bytes(store),
    )
    return outcome


# -- serve_ingest ----------------------------------------------------------------

#: Paper workloads the 16 replayed nodes run (node i runs SOURCES[i % 4]).
SOURCES = ("gcc", "mcf", "SPECjbb", "DiskLoad")
N_NODES = 16
FRAME_SAMPLES = 64
#: Simulated seconds per source trace: one whole 64-sample frame.
TRACE_S = 66.0
#: Open-loop offered rate (samples/s): about half of the closed-loop
#: capacity measured on a busy 2-core host at the defining commit.
OPEN_RATE = 3000.0
#: Reads per second on the second connection during the open loop.
READ_HZ = 40.0
#: Share of the timed phase spent in the open loop (the rest is closed).
OPEN_SHARE = 0.7
#: Frames the closed-loop clients may have accepted but not yet
#: published; once there, they wait until half of them are published.
CLOSED_OUTSTANDING = 32
#: Simulated seconds of each training run of the server (CLI --duration).
TRAIN_S = 120
READ_QUERY = "/query_range?name=serve_published_total&agg=max&step=5"


def _config():
    from repro.simulator.config import SystemConfig

    # What the CLI builds from its default --tick-ms 10.
    return SystemConfig(tick_s=0.01)


def source_runs(seed: int) -> list:
    """One simulated run per source workload (the frame-source seed)."""
    from repro.simulator import simulate_workload
    from repro.workloads import get_workload

    return [
        simulate_workload(get_workload(name), duration_s=TRACE_S,
                          seed=1000 * seed + k, config=_config())
        for k, name in enumerate(SOURCES)
    ]


def encode_frames(runs: list, events) -> "list[bytes]":
    """One frame per node, node i replaying source ``i % 4``, in POST order."""
    from repro.serve.protocol import frames_from_run

    frames = [frames_from_run(run, "{node}", FRAME_SAMPLES, events)[0]
              for run in runs]
    return [
        frames[i % len(SOURCES)].replace(
            '"node":"{node}"', f'"node":"node-{i:02d}"', 1).encode()
        for i in range(N_NODES)
    ]


def expected_totals(seed: int, runs: list) -> "list[dict[float, float]]":
    """Offline ``estimate_trace`` totals per source, keyed by timestamp.

    The suite is trained here exactly as the CLI trains it (same seed,
    duration, config and single worker), independently of the server.
    """
    from repro.analysis.experiments import ExperimentContext
    from repro.core.estimator import SystemPowerEstimator

    context = ExperimentContext(config=_config(), seed=seed,
                                duration_s=float(TRAIN_S), n_workers=1,
                                cache_dir=None)
    estimator = SystemPowerEstimator(context.paper_suite(), max_history=None)
    return [
        {round(e.timestamp_s, 6): e.total_w
         for e in estimator.estimate_trace(run.counters)}
        for run in runs
    ]


class Http:
    """One client connection slot.  The server speaks HTTP/1.0, so each
    request opens and closes its own TCP connection; requests on one
    slot never overlap."""

    def __init__(self, port: int) -> None:
        self.port = port

    def request(self, method: str, path: str, body: "bytes | None" = None
                ) -> "tuple[int, bytes]":
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/x-ndjson"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> "tuple[int, dict]":
        status, body = self.request("GET", path)
        try:
            return status, json.loads(body)
        except ValueError:
            return status, {}


def _published(client: Http) -> int:
    status, doc = client.get_json("/service")
    if status != 200:
        raise RuntimeError(f"/service answered {status}")
    return int(doc["counters"]["samples_total"])


def serve_once(seed: int, seconds: int, run_dir: Path, tag: str, *,
               spans: bool = False, inject=None, record: bool = False,
               expected: "dict | None" = None) -> Outcome:
    """One served-ingest repetition; ``expected`` caches the offline table."""
    from repro.core.events import Event

    store = run_dir / f"{tag}.store"
    args = [
        "serve", "--port", "0", "--shards", "2", "--store", str(store),
        "--seed", str(seed), "--duration", str(TRAIN_S), "--workers", "1",
    ]
    outcome = Outcome()
    child = Child("serve", args, run_dir, tag, spans=spans, inject=inject,
                  ready=True)
    try:
        # Set-up on the generator side runs beside the server's: the
        # sources simulate while the server trains; encoding needs the
        # service's required events, so it follows readiness.
        runs = source_runs(seed)
        port = child.wait_ready()["port"]
        status, doc = Http(port).get_json("/service")
        if status != 200:
            raise RuntimeError(f"/service answered {status} at start")
        frames = encode_frames(
            runs, frozenset(Event(name) for name in doc["required_events"]))
        t_start = time.monotonic()
        measured = _drive(port, frames, seconds, outcome)
        state = _collect(Http(port))
        child.terminate()
        result = child.wait()
    finally:
        child.stop()

    post = measured["post_ms"]
    _common(outcome, child, result, t_start - child.launched,
            measured["sps"], post)
    outcome.named["serve.sps"] = (measured["sps"], "samples/s")
    name_quantile(outcome, "serve.post_p50_ms", post, 0.50)
    name_quantile(outcome, "serve.post_p95_ms", post, 0.95)
    name_quantile(outcome, "serve.post_p99_ms", post, 0.99)
    name_quantile(outcome, "serve.read_p50_ms", measured["read_ms"], 0.50)
    name_quantile(outcome, "serve.read_p95_ms", measured["read_ms"], 0.95)
    name_quantile(outcome, "serve.gen_late_p95_ms", measured["late_ms"], 0.95)
    name_quantile(outcome, "serve.gen_late_p99_ms", measured["late_ms"], 0.99)
    interval_ms = 1e3 * FRAME_SAMPLES / OPEN_RATE
    behind = sum(1 for late in measured["sched_ms"] if late > interval_ms)
    outcome.named["serve.gen_behind"] = (float(behind), "count")
    if behind > 0.01 * len(post):
        outcome.flags.append(
            f"generator fell behind its schedule: {behind} of {len(post)} "
            "POSTs left more than one interval after their due time")

    expected = {} if expected is None else expected
    if seed not in expected:
        expected[seed] = expected_totals(seed, runs)
    _serve_checks(outcome, expected[seed], state, measured["published"])
    outcome.window = (t_start, measured["t_end"])
    outcome.extra.update(
        service=state["service"], post_ms=post, samples=measured["samples"],
        store_document=result["outputs"].get("store_document"),
        store_bytes=dir_bytes(store),
    )
    return outcome


class _Poster:
    """POSTs the frames in turn and tallies receipts (thread-safe)."""

    def __init__(self, frames: "list[bytes]", outcome: Outcome) -> None:
        self.frames = frames
        self.outcome = outcome
        self.lock = threading.Lock()
        self.next_frame = 0
        self.samples = 0

    def post(self, client: Http) -> int:
        """POST the next frame; returns the samples accepted."""
        with self.lock:
            body = self.frames[self.next_frame % len(self.frames)]
            self.next_frame += 1
        status, reply = client.request("POST", "/ingest", body)
        accepted = int(json.loads(reply).get("accepted", 0)) if reply else 0
        with self.lock:
            self.outcome.attempted += 1
            if status != 200 or accepted != FRAME_SAMPLES:
                self.outcome.failed += 1
            self.samples += accepted
        return accepted


def _drive(port: int, frames: "list[bytes]", seconds: int, outcome: Outcome) -> dict:
    """Open loop at OPEN_RATE with reads beside it, then a closed loop."""
    poster = _Poster(frames, outcome)
    measured = _open_loop(port, poster, OPEN_SHARE * seconds, outcome)
    measured.update(_closed_loop(port, poster, (1.0 - OPEN_SHARE) * seconds))
    measured["samples"] = poster.samples
    return measured


def _reader(client: Http, stop: threading.Event, start: float,
            latencies: list, statuses: list) -> None:
    """Fixed-cadence reads on the second connection."""
    paths = (READ_QUERY, "/nodes")
    k = 0
    while not stop.is_set():
        delay = start + k / READ_HZ - time.monotonic()
        if delay > 0 and stop.wait(delay):
            break
        t0 = time.monotonic()
        status, _ = client.request("GET", paths[k % 2])
        latencies.append((time.monotonic() - t0) * 1e3)
        statuses.append(status)
        k += 1


def _open_loop(port: int, poster: _Poster, seconds: float, outcome: Outcome) -> dict:
    """POSTs on connection 1 from a fixed schedule; reads on connection 2.

    Each POST is timed from its due time, so a stall also counts
    against the POSTs queued behind it.
    """
    client = Http(port)
    interval = FRAME_SAMPLES / OPEN_RATE
    post_ms, late_ms, sched_ms = [], [], []
    read_ms, read_status = [], []
    start = time.monotonic()
    stop = threading.Event()
    reader = threading.Thread(
        target=_reader, args=(Http(port), stop, start, read_ms, read_status),
        daemon=True,
    )
    reader.start()
    k = 0
    prev_done = start
    while k * interval < seconds:
        due = start + k * interval
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        poster.post(client)
        done = time.monotonic()
        post_ms.append((done - due) * 1e3)
        # How late the generator itself ran: from when it could have
        # sent (the due time, or the previous reply if that came later).
        late_ms.append((sent - max(due, prev_done)) * 1e3)
        sched_ms.append((sent - due) * 1e3)
        prev_done = done
        k += 1
    stop.set()
    reader.join(timeout=30)
    outcome.attempted += len(read_status)
    outcome.failed += sum(1 for status in read_status if status != 200)
    return {"post_ms": post_ms, "late_ms": late_ms, "sched_ms": sched_ms,
            "read_ms": read_ms}


def _closed_loop(port: int, poster: _Poster, seconds: float) -> dict:
    """Both connections POST back to back, never more than
    CLOSED_OUTSTANDING frames accepted but unpublished (so nothing
    sheds); the rate is what the service publishes."""
    control = Http(port)
    base = _published(control)
    bound = CLOSED_OUTSTANDING * FRAME_SAMPLES
    state = {"posted": 0, "published": 0}
    lock = threading.Lock()
    t0 = time.monotonic()
    deadline = t0 + seconds

    def client_loop(client: Http) -> None:
        while time.monotonic() < deadline:
            with lock:
                if state["posted"] - state["published"] >= bound:
                    while state["posted"] - state["published"] > bound // 2:
                        time.sleep(0.005)
                        state["published"] = _published(client) - base
            accepted = poster.post(client)
            with lock:
                state["posted"] += accepted

    threads = [threading.Thread(target=client_loop, args=(Http(port),))
               for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    while state["published"] < state["posted"]:
        time.sleep(0.005)
        state["published"] = _published(control) - base
    t_end = time.monotonic()
    return {"sps": state["posted"] / (t_end - t0), "t_end": t_end,
            "published": base + state["published"]}


def _collect(client: Http) -> dict:
    """Everything the output checks need, read before shutdown."""
    nodes = {}
    for i in range(N_NODES):
        status, doc = client.get_json(f"/nodes/node-{i:02d}")
        nodes[f"node-{i:02d}"] = doc if status == 200 else None
    status, query = client.get_json(READ_QUERY)
    _, service = client.get_json("/service")
    return {"nodes": nodes, "query_status": status, "query": query,
            "service": service}


def _serve_checks(outcome: Outcome, table: list, state: dict,
                  published: int) -> None:
    mismatched, compared = [], 0
    for i, (node, doc) in enumerate(state["nodes"].items()):
        if doc is None:
            mismatched.append(f"{node}: no /nodes document")
            continue
        expected = table[i % len(SOURCES)]
        for t, watts in doc["history"]:
            compared += 1
            if expected.get(t) != watts:
                mismatched.append(f"{node}@{t}: {watts} != {expected.get(t)}")
                break
    outcome.check(
        "every /nodes/<id> history equals offline estimate_trace totals (==)",
        not mismatched and compared > 0,
        f"{compared} samples compared" + (f"; {mismatched[:3]}" if mismatched else ""),
    )
    series = (state["query"] or {}).get("result") or []
    values = [v for entry in series for _, v in entry.get("points", [])]
    outcome.check(
        "/query_range answers with the service's own series from the store",
        state["query_status"] == 200 and bool(values)
        and 0 < max(values) <= published,
        f"{len(series)} series, {len(values)} points",
    )
    counters = state["service"].get("counters", {})
    names = ("shed_samples_total", "decode_errors_total", "poison_samples_total")
    for name in names:
        outcome.named["serve." + name[: -len("_total")]] = (
            float(counters.get(name, -1)), "count")
    outcome.check("no shed, rejected or poison samples in /service counters",
                  all(counters.get(name) == 0 for name in names),
                  json.dumps(counters))
    outcome.check("every shard alive", all(
        shard.get("alive") for shard in state["service"].get("shards", [])))


# -- repetitions -----------------------------------------------------------------

ONCE = {"serve_ingest": serve_once, "dc_cap": dc_once, "fleet_monitor": fleet_once}

#: Nominal duration of one :func:`host_reference` chunk: the time-based
#: end-to-end metrics are reported as if the reference had taken this long.
REF_NOMINAL_S = 0.002


def host_reference() -> float:
    """How slow the host runs right now: median seconds of a fixed chunk
    of pure-Python and NumPy work (the benchmark's own code, so no
    change to the repository moves it)."""
    import numpy as np

    values = np.arange(4096, dtype=float)
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(100):
            (values * 1.5 + values).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _at_reference_speed(outcome: Outcome, before: float, after: float) -> None:
    """Scale the time-based end-to-end metrics to the nominal host speed.

    On a shared host the whole machine drifts by tens of percent over
    tens of seconds; the reference, timed just before and just after the
    repetition, drifts with it, so the scaled figures keep the code's
    cost and shed most of the host's.  Raw figures stay in ``named``.
    """
    ref = math.sqrt(before * after)
    factor = ref / REF_NOMINAL_S
    metrics = outcome.end_to_end
    metrics["throughput"] *= factor
    metrics["latency_p50_ms"] /= factor
    metrics["setup_s"] /= factor
    outcome.named["host.ref_ms"] = (ref * 1e3, "ms")


def measure(workload: str, seed: int, seconds: int, repeats: int = 1, *,
            spans: bool = False, inject=None, record: bool = False) -> Outcome:
    """Run ``repeats`` fresh-process repetitions; medians of their metrics.

    Every repetition sets up anew, so ``setup_s`` is a median over
    ``repeats`` set-ups too.  Checks, counts and flags add up.  Files of
    the previous call for this workload are removed first.
    """
    run_dir = OUT / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    extra = {"expected": {}} if workload == "serve_ingest" else {}
    reps = []
    for i in range(repeats):
        before = host_reference()
        rep = ONCE[workload](seed, seconds, run_dir, f"rep{i}", spans=spans,
                             inject=inject, record=record, **extra)
        _at_reference_speed(rep, before, host_reference())
        reps.append(rep)
    if repeats == 1:
        return reps[0]
    outcome = Outcome(
        attempted=sum(r.attempted for r in reps),
        failed=sum(r.failed for r in reps),
        checks=[(f"repetition {i + 1}: {name}", passed, detail)
                for i, r in enumerate(reps) for name, passed, detail in r.checks],
        flags=sorted({flag for r in reps for flag in r.flags}),
        launched=reps[-1].launched, window=reps[-1].window,
        spans=reps[-1].spans, extra=reps[-1].extra,
    )
    outcome.end_to_end = {
        name: statistics.median(r.end_to_end[name] for r in reps)
        for name in reps[0].end_to_end
    }
    for name, (_, unit) in reps[0].named.items():
        values = [r.named[name][0] for r in reps]
        outcome.named[name] = (
            None if None in values else statistics.median(values), unit)
    return outcome
