"""The serve workloads: a closed loop of small jobs from two clients.

``serve-small`` submits through an in-process ``connect(None)`` client;
``serve-http`` sends the same stream over HTTP to a gateway (with its
own in-process service) in a separate process.  Each of the two client
threads submits one job, blocks on its result, and only then submits
the next; every fourth job repeats a completed spec (a cache hit).
"""

from __future__ import annotations

import http.client
import json
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from common import ROOT, TAIL, BenchError, min_samples, reference_sample
from jobs import GROUP, HIT_SLOT, job_spec, service_jobs, sum_waits

CLIENTS = 2
#: Seconds between reference samples of an untraced run.
SAMPLE_EVERY_S = 2.0
#: Groups each client runs per traced/untraced round of a traced run.
ROUND_GROUPS = 2
RESULT_TIMEOUT_S = 60.0


@dataclass
class Job:
    client: int
    group: int
    slot: int
    spec: Any
    key: str
    start: float = 0.0
    end: float = 0.0
    hit: bool = False
    digest: str | None = None
    result: Any = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class ServeRun:
    workload: str
    seed: int
    scratch: Path
    submit: Callable[[Job], None] = None  # type: ignore[assignment]
    close: Callable[[], dict] = None  # type: ignore[assignment]
    jobs: list[Job] = field(default_factory=list)
    #: ``(start time, seconds)`` of the reference samples
    ref: list[tuple[float, float]] = field(default_factory=list)
    #: seconds of each solo re-step in the correctness gate
    solo_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    # traced runs
    traced_jobs: list[Job] = field(default_factory=list)
    untraced_jobs: list[Job] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    window: dict[str, float] = field(default_factory=dict)
    window_jobs: int = 0
    waits: dict[str, float] = field(default_factory=dict)
    in_service_s: float = 0.0
    gateway: Any = None
    #: the in-process JobService (serve-small only)
    service: Any = None


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


def _in_process(run: ServeRun) -> None:
    from repro.obs.ledger import RunLedger
    from repro.serve import connect

    ledger = RunLedger(run.scratch / "ledger")
    client = connect(None, cache_dir=str(run.scratch / "cache"), ledger=ledger)

    def submit(job: Job) -> None:
        job.result = client.submit(job.spec).result(timeout=RESULT_TIMEOUT_S)
        job.hit = job.result.from_cache

    def close() -> dict:
        client.close()
        ledger.close()
        return {}

    run.submit, run.close, run.service = submit, close, client.service


class _GatewayProcess:
    """The gateway child and its line protocol."""

    def __init__(self, scratch: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "gateway_child.py"),
             "--cache-dir", str(scratch / "cache"),
             "--ledger-dir", str(scratch / "ledger")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT,
        )
        line = self._read()
        if not line.startswith("READY "):
            self.kill()
            raise BenchError(f"gateway did not start: {line!r}")
        self.host, port = line.split()[1].rsplit(":", 1)
        self.port = int(port)

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("gateway process exited")
        return line.strip()

    def command(self, cmd: str) -> str:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        try:
            return json.loads(self.command("stop"))
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
            self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


def _request(host: str, port: int, method: str, path: str,
             body: dict | None = None) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=RESULT_TIMEOUT_S + 10)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise BenchError(f"{method} {path}: HTTP {resp.status} {data[:200]!r}")
        return json.loads(data)
    finally:
        conn.close()


def _over_http(run: ServeRun) -> _GatewayProcess:
    gw = _GatewayProcess(run.scratch)

    def submit(job: Job) -> None:
        _request(gw.host, gw.port, "POST", "/v1/jobs",
                 {"spec": job.spec.to_dict()})
        reply = _request(gw.host, gw.port, "GET",
                         f"/v1/jobs/{job.key}/result?timeout={RESULT_TIMEOUT_S}")
        result = reply.get("result")
        if result is None:
            raise BenchError(f"job {job.key[:12]} failed: {reply.get('job')}")
        job.hit = bool(result["from_cache"])
        job.digest = result["state_sha256"]

    run.submit, run.close = submit, gw.stop
    return gw


def setup(workload: str, seed: int, scratch: Path) -> ServeRun:
    """Fresh cache and ledger directories, then the service (or gateway)."""
    from repro.nbody.kernels import resolve_backend

    resolve_backend("cext", strict=True)
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    run = ServeRun(workload, seed, scratch)
    if workload == "serve-small":
        _in_process(run)
    else:
        run.gateway = _over_http(run)
    return run


def setup_only(workload: str, seed: int, scratch: Path) -> None:
    setup(workload, seed, scratch).close()
    shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def _run_group(run: ServeRun, client: int, group: int, out: list[Job]) -> None:
    from repro.check.golden import state_digest

    for slot in range(GROUP):
        spec = job_spec(run.seed, client, group, slot)
        job = Job(client, group, slot, spec, spec.spec_hash())
        job.start = time.perf_counter()
        try:
            run.submit(job)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            job.error = f"{type(exc).__name__}: {exc}"
        job.end = time.perf_counter()
        if job.result is not None:
            # digest now and drop the arrays, so memory does not grow
            # with the number of jobs a run completes
            job.digest = state_digest(job.result.particles, job.result.time)
            job.result = None
        if job.error is None and job.hit != (slot == HIT_SLOT):
            job.error = f"slot {slot} expected hit={slot == HIT_SLOT}, got {job.hit}"
        out.append(job)


class _Pauser:
    """Parks the clients between groups while the reference loop runs."""

    def __init__(self, clients: int) -> None:
        self._cond = threading.Condition()
        self._want = False
        self._parked = 0
        self._active = clients

    def checkpoint(self) -> None:
        """Client side, between groups: park while a pause is wanted."""
        with self._cond:
            if not self._want:
                return
            self._parked += 1
            self._cond.notify_all()
            while self._want:
                self._cond.wait()
            self._parked -= 1

    def leave(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def pause(self) -> bool:
        """Return once every client still running is parked.

        ``False`` when no client is running any more.
        """
        with self._cond:
            self._want = True
            while self._parked < self._active:
                self._cond.wait()
            return self._active > 0

    def release(self) -> None:
        with self._cond:
            self._want = False
            self._cond.notify_all()


def measure(run: ServeRun, seconds: float) -> None:
    """Both clients loop over groups until ``seconds`` have passed.

    Every ``SAMPLE_EVERY_S`` both clients park between groups and the
    reference loop runs with no job in flight; the time with both
    parked is not part of the run's wall time.
    """
    need_groups = -(-min_samples(TAIL) // ((GROUP - 1) * CLIENTS))
    start = time.perf_counter()
    deadline = start + seconds
    per_client: list[list[Job]] = [[] for _ in range(CLIENTS)]
    pauser = _Pauser(CLIENTS)

    def loop(client: int) -> None:
        try:
            group = 0
            while group < need_groups or time.perf_counter() < deadline:
                _run_group(run, client, group, per_client[client])
                group += 1
                pauser.checkpoint()
        finally:
            pauser.leave()

    threads = [threading.Thread(target=loop, args=(c,), name=f"bench-client-{c}")
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    parked = 0.0
    while any(t.is_alive() for t in threads):
        time.sleep(SAMPLE_EVERY_S)
        running = pauser.pause()
        t0 = time.perf_counter()
        run.ref.append(reference_sample())
        pauser.release()
        if running:
            parked += time.perf_counter() - t0
    for t in threads:
        t.join()
    run.jobs = [j for jobs in per_client for j in jobs]
    run.wall_s = max(j.end for j in run.jobs) - start - parked


def measure_traced(run: ServeRun, seconds: float, tracer) -> None:
    """Alternate untraced and traced rounds of ``ROUND_GROUPS`` groups.

    A round ends when every client has its results, so tracing is only
    switched while no job is in flight.  Layer times come from every
    traced round; exact counts from the first.
    """
    gw = run.gateway
    start = time.perf_counter()
    rnd = 0
    waits = {"queue_wait": 0.0, "slice_wait": 0.0, "handoff": 0.0, "lead": 0.0}
    while True:
        traced = rnd % 2 == 1
        if traced:
            if gw is not None:
                gw.command("trace on")
            else:
                tracer.install()
        jobs: list[list[Job]] = [[] for _ in range(CLIENTS)]

        def loop(client: int) -> None:
            for g in range(ROUND_GROUPS):
                _run_group(run, client, rnd * ROUND_GROUPS + g, jobs[client])

        threads = [threading.Thread(target=loop, args=(c,)) for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = [j for js in jobs for j in js]
        run.jobs.extend(flat)
        run.ref.append(reference_sample())
        if traced:
            if gw is not None:
                gw.command("trace off")
                snap = json.loads(gw.command("snap"))
                times, counts = snap["times"], snap["counts"]
                run.in_service_s = snap["in_service"]
                waits = snap["waits"]
            else:
                tracer.uninstall()
                served = service_jobs(tracer)
                by_key: dict[str, list[Job]] = {}
                for j in flat:
                    by_key.setdefault(j.key, []).append(j)
                for sj in served:
                    # the client job that submitted it: the latest one with
                    # this key that started before the service saw it
                    cj = max((j for j in by_key[sj["key"]]
                              if j.start <= sj["start"]),
                             key=lambda j: j.start)
                    sj["waits"]["handoff"] += cj.end - sj["end"]
                    sj["waits"]["lead"] += sj["start"] - cj.start
                for k, v in sum_waits(served).items():
                    waits[k] += v
                times, counts = tracer.totals()
            # the tracer only accumulates while installed: its totals are
            # the traced rounds', and after the first one, the window's
            run.layers, run.counts = times, counts
            if not run.window_jobs:
                run.window = dict(counts)
                run.window_jobs = len(flat)
            run.traced_jobs.extend(flat)
        else:
            run.untraced_jobs.extend(flat)
        rnd += 1
        if traced and time.perf_counter() - start >= seconds:
            break
    run.waits = waits
    run.wall_s = time.perf_counter() - start


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def verify(run: ServeRun) -> int:
    """Mark every job whose final state differs from a solo re-step.

    Runs after the timed region; returns how many jobs failed (errors,
    refusals and digest misses alike).  The re-steps are timed: a raw
    ``Simulation`` of one job, the cost the service adds to.
    """
    from repro.check.golden import state_digest

    solo: dict[str, str] = {}
    failed = 0
    for job in run.jobs:
        if job.error is None:
            if job.key not in solo:
                t0 = time.perf_counter()
                sim = job.spec.build_simulation()
                for _ in range(job.spec.steps):
                    sim.step()
                run.solo_s.append(time.perf_counter() - t0)
                solo[job.key] = state_digest(sim.particles, sim.time)
            if job.digest != solo[job.key]:
                job.error = "state digest differs from a solo re-step"
        failed += job.error is not None
    return failed
