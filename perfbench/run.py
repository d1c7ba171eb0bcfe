"""Benchmark entry point: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload jw-16k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

``--trace 0`` measures with the program untouched and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
blocks, with the layer wrappers of ``layers.py`` installed in the
traced ones, and reports the per-layer metrics.  Either way the outputs
are checked after the timed region, one line per metric is printed with
its unit and sample count, and the last line is one JSON object.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    REF_NOMINAL_S, ROOT, STATE, TAIL, BenchError, Report, at_nominal,
    host_scale, median, peak_rss_mb, prepare_environment, process_age,
    quantile, reference_sample, residue_frac, tail_percentile,
)

PHYSICS = ("jw-16k", "block-jw-16k")
SERVE = ("serve-small", "serve-http")
WORKLOADS = PHYSICS + SERVE
#: The workloads ``--workload all`` runs (those in BENCHMARK.json);
#: serve-small stays runnable on its own (see README).
MEASURED = ("jw-16k", "block-jw-16k", "serve-http")
#: Extra set-ups measured per run, each in a fresh process; setup_s is
#: the median of these and the measuring process's own set-up.
SETUP_PROBES = 2
SETUP_TIMEOUT_S = 120

#: per-layer metric -> tracer layer, reported as self seconds per op.
LAYER_TIMES = {
    "tree.build_s": "tree.build",
    "tree.walks_s": "tree.walks",
    "kernels.force_s": "kernels.force",
    "kernels.stage_s": "kernels.stage",
    "plans.s": "plans",
    "plans.gather_s": "plans.gather",
    "plans.model_s": "plans.model",
    "integrators.s": "integrators",
    "exec.s": "exec",
    "runtime.start_s": "runtime.start",
    "runtime.advance_s": "runtime.advance",
    "runtime.checkpoint_s": "runtime.checkpoint",
    "serve.submit_s": "serve.submit",
    "serve.begin_s": "serve.begin",
    "serve.cache_s": "serve.cache",
    "obs.ledger_s": "obs.ledger",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _scratch(workload: str, seed: int, tag: str) -> Path:
    return STATE / "runs" / f"{workload}-{seed}-{os.getpid()}-{tag}"


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _setup(workload: str, seed: int, tag: str):
    if workload in PHYSICS:
        import physics

        return physics.setup(workload, seed)
    import serving

    return serving.setup(workload, seed, _scratch(workload, seed, tag))


def _setup_sample() -> float:
    """This process's age now, at nominal host speed.

    Scaled by reference samples taken right away: set-up happens at
    another moment than the run's ops, and the host's speed may differ.
    """
    age = process_age()
    ref = median([reference_sample()[1] for _ in range(3)])
    return age * REF_NOMINAL_S / ref


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up probe: set up, say so, tear down."""
    run = _setup(workload, seed, "probe")
    print(f"READY {_setup_sample()!r}", flush=True)
    run.close()
    if workload in SERVE:
        shutil.rmtree(run.scratch, ignore_errors=True)


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to first operation, in fresh processes (nominal s)."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline().split()
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if len(line) != 2 or line[0] != "READY" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code}, {line!r})")
        samples.append(float(line[1]))
    return samples


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _op_samples(workload: str, run, jobs=None) -> list[tuple[float, float]]:
    """``(start, seconds)`` of each op: steps, or cache-miss jobs."""
    if workload in PHYSICS:
        return run.ops
    jobs = run.jobs if jobs is None else jobs
    return [(j.start, j.latency) for j in jobs if j.error is None and not j.hit]


def _note(name: str, value: float, unit: str, n: int) -> None:
    """An informational line: printed, not part of the JSON metrics."""
    print(f"  {name:<28} {value:>16.6g} {unit:<6} (n={n}, info)")


def _end_to_end(report: Report, workload: str, run, setup_s: list[float],
                rss_mb: float) -> None:
    raw = _op_samples(workload, run)
    ops = at_nominal(raw, run.ref)
    if tail_percentile(len(ops)) is None or tail_percentile(len(ops)) < TAIL:
        raise BenchError(f"{len(ops)} operations cannot support p{TAIL}")
    scale = host_scale(run.ref)
    if workload in PHYSICS:
        import physics

        done, unit = len(ops), "steps"
        rate = done / sum(ops)
    else:
        done = sum(j.error is None for j in run.jobs)
        unit = "jobs"
        rate = done / run.wall_s / scale
    report.add("setup_s", median(setup_s), "s", len(setup_s))
    report.add("ops_per_s", rate, "1/s", done)
    report.add("op_s.p50", median(ops), "s", len(ops))
    report.add(f"op_s.p{TAIL}", quantile(ops, TAIL / 100), "s", len(ops))
    report.add("peak_rss_mb", rss_mb, "MiB", 1)
    _note("host_scale", scale, "x", len(run.ref))
    _note("raw op_s.p50", median([d for _, d in raw]), "s", len(raw))
    _note("raw ops_per_s", done / run.wall_s, "1/s", done)
    top = tail_percentile(len(ops))
    if top > TAIL:
        _note(f"op_s.p{top}", quantile(ops, top / 100), "s", len(ops))
    if workload in PHYSICS:
        _note("sim_time_per_s", rate * physics.DT_MIN, "t/s", done)
    else:
        _note("raw_job_s.p50", median(run.solo_s) * scale, "s", len(run.solo_s))
        hits = at_nominal([(j.start, j.latency) for j in run.jobs
                           if j.error is None and j.hit], run.ref)
        _note("hit_s.p50", median(hits), "s", len(hits))
        top = tail_percentile(len(hits))
        if top is not None:
            _note(f"hit_s.p{top}", quantile(hits, top / 100), "s", len(hits))
    print(f"  ({unit} measured over {run.wall_s:.2f} s)")


def _per_layer(report: Report, workload: str, run) -> None:
    physics_run = workload in PHYSICS
    scale = host_scale(run.ref)
    layers, counts, window = run.layers, run.counts, run.window
    if physics_run:
        n_ops, n_win = len(run.traced_ops), run.window_ops
        traced, untraced = run.traced_ops, run.untraced_ops
        op_total = sum(d for _, d in traced)
        waits = {}
    else:
        n_ops, n_win = len(run.traced_jobs), run.window_jobs
        traced = _op_samples(workload, run, run.traced_jobs)
        untraced = _op_samples(workload, run, run.untraced_jobs)
        op_total = sum(j.latency for j in run.traced_jobs)
        waits = dict(run.waits)
        if workload == "serve-http":
            waits["http"] = op_total - run.in_service_s
    per_op = scale / n_ops
    for name, layer in LAYER_TIMES.items():
        report.add(name, layers.get(layer, 0.0) * per_op, "s/op", n_ops)
    report.add("serve.queue_wait_s", waits.get("queue_wait", 0.0) * per_op,
               "s/op", n_ops)
    report.add("serve.slice_wait_s", (layers.get("serve.slice_wait", 0.0)
               + waits.get("slice_wait", 0.0)) * per_op, "s/op", n_ops)
    report.add("serve.handoff_s", (layers.get("serve.handoff", 0.0)
               + waits.get("handoff", 0.0)) * per_op, "s/op", n_ops)
    report.add("serve.http_s", waits.get("http", 0.0) * per_op, "s/op", n_ops)
    # exact counts, over the fixed window of the first traced ops
    passes = window.get("force_passes", 0.0)
    report.add("tree.walks", window.get("walks", 0.0) / n_win, "count/op", n_win)
    report.add("tree.walk_useful_frac", _ratio(window.get("walks_evaluated", 0.0),
               window.get("walks", 0.0)), "frac", n_win)
    report.add("kernels.interactions", window.get("interactions", 0.0) / n_win,
               "count/op", n_win)
    report.add("kernels.bytes_computed", window.get("bytes", 0.0) / n_win,
               "B/op", n_win)
    report.add("kernels.interactions_per_s", _ratio(counts.get("interactions", 0.0),
               layers.get("kernels.force", 0.0) * scale), "1/s", n_ops)
    report.add("plans.sim_gpu_s", _ratio(window.get("sim_gpu_s", 0.0), passes),
               "sim_s", int(passes))
    report.add("integrators.active_frac", _ratio(window.get("active_rows", 0.0),
               window.get("rows", 0.0)), "frac", int(passes))
    report.add("exec.tasks", _ratio(window.get("tasks", 0.0), passes),
               "count/pass", int(passes))
    report.add("runtime.checkpoint_bytes",
               window.get("checkpoint_bytes", 0.0) / n_win, "B/op", n_win)
    report.add("obs.ledger_commits", window.get("ledger_commits", 0.0) / n_win,
               "count/op", n_win)
    attributed = list(layers.values()) + [
        waits.get(k, 0.0) for k in ("queue_wait", "slice_wait", "handoff", "http")
    ]
    report.add("unattributed_frac", residue_frac(op_total, attributed), "frac", n_ops)
    report.add("trace_overhead_frac",
               median(at_nominal(traced, run.ref))
               / median(at_nominal(untraced, run.ref)) - 1.0, "frac", len(traced))


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from common import host_facts
    from layers import build_tracer, watch_numpy_kernels
    from repro.nbody.kernels import resolve_backend

    try:
        backend = resolve_backend("cext", strict=True).name  # builds it once
    except Exception as exc:  # noqa: BLE001 - any failure means no cext
        raise BenchError(f"the cext kernel backend is unavailable: {exc}")
    run = _setup(workload, seed, "main")
    setup_s = [_setup_sample()]
    server: dict = {}
    try:
        if not trace:
            setup_s += _setup_seconds(workload, seed)
        numpy_calls = watch_numpy_kernels()
        if workload in PHYSICS:
            import physics as mod
        else:
            import serving as mod
        if trace:
            tracer = build_tracer(getattr(run, "service", None))
            mod.measure_traced(run, seconds, tracer)
        else:
            mod.measure(run, seconds)
        rss_mb = peak_rss_mb()
        if workload in PHYSICS:
            problems = mod.verify(run)
            attempted = len(run.ops) + len(run.traced_ops) + len(run.untraced_ops)
            failed = attempted if problems else 0
        else:
            server = run.close() or {}
            failed = mod.verify(run)
            attempted = len(run.jobs)
            errors = sorted({j.error for j in run.jobs if j.error})
            problems = [f"{failed} job(s) failed: {errors[:3]}"] if failed else []
    finally:
        if workload in PHYSICS:
            run.close()
        else:
            if run.gateway is not None:
                run.gateway.kill()  # a no-op once it has stopped
            shutil.rmtree(run.scratch, ignore_errors=True)
    if numpy_calls["numpy"] or server.get("numpy_kernel_calls"):
        raise BenchError("the kernel backend fell back from cext to numpy")
    if server.get("kernel_backend", backend) != backend:
        raise BenchError(f"gateway ran kernel backend {server['kernel_backend']}")
    rss_mb = max(rss_mb, server.get("peak_rss_mb", 0.0))

    print(f"workload {workload} seed {seed} trace {int(trace)}")
    print("host " + json.dumps(host_facts(backend)))
    print(f"  (set-up of this process: {setup_s[0]:.3f} s)")
    for p in problems:
        print(f"  CORRECTNESS: {p}")
    report = Report()
    if trace:
        _per_layer(report, workload, run)
    else:
        _end_to_end(report, workload, run, setup_s, rss_mb)
    report.emit(correct=not problems, attempted=attempted, failed=failed)
    return 1 if problems else 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every measured workload in its own process; one combined JSON line."""
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in MEASURED:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench")
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        prepare_environment()
        if args.setup_probe:
            _setup_probe(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
