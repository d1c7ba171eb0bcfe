"""The benchmark's own tests: statistics, attribution, exact counts.

    python3 -m pytest perfbench -q

The exact-count tests run real traced blocks at the benchmark's sizes
(about two minutes in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
from common import (  # noqa: E402
    allowed, beyond, min_samples, quantile, residue_frac, tail_percentile,
)
from tracer import Tracer, assign_spans, job_waits  # noqa: E402

common.prepare_environment()

#: Counts that must repeat exactly across runs at one seed.
EXACT = ("interactions", "walks", "walks_evaluated", "active_rows", "rows",
         "sim_gpu_s", "ledger_commits", "force_passes", "tasks")


# -- percentiles -------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert beyond(50, 80) == 10 and allowed(50, 80)
    assert beyond(49, 80) == 9 and not allowed(49, 80)
    assert min_samples(80) == 50
    assert min_samples(90) == 100
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(50) == 80
    assert tail_percentile(99) == 80
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99


def test_quantile_matches_numpy():
    import numpy as np

    rng = np.random.default_rng(3)
    xs = list(rng.lognormal(size=37))
    for q in (0.0, 0.25, 0.5, 0.8, 0.99, 1.0):
        assert quantile(xs, q) == pytest.approx(float(np.quantile(xs, q)), rel=1e-12)


# -- attribution ----------------------------------------------------------------


def test_residue_arithmetic():
    assert residue_frac(10.0, [3.0, 4.0, 2.0]) == pytest.approx(0.1)
    assert residue_frac(10.0, [6.0, 6.0]) == pytest.approx(-0.2)
    assert residue_frac(1.0, []) == 1.0
    with pytest.raises(ValueError):
        residue_frac(0.0, [1.0])


def test_job_waits_partition_the_job():
    spans = [
        ("serve.submit", 1.0, 1.5),
        ("serve.begin", 2.0, 2.5),
        ("runtime.advance", 2.75, 3.0),
        ("serve.slice_wait", 3.0, 3.25),
        ("serve.handoff", 3.5, 4.0),
    ]
    w = job_waits(spans, 0.5, 4.25, admit_layer="serve.begin")
    assert w == {"lead": 0.5, "queue_wait": 0.5, "slice_wait": 0.5,
                 "handoff": 0.25}
    busy = sum(t1 - t0 for _, t0, t1 in spans)
    assert busy + sum(w.values()) == pytest.approx(4.25 - 0.5)
    # a cache hit is only its submission
    hit = job_waits([("serve.submit", 1.0, 1.25)], 1.0, 1.5,
                    admit_layer="serve.begin")
    assert hit == {"lead": 0.0, "queue_wait": 0.0, "slice_wait": 0.0,
                   "handoff": 0.25}


def test_assign_spans_to_reusing_jobs():
    spans = [("a", 1.0, 2.0), ("b", 3.0, 4.0), ("a", 5.0, 6.0)]
    assert assign_spans(spans, [0.5, 4.5]) == [spans[:2], spans[2:]]


def test_tracer_self_times_partition_and_uninstall_restores():
    mod = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(mod, "outer", "a")
    tracer.wrap(mod, "inner", "b", count=lambda c, a, k, r: c.__setitem__(
        "calls", c["calls"] + 1))
    tracer.install()
    t0 = time.perf_counter()
    mod.outer()
    total = time.perf_counter() - t0
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    times, counts = tracer.totals()
    assert counts == {"calls": 1.0}
    assert times["b"] >= 0.02 and times["a"] >= 0.01
    assert times["a"] < 0.02  # the inner call is not the outer's self time
    assert sum(times.values()) <= total


def test_tracer_wraps_instance_attributes():
    class K:
        def f(self):
            return 7

    obj = K()
    tracer = Tracer()
    tracer.wrap(obj, "f", "x")
    tracer.install()
    assert obj.f() == 7 and "f" in obj.__dict__
    tracer.uninstall()
    assert "f" not in obj.__dict__ and obj.f() == 7


# -- program-facing checks -------------------------------------------------------


def test_numpy_fallback_is_counted():
    import numpy as np
    from layers import watch_numpy_kernels
    from repro.nbody.kernels import get_backend

    calls = watch_numpy_kernels()
    try:
        x = np.random.default_rng(0).random((8, 3))
        out = np.zeros((8, 3))
        get_backend("numpy").sources(x, x, np.ones(8), eps2=0.01, out=out)
        assert calls["numpy"] == 1
    finally:
        backend = get_backend("numpy")
        for name in ("sources", "self_forces"):
            backend.__dict__.pop(name, None)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _traced_window(workload: str, seed: int) -> dict[str, float]:
    from layers import build_tracer

    if workload in ("jw-16k", "block-jw-16k"):
        import physics as mod

        run = mod.setup(workload, seed)
    else:
        import serving as mod

        run = mod.setup(workload, seed, common.STATE / "runs" / f"test-{seed}")
    try:
        tracer = build_tracer(run.service if workload == "serve-small" else None)
        mod.measure_traced(run, 0.0, tracer)
    finally:
        run.close()
        if workload == "serve-small":
            shutil.rmtree(run.scratch, ignore_errors=True)
    return {k: v for k, v in run.window.items() if k in EXACT}


@pytest.mark.parametrize("workload", ["jw-16k", "block-jw-16k", "serve-small"])
def test_exact_counts_repeat_at_one_seed(workload):
    first = _traced_window(workload, 5)
    second = _traced_window(workload, 5)
    assert first == second
    assert first["interactions"] > 0 and first["force_passes"] > 0
    if workload == "serve-small":
        # 3 misses (submit, start, 3 slices, finish) + 1 hit (submit,
        # finish, event) per group of four
        assert first["ledger_commits"] / 16 == pytest.approx(5.25)


def test_result_line_shape():
    report = common.Report()
    report.add("x_s", 1.5, "s", 3)
    with pytest.raises(common.BenchError):
        report.add("x_s", 1.0, "s", 1)
    report.emit(correct=True, attempted=3, failed=0)


def test_result_line_is_last_and_parses(capsys):
    report = common.Report()
    report.add("y", 2.0, "count", 1)
    report.emit(correct=False, attempted=2, failed=2)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == {
        "correct": False, "attempted": 2, "failed": 2,
        "metrics": {"y": {"value": 2.0, "unit": "count"}},
    }
