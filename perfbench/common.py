"""Shared pieces of the benchmark: environment, statistics, result lines.

Everything here is pure standard library so it can run before ``repro``
(or NumPy) is importable — the benchmark refuses to run, without
printing a result, in a directory that does not hold the program.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program's sources live inside the checkout.
SRC = ROOT / "src"
#: Benchmark-owned state: the prebuilt kernel library and per-run scratch.
STATE = ROOT / ".perfbench"
KERNEL_CACHE = STATE / "kernels"

#: Percentile ladder a tail may be reported from (see :func:`tail_percentile`).
PERCENTILES = (50, 75, 80, 90, 95, 99)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: The tail every end-to-end latency reports; runs extend until it is
#: allowed by the ten-beyond rule (50 samples).
TAIL = 80

#: The reference work: a fixed pure-Python loop, timed between ops.
REF_ITERS = 100_000
#: The reference loop's time at the nominal host speed.  A run reports an
#: op's time as ``measured × REF_NOMINAL_S / (reference time around it)``
#: and other times and rates with the run's median reference time: the
#: host's speed swings by up to 2x over tens of seconds, and the loop's
#: time follows those swings (see README).
REF_NOMINAL_S = 0.006
#: Reference samples within this many seconds of an op set its scale.
REF_WINDOW_S = 2.0

#: Environment every benchmark process (and child) runs under: BLAS and
#: OpenMP single-threaded, so a NumPy call never competes with the
#: serve runner threads or the second core for its own worker pool.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """A condition under which the benchmark must not print a result."""


def prepare_environment() -> None:
    """Pin threads, point the kernel cache inside the checkout, find ``src``.

    Must run before NumPy is imported.  Raises :class:`BenchError` when
    the checkout holds no program to measure.
    """
    os.environ.update(SINGLE_THREAD_ENV)
    os.environ["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    # Settings the program would otherwise pick up from the caller's shell.
    for name in (
        "REPRO_KERNEL_BACKEND", "REPRO_WORKERS", "REPRO_EXEC_BACKEND",
        "REPRO_LEDGER_DIR", "REPRO_SERVE_ADDR", "REPRO_SERVE_TOKEN",
        "REPRO_SERVE_CACHE_DIR", "REPRO_CHECK_ENABLED", "REPRO_TENANT",
    ):
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (NumPy's default), ``0 <= q <= 1``."""
    if not values:
        raise ValueError("quantile of no samples")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def beyond(n: int, percentile: float) -> int:
    """Samples of ``n`` that lie strictly beyond the ``percentile`` rank."""
    return n - math.ceil(n * percentile / 100.0)


def allowed(n: int, percentile: float) -> bool:
    """Whether ``n`` samples support reporting ``percentile``."""
    return beyond(n, percentile) >= MIN_BEYOND


def tail_percentile(n: int) -> int | None:
    """The highest ladder percentile with at least ten samples beyond it."""
    ok = [p for p in PERCENTILES if allowed(n, p)]
    return ok[-1] if ok else None


def min_samples(percentile: float) -> int:
    """Fewest samples for which ``percentile`` may be reported."""
    n = 1
    while not allowed(n, percentile):
        n += 1
    return n


def reference_sample() -> tuple[float, float]:
    """``(start time, seconds)`` of one run of the reference loop."""
    x = 0
    t0 = time.perf_counter()
    for i in range(REF_ITERS):
        x += i
    return t0, time.perf_counter() - t0


def host_scale(ref: Sequence[tuple[float, float]]) -> float:
    """Factor taking a run's measured seconds to nominal host speed.

    ``ref`` holds ``(time, seconds)`` reference samples of the run.
    """
    return REF_NOMINAL_S / median([d for _, d in ref])


def at_nominal(ops: Sequence[tuple[float, float]],
               ref: Sequence[tuple[float, float]]) -> list[float]:
    """Op durations at nominal host speed, each by the reference nearby.

    ``ops`` and ``ref`` hold ``(time, seconds)``; an op's scale is the
    median of the reference samples within ``REF_WINDOW_S`` of it, or the
    nearest sample when none is that close.
    """
    ref = sorted(ref)
    times = [t for t, _ in ref]
    out = []
    for t, d in ops:
        lo = bisect.bisect_left(times, t - REF_WINDOW_S)
        hi = bisect.bisect_right(times, t + REF_WINDOW_S)
        near = [r for _, r in ref[lo:hi]]
        if not near:
            i = min(range(len(times)), key=lambda k: abs(times[k] - t))
            near = [ref[i][1]]
        out.append(d * REF_NOMINAL_S / median(near))
    return out


def residue_frac(total: float, parts: Iterable[float]) -> float:
    """Share of ``total`` not covered by ``parts`` (may be negative)."""
    if total <= 0.0:
        raise ValueError(f"residue of a non-positive total {total}")
    return (total - math.fsum(parts)) / total


# ---------------------------------------------------------------------------
# host facts and output
# ---------------------------------------------------------------------------


def process_age() -> float:
    """Seconds since this process was started (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        # fields after "pid (comm)"; starttime is field 22 of the line
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def host_facts(kernel_backend: str) -> dict[str, Any]:
    """Facts recorded with every run, so two runs can be compared."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernel_backend,
    }


class Report:
    """Collects metrics, prints one human line each, then the JSON line."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict[str, Any]] = {}

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        if name in self.metrics:
            raise BenchError(f"metric {name} reported twice")
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value}")
        self.metrics[name] = {"value": float(value), "unit": unit}
        print(f"  {name:<28} {value:>16.6g} {unit:<6} (n={samples})")

    def emit(self, *, correct: bool, attempted: int, failed: int) -> None:
        if attempted < 1:
            raise BenchError("no operation was attempted")
        share = failed / attempted
        print(f"  {'failed share':<28} {share:>16.6g} {'frac':<6} "
              f"(failed={failed}, attempted={attempted})")
        print(json.dumps({
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": self.metrics,
        }), flush=True)
