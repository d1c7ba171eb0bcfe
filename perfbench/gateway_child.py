"""The serve-http workload's server process: a gateway over an in-process service.

Started by ``serving.py``; speaks a line protocol on stdin/stdout:

* prints ``READY host:port`` once the gateway listens;
* ``trace on`` / ``trace off`` install or remove the layer wrappers
  (between client rounds, when no request is in flight) — answers ``OK``;
* ``snap`` answers one JSON line with the cumulative layer self times,
  counts and per-job service-side waits of the traced rounds so far;
* ``stop`` stops the gateway and answers a final JSON line with the
  peak RSS, the NumPy-kernel call count and the backend in use.

Run as ``python3 perfbench/gateway_child.py --cache-dir D --ledger-dir L``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import peak_rss_mb, prepare_environment  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--ledger-dir", required=True)
    args = parser.parse_args()
    prepare_environment()

    from jobs import service_jobs, sum_waits
    from layers import build_tracer, watch_numpy_kernels
    from repro.nbody.kernels import resolve_backend
    from repro.obs.ledger import RunLedger
    from repro.serve.gateway import Gateway

    backend = resolve_backend("cext", strict=True).name
    numpy_calls = watch_numpy_kernels()
    ledger = RunLedger(args.ledger_dir)
    gateway = Gateway("127.0.0.1:0", cache_dir=args.cache_dir, ledger=ledger)
    tracer = build_tracer(gateway._service)
    gateway.start()
    print(f"READY {gateway.addr}", flush=True)
    jobs: list[dict] = []
    try:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "trace on":
                tracer.install()
                print("OK", flush=True)
            elif cmd == "trace off":
                tracer.uninstall()
                jobs.extend(service_jobs(tracer))
                print("OK", flush=True)
            elif cmd == "snap":
                times, counts = tracer.totals()
                print(json.dumps({
                    "times": times,
                    "counts": counts,
                    "waits": sum_waits(jobs),
                    "in_service": sum(j["end"] - j["start"] for j in jobs),
                }), flush=True)
            elif cmd == "stop":
                break
    finally:
        tracer.uninstall()
        gateway.stop()
        ledger.close()
    print(json.dumps({
        "peak_rss_mb": peak_rss_mb(),
        "numpy_kernel_calls": numpy_calls["numpy"],
        "kernel_backend": backend,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
