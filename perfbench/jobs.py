"""The serve job stream and the service-side per-job wait accounting.

Shared by the client driver (``serving.py``) and the gateway process
(``gateway_child.py``), which both need the same job keys and the same
split of a job's time inside the service.
"""

from __future__ import annotations

import time
from typing import Any

from tracer import Tracer, assign_spans, job_waits

#: One job: Plummer n=256, 20 steps of the direct-sum i plan on cext.
JOB_N = 256
JOB_STEPS = 20
#: Each client submits groups of this many jobs; the last one of every
#: group repeats the group's first spec, which has completed by then, so
#: exactly one job in four is a cache hit and the rest are misses.
GROUP = 4
HIT_SLOT = GROUP - 1

WAITS = ("queue_wait", "slice_wait", "handoff")


def job_spec(seed: int, client: int, group: int, slot: int):
    """The spec client ``client`` submits at ``slot`` of ``group``."""
    from repro.core.plans import PlanConfig
    from repro.serve import JobSpec

    if slot == HIT_SLOT:
        slot = 0
    # Distinct workload seeds per (run seed, client, group, slot), so a
    # miss never meets another run's or another client's entry.
    job_seed = ((seed * 4 + client) * 1_000_000 + group) * GROUP + slot
    return JobSpec(
        workload="plummer", n=JOB_N, seed=job_seed, plan="i",
        steps=JOB_STEPS, plan_config=PlanConfig(kernel_backend="cext"),
    )


def service_jobs(tracer: Tracer, *, settle_s: float = 5.0) -> list[dict[str, Any]]:
    """Drain the tracer's timelines into per-job records.

    Each ``serve.submit`` span opens a job for its key; inside the
    service the job ends with the last of its spans (the submission for
    a cache hit, the finishing span for a miss).  Returns
    ``[{key, start, end, waits}]`` with the waits of
    :func:`tracer.job_waits`.  Call only when every submitted job has
    resolved; it waits up to ``settle_s`` for runner threads to close
    their last spans.
    """
    deadline = time.perf_counter() + settle_s
    while True:
        pending = [
            k for k, spans in tracer.timeline.items()
            if sum(s[0] == "serve.begin" for s in spans)
            > sum(s[0] == "serve.handoff" for s in spans)
        ]
        if not pending or time.perf_counter() > deadline:
            break
        time.sleep(0.005)
    jobs = []
    for key in list(tracer.timeline):
        spans = sorted(tracer.timeline.pop(key), key=lambda s: s[1])
        starts = [s[1] for s in spans if s[0] == "serve.submit"]
        for start, own in zip(starts, assign_spans(spans, starts)):
            end = max(s[2] for s in own)
            jobs.append({
                "key": key,
                "start": start,
                "end": end,
                "waits": job_waits(own, start, end, admit_layer="serve.begin"),
            })
    return jobs


def sum_waits(jobs: list[dict[str, Any]]) -> dict[str, float]:
    return {w: sum(j["waits"][w] for j in jobs) for w in (*WAITS, "lead")}
