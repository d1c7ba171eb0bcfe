"""Which of the program's functions the traced run wraps, and as what.

Layers are named after the program's packages.  Each entry wraps a
function where its caller looks it up — e.g. ``build_octree`` as
``repro.core.plans.tree_base`` imported it — so the program's own call
sites are timed unchanged.  Nested spans subtract from their parents,
so each layer's number is self time.

Counts are gathered in hooks that run after the call (their cost is
charged to the ``trace`` pseudo-layer, not to the layer):

* ``force_passes``, ``sim_gpu_s``, ``active_rows``, ``rows``,
  ``walks_evaluated`` — from every force pass's ``StepBreakdown`` as the
  simulation accounts it;
* ``walks`` — walks generated;
* ``interactions``, ``bytes`` — per kernel-backend call; bytes are
  *computed* from array sizes (target and source reads, result writes),
  not measured traffic;
* ``tasks`` — items an execution engine dispatched;
* ``checkpoint_bytes`` — bytes of checkpoint files written;
* ``ledger_commits`` — ledger write transactions.
"""

from __future__ import annotations

import os
from typing import Any

from tracer import Tracer


def _account(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    bd = args[1]
    meta = bd.meta
    counts["force_passes"] += 1
    counts["sim_gpu_s"] += bd.total_seconds
    counts["rows"] += bd.n_bodies
    counts["active_rows"] += meta.get("active_bodies", bd.n_bodies)
    counts["walks_evaluated"] += meta.get("n_walks_active", meta.get("n_walks", 0))


def _walks(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        counts["walks"] += len(result)


def _sources(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    targets, src_pos = args[0], args[1]
    nt, ns = targets.shape[0], src_pos.shape[0]
    counts["interactions"] += nt * ns
    # targets (3) + source positions (3) and masses (1) read, results (3)
    # written — read-modify-write when accumulating.
    rw = 2 if kwargs.get("accumulate") else 1
    counts["bytes"] += targets.itemsize * (3 * nt + 4 * ns + 3 * rw * nt)


def _self_forces(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    n = args[0].shape[0]
    counts["interactions"] += n * (n - 1)
    counts["bytes"] += args[0].itemsize * (4 * n + 3 * n)


def _tasks(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        counts["tasks"] += len(result)


def _checkpoint(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    with os.scandir(args[0]) as entries:
        counts["checkpoint_bytes"] += sum(e.stat().st_size for e in entries)


def _commit(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["ledger_commits"] += 1


def _job_key(args: tuple, result: Any) -> str:
    return args[0].handle.spec_hash


def _submit_key(args: tuple, result: Any) -> str:
    return result.spec_hash if result is not None else "rejected"


def build_tracer(service: Any = None) -> Tracer:
    """A tracer over every layer the four workloads pass through.

    ``service`` is the in-process ``JobService`` of a serve workload: its
    scheduler holds the slice observer as a bound method, so the
    observer is wrapped on that scheduler object.
    """
    from repro.core import simulation
    from repro.core.plans import base, blockstep, i_parallel, jw_parallel, tree_base
    from repro.exec.engine import ExecutionEngine
    from repro.nbody.kernels import get_backend
    from repro.obs.ledger import RunLedger
    from repro.runtime import session
    from repro.serve import cache
    from repro.serve import service as svc

    t = Tracer()
    # integrators: the step loop outside the force pass (kick, drift,
    # rung bookkeeping, accounting)
    t.wrap(simulation.Simulation, "step", "integrators")
    t.wrap(simulation.Simulation, "_account", "integrators", count=_account)
    # plans: force-pass orchestration, source gathering, timing model
    t.wrap(base.Plan, "compute_step", "plans")
    t.wrap(tree_base.TreePlanBase, "compute_step", "plans")
    t.wrap(tree_base.TreePlanBase, "prepare", "plans")
    t.wrap(tree_base.TreePlanBase, "accelerations_from_walks", "plans")
    t.wrap(jw_parallel.JwParallelPlan, "accelerations_from_walks", "plans")
    t.wrap(blockstep.BlockTimestepPlan, "compute_step", "plans")
    t.wrap(blockstep.BlockTreePlan, "_active_step", "plans")
    t.wrap(i_parallel.IParallelPlan, "accelerations", "plans")
    for mod, name in ((jw_parallel, "_jw_walk_task"), (blockstep, "_jw_walk_task"),
                      (tree_base, "_tree_walk_task"),
                      (i_parallel, "_workgroup_task")):
        t.wrap(mod, name, "plans")
    for mod in (jw_parallel, tree_base):
        t.wrap(mod, "walk_sources", "plans.gather")
    t.wrap(jw_parallel.JwParallelPlan, "breakdown_from_walks", "plans.model")
    t.wrap(tree_base.TreePlanBase, "_host_seconds", "plans.model")
    t.wrap(i_parallel.IParallelPlan, "step_breakdown", "plans.model")
    for name in ("time_kernel", "packed_tile_loop_work", "reduction_work"):
        t.wrap(blockstep, name, "plans.model")
    # tree: octree build and walk generation (incl. grouping)
    t.wrap(tree_base, "build_octree", "tree.build")
    t.wrap(tree_base, "generate_walks", "tree.walks", count=_walks)
    t.wrap(jw_parallel, "cell_groups", "tree.walks")
    # kernels: staging into device precision, then the backend call
    for mod in (jw_parallel, tree_base, blockstep, i_parallel):
        t.wrap(mod, "tile_loop_forces", "kernels.stage")
    cext = get_backend("cext")
    t.wrap(cext, "sources", "kernels.force", count=_sources)
    t.wrap(cext, "self_forces", "kernels.force", count=_self_forces)
    # exec: engine dispatch
    t.wrap(ExecutionEngine, "map", "exec", count=_tasks)
    # runtime: session slices, manifest set-up, checkpoints
    t.wrap(session.RunSession, "start", "runtime.start")
    t.wrap(session.RunSession, "advance", "runtime.advance")
    t.wrap(session.RunSession, "checkpoint", "runtime.checkpoint")
    t.wrap(session, "write_checkpoint", "runtime.checkpoint", count=_checkpoint)
    # serve: job entry points (outermost spans carry the job key)
    t.wrap(svc.JobService, "submit", "serve.submit", key=_submit_key)
    t.wrap(svc._Job, "begin", "serve.begin", key=_job_key)
    t.wrap(svc._Job, "advance", "runtime.advance", key=_job_key)
    t.wrap(svc._Job, "finish", "serve.handoff", key=_job_key)
    if service is not None:
        t.wrap(service.scheduler, "slice_observer", "serve.slice_wait",
               key=_job_key)
    for name in ("lookup", "load", "claim", "claim_or_resume", "evict"):
        t.wrap(cache.ResultCache, name, "serve.cache")
    # obs: ledger writes, one transaction each
    for name in ("record_submitted", "record_started", "record_slice",
                 "record_event", "record_finished", "bump_dedup"):
        t.wrap(RunLedger, name, "obs.ledger", count=_commit)
    return t


def watch_numpy_kernels() -> dict[str, int]:
    """Count calls into the NumPy reference kernels.

    Every configuration the benchmark runs pins the ``cext`` backend, so
    any call here means a silent fallback.  Installed for the whole run;
    it costs nothing unless the fallback happens.
    """
    from repro.nbody.kernels import get_backend

    calls = {"numpy": 0}
    backend = get_backend("numpy")
    for name in ("sources", "self_forces"):
        original = getattr(backend, name)

        def counted(*args: Any, _fn=original, **kwargs: Any) -> Any:
            calls["numpy"] += 1
            return _fn(*args, **kwargs)

        setattr(backend, name, counted)
    return calls
