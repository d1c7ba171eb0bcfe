"""The physics workloads: raw ``Simulation`` runs of Plummer n=16384.

``jw-16k`` runs the paper's jw plan at a fixed step; ``block-jw-16k``
runs the same inputs under power-of-two block timesteps (5 rungs), each
substep advancing the same ``DT_MIN``, so their step rates compare
directly.  Both use the compiled ``cext`` kernels on a serial engine.

Steps are timed in *turns*: one step at a fixed step, the substeps up to
the next sync point under block timesteps, so a run always stops where
every body's acceleration is fresh and the conserved quantities are
defined.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from common import TAIL, min_samples, reference_sample

N = 16384
SOFTENING = 1e-3
#: Finest step, fixed for every seed.  The tightest body's
#: ``acceleration_timestep`` at t=0 ranges 1.92e-4 .. 2.95e-4 over seeds
#: 0-9 and would move block-jw's mean active set from 4675 to 7064
#: bodies; at this fixed value (the median of that range) the mean
#: active set stays within 1% of 5900 across those seeds, so runs at
#: different seeds measure the same work.
DT_MIN = 2.2e-4
N_RUNGS = 5
#: Half-width of the fixed cube whose corners hold the eight outermost
#: bodies of every input (see :func:`make_input`).
CUBE = 32.0

PLANS = {"jw-16k": "jw", "block-jw-16k": "block-jw"}
#: Ops whose counts form the exact-count window of a traced run.
WINDOW_OPS = 16
#: Memory-bounded block for the guard's O(N^2) potential energy.
ENERGY_BLOCK = 256


@dataclass
class PhysicsRun:
    workload: str
    plan_name: str
    sim: Any
    initial: Any
    config: Any
    engine: Any
    #: ``(start time, seconds)`` of every op, and of the reference samples
    ops: list[tuple[float, float]] = field(default_factory=list)
    ref: list[tuple[float, float]] = field(default_factory=list)
    traced_ops: list[tuple[float, float]] = field(default_factory=list)
    untraced_ops: list[tuple[float, float]] = field(default_factory=list)
    wall_s: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    window: dict[str, float] = field(default_factory=dict)
    window_ops: int = 0

    def close(self) -> None:
        self.engine.close()


def make_input(seed: int):
    """Plummer n=16384 with its eight outermost bodies at rest on the
    corners of the cube ``[-CUBE, CUBE]^3``.

    The octree's root cell is the bounding cube of the bodies.  With the
    plain sphere that cube is set by wherever the seed's most distant
    bodies fall, and so is the alignment of the octree's cells with the
    dense core: walks per step range 248..400 over seeds 0-19 (CV 12%).
    With the corners fixed the root cell is the same for every seed and
    walks range 315..330 (CV 1%), so runs at different seeds measure the
    same work.  Eight bodies at r ~ 55 barely move in a run.
    """
    import numpy as np
    from repro.bench.workloads import make_workload

    particles = make_workload("plummer", N, seed=seed)
    far = np.argsort(np.linalg.norm(particles.positions, axis=1))[-8:]
    corners = [(x, y, z) for x in (-CUBE, CUBE) for y in (-CUBE, CUBE)
               for z in (-CUBE, CUBE)]
    particles.positions[far] = np.array(corners)
    particles.velocities[far] = 0.0
    return particles


def setup(workload: str, seed: int) -> PhysicsRun:
    """Input, plan, kernel library and the bootstrap force pass."""
    from repro.core.plans import PlanConfig, get_plan
    from repro.core.simulation import Simulation
    from repro.exec.engine import ExecutionEngine

    plan_name = PLANS[workload]
    blockstep = plan_name.startswith("block-")
    config = PlanConfig(
        softening=SOFTENING, kernel_backend="cext",
        n_rungs=N_RUNGS if blockstep else None,
    )
    engine = ExecutionEngine(backend="serial", workers=1)
    dt = DT_MIN * (1 << (N_RUNGS - 1)) if blockstep else DT_MIN
    particles = make_input(seed)
    initial = particles.copy()
    sim = Simulation(particles, get_plan(plan_name, config, engine=engine), dt=dt)
    sim.step()  # bootstrap force pass plus the first (sub)step
    return PhysicsRun(workload, plan_name, sim, initial, config, engine)


def _turn(run: PhysicsRun, out: list[tuple[float, float]]) -> float:
    """Step up to the next sync point (one step at a fixed step).

    A reference sample precedes every step; returns the seconds they
    took, which are not part of the run's wall time.
    """
    ref = 0.0
    while True:
        run.ref.append(reference_sample())
        ref += run.ref[-1][1]
        a = time.perf_counter()
        run.sim.step()
        out.append((a, time.perf_counter() - a))
        if run.sim.synchronized:
            return ref


def measure(run: PhysicsRun, seconds: float) -> None:
    """Untraced: whole turns until ``seconds`` pass and the tail is allowed."""
    need = min_samples(TAIL)
    start = time.perf_counter()
    ref = 0.0
    while True:
        ref += _turn(run, run.ops)
        if time.perf_counter() - start >= seconds and len(run.ops) >= need:
            break
    run.wall_s = time.perf_counter() - start - ref


def measure_traced(run: PhysicsRun, seconds: float, tracer) -> None:
    """Alternate untraced and traced turns.

    Layer times come from every traced turn; the exact counts from the
    first traced turns that hold ``WINDOW_OPS`` ops, which are the same
    steps of the same trajectory on every run at one seed.
    """
    start = time.perf_counter()
    k = 0
    while True:
        traced = k % 2 == 1
        ops: list[tuple[float, float]] = []
        if traced:
            tracer.install()
        try:
            _turn(run, ops)
        finally:
            tracer.uninstall()
        if traced:
            # the tracer only accumulates while installed: its totals are
            # the traced turns', and, once they hold WINDOW_OPS ops, the
            # window's
            run.layers, run.counts = tracer.totals()
            run.traced_ops.extend(ops)
            if not run.window_ops and len(run.traced_ops) >= WINDOW_OPS:
                run.window = dict(run.counts)
                run.window_ops = len(run.traced_ops)
        else:
            run.untraced_ops.extend(ops)
        k += 1
        if (time.perf_counter() - start >= seconds and traced
                and run.window_ops):
            break
    run.wall_s = time.perf_counter() - start


def _energy_memo(states, softening: float, G: float) -> dict[str, float]:
    """The program's energy of each state, two states at a time."""
    from repro.nbody.energy import kinetic_energy, potential_energy

    def energy(p) -> float:
        return kinetic_energy(p) + potential_energy(
            p, softening=softening, G=G, block=ENERGY_BLOCK
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {_state_key(p): pool.submit(energy, p) for p in states}
        return {key: f.result() for key, f in futures.items()}


def _state_key(p) -> str:
    h = hashlib.sha256()
    for arr in (p.positions, p.velocities, p.masses):
        h.update(arr.tobytes())
    return h.hexdigest()


def verify(run: PhysicsRun) -> list[str]:
    """The oracle on the final force pass, then the invariant guard.

    Runs after the timed region, at a sync point (turns end there), where
    every acceleration is fresh and the conserved quantities are
    defined.  Returns the failures.
    """
    from repro.check import RunGuard
    from repro.check import invariants
    from repro.check.oracle import (
        DifferentialOracle, compare_arrays, expected_tolerance,
    )
    from repro.core.plans import PlanConfig
    from repro.core.simulation import Simulation
    from repro.errors import VerificationError

    sim = run.sim
    failures = []
    oracle = DifferentialOracle(
        "i", PlanConfig(softening=SOFTENING, kernel_backend="cext")
    )
    ref = oracle.reference_accelerations(sim.particles.positions,
                                         sim.particles.masses)
    tolerance = expected_tolerance("i", sim.plan)
    deviation = compare_arrays(ref, sim.last_acceleration)
    if not tolerance.admits(deviation):
        failures.append(f"final force pass vs i/serial ({tolerance.name}): "
                        f"{deviation}")

    initial = Simulation(run.initial.copy(), run.plan_name, dt=sim.dt,
                         plan_config=run.config)
    cfg = sim.plan.config
    memo = _energy_memo([initial.particles, sim.particles], cfg.softening, cfg.G)
    original = invariants.total_energy
    invariants.total_energy = lambda p, **kw: memo[_state_key(p)]
    try:
        guard = RunGuard()
        guard.prime(initial)
        guard.check(sim, where="final")
    except VerificationError as exc:
        failures.append(f"invariant guard: {exc}")
    finally:
        invariants.total_energy = original
    return failures
