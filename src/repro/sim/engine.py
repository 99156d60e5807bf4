"""The simulation entry points.

Two entry points, each a thin wrapper over one incremental engine:

* :func:`run_single_session` — over
  :class:`~repro.sim.vector.EngineState`: the engine owns a FIFO queue; each
  slot it pushes arrivals, asks the
  :class:`~repro.core.allocator.BandwidthPolicy` for a bandwidth, serves,
  and records.
* :func:`run_multi_session` — over
  :class:`~repro.sim.vector.MultiEngineState`: the
  :class:`~repro.core.allocator.MultiSessionPolicy` owns its queues; the
  engine feeds the arrival vector and records what the policy did.

Both optionally *drain*: after the arrival horizon they keep stepping with
zero arrivals until all queues empty, so every bit's delay is measured.  A
policy that fails to drain (allocates nothing forever) trips a hard cap
and raises :class:`~repro.errors.SimulationError` instead of spinning.

Both accept ``faults=``, a :class:`~repro.faults.plan.FaultPlan`:

* **link degradation** — serving uses the *effective* bandwidth
  ``granted × capacity_factor(t)``; the allocation (and its change
  accounting) is untouched, only the wire underdelivers;
* **ingress drops** — a faulted fraction of each slot's arrivals never
  reaches the queue and is accounted in the trace's ``dropped`` series;
* **requested vs granted** — the traces record the policy's *requested*
  bandwidth alongside the granted (applied) one, which differ under an
  :class:`~repro.faults.signaling.UnreliableSignaling` wrapper.

Passing ``faults=None`` (or an empty plan) reproduces the fault-free
simulation bit-for-bit.

**One run loop.**  Every run goes through the engine's per-slot scalar
step, which applies faults and calls ``monitors``.  Quiet slices (empty
queue, arrivals within a constant allocation, no policy event due) are
bulk-committed instead when the policy supports it; a fault plan or
monitors turn bulk commits off, because both need every slot stepped.
``vector=False`` forces the scalar step throughout — the reference the
bulk-commit identity tests compare against.

Telemetry is instrumented for :mod:`repro.obs` but never selects engine
code: when a session is active, the ``engine.single.*`` /
``engine.multi.*`` queue-depth and allocation histograms are derived after
the run from the finalized trace arrays, the run counts
slots/changes/stages/drops, times itself with a profiling hook
(slots/sec), and synthesizes stage/phase spans from the policy's event
lists.  Telemetry never feeds back into the simulation, so traces are
bit-identical whether it is on or off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.allocator import BandwidthPolicy, MultiSessionPolicy
from repro.obs.runtime import Telemetry, get_telemetry
from repro.sim.invariants import Monitor
from repro.sim.recorder import MultiSessionTrace, SingleSessionTrace
from repro.sim.vector import EngineState, MultiEngineState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.plan import FaultPlan


def run_single_session(
    policy: BandwidthPolicy,
    arrivals: Sequence[float] | np.ndarray,
    *,
    drain: bool = True,
    max_drain_slots: int | None = None,
    monitors: Iterable[Monitor] = (),
    queue_capacity: float | None = None,
    faults: "FaultPlan | None" = None,
    vector: bool | None = None,
) -> SingleSessionTrace:
    """Simulate one session under ``policy``; return the finalized trace.

    Args:
        policy: the allocation policy.
        arrivals: bits arriving per slot, length ``T`` (the horizon).
        drain: keep simulating with zero arrivals until the queue empties.
        max_drain_slots: hard cap on extra drain slots (default
            ``4 * T + 1000``).
        monitors: invariant monitors to run each slot.
        queue_capacity: finite ingress buffer in bits (None = the paper's
            unbounded-queue model); overflow is tail-dropped and recorded
            in the trace's ``dropped`` series.
        faults: a :class:`~repro.faults.plan.FaultPlan` injecting link
            degradation and ingress drops (None = fault-free).
        vector: force (``True``) or suppress (``False``) bulk commits of
            quiet slices; ``None`` (default) auto-selects them when the
            queue is unbounded, there are no faults or monitors, and the
            policy supports them
            (:class:`~repro.core.single_session.SingleSessionOnline` in
            kernel mode, :class:`~repro.core.baselines.StaticAllocator`).
            Traces are bit-identical either way.
    """
    state = EngineState(
        policy,
        arrivals,
        drain=drain,
        max_drain_slots=max_drain_slots,
        queue_capacity=queue_capacity,
        monitors=monitors,
        faults=faults,
        vector=vector,
    )
    tele = get_telemetry()
    with tele.profile("engine.run_single_session") as timer:
        state.run()
        timer.slots = state.t
    trace = state.finalize()
    if tele.enabled:
        registry = tele.registry
        registry.histogram("engine.single.queue_depth").observe_array(
            trace.backlog
        )
        registry.histogram("engine.single.allocation").observe_array(
            trace.allocation
        )
        _emit_run_telemetry(
            tele,
            prefix="engine.single",
            run_name="run_single_session",
            slots=trace.slots,
            horizon=trace.horizon,
            changes=trace.change_count,
            stage_starts=trace.stage_starts,
            resets=trace.resets,
            dropped=trace.total_dropped,
            max_backlog=trace.max_backlog,
        )
    return trace


def run_multi_session(
    policy: MultiSessionPolicy,
    arrivals: Sequence[Sequence[float]] | np.ndarray,
    *,
    drain: bool = True,
    max_drain_slots: int | None = None,
    monitors: Iterable[Monitor] = (),
    faults: "FaultPlan | None" = None,
    vector: bool | None = None,
) -> MultiSessionTrace:
    """Simulate ``k`` sessions under ``policy``; return the finalized trace.

    Args:
        policy: the multi-session policy (owns the queues).
        arrivals: array of shape ``(T, k)`` — bits per slot per session.
        drain: keep stepping with zero arrivals until all queues empty.
        max_drain_slots: hard cap on extra drain slots.
        monitors: invariant monitors to run each slot.
        faults: a :class:`~repro.faults.plan.FaultPlan`; link degradation
            scales each session's effective serving capacity, ingress drops
            remove arriving bits before they reach the policy.  (The
            combined algorithm's global channel is served inside the policy
            and is not degraded.)
        vector: force (``True``) or suppress (``False``) bulk commits of
            keep-up spans, which run through phase ends and epochs that
            change no link (supported when
            :func:`~repro.sim.vector.multi_vector_capable` holds — stock
            :class:`~repro.core.phased.PhasedMultiSession`,
            :class:`~repro.core.continuous.ContinuousMultiSession` and the
            epoch-driven arena allocators, not the combined algorithm);
            ``None`` (default) auto-selects them when there are no faults
            or monitors.  Traces are bit-identical either way.
    """
    state = MultiEngineState(
        policy,
        arrivals,
        drain=drain,
        max_drain_slots=max_drain_slots,
        monitors=monitors,
        faults=faults,
        vector=vector,
    )
    tele = get_telemetry()
    with tele.profile("engine.run_multi_session") as timer:
        state.run()
        timer.slots = state.t
    trace = state.finalize()
    if tele.enabled:
        registry = tele.registry
        # Per-slot sums fold left to right, as Python's ``sum`` over a row.
        registry.histogram("engine.multi.queue_depth").observe_array(
            _row_sums(trace.backlog)
        )
        registry.histogram("engine.multi.allocation").observe_array(
            _row_sums(trace.regular_allocation)
            + _row_sums(trace.overflow_allocation)
            + trace.extra_allocation
        )
        _emit_run_telemetry(
            tele,
            prefix="engine.multi",
            run_name="run_multi_session",
            slots=trace.slots,
            horizon=trace.horizon,
            changes=trace.change_count,
            stage_starts=trace.stage_starts,
            resets=trace.resets,
            dropped=float(trace.dropped.sum()),
            max_backlog=float(trace.backlog.sum(axis=1).max(initial=0.0)),
            phase_boundaries=getattr(policy, "phase_boundaries", None),
            k=trace.k,
        )
    return trace


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    """Sequential left-to-right sum of each row (``sum(row)``, bit-exact)."""
    return np.add.accumulate(matrix, axis=1)[:, -1]


def _emit_run_telemetry(
    tele: Telemetry,
    *,
    prefix: str,
    run_name: str,
    slots: int,
    horizon: int,
    changes: int,
    stage_starts: Sequence[int],
    resets: Sequence[int],
    dropped: float,
    max_backlog: float,
    phase_boundaries: Sequence[int] | None = None,
    k: int | None = None,
) -> None:
    """Post-run summary metrics and stage/phase spans for one finished run.

    Runs after the loop so the hot path stays untouched: stage and phase
    spans are synthesized from the policy's (already maintained) event
    lists instead of being tracked slot by slot.
    """
    registry = tele.registry
    registry.counter(prefix + ".runs").inc()
    registry.counter(prefix + ".slots").inc(slots)
    registry.counter(prefix + ".changes").inc(changes)
    registry.counter(prefix + ".stage_starts").inc(len(stage_starts))
    registry.counter(prefix + ".resets").inc(len(resets))
    registry.counter(prefix + ".dropped_bits").inc(dropped)
    registry.gauge(prefix + ".max_backlog").set(max_backlog)

    run_attrs = {"horizon": horizon}
    if k is not None:
        run_attrs["k"] = k
    tele.tracer.span(run_name, 0, slots, kind="run", **run_attrs)
    starts = list(stage_starts)
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else slots
        tele.tracer.span("stage", start, end, kind="stage", index=index)
    if phase_boundaries:
        boundaries = list(phase_boundaries)
        for index, start in enumerate(boundaries):
            end = (
                boundaries[index + 1]
                if index + 1 < len(boundaries)
                else slots
            )
            tele.tracer.span("phase", start, end, kind="phase", index=index)
