"""The engine: incremental run API and event-sliced vectorized core.

A per-slot scalar step pays Python interpreter overhead for every slot
even though the paper's policies change their allocation only
O(log B_A) times per stage.  Between allocation events the
slot dynamics are trivial: with an empty queue and per-slot arrivals at or
below the constant allocation, every slot delivers its own arrivals with
delay zero and the queue stays empty.  This module exploits that:

* :class:`EngineState` — the incremental single-session engine.  It owns
  the queue/policy/recorder triple and exposes ``step(n_slots)`` so
  callers can advance a simulation in bounded increments (streaming
  ingestion via :meth:`feed`, bounded-memory aggregation via
  ``collect="summary"``).  Its scalar step applies fault plans and
  calls invariant monitors; ``run_single_session`` is a thin wrapper
  over it.
* The **vectorized fast-forward**: while the session is *quiet* (empty
  queue, arrivals ≤ allocation, and the policy guaranteed not to act) the
  engine bulk-commits whole arrival slices with a handful of numpy calls
  instead of per-slot Python steps.  For :class:`SingleSessionOnline` the
  policy-side guarantee comes from :meth:`StageKernel.scan
  <repro.core.stagekernel.StageKernel.scan>`, whose accumulates are
  bitwise-identical to the scalar per-slot updates; the first *event*
  slot (stage end, ladder rung, backlog onset) is always re-run through
  the ordinary scalar step, so traces are bit-identical to an all-scalar
  run (``vector=False``) by construction.  Fault plans and monitors need
  every slot stepped, so they turn bulk commits off; telemetry does not.
* :func:`run_batched` — advance many independent sessions over one
  validated ``(n, T)`` arrival matrix, each on the vectorized path.
* :class:`MultiEngineState` — the incremental multi-session twin: it
  owns the policy/recorder pair behind ``run_multi_session`` and exposes
  the same ``step(n_slots)`` slicing contract.  For
  :func:`multi_vector_capable` policies (stock: ``PhasedMultiSession``,
  ``ContinuousMultiSession`` and the epoch-driven arena allocators) it
  bulk-commits *keep-up spans*: every queue exactly empty and every
  session's arrivals at or below its regular allocation, found with one
  ``(T, k)`` comparison.  On calm traffic most phase ends and epochs
  change nothing, so a span runs through each due boundary the policy
  passes as a no-op (``pass_quiet_boundary``) and one commit covers
  many phases.  A policy opts in by declaring ``bulk_commits = True``
  on its own class and supplies the hooks that define its boundaries,
  so new policy families need no engine special-casing.

Exactness of the bulk commit (why a quiet slot can be skipped): with the
queue exactly empty and ``EPSILON < a <= c``, ``BitQueue.push`` enqueues
one chunk and ``BitQueue.serve`` takes exactly ``a`` (``take = bits``
branch), pops it, and clears the dust accumulator — delivered bits ``a``,
delay 0, backlog exactly ``0.0``.  With ``a <= EPSILON`` the push is a
no-op and nothing is delivered.  Either way the queue ends the slot in
the same exactly-empty state it began, so the per-slot outputs are pure
functions of the arrival value — which is what the bulk commit writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.baselines import StaticAllocator
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError, SimulationError
from repro.network.queue import BitQueue
from repro.obs.runtime import get_telemetry
from repro.sim.invariants import Monitor, MultiSlotView, SingleSlotView
from repro.sim.recorder import (
    MultiSessionRecorder,
    MultiSessionTrace,
    SingleSessionRecorder,
    SingleSessionTrace,
    fold_sum,
    keepup_delivered,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.plan import FaultPlan

#: Largest quiet slice committed per bulk step.  Bounds transient memory
#: (a few float64 arrays of this length) while amortizing numpy call
#: overhead over thousands of slots.
CHUNK = 16384

#: Bulk takes below this many slots don't pay for the numpy call overhead
#: of the attempt; they trigger the scalar-step cooldown.
_SMALL_TAKE = 64
#: First window of a multi-session keep-up scan; each fully quiet window
#: doubles the next (up to ``CHUNK``), so a scan costs O(slots taken).
_SCAN_MIN = 64
#: Cooldown bounds (slots stepped scalar before the next bulk attempt).
_PENALTY_MIN = 16
_PENALTY_MAX = 2048


def _as_array(arrivals: Sequence[float] | np.ndarray, ndim: int) -> np.ndarray:
    array = np.asarray(arrivals, dtype=float)
    if array.ndim != ndim:
        raise ConfigError(f"arrivals must be {ndim}-dimensional, got {array.ndim}")
    if array.size:
        # isfinite first: NaN slips through a plain `min() < 0` comparison.
        if not np.isfinite(array).all():
            raise ConfigError("arrivals must be finite (no NaN/inf values)")
        if float(array.min()) < 0:
            raise ConfigError("arrivals must be non-negative")
    return array


def vector_capable(policy) -> bool:
    """True when ``policy`` supports the vectorized quiet fast-forward.

    Exact-type checks on purpose: subclasses may override decision
    machinery in ways the bulk commit cannot see, so they stay on the
    scalar paths.
    """
    if type(policy) is SingleSessionOnline:
        return policy.kernel_mode
    return type(policy) is StaticAllocator


def multi_vector_capable(policy) -> bool:
    """True when the multi-session bulk fast-forward applies to ``policy``.

    Requires ``bulk_commits = True`` declared in the body of the policy's
    exact class — read through ``vars(type(policy))``, so subclasses,
    which may override decision machinery the bulk commit cannot see,
    stay scalar until they declare it themselves — and no extra
    (global-overflow) channel, since the bulk commit records the extra
    allocation as 0.  :class:`~repro.core.allocator.MultiSessionPolicy`
    states the contract and the hooks such a class provides:

    * ``quiet_slots_until_boundary(t)`` — slots from ``t`` guaranteed
      free of policy events (0 = step scalar now);
    * ``pass_quiet_boundary(t, arrived)`` — run a due boundary inside a
      keep-up span when it provably changes no link (True), else leave
      no trace (False) so the scalar step runs it;
    * ``queues_exactly_empty()`` — every queue holds exactly 0.0 bits.
    """
    return bool(vars(type(policy)).get("bulk_commits", False)) and (
        policy.extra_link is None
    )


def _backoff(taken: int, penalty: int, small: int) -> tuple[int, int]:
    """``(cooldown, penalty)`` after a bulk attempt that took ``taken`` slots.

    A take of at least ``small`` slots paid for its attempt: no cooldown,
    and the penalty resets.  A smaller one starts a cooldown of
    ``penalty`` scalar slots and doubles the next penalty (capped), so on
    streams without quiet stretches the attempts stop costing more than
    the slots they save.
    """
    if taken >= small:
        return 0, _PENALTY_MIN
    return penalty, min(2 * penalty, _PENALTY_MAX)


def _active_plan(faults: "FaultPlan | None") -> "FaultPlan | None":
    """``faults``, or None when it injects nothing (an empty plan)."""
    return faults if faults is not None and not faults.is_null else None


def _resolve_vector(
    vector: bool | None, capable: bool, per_slot: bool, incapable: str
) -> bool:
    """Whether bulk commits are on, from the ``vector=`` knob.

    ``per_slot`` (a fault plan or monitors) needs every slot stepped, so
    ``None`` then resolves off and ``True`` is refused, as it is for an
    incapable policy (with the ``incapable`` message).
    """
    if vector is None:
        return capable and not per_slot
    if vector:
        if not capable:
            raise ConfigError(incapable)
        if per_slot:
            raise ConfigError(
                "vector=True requires no faults and no monitors "
                "(both need every slot stepped)"
            )
    return bool(vector)


def multi_local_changes(policy) -> list[tuple[int, str, object]]:
    """Per-session link changes in change-time order (trace finalize)."""
    local_changes = []
    for session in policy.sessions:
        channels = session.channels
        for change in channels.regular_link.changes:
            local_changes.append((session.index, "regular", change))
        for change in channels.overflow_link.changes:
            local_changes.append((session.index, "overflow", change))
    local_changes.sort(key=lambda item: item[2].t)
    return local_changes


@dataclass
class SingleRunSummary:
    """Bounded-memory aggregate of a single-session run.

    What :class:`EngineState` produces under ``collect="summary"``: O(1)
    state per run instead of per-slot arrays, for streaming workloads
    where the full trace would not fit.
    """

    slots: int = 0
    horizon: int = 0
    total_arrived: float = 0.0
    total_delivered: float = 0.0
    total_dropped: float = 0.0
    max_backlog: float = 0.0
    max_allocation: float = 0.0
    delay_histogram: dict[int, float] = field(default_factory=dict)
    change_count: int = 0
    stage_starts: list[int] = field(default_factory=list)
    resets: list[int] = field(default_factory=list)

    @property
    def max_delay(self) -> int:
        return max(self.delay_histogram.keys(), default=0)


class _SummaryCollector:
    """Recorder-shaped sink that keeps aggregates instead of arrays."""

    def __init__(self) -> None:
        self.slots = 0
        self.total_arrived = 0.0
        self.total_delivered = 0.0
        self.total_dropped = 0.0
        self.max_backlog = 0.0
        self.max_allocation = 0.0
        self.histogram: dict[int, float] = {}

    def record(
        self,
        t,
        arrivals,
        allocation,
        result,
        backlog_after,
        dropped=0.0,
        requested=None,
        effective=None,
    ) -> None:
        self.slots += 1
        self.total_arrived += arrivals
        self.total_delivered += result.bits
        self.total_dropped += dropped
        if backlog_after > self.max_backlog:
            self.max_backlog = backlog_after
        if allocation > self.max_allocation:
            self.max_allocation = allocation
        histogram = self.histogram
        for delivery in result.deliveries:
            histogram[delivery.delay] = (
                histogram.get(delivery.delay, 0.0) + delivery.bits
            )

    def record_keepup_block(self, arrivals, allocation, delivered) -> None:
        n = len(arrivals)
        self.slots += n
        self.total_arrived += float(arrivals.sum())
        delivered_total = float(delivered.sum())
        self.total_delivered += delivered_total
        if allocation > self.max_allocation:
            self.max_allocation = allocation
        if delivered_total > 0.0:
            self.histogram[0] = self.histogram.get(0, 0.0) + delivered_total

    def finalize(self, changes, stage_starts, resets, horizon) -> SingleRunSummary:
        return SingleRunSummary(
            slots=self.slots,
            horizon=horizon,
            total_arrived=self.total_arrived,
            total_delivered=self.total_delivered,
            total_dropped=self.total_dropped,
            max_backlog=self.max_backlog,
            max_allocation=self.max_allocation,
            delay_histogram=self.histogram,
            change_count=len(changes),
            stage_starts=list(stage_starts),
            resets=list(resets),
        )


class EngineState:
    """Incremental single-session engine: advance in ``step(n_slots)`` bites.

    Traces are bit-identical regardless of how the run is sliced into
    ``step`` calls — and, with ``vector`` enabled, regardless of how many
    slots each bulk commit covers.

    Args:
        policy: the allocation policy (drives one
            :class:`~repro.network.queue.BitQueue`).
        arrivals: initial arrival stream (more can be added via
            :meth:`feed` until :meth:`close`).
        drain: keep stepping with zero arrivals after the horizon until
            the queue empties.
        max_drain_slots: hard cap on extra drain slots (default
            ``4 * horizon + 1000``, evaluated at :meth:`close` time).
        queue_capacity: finite ingress buffer (None = unbounded).
        monitors: invariant monitors called every slot.
        faults: a :class:`~repro.faults.plan.FaultPlan` applied every slot
            (link degradation, ingress drops; None = fault-free).
        vector: force (``True``) / suppress (``False``) the vectorized
            quiet fast-forward; ``None`` auto-selects it for
            :func:`vector_capable` policies with an unbounded queue and
            no faults or monitors.
        collect: ``"trace"`` records full per-slot arrays;
            ``"summary"`` keeps O(1) aggregates
            (:class:`SingleRunSummary`) for bounded-memory streaming.
        closed: start closed (no further :meth:`feed`); the batch entry
            points use this.
    """

    def __init__(
        self,
        policy,
        arrivals: Sequence[float] | np.ndarray = (),
        *,
        drain: bool = True,
        max_drain_slots: int | None = None,
        queue_capacity: float | None = None,
        monitors: Iterable[Monitor] = (),
        faults: "FaultPlan | None" = None,
        vector: bool | None = None,
        collect: str = "trace",
        closed: bool = True,
    ):
        if collect not in ("trace", "summary"):
            raise ConfigError(f"collect must be 'trace' or 'summary', got {collect!r}")
        self.policy = policy
        self._monitors = list(monitors)
        self._plan = _active_plan(faults)
        self.queue = BitQueue("session", capacity=queue_capacity)
        self.recorder = (
            SingleSessionRecorder() if collect == "trace" else _SummaryCollector()
        )
        self.drain = bool(drain)
        self._max_drain_slots = max_drain_slots
        self._array = _as_array(arrivals, ndim=1)
        self._values: list[float] = self._array.tolist()
        self.t = 0
        self.closed = False

        self._vector = _resolve_vector(
            vector,
            vector_capable(policy) and queue_capacity is None,
            self._plan is not None or bool(self._monitors),
            "vector=True requires a vector-capable policy "
            f"({type(policy).__name__} is not) and an unbounded queue",
        )
        self._kernel_policy = self._vector and type(policy) is SingleSessionOnline
        # Adaptive backoff: on streams where quiet prefixes are short
        # (bursty arrivals above the allocation), the bulk attempt itself
        # costs more than the slots it saves.  After a small take the
        # engine steps scalar for `_cooldown` slots before retrying, with
        # the penalty doubling while small takes persist — worst case the
        # vectorized path degrades to scalar speed instead of below it.
        self._cooldown = 0
        self._penalty = _PENALTY_MIN

        if closed:
            self.close()

    # -- streaming surface -------------------------------------------------

    @property
    def horizon(self) -> int:
        """Arrival slots ingested so far."""
        return len(self._values)

    @property
    def done(self) -> bool:
        """True when every ingested slot (and the drain tail) is simulated."""
        if self.t < self.horizon:
            return False
        if not self.closed:
            return False
        return not (self.drain and not self.queue.is_empty)

    def feed(self, arrivals: Sequence[float] | np.ndarray) -> None:
        """Append more arrival slots (streaming ingestion)."""
        if self.closed:
            raise ConfigError("cannot feed a closed EngineState")
        chunk = _as_array(arrivals, ndim=1)
        if chunk.size:
            self._array = np.concatenate((self._array, chunk))
            self._values.extend(chunk.tolist())
            tele = get_telemetry()
            if tele.enabled:
                tele.registry.counter("engine.stream.fed_slots").inc(chunk.size)
                tele.registry.gauge("engine.stream.horizon").set(
                    float(len(self._values))
                )

    def close(self) -> None:
        """No further arrivals: fixes the horizon and arms the drain cap."""
        if self.closed:
            return
        self.closed = True
        horizon = self.horizon
        cap = (
            self._max_drain_slots
            if self._max_drain_slots is not None
            else 4 * horizon + 1000
        )
        self._cap = cap
        self._limit = horizon + cap

    # -- the run loop ------------------------------------------------------

    def step(self, n_slots: int) -> int:
        """Advance up to ``n_slots`` slots; return how many were simulated.

        Stops early when the ingested arrivals are exhausted (feed more or
        :meth:`close`) or the run is :attr:`done`.  Slicing a run into
        arbitrary ``step`` calls never changes the resulting trace.
        """
        policy = self.policy
        queue = self.queue
        recorder = self.recorder
        values = self._values
        horizon = len(values)
        plan = self._plan
        monitors = self._monitors
        isfinite = math.isfinite
        decide = policy.decide
        push = queue.push
        serve = queue.serve
        record = recorder.record
        processed = 0
        t = self.t
        cooldown = self._cooldown
        try:
            while processed < n_slots:
                if t < horizon:
                    if (
                        self._vector
                        and cooldown == 0
                        and queue._size == 0.0
                        and not queue._chunks
                    ):
                        taken = self._bulk(t, min(n_slots - processed, CHUNK))
                        cooldown, self._penalty = _backoff(
                            taken, self._penalty, _SMALL_TAKE
                        )
                        if taken:
                            t += taken
                            processed += taken
                            continue
                    elif cooldown:
                        cooldown -= 1
                    offered = values[t]
                elif not self.closed:
                    break
                elif self.drain and not queue.is_empty:
                    if t >= self._limit:
                        raise SimulationError(
                            f"queue failed to drain within {self._cap} extra "
                            f"slots (backlog {queue.size:.3f})"
                        )
                    offered = 0.0
                else:
                    break
                slot_arrivals = offered
                fault_dropped = 0.0
                if plan is not None and slot_arrivals > 0.0:
                    keep = plan.ingress_factor(t)
                    if keep < 1.0:
                        fault_dropped = slot_arrivals * (1.0 - keep)
                        slot_arrivals -= fault_dropped
                backlog = queue.size
                lost = push(t, slot_arrivals)
                bandwidth = decide(t, slot_arrivals, backlog)
                if not isfinite(bandwidth):
                    raise SimulationError(
                        f"policy returned non-finite bandwidth {bandwidth!r} at t={t}"
                    )
                if bandwidth < 0:
                    raise SimulationError(
                        f"policy returned negative bandwidth at t={t}"
                    )
                if plan is None:
                    requested = effective = None
                    served = bandwidth
                else:
                    requested = getattr(policy, "requested_bandwidth", bandwidth)
                    effective = served = bandwidth * plan.capacity_factor(t)
                if monitors:
                    queue_before = queue.size
                result = serve(t, served)
                # The trace records the *offered* load; ``dropped`` holds
                # both ingress-fault losses and finite-buffer tail drops,
                # so delivered + final backlog + dropped == offered.
                record(
                    t,
                    offered,
                    bandwidth,
                    result,
                    queue.size,
                    dropped=lost + fault_dropped,
                    requested=requested,
                    effective=effective,
                )
                if monitors:
                    view = SingleSlotView(
                        t=t,
                        arrivals=slot_arrivals,
                        allocation=bandwidth,
                        queue_before_serve=queue_before,
                        queue_after_serve=queue.size,
                        result=result,
                    )
                    for monitor in monitors:
                        monitor.on_single_slot(view)
                t += 1
                processed += 1
        finally:
            self.t = t
            self._cooldown = cooldown
            # Live-observatory surface: one guarded emission per step()
            # call (never per slot), so the hot loop stays untouched and
            # a telemetry-off run pays one attribute check.
            tele = get_telemetry()
            if tele.enabled and processed:
                registry = tele.registry
                registry.counter("engine.stream.slots_advanced").inc(processed)
                registry.gauge("engine.stream.t").set(float(t))
                registry.gauge("engine.stream.backlog").set(queue.size)
        return processed

    def _bulk(self, t: int, budget: int) -> int:
        """Bulk-commit the longest quiet prefix from ``t``; return its length.

        Quiet: queue exactly empty, arrivals ≤ the constant allocation, and
        the policy guaranteed not to end a stage, climb a rung, or change
        the link.  Returns 0 when the very next slot needs the scalar step.
        """
        policy = self.policy
        allocation = policy.link.bandwidth
        if self._kernel_policy:
            if not policy._in_stage:
                return 0
        else:  # StaticAllocator: quiet once the link is primed.
            if allocation != policy.bandwidth:
                return 0
        if self._values[t] > allocation:
            # Cheap scalar pre-check: the very next slot overloads the
            # link, so there is no quiet prefix to commit.
            return 0
        chunk = self._array[t : t + budget]
        over = np.nonzero(chunk > allocation)[0]
        limit = int(over[0]) if over.size else len(chunk)
        if limit == 0:
            return 0
        if self._kernel_policy:
            taken = policy._kernel.scan(chunk[:limit])
            if taken == 0:
                return 0
        else:
            taken = limit
        committed = chunk[:taken]
        self.recorder.record_keepup_block(
            committed, allocation, keepup_delivered(committed)
        )
        return taken

    def run(self) -> None:
        """Simulate to completion (closes the state first)."""
        self.close()
        while not self.done:
            self.step(1 << 62)

    def finalize(self) -> SingleSessionTrace | SingleRunSummary:
        """Build the trace (or summary) for the slots simulated so far."""
        policy = self.policy
        return self.recorder.finalize(
            changes=policy.changes,
            stage_starts=policy.stage_starts,
            resets=policy.resets,
            horizon=self.horizon,
        )


class MultiEngineState:
    """Incremental multi-session engine: advance in ``step(n_slots)`` bites.

    The multi-session twin of :class:`EngineState` and the implementation
    behind ``run_multi_session``: traces are bit-identical regardless of
    how the run is sliced into ``step`` calls — and, with ``vector``
    enabled, regardless of how many slots each bulk commit covers.

    Args:
        policy: the multi-session policy (owns the queues).
        arrivals: arrival matrix of shape ``(T, k)``.
        drain: keep stepping with zero arrivals until all queues empty.
        max_drain_slots: hard cap on extra drain slots (default
            ``4 * T + 1000``).
        monitors: invariant monitors called every slot.
        faults: a :class:`~repro.faults.plan.FaultPlan`; each slot sets
            every session's ``channels.capacity_factor`` (restored to 1.0
            when :meth:`step` exits) and applies ingress drops.
        vector: force (``True``) / suppress (``False``) the keep-up
            bulk commits; ``None`` auto-selects them for
            :func:`multi_vector_capable` policies with no faults or
            monitors.
    """

    def __init__(
        self,
        policy,
        arrivals: Sequence[Sequence[float]] | np.ndarray,
        *,
        drain: bool = True,
        max_drain_slots: int | None = None,
        monitors: Iterable[Monitor] = (),
        faults: "FaultPlan | None" = None,
        vector: bool | None = None,
    ):
        array = _as_array(arrivals, ndim=2)
        horizon, k = array.shape
        if k != policy.k:
            raise ConfigError(f"arrivals have k={k} but policy has k={policy.k}")
        self.policy = policy
        self._monitors = list(monitors)
        self._plan = _active_plan(faults)
        self.k = k
        self.horizon = horizon
        self.recorder = MultiSessionRecorder(k)
        self.drain = bool(drain)
        self._array = array
        self._rows: list[list[float]] = array.tolist()
        self._zero = [0.0] * k
        cap = max_drain_slots if max_drain_slots is not None else 4 * horizon + 1000
        self._cap = cap
        self._limit = horizon + cap
        self.t = 0

        # Scalar-step cooldown after failed bulk attempts, as in
        # EngineState: on bursty streams the attempts stop costing a
        # queue check per slot.
        self._cooldown = 0
        self._penalty = _PENALTY_MIN
        self._vector = _resolve_vector(
            vector,
            multi_vector_capable(policy),
            self._plan is not None or bool(self._monitors),
            "vector=True requires a vector-capable multi-session policy "
            "(an exact class declaring bulk_commits = True, with no extra "
            f"channel), got {type(policy).__name__}",
        )

    @property
    def done(self) -> bool:
        """True when every slot (and the drain tail) is simulated."""
        if self.t < self.horizon:
            return False
        return not (self.drain and self.policy.total_backlog > 0)

    def step(self, n_slots: int) -> int:
        """Advance up to ``n_slots`` slots; return how many were simulated.

        Slicing a run into arbitrary ``step`` calls never changes the
        resulting trace.
        """
        policy = self.policy
        recorder = self.recorder
        rows = self._rows
        horizon = self.horizon
        k = self.k
        plan = self._plan
        monitors = self._monitors
        sessions = policy.sessions
        regular_links = [s.channels.regular_link for s in sessions]
        overflow_links = [s.channels.overflow_link for s in sessions]
        extra_link = policy.extra_link
        policy_step = policy.step
        record = recorder.record
        isfinite = math.isfinite
        quiet_slots = policy.quiet_slots_until_boundary
        processed = 0
        t = self.t
        cooldown = self._cooldown
        try:
            while processed < n_slots:
                if t < horizon:
                    if cooldown:
                        cooldown -= 1
                    elif self._vector:
                        # A due boundary is not a failed attempt: the
                        # scalar step runs it and the next slot retries.
                        quiet = quiet_slots(t)
                        if quiet:
                            taken = self._bulk(t, quiet, n_slots - processed)
                            # Any take beats k queue serves per slot.
                            cooldown, self._penalty = _backoff(
                                taken, self._penalty, 1
                            )
                            if taken:
                                t += taken
                                processed += taken
                                continue
                    offered = rows[t]
                elif self.drain and policy.total_backlog > 0:
                    if t >= self._limit:
                        raise SimulationError(
                            f"queues failed to drain within {self._cap} extra "
                            f"slots (backlog {policy.total_backlog:.3f})"
                        )
                    offered = self._zero
                else:
                    break
                slot_arrivals = offered
                fault_dropped = 0.0
                if plan is not None:
                    factor = plan.capacity_factor(t)
                    for session in sessions:
                        session.channels.capacity_factor = factor
                    keep = plan.ingress_factor(t)
                    if keep < 1.0 and t < horizon:
                        slot_arrivals = [x * keep for x in offered]
                        fault_dropped = sum(offered) - sum(slot_arrivals)
                results = policy_step(t, slot_arrivals)
                if len(results) != k:
                    raise SimulationError(
                        f"policy returned {len(results)} results for k={k} at t={t}"
                    )
                regular = [link.bandwidth for link in regular_links]
                overflow = [link.bandwidth for link in overflow_links]
                extra = extra_link.bandwidth if extra_link is not None else 0.0
                for value in (*regular, *overflow, extra):
                    if not isfinite(value):
                        raise SimulationError(
                            f"policy produced non-finite bandwidth {value!r} at t={t}"
                        )
                backlogs = [s.backlog for s in sessions]
                record(
                    t,
                    offered,
                    regular,
                    overflow,
                    results,
                    backlogs,
                    extra,
                    requested_total=(
                        policy.total_requested if plan is not None else None
                    ),
                    dropped=fault_dropped,
                )
                if monitors:
                    view = MultiSlotView(
                        t=t,
                        arrivals=slot_arrivals,
                        regular=regular,
                        overflow=overflow,
                        extra=extra,
                        backlogs=backlogs,
                        results=results,
                    )
                    for monitor in monitors:
                        monitor.on_multi_slot(view)
                t += 1
                processed += 1
        finally:
            self.t = t
            self._cooldown = cooldown
            # A mid-run SimulationError must not leak degraded capacity
            # into the sessions' next run.
            if plan is not None:
                for session in sessions:
                    session.channels.capacity_factor = 1.0
            tele = get_telemetry()
            if tele.enabled and processed:
                registry = tele.registry
                registry.counter("engine.stream.multi.slots_advanced").inc(
                    processed
                )
                registry.gauge("engine.stream.multi.t").set(float(t))
                registry.gauge("engine.stream.multi.backlog").set(
                    policy.total_backlog
                )
        return processed

    def _bulk(self, t: int, quiet: int, budget: int) -> int:
        """Bulk-commit the keep-up span from ``t`` (at most ``budget`` slots).

        Keep-up: every queue exactly empty and each session's arrivals at
        or below its regular allocation — then each slot delivers its own
        arrivals at delay 0, leaves the queues exactly empty, and touches
        no link, so per-slot outputs are pure functions of the arrival
        rows.  The span runs through every due boundary the policy can
        pass as a no-op (:meth:`pass_quiet_boundary`) and stops at the
        first overloaded row, at a boundary that changes a link, or at a
        boundary the policy cannot vouch for.  Returns 0 when the next
        slot needs the scalar step (backlog, or the slot overloads).
        ``quiet`` (> 0) is the policy's ``quiet_slots_until_boundary(t)``.
        """
        policy = self.policy
        if not policy.queues_exactly_empty():
            return 0
        sessions = policy.sessions
        regular = [s.channels.regular_link.bandwidth for s in sessions]
        for bits, bandwidth in zip(self._rows[t], regular):
            if bits > bandwidth:
                # Cheap scalar pre-check: the very next slot overloads.
                return 0
        limit = np.asarray(regular)
        array = self._array
        stop = min(self.horizon, t + budget)
        boundary = t + quiet
        arrived = np.asarray([s.bits_arrived for s in sessions])
        end = t
        window = _SCAN_MIN
        while end < stop:
            segment = array[end : min(stop, end + window)]
            over = np.flatnonzero((segment > limit).any(axis=1))
            keep = int(over[0]) if over.size else len(segment)
            stopped = bool(over.size)
            # cumulative[j]: each session's bits_arrived at slot end + j.
            cumulative = np.add.accumulate(
                np.concatenate((arrived[None], segment[:keep])), axis=0
            )
            while boundary < end + keep:
                if not policy.pass_quiet_boundary(
                    boundary, cumulative[boundary - end].tolist()
                ):
                    keep = boundary - end
                    stopped = True
                    break
                boundary += policy.quiet_slots_until_boundary(boundary)
            arrived = cumulative[keep]
            end += keep
            if stopped:
                break
            window = min(2 * window, CHUNK)
        block = array[t:end]
        overflow = [s.channels.overflow_link.bandwidth for s in sessions]
        # Matches the recorder's own fold for requested_total=None rows.
        requested_total = sum(regular) + sum(overflow) + 0.0
        self.recorder.record_keepup_block(
            block, regular, overflow, 0.0, requested_total
        )
        delivered = fold_sum(
            [s.bits_delivered for s in sessions], keepup_delivered(block)
        )
        for session, bits_in, bits_out in zip(
            sessions, arrived.tolist(), delivered.tolist()
        ):
            session.bits_arrived = bits_in
            session.bits_delivered = bits_out
        return end - t

    def run(self) -> None:
        """Simulate to completion."""
        while not self.done:
            self.step(1 << 62)

    def finalize(self) -> MultiSessionTrace:
        """Build the trace for the slots simulated so far."""
        policy = self.policy
        extra_changes = (
            list(policy.extra_link.changes)
            if policy.extra_link is not None
            else []
        )
        return self.recorder.finalize(
            local_changes=multi_local_changes(policy),
            extra_changes=extra_changes,
            stage_starts=policy.stage_starts,
            resets=policy.resets,
            horizon=self.horizon,
        )


def run_batched(
    policy_factory,
    arrivals: Sequence[Sequence[float]] | np.ndarray,
    *,
    drain: bool = True,
    max_drain_slots: int | None = None,
    collect: str = "trace",
) -> list[SingleSessionTrace | SingleRunSummary]:
    """Advance many independent sessions over one stacked arrival matrix.

    Args:
        policy_factory: zero-argument callable producing a fresh policy per
            session (policies are stateful, one per row).
        arrivals: array of shape ``(n_sessions, T)`` — validated and
            converted once for the whole batch.
        drain, max_drain_slots, collect: as :class:`EngineState`.

    Each row runs on the vectorized path when the policy is
    :func:`vector_capable` (scalar otherwise).  Rows are independent
    simulations: stage-relative prefix sums are per-session state, so a
    cross-session 2-D kernel cannot preserve bit-identity — the win here
    is the shared validation/conversion pass plus the per-row quiet
    fast-forward, which already removes the per-slot interpreter cost.
    """
    matrix = _as_array(arrivals, ndim=2)
    out = []
    for row in matrix:
        state = EngineState(
            policy_factory(),
            row,
            drain=drain,
            max_drain_slots=max_drain_slots,
            collect=collect,
        )
        state.run()
        out.append(state.finalize())
    return out
