"""The continuous multi-session algorithm of Figure 5 (Section 3.2).

Like the phased algorithm, but bandwidth is adjusted *on demand* rather
than at phase ends: whenever bits are added to a session's regular queue
the TEST fires — if the queue outgrew its regular allocation
(``|Q_i^r| > B_i^r · D_O``), the session gets another ``B_O/k`` of regular
bandwidth, the queue moves to the overflow channel, the overflow
allocation is raised by exactly ``q / D_O``, and a REDUCE timer returns
that bandwidth after ``D_O`` slots.  When the regular channel exceeds
``2·B_O`` the stage ends: all queues flush to overflow and a RESET
restarts regular allocations at ``B_O/k`` (no drain wait).

Guarantees (Theorem 17): total bandwidth ≤ ``B_A = 5·B_O`` (regular
≤ ``2·B_O`` + one quantum, overflow ≤ ``3·B_O`` by Lemma 16), delay
≤ ``2·D_O`` (Lemma 15), and ``O(k)`` online changes per stage — against
≥ 1 change per stage for any offline ``(B_O, D_O)``-algorithm.
"""

from __future__ import annotations

import sys
from typing import Sequence

from repro.core.allocator import MultiSessionPolicy
from repro.errors import ConfigError
from repro.network.queue import EPSILON, ServeResult
from repro.obs.runtime import count as obs_count
from repro.sim.events import EventQueue


class ContinuousMultiSession(MultiSessionPolicy):
    """Figure 5: demand-driven shared-channel allocator.

    Args:
        k: number of sessions.
        offline_bandwidth: ``B_O`` — the comparator's total bandwidth.
        offline_delay: ``D_O`` — the comparator's delay bound; also the
            REDUCE timer length.
        fifo: serve each session FIFO with its pooled bandwidth.

    Vector-capable: its only scheduled events are REDUCE timers, and in
    a keep-up slot TEST cannot fire (arrivals ``a <= B_r <= B_r·D_O``
    into an empty regular queue), so the slots before the next timer are
    quiet.
    """

    bulk_commits = True

    def __init__(
        self,
        k: int,
        offline_bandwidth: float,
        offline_delay: int,
        fifo: bool = False,
    ):
        super().__init__(k=k, fifo=fifo)
        if offline_bandwidth <= 0:
            raise ConfigError(
                f"offline_bandwidth must be > 0, got {offline_bandwidth!r}"
            )
        if offline_delay < 1:
            raise ConfigError(f"offline_delay must be >= 1, got {offline_delay!r}")
        self.offline_bandwidth = float(offline_bandwidth)
        self.offline_delay = int(offline_delay)
        self.online_delay = 2 * self.offline_delay
        self.max_bandwidth = 5.0 * self.offline_bandwidth
        self.quantum = self.offline_bandwidth / self.k
        self.regular_cap = 2.0 * self.offline_bandwidth
        self._events = EventQueue()
        self._started = False

    # -- primitive operations ------------------------------------------------

    def _reset(self, t: int, initial: bool) -> None:
        for session in self.sessions:
            session.channels.regular_link.set(t, self.quantum)
        if not initial:
            self.resets.append(t)
            obs_count("core.continuous.resets")
        self.stage_starts.append(t)
        obs_count("core.continuous.stage_starts")

    def _raise_overflow(self, t: int, index: int, amount: float) -> None:
        """Add overflow bandwidth and schedule its REDUCE after D_O slots."""
        if amount <= EPSILON:
            return
        obs_count("core.continuous.overflow_raises")
        link = self.sessions[index].channels.overflow_link
        link.set(t, link.bandwidth + amount)
        self._events.schedule_after(
            t, self.offline_delay, lambda now, i=index, b=amount: self._reduce(now, i, b)
        )

    def _reduce(self, t: int, index: int, amount: float) -> None:
        """Figure 5's REDUCE(i, D_O, B): return borrowed overflow bandwidth."""
        link = self.sessions[index].channels.overflow_link
        link.set(t, max(0.0, link.bandwidth - amount))

    def _spill(self, t: int, index: int) -> None:
        """Move a regular queue to overflow with a matched allocation."""
        channels = self.sessions[index].channels
        moved = channels.move_regular_to_overflow()
        self._raise_overflow(t, index, moved / self.offline_delay)

    def _test(self, t: int, index: int) -> bool:
        """Figure 5's TEST(i); returns True when the stage must end."""
        channels = self.sessions[index].channels
        regular = channels.regular_link
        if channels.regular_queue.size <= regular.bandwidth * self.offline_delay + EPSILON:
            return False
        regular.set(t, regular.bandwidth + self.quantum)
        self._spill(t, index)
        return self.total_regular > self.regular_cap + EPSILON

    # -- hooks for the combined algorithm (§4) ----------------------------------

    def restart_stage(self, t: int, offline_bandwidth: float) -> None:
        """End the local stage and restart with a new ``B_O`` (§4)."""
        if offline_bandwidth <= 0:
            raise ConfigError(
                f"offline_bandwidth must be > 0, got {offline_bandwidth!r}"
            )
        self._started = True
        self.offline_bandwidth = float(offline_bandwidth)
        self.quantum = self.offline_bandwidth / self.k
        self.regular_cap = 2.0 * self.offline_bandwidth
        self.max_bandwidth = 5.0 * self.offline_bandwidth
        for index in range(self.k):
            self._spill(t, index)
        self._reset(t, initial=False)

    def cancel_overflow(self, t: int) -> None:
        """Zero overflow allocations and drop pending REDUCE timers
        (queues were stolen by a GLOBAL RESET)."""
        self._events.clear()
        for session in self.sessions:
            session.channels.overflow_link.set(t, 0.0)

    # -- event-boundary hooks (vectorized engine) ----------------------------

    def quiet_slots_until_boundary(self, t: int) -> int:
        """Slots from ``t`` before the next REDUCE timer fires.

        Unbounded (``sys.maxsize``) when no timer is pending; 0 before the
        first step or when a timer is due at ``t``.
        """
        if not self._started:
            return 0
        due = self._events.next_due()
        if due is None:
            return sys.maxsize
        return max(0, due - t)

    # -- the slot step ---------------------------------------------------------

    def step(self, t: int, arrivals: Sequence[float]) -> list[ServeResult]:
        if not self._started:
            self._started = True
            self._reset(t, initial=True)
        self._events.fire_due(t)
        for index, bits in enumerate(arrivals):
            if bits <= 0:
                continue
            self.sessions[index].push(t, bits)
            if self._test(t, index):
                # Regular channel blew past 2·B_O: flush everything and
                # restart the stage immediately.
                for other in range(self.k):
                    self._spill(t, other)
                self._reset(t, initial=False)
        results = []
        for session in self.sessions:
            result = session.channels.serve(t, fifo=self.fifo)
            session.account(result)
            results.append(result)
        return results

    # -- diagnostics -------------------------------------------------------------

    @property
    def total_regular(self) -> float:
        return sum(s.channels.regular_link.bandwidth for s in self.sessions)

    @property
    def total_overflow(self) -> float:
        return sum(s.channels.overflow_link.bandwidth for s in self.sessions)

    @property
    def pending_reductions(self) -> int:
        """Outstanding REDUCE timers (diagnostics)."""
        return len(self._events)
