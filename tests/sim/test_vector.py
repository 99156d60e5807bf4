"""Vectorized engine tests: bit-identity against the scalar step.

The event-sliced fast-forward (:mod:`repro.sim.vector`) must be invisible
in every recorded float: the vectorized run (``vector=True``) and the
scalar step (``vector=False``) produce byte-identical traces.  These tests
drive that equivalence over fixed edge cases (drain phases, zero horizons,
dust accumulation) and randomized streams (hypothesis, with the budget
driven by ``REPRO_FUZZ_EXAMPLES``), plus the gating semantics of the
``vector=`` knob.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import StaticAllocator
from repro.core.combined import CombinedMultiSession
from repro.core.continuous import ContinuousMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.core.variants import EagerResetSingleSession
from repro.errors import ConfigError
from repro.network.queue import EPSILON
from repro.obs.runtime import telemetry_session
from repro.sim.engine import run_multi_session, run_single_session
from repro.sim.invariants import DelayMonitor
from repro.sim.recorder import MultiSessionRecorder
from repro.sim.vector import (
    MultiEngineState,
    multi_vector_capable,
    run_batched,
    vector_capable,
)
from tests.strategies import FUZZ_EXAMPLES, arrival_streams, seeds

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)


def _policy():
    return SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
    )


def _assert_single_identical(first, second):
    np.testing.assert_array_equal(first.arrivals, second.arrivals)
    np.testing.assert_array_equal(first.allocation, second.allocation)
    np.testing.assert_array_equal(first.delivered, second.delivered)
    np.testing.assert_array_equal(first.backlog, second.backlog)
    np.testing.assert_array_equal(first.dropped, second.dropped)
    np.testing.assert_array_equal(first.requested, second.requested)
    np.testing.assert_array_equal(first.effective, second.effective)
    assert first.delay_histogram == second.delay_histogram
    assert first.changes == second.changes
    assert first.stage_starts == second.stage_starts
    assert first.resets == second.resets
    assert first.horizon == second.horizon


def _assert_two_way(arrivals, policy_factory=_policy):
    vector = run_single_session(policy_factory(), arrivals, vector=True)
    scalar = run_single_session(policy_factory(), arrivals, vector=False)
    _assert_single_identical(vector, scalar)
    return vector


class TestVectorCapability:
    def test_stock_policy_is_capable(self):
        assert vector_capable(_policy())
        assert vector_capable(StaticAllocator(bandwidth=8.0))

    def test_subclasses_are_not(self):
        policy = EagerResetSingleSession(
            max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
        )
        assert not vector_capable(policy)

    def test_vector_true_rejects_incapable_policy(self):
        policy = EagerResetSingleSession(
            max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
        )
        with pytest.raises(ConfigError, match="vector"):
            run_single_session(policy, [1.0, 2.0], vector=True)

    def test_vector_true_rejects_monitors(self):
        with pytest.raises(ConfigError, match="monitors"):
            run_single_session(
                _policy(), [1.0, 2.0], vector=True, monitors=[DelayMonitor(16)]
            )

    def test_vector_true_rejects_bounded_queue(self):
        with pytest.raises(ConfigError, match="vector"):
            run_single_session(_policy(), [1.0, 2.0], vector=True, queue_capacity=4.0)

    def test_vector_false_still_matches(self):
        arrivals = np.random.default_rng(5).poisson(6, 400).astype(float)
        _assert_two_way(arrivals)


class TestSingleThreeWayIdentity:
    def test_piecewise_constant(self):
        rng = np.random.default_rng(11)
        arrivals = np.repeat(rng.uniform(1, 12, size=10), 500)
        _assert_two_way(arrivals)

    def test_bursty_poisson(self):
        arrivals = np.random.default_rng(2).poisson(6, 3000).astype(float)
        _assert_two_way(arrivals)

    def test_static_allocator(self):
        arrivals = np.random.default_rng(3).uniform(0, 6, 2000)
        _assert_two_way(arrivals, lambda: StaticAllocator(bandwidth=8.0))

    def test_zero_horizon(self):
        trace = _assert_two_way(np.array([]))
        assert trace.horizon == 0
        assert len(trace.allocation) == 0

    def test_all_zero_arrivals(self):
        _assert_two_way(np.zeros(500))

    def test_drain_phase(self):
        # A burst at the end leaves backlog that only drains past the
        # horizon; drain slots must be identical on every path.
        arrivals = np.zeros(600)
        arrivals[590:] = 100.0
        trace = _assert_two_way(arrivals)
        assert len(trace.allocation) > trace.horizon

    def test_dust_accumulation(self):
        # Sub-epsilon arrivals are pushed as no-ops on quiet slots; the
        # bulk commit must not deliver or accumulate them differently.
        rng = np.random.default_rng(7)
        arrivals = rng.uniform(0, 4, 1500)
        arrivals[::3] = EPSILON / 2
        arrivals[::7] = 0.0
        _assert_two_way(arrivals)

    def test_exact_epsilon_arrivals(self):
        # Pinned boundary: arrivals == EPSILON are *not* above the dust
        # threshold (strict >), so they deliver nothing on any path.
        arrivals = np.full(300, EPSILON)
        arrivals[::5] = 2.0
        _assert_two_way(arrivals)

    def test_spiky_reset_heavy(self):
        # Pinned counterexample shape from development: tall isolated
        # spikes drive repeated stage end / RESET / restart cycles whose
        # event slots must all fall out of the bulk path.
        rng = np.random.default_rng(17)
        arrivals = np.zeros(2000)
        spikes = rng.random(2000) < 0.05
        arrivals[spikes] = rng.uniform(16, 32, spikes.sum())
        _assert_two_way(arrivals)

    @_SETTINGS
    @given(arrival_streams(max_slots=400))
    def test_random_streams(self, arrivals):
        _assert_two_way(arrivals)

    @_SETTINGS
    @given(arrival_streams(max_slots=300, max_rate=8.0))
    def test_random_streams_static(self, arrivals):
        _assert_two_way(arrivals, lambda: StaticAllocator(bandwidth=4.0))


class TestMultiVector:
    @staticmethod
    def _multi_policy(k=2):
        return PhasedMultiSession(k, offline_bandwidth=8.0 * k, offline_delay=8)

    @staticmethod
    def _assert_multi_identical(first, second):
        np.testing.assert_array_equal(first.arrivals, second.arrivals)
        np.testing.assert_array_equal(
            first.regular_allocation, second.regular_allocation
        )
        np.testing.assert_array_equal(
            first.overflow_allocation, second.overflow_allocation
        )
        np.testing.assert_array_equal(first.delivered, second.delivered)
        np.testing.assert_array_equal(first.backlog, second.backlog)
        np.testing.assert_array_equal(first.requested_total, second.requested_total)
        assert first.delay_histograms == second.delay_histograms
        assert first.stage_starts == second.stage_starts
        assert first.resets == second.resets

    def test_multi_three_way(self):
        rng = np.random.default_rng(23)
        arrivals = np.repeat(rng.uniform(0.5, 4.0, size=(5, 2)), 400, axis=0)
        vector = run_multi_session(self._multi_policy(), arrivals, vector=True)
        scalar = run_multi_session(self._multi_policy(), arrivals, vector=False)
        self._assert_multi_identical(vector, scalar)

    def test_multi_bursty(self):
        arrivals = np.random.default_rng(29).poisson(3, size=(1500, 3)).astype(float)
        policy = lambda: self._multi_policy(3)  # noqa: E731
        vector = run_multi_session(policy(), arrivals, vector=True)
        scalar = run_multi_session(policy(), arrivals, vector=False)
        self._assert_multi_identical(vector, scalar)

    def test_multi_vector_true_rejects_incapable(self):
        from repro.core.baselines import EqualSplitMultiSession

        policy = EqualSplitMultiSession(2, offline_bandwidth=8.0)
        with pytest.raises(ConfigError, match="vector-capable"):
            run_multi_session(policy, np.ones((10, 2)), vector=True)


def _assert_multi_traces_identical(first, second):
    for name in (
        "arrivals", "regular_allocation", "overflow_allocation", "delivered",
        "backlog", "extra_allocation", "requested_total", "dropped",
    ):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))
    assert first.delay_histograms == second.delay_histograms
    assert first.local_changes == second.local_changes
    assert first.extra_changes == second.extra_changes
    assert first.stage_starts == second.stage_starts
    assert first.resets == second.resets
    assert first.horizon == second.horizon


def _multi_two_way(factory, arrivals):
    """Vector and scalar runs of fresh ``factory()`` policies: identical."""
    vector_policy, scalar_policy = factory(), factory()
    vector = run_multi_session(vector_policy, arrivals, vector=True)
    scalar = run_multi_session(scalar_policy, arrivals, vector=False)
    _assert_multi_traces_identical(vector, scalar)
    return vector, vector_policy, scalar_policy


def _phased(k=4, offline_delay=4):
    return PhasedMultiSession(k, offline_bandwidth=4.0 * k, offline_delay=offline_delay)


def _continuous(k=4, offline_delay=4):
    return ContinuousMultiSession(
        k, offline_bandwidth=4.0 * k, offline_delay=offline_delay
    )


def _multi_streams(seed, k=4, slots=1200):
    """Calm, bursty, dust-tailed and REDUCE-heavy inputs for B_O/k = 4."""
    rng = np.random.default_rng(seed)
    calm = np.repeat(rng.uniform(0.5, 3.5, size=(6, k)), slots // 6, axis=0)
    bursty = rng.poisson(2.5, size=(slots, k)).astype(float)
    dust = calm.copy()
    dust[::3] = EPSILON / 2
    dust[::7, 0] = EPSILON
    dust[::11] = 0.0
    # Isolated bursts above B_r * D_O trip TEST (continuous) or overflow a
    # phase (phased) and leave REDUCE timers and overflow links behind,
    # separated by calm stretches the spans must re-enter.
    spiky = calm.copy()
    spikes = rng.random(slots) < 0.03
    spiky[spikes, rng.integers(0, k, spikes.sum())] = rng.uniform(
        20.0, 40.0, spikes.sum()
    )
    return {"calm": calm, "bursty": bursty, "dust": dust, "reduce-heavy": spiky}


class TestMultiCapability:
    def test_stock_capable_policies(self):
        assert multi_vector_capable(_phased())
        assert multi_vector_capable(_continuous())

    def test_subclasses_and_combined_stay_scalar(self):
        class Subclass(ContinuousMultiSession):
            pass

        assert not multi_vector_capable(Subclass(2, 8.0, 4))
        combined = CombinedMultiSession(2, 8.0, 4, 0.25, 8)
        assert not multi_vector_capable(combined)
        with pytest.raises(ConfigError, match="vector-capable"):
            run_multi_session(combined, np.ones((10, 2)), vector=True)


class TestContinuousVector:
    @pytest.mark.parametrize("shape", ["calm", "bursty", "dust", "reduce-heavy"])
    def test_two_way_identity(self, shape):
        arrivals = _multi_streams(41)[shape]
        trace, vector_policy, scalar_policy = _multi_two_way(_continuous, arrivals)
        assert trace.slots >= len(arrivals)
        assert vector_policy.pending_reductions == scalar_policy.pending_reductions

    def test_reduce_heavy_stream_changes_links(self):
        trace, _, _ = _multi_two_way(_continuous, _multi_streams(43)["reduce-heavy"])
        kinds = {kind for _, kind, _ in trace.local_changes}
        assert kinds == {"regular", "overflow"}

    def test_fifo_service(self):
        def factory():
            return ContinuousMultiSession(3, 12.0, 4, fifo=True)

        _multi_two_way(factory, _multi_streams(47, k=3)["reduce-heavy"])


class TestPhaseSpanning:
    @pytest.mark.parametrize("cls", [PhasedMultiSession, ContinuousMultiSession])
    def test_span_engages_on_calm_stream(self, monkeypatch, cls):
        """One bulk commit per input segment (at most), not one per phase."""
        k, slots, segment = 8, 4_500, 1_000
        rng = np.random.default_rng(59)
        arrivals = np.repeat(rng.uniform(0.5, 4.0, size=(-(-slots // segment), k)),
                             segment, axis=0)[:slots]
        blocks, scalar_slots = [], []
        keepup, record = (
            MultiSessionRecorder.record_keepup_block, MultiSessionRecorder.record
        )
        monkeypatch.setattr(
            MultiSessionRecorder, "record_keepup_block",
            lambda self, rows, *a: (blocks.append(len(rows)), keepup(self, rows, *a)),
        )
        monkeypatch.setattr(
            MultiSessionRecorder, "record",
            lambda self, *a, **kw: (scalar_slots.append(1), record(self, *a, **kw)),
        )
        policy = cls(k, offline_bandwidth=64.0, offline_delay=8)
        trace = run_multi_session(policy, arrivals)
        assert sum(blocks) + len(scalar_slots) == trace.slots
        assert len(blocks) <= -(-slots // segment) + len(scalar_slots)
        assert len(scalar_slots) < 10
        if cls is PhasedMultiSession:
            assert len(policy.phase_boundaries) > 500

    @pytest.mark.parametrize("factory", [_phased, _continuous])
    def test_phase_and_counter_identity(self, factory):
        arrivals = _multi_streams(61)["reduce-heavy"]
        counters = []
        policies = []
        for vector in (True, False):
            policy = factory()
            with telemetry_session() as tele:
                trace = run_multi_session(policy, arrivals, vector=vector)
            counters.append(
                {
                    name: value
                    for name, value in tele.registry.snapshot()["counters"].items()
                    if name.startswith("core.")
                }
            )
            policies.append((policy, trace))
        assert counters[0] == counters[1]
        _assert_multi_traces_identical(policies[0][1], policies[1][1])
        if factory is _phased:
            assert counters[0]["core.phased.phase_ends"] == len(
                policies[0][0].phase_boundaries
            )
            assert policies[0][0].phase_boundaries == policies[1][0].phase_boundaries

    def test_span_stops_at_phase_end_with_live_overflow(self, monkeypatch):
        """A phase end that must zero a non-zero overflow link is not
        spanned: the scalar step runs it and records the change.

        FIFO service drains the overflow queue early (it gets the whole
        session bandwidth), so a keep-up span starts mid-phase and meets
        the phase end while the overflow link is still up.  The long phase
        leaves room for the engine's retry cooldown after the burst.
        """
        k, delay = 2, 64
        arrivals = np.full((300, k), 1.0)
        arrivals[120, 0] = 400.0  # overflows session 0's phase ending at 128
        verdicts = []
        passes = PhasedMultiSession.pass_quiet_boundary

        def spy(self, t, arrived):
            verdicts.append((t, passes(self, t, arrived)))
            return verdicts[-1][1]

        monkeypatch.setattr(PhasedMultiSession, "pass_quiet_boundary", spy)
        trace, policy, _ = _multi_two_way(
            lambda: PhasedMultiSession(k, 4.0 * k, delay, fifo=True), arrivals
        )
        zeroed = [
            change.t for i, kind, change in trace.local_changes
            if kind == "overflow" and change.new == 0.0
        ]
        assert zeroed == [192]
        assert (192, False) in verdicts
        assert (64, True) in verdicts and (256, True) in verdicts
        assert policy.phase_boundaries == list(range(delay, trace.slots, delay))

    def test_pass_quiet_boundary_refuses_live_overflow(self):
        policy = _phased(2, 4)
        policy.step(0, [1.0, 1.0])
        policy.sessions[1].channels.overflow_link.set(0, 0.5)
        boundary = policy.next_boundary
        assert not policy.pass_quiet_boundary(boundary, [1.0, 1.0])
        assert policy.phase_boundaries == []
        assert policy.next_boundary == boundary
        policy.sessions[1].channels.overflow_link.set(1, 0.0)
        assert policy.pass_quiet_boundary(boundary, [1.0, 1.0])
        assert policy.phase_boundaries == [boundary]
        assert policy.next_boundary == boundary + 4

    @pytest.mark.parametrize("factory", [_phased, _continuous])
    @given(seed=seeds)
    @_SETTINGS
    def test_random_slicing_across_spans(self, factory, seed):
        rng = np.random.default_rng(seed)
        arrivals = _multi_streams(seed % 1000, slots=240)[
            ["calm", "dust", "reduce-heavy"][seed % 3]
        ]
        reference = MultiEngineState(factory(), arrivals, vector=False)
        reference.run()
        state = MultiEngineState(factory(), arrivals, vector=True)
        while not state.done:
            state.step(int(rng.integers(1, 40)))
        _assert_multi_traces_identical(state.finalize(), reference.finalize())
        if factory is _phased:
            assert state.policy.phase_boundaries == reference.policy.phase_boundaries

    @given(
        seed=seeds,
        k=st.integers(min_value=1, max_value=6),
        offline_delay=st.integers(min_value=1, max_value=9),
        rate=st.floats(min_value=0.1, max_value=1.5),
        continuous=st.booleans(),
    )
    @_SETTINGS
    def test_fuzz_k_delay_rates(self, seed, k, offline_delay, rate, continuous):
        """Rates are drawn relative to the initial quantum B_O/k = 4, so
        both keep-up spans and overflowing bursts occur."""
        rng = np.random.default_rng(seed)
        slots = int(rng.integers(1, 160))
        levels = rng.uniform(0.0, 4.0 * rate, size=(slots, k))
        arrivals = np.where(rng.random((slots, k)) < 0.05, 8.0 * levels, levels)
        cls = ContinuousMultiSession if continuous else PhasedMultiSession
        _, vector_policy, scalar_policy = _multi_two_way(
            lambda: cls(k, 4.0 * k, offline_delay), arrivals
        )
        if not continuous:
            assert vector_policy.phase_boundaries == scalar_policy.phase_boundaries


class TestBatched:
    def test_batched_matches_per_session(self):
        rng = np.random.default_rng(31)
        matrix = np.repeat(rng.uniform(1, 12, size=(6, 4)), 250, axis=1)
        batched = run_batched(_policy, matrix)
        for row, trace in zip(matrix, batched):
            _assert_single_identical(
                trace, run_single_session(_policy(), row, vector=False)
            )

    def test_batched_validates_shape(self):
        with pytest.raises(ConfigError, match="2-dimensional"):
            run_batched(_policy, np.ones(10))

    def test_batched_summary_mode(self):
        rng = np.random.default_rng(37)
        matrix = rng.uniform(0, 8, size=(3, 600))
        summaries = run_batched(_policy, matrix, collect="summary")
        traces = run_batched(_policy, matrix, collect="trace")
        for summary, trace in zip(summaries, traces):
            assert summary.slots == len(trace.allocation)
            assert summary.horizon == trace.horizon
            # Aggregates fold in bulk order, not slot order, so totals
            # agree to rounding, not bit-for-bit.
            assert summary.total_delivered == pytest.approx(trace.total_delivered)
            assert summary.total_arrived == pytest.approx(trace.total_arrived)
            assert set(summary.delay_histogram) == set(trace.delay_histogram)
            for delay, bits in trace.delay_histogram.items():
                assert summary.delay_histogram[delay] == pytest.approx(bits)
            assert summary.max_backlog == trace.backlog.max()
            assert summary.max_delay == trace.max_delay

    def test_runner_export(self):
        from repro.runner import run_session_batch

        matrix = np.ones((2, 50))
        out = run_session_batch(_policy, matrix)
        assert len(out) == 2
