"""Engine path tests: the default run (bulk commits where eligible) is
bit-identical to the per-slot scalar step (``vector=False``) and to a
telemetry-on run, eligibility is gated (faults and monitors need every
slot stepped; telemetry does not), and the drain-slot cap behaves
identically on both paths."""

import numpy as np
import pytest

from repro.core.baselines import EqualSplitMultiSession, StaticAllocator
from repro.core.continuous import ContinuousMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError, SimulationError
from repro.obs import telemetry_session
from repro.sim.engine import run_multi_session, run_single_session
from repro.sim.invariants import DelayMonitor
from repro.traffic import generate_multi_feasible


def _policy():
    return SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
    )


def _vector(bulk):
    """``vector=`` for a parametrized path: auto (bulk) or scalar only."""
    return None if bulk else False


def _stream(horizon=2500, seed=13):
    return np.random.default_rng(seed).poisson(6, size=horizon).astype(float)


def _assert_single_identical(first, second):
    np.testing.assert_array_equal(first.arrivals, second.arrivals)
    np.testing.assert_array_equal(first.allocation, second.allocation)
    np.testing.assert_array_equal(first.delivered, second.delivered)
    np.testing.assert_array_equal(first.backlog, second.backlog)
    np.testing.assert_array_equal(first.dropped, second.dropped)
    assert first.delay_histogram == second.delay_histogram
    assert first.changes == second.changes
    assert first.stage_starts == second.stage_starts
    assert first.resets == second.resets


class TestSingleSessionBitIdentity:
    def test_fast_vs_general_loop(self):
        arrivals = _stream()
        fast = run_single_session(_policy(), arrivals)
        general = run_single_session(_policy(), arrivals, vector=False)
        _assert_single_identical(fast, general)

    def test_fast_vs_instrumented(self):
        arrivals = _stream(seed=21)
        fast = run_single_session(_policy(), arrivals)
        with telemetry_session():
            instrumented = run_single_session(_policy(), arrivals)
        _assert_single_identical(fast, instrumented)

    def test_no_drain_and_capacity(self):
        arrivals = _stream(horizon=500, seed=3)
        fast = run_single_session(StaticAllocator(4.0), arrivals, drain=False)
        general = run_single_session(
            StaticAllocator(4.0), arrivals, drain=False, vector=False
        )
        _assert_single_identical(fast, general)
        assert fast.slots == 500


class TestMultiSessionBitIdentity:
    @pytest.mark.parametrize("cls", [PhasedMultiSession, ContinuousMultiSession])
    def test_fast_vs_general_loop(self, cls):
        workload = generate_multi_feasible(
            3, offline_bandwidth=48, offline_delay=8, horizon=1200, seed=4
        )

        def run(**kwargs):
            policy = cls(3, offline_bandwidth=48, offline_delay=8)
            return run_multi_session(policy, workload.arrivals, **kwargs)

        fast = run()
        general = run(vector=False)
        np.testing.assert_array_equal(
            fast.regular_allocation, general.regular_allocation
        )
        np.testing.assert_array_equal(
            fast.overflow_allocation, general.overflow_allocation
        )
        np.testing.assert_array_equal(fast.delivered, general.delivered)
        np.testing.assert_array_equal(fast.backlog, general.backlog)
        assert fast.local_changes == general.local_changes
        assert fast.stage_starts == general.stage_starts
        assert fast.delay_histograms == general.delay_histograms


class TestEligibilityGating:
    def test_monitors_force_general_path(self):
        with pytest.raises(ConfigError, match="monitors"):
            run_single_session(
                _policy(), [1.0], monitors=[DelayMonitor(16)], vector=True
            )

    def test_telemetry_keeps_bulk_commits(self):
        """Telemetry never selects engine code: ``vector=True`` stays
        legal with telemetry on, and matches the scalar step."""
        arrivals = np.repeat([3.0, 5.0, 2.0], 400)
        with telemetry_session():
            bulk = run_single_session(_policy(), arrivals, vector=True)
        _assert_single_identical(
            bulk, run_single_session(_policy(), arrivals, vector=False)
        )

    def test_multi_monitors_force_general_path(self):
        policy = PhasedMultiSession(2, offline_bandwidth=8.0, offline_delay=4)
        with pytest.raises(ConfigError, match="monitors"):
            run_multi_session(
                policy, np.ones((3, 2)), monitors=[DelayMonitor(16)],
                vector=True,
            )


class TestDrainCap:
    """max_drain_slots exhaustion raises SimulationError on both paths
    (``bulk``: bulk commits where eligible, else the scalar step only)."""

    @pytest.mark.parametrize("bulk", [True, False])
    def test_single_session_cap_trips(self, bulk):
        with pytest.raises(SimulationError, match="failed to drain"):
            run_single_session(
                StaticAllocator(1e-9), [100.0],
                max_drain_slots=10, vector=_vector(bulk),
            )

    @pytest.mark.parametrize("bulk", [True, False])
    def test_multi_session_cap_trips(self, bulk):
        policy = EqualSplitMultiSession(2, offline_bandwidth=1e-9)
        with pytest.raises(SimulationError, match="failed to drain"):
            run_multi_session(
                policy, [[50.0, 50.0]],
                max_drain_slots=10, vector=_vector(bulk),
            )

    @pytest.mark.parametrize("bulk", [True, False])
    def test_zero_length_horizon_with_zero_cap(self, bulk):
        """An empty horizon has nothing to drain: the cap never trips."""
        trace = run_single_session(
            StaticAllocator(1.0), [], max_drain_slots=0, vector=_vector(bulk)
        )
        assert trace.slots == 0
        policy = EqualSplitMultiSession(2, offline_bandwidth=2.0)
        multi = run_multi_session(
            policy, np.zeros((0, 2)), max_drain_slots=0, vector=_vector(bulk)
        )
        assert multi.slots == 0

    @pytest.mark.parametrize("bulk", [True, False])
    def test_cap_exactly_sufficient(self, bulk):
        # 10 units at 1/slot: 9 extra slots drain what the horizon started.
        trace = run_single_session(
            StaticAllocator(1.0), [10.0], max_drain_slots=9, vector=_vector(bulk)
        )
        assert trace.backlog[-1] == pytest.approx(0.0)
        with pytest.raises(SimulationError, match="failed to drain"):
            run_single_session(
                StaticAllocator(1.0), [10.0],
                max_drain_slots=8, vector=_vector(bulk),
            )
