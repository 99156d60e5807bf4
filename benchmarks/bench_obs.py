"""Observability overhead benchmarks: the engine with telemetry off vs on.

The acceptance bar for the obs subsystem is at most 5% more wall time
with telemetry enabled (and bit-identical traces either way — asserted in
tests/obs/).  Telemetry never selects engine code, so the bar must hold on
every stream shape, including the quiet ones the bulk-commit path covers.
Two streams, one per shape:

* ``poisson`` — bursty Poisson arrivals (mostly per-slot scalar steps);
* ``piecewise`` — a quiet piecewise-constant stream (mostly bulk commits).

Benchmark groups, recorded in BENCH_OBS.json on every bench run:

* ``obs-off`` — the run under the process-default DISABLED telemetry (the
  no-op registry/tracer/timer path);
* ``obs-on`` — the same run inside a live telemetry session;
* ``obs-gate`` — interleaved off/on timings; fails when the best
  telemetry-on time exceeds the best telemetry-off time by more than
  :data:`MAX_RATIO`.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.single_session import SingleSessionOnline
from repro.obs import DISABLED, Telemetry, telemetry_session
from repro.sim.engine import run_single_session

STREAMS = {
    "poisson": np.random.default_rng(7).poisson(5, size=20_000).astype(float),
    "piecewise": np.repeat(
        np.random.default_rng(11).uniform(1.0, 12.0, size=20), 10_000
    ),
}

#: Largest allowed telemetry-on / telemetry-off wall-time ratio.
MAX_RATIO = 1.05
#: Interleaved off/on pairs timed by the gate (best of each is compared).
GATE_ROUNDS = 15


def _run(stream: np.ndarray) -> float:
    policy = SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
    )
    return run_single_session(policy, stream).total_delivered


def _run_off(stream: np.ndarray) -> float:
    # The bench session installs a live telemetry (see conftest); force the
    # disabled path so this times the true no-op mode.
    with telemetry_session(DISABLED):
        return _run(stream)


def _run_on(stream: np.ndarray) -> float:
    # A fresh telemetry per round keeps registry dicts small so the
    # timing reflects steady-state emission, not unbounded growth.
    with telemetry_session(Telemetry()):
        return _run(stream)


def _overhead_ratio(stream: np.ndarray) -> float:
    """Best telemetry-on time over best telemetry-off time.

    The two modes alternate which runs first in each round, so slow drift
    on a shared host lands on both.
    """
    best = {_run_off: float("inf"), _run_on: float("inf")}
    for round_index in range(GATE_ROUNDS):
        order = list(best) if round_index % 2 == 0 else list(best)[::-1]
        for run in order:
            started = time.perf_counter()
            run(stream)
            best[run] = min(best[run], time.perf_counter() - started)
    return best[_run_on] / best[_run_off]


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.benchmark(group="obs-off")
def test_engine_telemetry_off(benchmark, stream):
    assert benchmark(_run_off, STREAMS[stream]) > 0


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.benchmark(group="obs-on")
def test_engine_telemetry_on(benchmark, stream):
    assert benchmark(_run_on, STREAMS[stream]) > 0


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.benchmark(group="obs-gate")
def test_telemetry_overhead_gate(benchmark, stream):
    ratio = benchmark.pedantic(
        _overhead_ratio, args=(STREAMS[stream],), rounds=1, iterations=1
    )
    assert ratio <= MAX_RATIO, (
        f"telemetry on costs {ratio:.3f}x telemetry off on the {stream} "
        f"stream (bound {MAX_RATIO}x)"
    )
