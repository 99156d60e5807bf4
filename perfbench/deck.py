"""The ``engine`` and ``observed`` call decks.

A deck is a fixed list of engine calls built from the seed before any
timing starts: every arrival array comes from ``repro.traffic``, and the
program only ever receives arrays.  The structure of a deck (how many
calls, which policies, which horizons and rates) is the same for every
seed; the seed only changes the random draws, so runs on different seeds
do the same amount of the same kind of work.

Each :class:`Call` builds a fresh :class:`Prepared` call before it is timed:
the policy, fault plan and monitors are constructed outside the timed
region, which covers only the engine call itself (and, for ``observed``,
the telemetry session around it).  ``Prepared.certify`` replays the trace
through ``repro.verify`` with the bounds of its policy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.combined import CombinedMultiSession
from repro.core.continuous import ContinuousMultiSession
from repro.core.maxminfair import MaxMinFairAllocator
from repro.core.phased import PhasedMultiSession
from repro.core.prioritytier import PriorityTierAllocator
from repro.core.single_session import SingleSessionOnline
from repro.faults import RetryPolicy, UnreliableSignaling
from repro.faults.plan import standard_plan
from repro.obs.runtime import telemetry_session
from repro.params import OfflineConstraints
from repro.sim import engine, vector
from repro.traffic import (
    ConstantRate,
    OnOffBursts,
    PoissonArrivals,
    generate_feasible_stream,
    generate_multi_feasible,
)
from repro.verify import (
    certify_max_min_trace,
    certify_multi,
    certify_single,
    certify_tier_trace,
    combined_bounds,
    continuous_bounds,
    phased_bounds,
    single_session_bounds,
)
from repro.verify.report import CertificateReport

try:  # the soft runtime monitors may be folded into repro.verify later
    from repro.sim import invariants
except ImportError:  # pragma: no cover - depends on the program version
    invariants = None

#: The Figure 3 comparator every single-session call is built against
#: (the constants of ``benchmarks/bench_engine.py`` and the E-T6 scenario).
OFFLINE = OfflineConstraints(bandwidth=64.0, delay=8, utilization=0.25, window=16)
#: Sessions in every multi-session call.
K = 8
#: Epoch allocators share ``2 * B_O`` and re-decide every ``D_O`` slots.
EPOCH_CAPACITY = 2.0 * OFFLINE.bandwidth
#: Fault intensity of the faulted ``observed`` calls (``standard_plan``).
FAULT_INTENSITY = 0.3
_RETRY = RetryPolicy(max_attempts=4, base_backoff=1, backoff_factor=2.0)


@dataclass
class Prepared:
    """One ready-to-time engine call."""

    invoke: Callable[[], object]
    certify: Callable[[object], list[CertificateReport]]


@dataclass(frozen=True)
class Call:
    """One deck entry: a label and the function that prepares the call."""

    label: str
    build: Callable[[], Prepared]


@dataclass(frozen=True)
class Size:
    """Horizons and repeat counts of one deck size."""

    quiet_slots: int
    quiet_calls: int
    bursty_slots: int
    poisson_rates: tuple[float, ...]
    onoff_calls: int
    batch_rows: int
    batch_slots: int
    certified_slots: int
    #: Horizon of each multi-session policy on (calm, certified) inputs.
    multi_slots: dict[str, tuple[int, int]]


def _multi_slots(calm: dict[str, int], certified: dict[str, int]):
    return {name: (calm[name], certified[name]) for name in calm}


_TINY_MULTI_SLOTS = {
    name: (200, 200)
    for name in ("phased", "continuous", "combined", "max-min", "priority-tier")
}

# Horizons are chosen so that every call of a full deck takes about the
# same time (about 100 ms in ``engine`` and 55 ms in ``observed`` on a
# 2-vCPU x86-64 host): the calls' latencies then form one cluster, and
# ``run_p50_ms``/``run_p90_ms`` do not sit on the edge between a fast and
# a slow group of calls, where a small shift moves them a long way.
ENGINE_SIZES = {
    "full": Size(
        100_000, 4, 12_000, (4.0, 6.0, 10.0, 12.0), 3, 8, 20_000, 0,
        _multi_slots(
            {"phased": 4_500, "continuous": 1_400, "combined": 1_000,
             "max-min": 4_000, "priority-tier": 3_000},
            {"phased": 1_500, "continuous": 1_500, "combined": 1_000,
             "max-min": 1_400, "priority-tier": 1_200},
        ),
    ),
    "tiny": Size(
        4_000, 1, 1_000, (6.0,), 1, 2, 1_000, 0,
        _TINY_MULTI_SLOTS,
    ),
}
OBSERVED_SIZES = {
    "full": Size(
        4_000, 2, 4_000, (5.0, 9.0), 2, 0, 0, 4_000,
        _multi_slots(
            {"phased": 600, "continuous": 600, "combined": 500,
             "max-min": 600, "priority-tier": 600},
            {"phased": 600, "continuous": 600, "combined": 500,
             "max-min": 600, "priority-tier": 600},
        ),
    ),
    "tiny": Size(
        2_000, 1, 600, (6.0,), 1, 0, 0, 600,
        _TINY_MULTI_SLOTS,
    ),
}

#: Segment length of the piecewise-constant streams: long constant-rate
#: stretches between allocation events, the shape bulk commits target.
#: Fifty segments per quiet call keep its cost from hanging on a few draws.
SEGMENT = 2_000
MULTI_SEGMENT = 1_000


# -- inputs -----------------------------------------------------------------


def piecewise(rng: np.random.Generator, slots: int, segment: int,
              low: float, high: float, k: int | None = None) -> np.ndarray:
    """Piecewise-constant rates, one uniform level per segment (and session)."""
    pieces = -(-slots // segment)
    columns = 1 if k is None else k
    levels = rng.uniform(low, high, size=(pieces, columns))
    blocks = [
        np.stack(
            [ConstantRate(level).generate(segment, rng) for level in row], axis=1
        )
        for row in levels
    ]
    stream = np.concatenate(blocks)[:slots]
    return stream[:, 0] if k is None else stream


def fig3() -> SingleSessionOnline:
    return SingleSessionOnline(
        max_bandwidth=OFFLINE.bandwidth,
        offline_delay=OFFLINE.delay,
        offline_utilization=OFFLINE.utilization,
        window=OFFLINE.window,
    )


MULTI_POLICIES: dict[str, Callable[[], object]] = {
    "phased": lambda: PhasedMultiSession(K, OFFLINE.bandwidth, OFFLINE.delay),
    "continuous": lambda: ContinuousMultiSession(K, OFFLINE.bandwidth, OFFLINE.delay),
    "combined": lambda: CombinedMultiSession(
        K, OFFLINE.bandwidth, OFFLINE.delay, OFFLINE.utilization, OFFLINE.window
    ),
    "max-min": lambda: MaxMinFairAllocator(K, capacity=EPOCH_CAPACITY, period=OFFLINE.delay),
    "priority-tier": lambda: PriorityTierAllocator(
        K, capacity=EPOCH_CAPACITY, period=OFFLINE.delay
    ),
}


# -- certification ------------------------------------------------------------


def certify_fig3(feasible: bool, profile=None):
    bounds = single_session_bounds(OFFLINE, feasible=feasible)

    def check(trace) -> list[CertificateReport]:
        return [certify_single(trace, bounds, profile=profile, label="fig3")]

    return check


def certify_policy(name: str, policy, feasible: bool, profiles=None):
    """The certificate that matches a multi-session policy."""
    if name == "max-min":
        return lambda trace: [
            certify_max_min_trace(
                trace, capacity=policy.capacity, period=policy.period,
                quantum=policy.quantum, label=name,
            )
        ]
    if name == "priority-tier":
        return lambda trace: [
            certify_tier_trace(
                trace, capacity=policy.capacity, period=policy.period,
                quantum=policy.quantum, tiers=list(policy.tiers),
                floors=list(policy.floors), label=name,
            )
        ]
    if name == "phased":
        bounds = phased_bounds(OFFLINE.bandwidth, OFFLINE.delay, K, feasible=feasible)
    elif name == "continuous":
        bounds = continuous_bounds(OFFLINE.bandwidth, OFFLINE.delay, K, feasible=feasible)
    else:
        # The multi-feasible generator certifies (B_O, D_O) only; the
        # combined theorem also needs (U_O, W), so only the unconditional
        # checks apply to it.
        bounds = combined_bounds(OFFLINE, K, feasible=False)
        profiles = None
    return lambda trace: [
        certify_multi(trace, bounds, profiles=profiles, label=name)
    ]


def monitor_report(log) -> CertificateReport:
    """A softened monitor log as one certificate check."""
    report = CertificateReport(label="soft monitors")
    report.add(
        "runtime-monitors", "sim.invariants", len(log) == 0,
        f"{len(log)} soft violations recorded",
    )
    return report


# -- trace digests ----------------------------------------------------------


def trace_digest(trace) -> str:
    """sha256 over a trace's arrays and event lists (or a list of traces)."""
    digest = hashlib.sha256()
    for item in trace if isinstance(trace, list) else [trace]:
        for name, value in sorted(vars(item).items()):
            digest.update(name.encode())
            if isinstance(value, np.ndarray):
                digest.update(str(value.shape).encode())
                digest.update(np.ascontiguousarray(value).tobytes())
            else:
                digest.update(repr(value).encode())
    return digest.hexdigest()


def slots_of(trace) -> int:
    if isinstance(trace, list):
        return sum(item.slots for item in trace)
    return trace.slots


# -- the engine deck --------------------------------------------------------


def _single(label, arrivals) -> Call:
    def build() -> Prepared:
        policy = fig3()
        return Prepared(
            lambda: engine.run_single_session(policy, arrivals),
            certify_fig3(False),
        )

    return Call(label, build)


def _batched(label, matrix) -> Call:
    def build() -> Prepared:
        check = certify_fig3(False)
        return Prepared(
            lambda: vector.run_batched(fig3, matrix),
            lambda traces: [report for trace in traces for report in check(trace)],
        )

    return Call(label, build)


def _multi(label, name, arrivals, feasible, profiles=None) -> Call:
    def build() -> Prepared:
        policy = MULTI_POLICIES[name]()
        return Prepared(
            lambda: engine.run_multi_session(policy, arrivals),
            certify_policy(name, policy, feasible, profiles),
        )

    return Call(label, build)


def _multi_inputs(rng, seed: int, size: Size, name: str):
    """Calm and certified inputs at ``name``'s horizons."""
    calm_slots, certified_slots = size.multi_slots[name]
    calm = piecewise(rng, calm_slots, MULTI_SEGMENT, 0.5, 4.0, k=K)
    certified = generate_multi_feasible(
        K, OFFLINE.bandwidth, OFFLINE.delay, certified_slots,
        segments=4, seed=seed, min_segment=4 * OFFLINE.delay,
    )
    return calm, certified


def engine_deck(seed: int, size: str = "full") -> list[Call]:
    """Telemetry off, no faults, no monitors: the vectorized core's deck."""
    spec = ENGINE_SIZES[size]
    rng = np.random.default_rng(seed)
    calls: list[Call] = []
    for index in range(spec.quiet_calls):
        stream = piecewise(rng, spec.quiet_slots, SEGMENT, 1.0, 12.0)
        calls.append(_single(f"fig3/quiet#{index}", stream))
    for rate in spec.poisson_rates:
        stream = PoissonArrivals(rate).generate(spec.bursty_slots, rng)
        calls.append(_single(f"fig3/poisson{rate:g}", stream))
    for index in range(spec.onoff_calls):
        stream = OnOffBursts(on_rate=24.0, mean_on=40, mean_off=80).generate(
            spec.bursty_slots, rng
        )
        calls.append(_single(f"fig3/onoff#{index}", stream))
    matrix = np.stack(
        [piecewise(rng, spec.batch_slots, SEGMENT, 1.0, 12.0)
         for _ in range(spec.batch_rows)]
    )
    calls.append(_batched(f"fig3/batched{spec.batch_rows}", matrix))

    for name in MULTI_POLICIES:
        calm, certified = _multi_inputs(rng, seed, spec, name)
        calls.append(_multi(f"{name}/calm", name, calm, feasible=False))
        calls.append(
            _multi(f"{name}/certified", name, certified.arrivals,
                   feasible=True, profiles=certified.profiles)
        )
    return calls


# -- the observed deck --------------------------------------------------------


def _observed_single(label, arrivals, *, faulted=False, monitored=False,
                     feasible=False, profile=None, seed=0) -> Call:
    def build() -> Prepared:
        policy = fig3()
        kwargs = {}
        if faulted:
            plan = standard_plan(FAULT_INTENSITY, len(arrivals), seed=seed)
            policy = UnreliableSignaling(policy, plan, _RETRY)
            kwargs = {"faults": plan, "max_drain_slots": 200_000}
        log = None
        if monitored and invariants is not None:
            monitors = [
                invariants.Claim2Monitor(online_delay=2 * OFFLINE.delay),
                invariants.DelayMonitor(2 * OFFLINE.delay),
                invariants.MaxBandwidthMonitor(OFFLINE.bandwidth),
            ]
            log = invariants.soften(monitors)
            kwargs["monitors"] = monitors

        def invoke():
            with telemetry_session():
                return engine.run_single_session(policy, arrivals, **kwargs)

        check = certify_fig3(feasible and not faulted, profile)
        if log is None:
            return Prepared(invoke, check)
        return Prepared(invoke, lambda trace: check(trace) + [monitor_report(log)])

    return Call(label, build)


def _observed_multi(label, name, arrivals, *, monitored=False,
                    feasible=False, profiles=None) -> Call:
    def build() -> Prepared:
        policy = MULTI_POLICIES[name]()
        check = certify_policy(name, policy, feasible, profiles)
        kwargs = {}
        log = None
        if monitored and invariants is not None:
            factor = 2.0 if name == "phased" else 3.0
            monitors = [
                invariants.MaxBandwidthMonitor((2.0 + factor) * OFFLINE.bandwidth),
                invariants.OverflowBoundMonitor(OFFLINE.bandwidth, factor),
                invariants.RegularBoundMonitor(OFFLINE.bandwidth, K),
                invariants.DelayMonitor(2 * OFFLINE.delay),
            ]
            log = invariants.soften(monitors)
            kwargs["monitors"] = monitors

        def invoke():
            with telemetry_session():
                return engine.run_multi_session(policy, arrivals, **kwargs)

        if log is None:
            return Prepared(invoke, check)
        return Prepared(invoke, lambda trace: check(trace) + [monitor_report(log)])

    return Call(label, build)


def observed_deck(seed: int, size: str = "full") -> list[Call]:
    """The engine mix, smaller, with telemetry, faults and monitors on.

    Every call runs inside ``telemetry_session()``.  The six bursty and
    quiet single-session calls carry a ``standard_plan`` fault plan; the
    certified-input calls carry soft runtime monitors, which must record
    nothing.  Multi-session calls run unfaulted: under ``standard_plan``
    their drains can stall (the E-FAULT outcome), which would make the
    workload fail.  ``run_batched`` is left out: it always takes the
    vectorized path, and this deck measures the per-slot general loop.
    """
    spec = OBSERVED_SIZES[size]
    rng = np.random.default_rng(seed)
    calls: list[Call] = []
    for index in range(2):
        stream = generate_feasible_stream(
            OFFLINE, spec.certified_slots, segments=8, seed=seed + index,
            burstiness="blocks",
        )
        calls.append(
            _observed_single(
                f"fig3/certified#{index}+monitors", stream.arrivals,
                monitored=True, feasible=True, profile=stream.profile,
            )
        )
    for index in range(spec.quiet_calls):
        stream = piecewise(rng, spec.quiet_slots, SEGMENT // 4, 1.0, 12.0)
        calls.append(
            _observed_single(f"fig3/quiet#{index}+faults", stream,
                             faulted=True, seed=seed + index)
        )
    for index, rate in enumerate(spec.poisson_rates):
        stream = PoissonArrivals(rate).generate(spec.bursty_slots, rng)
        calls.append(
            _observed_single(f"fig3/poisson{rate:g}+faults", stream,
                             faulted=True, seed=seed + index)
        )
    for index in range(spec.onoff_calls):
        stream = OnOffBursts(on_rate=24.0, mean_on=40, mean_off=80).generate(
            spec.bursty_slots, rng
        )
        calls.append(
            _observed_single(f"fig3/onoff#{index}+faults", stream,
                             faulted=True, seed=seed + index)
        )

    inputs = {name: _multi_inputs(rng, seed, spec, name) for name in MULTI_POLICIES}
    for name in ("phased", "continuous"):
        calm, certified = inputs[name]
        calls.append(
            _observed_multi(f"{name}/certified+monitors", name,
                            certified.arrivals, monitored=True, feasible=True,
                            profiles=certified.profiles)
        )
        calls.append(_observed_multi(f"{name}/calm", name, calm))
    calls.append(_observed_multi("combined/calm", "combined", inputs["combined"][0]))
    calls.append(_observed_multi("max-min/calm", "max-min", inputs["max-min"][0]))
    calls.append(
        _observed_multi("priority-tier/certified", "priority-tier",
                        inputs["priority-tier"][1].arrivals)
    )
    return calls
