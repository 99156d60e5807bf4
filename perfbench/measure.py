"""The timed loops: one for call decks, one for experiment sweeps.

Both are closed loops: the next call is issued only after the previous one
returned.  Correctness is checked outside the timed regions:

* deck calls — an untimed warm-up pass replays every trace through its
  certificate; every timed pass must reproduce the warm-up pass's trace
  digest bit for bit;
* sweeps — every experiment's guarantee checks must pass, no shard may be
  quarantined, and every sweep must reproduce the first sweep's report
  bytes.

Every failed operation is counted against the attempted ones.

Every reported time is scaled to a reference host speed by
:class:`HostClock`, which times a fixed calibration kernel between calls.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.runner import batch
from repro.runner.cache import use_cache

from deck import slots_of, trace_digest
from layers import EngineCallMeter


#: Seconds the calibration kernel takes on the reference host: the speed
#: every reported time is scaled to (a 2-vCPU x86-64 host at its fastest).
REFERENCE_KERNEL_S = 0.0125
#: Loop seconds between two calibration samples (about 3% of the loop).
SAMPLE_EVERY_S = 0.5

_KERNEL_INPUT = np.random.default_rng(0).random(50_000)


def calibration_kernel() -> None:
    """Fixed work in the program's own mix: an interpreted loop over a
    dict, then numpy scans and sorts."""
    total, table = 0.0, {}
    for index in range(60_000):
        total += index * 0.5
        table[index & 1023] = total
    for _ in range(10):
        np.sort(np.cumsum(_KERNEL_INPUT))


class HostClock:
    """The host's speed over a run, sampled by timing a fixed kernel.

    On a shared host the CPU speed a process gets swings: on the 2-vCPU
    host this benchmark was written on, the kernel took 12 to 19 ms within
    one minute, and deck pass times moved with it (correlation 0.94 over
    76 passes).  A time measured in ``[begin, end]`` is scaled by
    ``REFERENCE_KERNEL_S`` over the kernel time around it, so a metric
    moves with the program and not with the host.  The kernel is
    benchmark code: a change to the program cannot move it.
    """

    def __init__(self) -> None:
        #: (midpoint, seconds) of every kernel run, in time order.
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        begin = time.perf_counter()
        calibration_kernel()
        end = time.perf_counter()
        self.samples.append(((begin + end) / 2, end - begin))

    def due(self) -> bool:
        return (not self.samples
                or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S)

    def scale(self, begin: float, end: float) -> float:
        """Reference seconds per measured second in ``[begin, end]``: the
        median kernel time of the three samples nearest its midpoint."""
        at = (begin + end) / 2
        index = bisect.bisect(self.samples, at, key=lambda sample: sample[0])
        near = sorted(self.samples[max(0, index - 3): index + 3],
                      key=lambda sample: abs(sample[0] - at))[:3]
        return REFERENCE_KERNEL_S / statistics.median(seconds for _, seconds in near)

    def kernel_ms(self) -> float:
        """Median kernel time over the run, in milliseconds."""
        return 1000.0 * statistics.median(seconds for _, seconds in self.samples)


@dataclass
class Outcome:
    """What one loop measured and checked."""

    #: Every timed call, in reference-host seconds (see HostClock).
    latencies_s: list[float] = field(default_factory=list)
    #: Each full pass over the fixed batch of work, in reference-host seconds.
    passes_s: list[float] = field(default_factory=list)
    #: The same passes in measured wall seconds, for the report.
    raw_passes_s: list[float] = field(default_factory=list)
    slots: int = 0
    #: Slots simulated in each pass of ``passes_s`` (deck workloads only).
    pass_slots: list[int] = field(default_factory=list)
    #: Reference-host seconds spent inside timed calls.
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: First-pass digest per deck entry or experiment, in order.
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def slots_per_s(self) -> float:
        """Median over passes of slots per second, or total over total.

        A deck pass is a fixed batch of work, so the median pass rate
        ignores a pass slowed by something outside the program.
        """
        if self.pass_slots:
            return statistics.median(
                slots / seconds for slots, seconds in zip(self.pass_slots, self.passes_s)
            )
        return self.slots / self.busy_s if self.busy_s else 0.0

    def digest(self) -> str:
        """sha256 over the per-entry digests, in deck or registry order."""
        joined = "\n".join(f"{key} {value}" for key, value in self.digests.items())
        return hashlib.sha256(joined.encode()).hexdigest()


def run_deck(calls, seconds: float, outcome: Outcome,
             clock: HostClock | None = None) -> None:
    """Pass over ``calls`` until ``seconds`` have elapsed (at least once).

    Only the engine call is timed.  Building the policy, certifying,
    digesting and calibrating happen between calls, outside the timed
    region.  A call's first trace is certified; every later trace must
    match its digest.  Without a ``clock`` the passes are checked but
    record no timing: the warm-up pass before the timed loop.
    """
    started = time.perf_counter()
    timings: list[list[tuple[float, float]]] = []  # (begin, end) per pass
    slots: list[int] = []  # per pass
    while not timings or time.perf_counter() - started < seconds:
        timings.append([])
        slots.append(0)
        for call in calls:
            if clock is not None and clock.due():
                clock.sample()
            prepared = call.build()
            outcome.attempted += 1
            begin = time.perf_counter()
            try:
                trace = prepared.invoke()
            except Exception as exc:  # a failed call is counted, not fatal
                outcome.fail(f"{call.label}: raised {type(exc).__name__}: {exc}")
                continue
            timings[-1].append((begin, time.perf_counter()))
            slots[-1] += slots_of(trace)
            digest = trace_digest(trace)
            known = outcome.digests.get(call.label)
            if known is None:
                outcome.digests[call.label] = digest
                reports = prepared.certify(trace)
                bad = [report.label for report in reports if not report.certified]
                if bad:
                    outcome.fail(f"{call.label}: certificate failed ({', '.join(bad)})")
            elif digest != known:
                outcome.fail(f"{call.label}: trace differs from the first pass")
    if clock is None:
        return
    clock.sample()
    for calls_timed, pass_slots in zip(timings, slots):
        scaled = [(end - begin) * clock.scale(begin, end) for begin, end in calls_timed]
        outcome.latencies_s.extend(scaled)
        outcome.passes_s.append(sum(scaled))
        outcome.raw_passes_s.append(sum(end - begin for begin, end in calls_timed))
        outcome.pass_slots.append(pass_slots)
        outcome.busy_s += sum(scaled)
        outcome.slots += pass_slots


def result_digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result.as_dict(), sort_keys=True).encode()
    ).hexdigest()


def sweep_once(ids, seed: int, scale: float, jobs: int, workdir: Path,
               outcome: Outcome):
    """One cold ``run_batch`` over ``ids``; returns (wall seconds, report).

    The content cache is a fresh empty directory, removed afterwards.
    """
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    use_cache(cache_dir)
    try:
        begin = time.perf_counter()
        report = batch.run_batch(list(ids), seed=seed, scale=scale, jobs=jobs)
        wall = time.perf_counter() - begin
    finally:
        use_cache(None)
        shutil.rmtree(cache_dir, ignore_errors=True)
    check_sweep(ids, report, outcome)
    return wall, report


def check_sweep(ids, report, outcome: Outcome) -> None:
    """Count every experiment as one operation and check it."""
    by_id = {result.experiment_id: result for result in report.results}
    quarantined = {shard.experiment_id for shard in report.failed}
    for experiment_id in ids:
        outcome.attempted += 1
        result = by_id.get(experiment_id)
        if result is None or experiment_id in quarantined:
            outcome.fail(f"{experiment_id}: no result (shard quarantined)")
            continue
        if not result.all_passed:
            names = [check.name for check in result.checks if not check.passed]
            outcome.fail(f"{experiment_id}: guarantee checks failed: {names}")
            continue
        digest = result_digest(result)
        known = outcome.digests.setdefault(experiment_id, digest)
        if digest != known:
            outcome.fail(f"{experiment_id}: report differs from the first sweep")


def run_sweeps(ids, seed: int, scale: float, jobs: int, workdir: Path,
               seconds: float, outcome: Outcome, meter: EngineCallMeter,
               clock: HostClock) -> None:
    """Cold sweeps back to back until ``seconds`` have elapsed (at least one).

    The kernel is timed before every sweep and after the last, while no
    pool worker runs.
    """
    started = time.perf_counter()
    sweeps = []  # (begin, end, wall, first metered call, end of its calls)
    with meter:
        while not sweeps or time.perf_counter() - started < seconds:
            clock.sample()
            first_call, begin = meter.calls, time.perf_counter()
            wall, _ = sweep_once(ids, seed, scale, jobs, workdir, outcome)
            sweeps.append((begin, time.perf_counter(), wall, first_call, meter.calls))
    clock.sample()
    latencies = meter.latencies()
    for begin, end, wall, first_call, last_call in sweeps:
        factor = clock.scale(begin, end)
        outcome.passes_s.append(wall * factor)
        outcome.raw_passes_s.append(wall)
        outcome.busy_s += wall * factor
        outcome.latencies_s.extend(seconds * factor for seconds in latencies[first_call:last_call])
    outcome.slots += meter.slots
