"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload engine --seed 0 --seconds 32 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which layer
it exercises):

* ``engine``   — back-to-back engine calls, telemetry off, no faults;
* ``observed`` — a smaller mix inside ``telemetry_session()``, with fault
  plans and soft runtime monitors (the per-slot general loop);
* ``sweep``    — cold-cache ``run_batch`` over every registered experiment.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` reruns the
workload with per-layer shims (``layers.py``) and prints the per-layer
metrics, the tracing overhead, and writes the spans to
``perfbench/out/<workload>-seed<seed>/spans.jsonl``.  The last line of
standard output is always the JSON result; every earlier line is a
human-readable report.  Exit code 2 means the benchmark could not run
(no program source, bad arguments); no result is printed then.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("engine", "observed", "sweep")
#: The seed a result is quoted on, and the seed kept back to recheck a
#: gain claim on inputs the change was not tuned against.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: ``run_batch`` scale of the sweep workload.  Below 0.3 some experiments'
#: guarantee checks fail (E-F1's burstiness check at 0.1), so ``--size
#: tiny`` shrinks the call decks only.
SWEEP_SCALE = 0.3

#: (name, unit, better): every end-to-end metric, on every workload.
END_TO_END = (
    ("slots_per_s", "slots/s", "higher"),
    ("run_p50_ms", "ms", "lower"),
    ("run_p90_ms", "ms", "lower"),
    ("sweep_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Experiment ids reported one by one in the traced sweep.
EXPERIMENT_IDS = (
    "E-ABL-FIFO", "E-ABL-GLOBAL", "E-ABL-HEADROOM", "E-ABL-QUANT",
    "E-ABL-WINDOW", "E-ADV", "E-ARENA", "E-BUF", "E-C", "E-F1", "E-F2",
    "E-FAULT", "E-INV", "E-LB", "E-PRICE", "E-ROB", "E-T14", "E-T17",
    "E-T6", "E-T7", "E-VER",
)

#: (name, unit): every per-layer metric, on every workload (0 where the
#: layer does not run).
PER_LAYER = (
    ("sim.run.calls", "count"),
    ("sim.run.busy_s", "s"),
    ("sim.run.self_s", "s"),
    ("sim.recorder.scalar_slots", "count"),
    ("sim.recorder.keepup_blocks", "count"),
    ("sim.recorder.bulk_slots", "count"),
    ("sim.bulk_slot_frac", "ratio"),
    ("sim.slots_per_block", "slots"),
    ("sim.recorder.finalize_s", "s"),
    ("core.policy.calls", "count"),
    ("core.policy.busy_s", "s"),
    ("core.policy.self_s", "s"),
    ("core.stagekernel.scan_calls", "count"),
    ("core.stagekernel.scan_s", "s"),
    ("network.serve.calls", "count"),
    ("network.serve.busy_s", "s"),
    ("obs.calls", "count"),
    ("obs.busy_s", "s"),
    ("faults.signal.calls", "count"),
    ("faults.signal.busy_s", "s"),
    ("verify.certify.calls", "count"),
    ("verify.certify.busy_s", "s"),
    ("verify.certified_frac", "ratio"),
    ("verify.oracle.calls", "count"),
    ("verify.oracle.busy_s", "s"),
    ("traffic.feasible.calls", "count"),
    ("traffic.feasible.busy_s", "s"),
    ("traffic.generate_s", "s"),
    ("runner.shard_jobs", "count"),
    ("runner.retries", "count"),
    ("runner.failed", "count"),
    ("runner.cache.hit_ratio", "ratio"),
    ("runner.parallel_efficiency", "ratio"),
    ("runner.inline_s", "s"),
    ("arena.cell.calls", "count"),
    ("arena.cell.busy_s", "s"),
    ("adversary.score.calls", "count"),
    ("adversary.score.busy_s", "s"),
    *((f"experiments.{eid}.busy_s", "s") for eid in EXPERIMENT_IDS),
    ("trace.slowdown", "ratio"),
    ("trace.base_s", "s"),
    ("host.kernel_ms", "ms"),
)


class UsageError(Exception):
    """The benchmark cannot run as asked; exit 2 without a result."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes (default and maximum: usable CPUs)",
    )
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks the engine and observed decks for the smoke test",
    )
    return parser.parse_args(argv)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise UsageError(f"no program source at {SOURCE / 'repro'}")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(1, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SOURCE / "repro").resolve():
        raise UsageError(f"imported repro from {repro.__file__}, not {SOURCE}")


def stamp(args, jobs: int) -> dict:
    import numpy

    from repro.obs.manifest import git_revision
    from repro.version import __version__

    rev = git_revision(ROOT) if (ROOT / ".git").exists() else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "jobs": jobs,
        "cpus": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": __version__,
        "git_rev": rev or "unknown",
    }


# -- metric helpers -----------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(outcome, setup_s: float) -> dict[str, float]:
    latencies = outcome.latencies_s
    return {
        "slots_per_s": outcome.slots_per_s(),
        "run_p50_ms": 1000.0 * statistics.median(latencies) if latencies else 0.0,
        "run_p90_ms": 1000.0 * percentile(latencies, 90),
        "sweep_s": statistics.median(outcome.passes_s) if outcome.passes_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def per_layer(tracer, extra: dict[str, float]) -> dict[str, float]:
    """Fold the tracer's layer stats into the PER_LAYER names."""
    ns = 1e-9

    def layer(name):
        return tracer.layer(name)

    record, keepup = layer("sim.recorder.record"), layer("sim.recorder.keepup")
    bulk = keepup.counts.get("slots", 0)
    certify = layer("verify.certify")
    load = layer("runner.cache.load")
    values = {
        "sim.recorder.scalar_slots": record.calls,
        "sim.recorder.keepup_blocks": keepup.calls,
        "sim.recorder.bulk_slots": bulk,
        "sim.bulk_slot_frac": bulk / (bulk + record.calls) if bulk + record.calls else 0.0,
        "sim.slots_per_block": bulk / keepup.calls if keepup.calls else 0.0,
        "sim.recorder.finalize_s": layer("sim.recorder.finalize").busy_ns * ns,
        "core.stagekernel.scan_calls": layer("core.stagekernel.scan").calls,
        "core.stagekernel.scan_s": layer("core.stagekernel.scan").busy_ns * ns,
        "verify.certified_frac": (
            certify.counts.get("certified", 0) / certify.counts["reports"]
            if certify.counts.get("reports") else 0.0
        ),
        "traffic.generate_s": layer("traffic.generate").busy_ns * ns,
        "runner.cache.hit_ratio": (
            load.counts.get("hits", 0) / load.calls if load.calls else 0.0
        ),
    }
    for name in ("sim.run", "core.policy"):
        values[f"{name}.self_s"] = layer(name).self_ns * ns
    for name in ("sim.run", "core.policy", "network.serve", "obs", "faults.signal",
                 "verify.certify", "verify.oracle", "traffic.feasible",
                 "arena.cell", "adversary.score"):
        values[f"{name}.calls"] = layer(name).calls
        values[f"{name}.busy_s"] = layer(name).busy_ns * ns
    for eid in EXPERIMENT_IDS:
        values[f"experiments.{eid}.busy_s"] = layer(f"experiments.{eid}").busy_ns * ns
    values.update(extra)
    return {name: values.get(name, 0) for name, _ in PER_LAYER}


# -- workloads ----------------------------------------------------------------


def timed_setups(build, import_s: float, clock) -> tuple[object, float]:
    """Run ``build`` SETUP_REPEATS times; (last result, ``setup_s``).

    ``setup_s`` is the import time plus the median build time, scaled to
    the reference host by kernel samples taken before and after the builds.
    """
    clock.sample()
    result, times = None, []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - begin)
    clock.sample()
    scale = clock.scale(clock.samples[-2][0], clock.samples[-1][0])
    return result, (import_s + statistics.median(times)) * scale


def deck_workload(args, import_s: float):
    import deck
    from layers import Tracer
    from measure import HostClock, Outcome, run_deck

    make = deck.engine_deck if args.workload == "engine" else deck.observed_deck

    def build():
        calls = make(args.seed, args.size)
        for call in calls:  # policy construction, kept out of the timing
            call.build()
        return calls

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer:
            build()
    clock = HostClock()
    calls, setup_s = timed_setups(build, import_s, clock)

    outcome = Outcome()
    run_deck(calls, 0.0, outcome)  # warm-up, certifies every trace
    if tracer is None:
        run_deck(calls, args.seconds, outcome, clock)
        return outcome, end_to_end(outcome, setup_s), None, clock

    # Same outcome for both halves: the traced passes must reproduce the
    # untraced traces bit for bit.
    run_deck(calls, args.seconds / 2, outcome, clock)
    untraced = list(outcome.passes_s)
    with tracer:
        run_deck(calls, args.seconds / 2, outcome, clock)
    base = statistics.median(untraced)
    extra = {
        "trace.slowdown": statistics.median(outcome.passes_s[len(untraced):]) / base,
        "trace.base_s": base,
        "host.kernel_ms": clock.kernel_ms(),
    }
    return outcome, per_layer(tracer, extra), tracer, clock


def sweep_workload(args, import_s: float, jobs: int, workdir: Path):
    from layers import EngineCallMeter, Tracer
    from measure import HostClock, Outcome, run_sweeps, sweep_once
    from repro.experiments import registry

    ids = registry.all_ids()
    scale = SWEEP_SCALE

    def cache_dir():  # the set-up a cold sweep needs beyond the imports
        shutil.rmtree(tempfile.mkdtemp(prefix="cache-", dir=workdir))

    clock = HostClock()
    _, setup_s = timed_setups(cache_dir, import_s, clock)

    if not args.trace:
        outcome = Outcome()
        meter = EngineCallMeter()
        run_sweeps(ids, args.seed, scale, jobs, workdir, args.seconds, outcome, meter,
                   clock)
        if meter.calls == 0:
            outcome.fail("no engine call was metered: pool workers did not inherit the shims")
        return outcome, end_to_end(outcome, setup_s), None, clock

    # One outcome for all three sweeps: pooled, inline and traced runs must
    # produce the same report bytes.
    outcome = Outcome()
    pooled_s, pooled = sweep_once(ids, args.seed, scale, jobs, workdir, outcome)
    inline_s, inline = sweep_once(ids, args.seed, scale, 1, workdir, outcome)
    tracer = Tracer()
    with tracer:
        traced_s, traced = sweep_once(ids, args.seed, scale, 1, workdir, outcome)
    reports = (pooled, inline, traced)
    extra = {
        "runner.shard_jobs": pooled.shard_jobs,
        "runner.retries": sum(report.retries for report in reports),
        "runner.failed": sum(len(report.failed) for report in reports),
        "runner.parallel_efficiency": inline_s / (jobs * pooled_s),
        "runner.inline_s": inline_s,
        "trace.slowdown": traced_s / inline_s,
        "trace.base_s": inline_s,
        "host.kernel_ms": clock.kernel_ms(),
    }
    return outcome, per_layer(tracer, extra), tracer, clock


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
        jobs = usable_cpus() if args.jobs is None else args.jobs
        if args.workload == "sweep" and not 1 <= jobs <= usable_cpus():
            raise UsageError(
                f"--jobs {jobs} must be between 1 and the {usable_cpus()} usable "
                "CPUs: an oversubscribed sweep time is not recorded"
            )
        if args.workload != "sweep":
            jobs = 1
    except UsageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from repro.experiments import registry

    import deck  # noqa: F401  (imports are part of set-up)
    import measure  # noqa: F401

    registry.all_ids()
    import_s = time.perf_counter() - _STARTED

    info = stamp(args, jobs)
    print("stamp " + json.dumps(info, sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.workload == "sweep":
            outcome, metrics, tracer, clock = sweep_workload(args, import_s, jobs, workdir)
        else:
            outcome, metrics, tracer, clock = deck_workload(args, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        trace_dir = OUT / f"{args.workload}-seed{args.seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        count = tracer.export_jsonl(trace_dir / "spans.jsonl")
        print(f"spans {count} written to {trace_dir / 'spans.jsonl'} "
              f"({tracer.dropped_spans} dropped, missing targets: {tracer.missing or 'none'})")

    units = dict(PER_LAYER) if args.trace else {name: unit for name, unit, _ in END_TO_END}
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"digest sha256 {outcome.digest()}")
    if outcome.raw_passes_s:
        print(f"host kernel {clock.kernel_ms():.3f} ms median over {len(clock.samples)} "
              f"samples (reference {1000 * measure.REFERENCE_KERNEL_S:g} ms); unscaled median "
              f"pass {statistics.median(outcome.raw_passes_s):.4f} s")
    print(f"error_rate {error_rate:.6f} ({outcome.failed} failed / "
          f"{outcome.attempted} attempted)")
    for failure in outcome.failures:
        print(f"failed: {failure}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
