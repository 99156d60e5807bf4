"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest perfbench -q

* the correctness checks can fail: a tampered trace, a trace that changes
  between passes, and a failed experiment each count as failed operations;
* timed passes are scaled to the reference host by the calibration kernel;
* a tiny run of every workload, traced and untraced, prints every metric
  named in ``BENCHMARK.json`` with its unit;
* the benchmark refuses an oversubscribed sweep and a checkout without
  program source, printing no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import deck  # noqa: E402
import run  # noqa: E402
from measure import (  # noqa: E402
    REFERENCE_KERNEL_S,
    HostClock,
    Outcome,
    check_sweep,
    run_deck,
)
from repro.experiments.common import ExperimentResult  # noqa: E402
from repro.runner.batch import BatchReport  # noqa: E402


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _tampered(call: deck.Call, on_pass: int) -> deck.Call:
    """``call`` whose trace gets an impossible allocation on one pass."""
    passes = []

    def build() -> deck.Prepared:
        prepared = call.build()
        passes.append(None)
        number = len(passes)

        def invoke():
            trace = prepared.invoke()
            if number == on_pass:
                trace.allocation[len(trace.allocation) // 2] = 1e9
            return trace

        return deck.Prepared(invoke, prepared.certify)

    return deck.Call(call.label, build)


def _first_single_call() -> deck.Call:
    return next(c for c in deck.engine_deck(0, "tiny") if c.label.startswith("fig3/quiet"))


def test_untampered_call_is_certified():
    outcome = Outcome()
    run_deck([_first_single_call()], 0.0, outcome)
    assert (outcome.attempted, outcome.failed) == (1, 0)


def test_tampered_trace_fails_its_certificate():
    outcome = Outcome()
    run_deck([_tampered(_first_single_call(), on_pass=1)], 0.0, outcome)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "certificate failed" in outcome.failures[0]


def test_trace_that_changes_between_passes_fails():
    outcome = Outcome()
    call = _tampered(_first_single_call(), on_pass=2)
    run_deck([call], 0.0, outcome)
    run_deck([call], 0.0, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert "differs from the first pass" in outcome.failures[0]


def test_host_clock_scales_by_the_nearest_kernel_samples():
    clock = HostClock()
    clock.samples = [(0.0, 0.010), (1.0, 0.020), (2.0, 0.040), (3.0, 0.040)]
    assert clock.scale(0.4, 0.6) == pytest.approx(REFERENCE_KERNEL_S / 0.020)
    assert clock.scale(2.8, 3.0) == pytest.approx(REFERENCE_KERNEL_S / 0.040)
    assert clock.kernel_ms() == pytest.approx(30.0)


def test_timed_passes_are_scaled_to_the_reference_host():
    outcome = Outcome()
    clock = HostClock()
    run_deck([_first_single_call()], 0.0, outcome, clock)
    (raw,), (scaled,) = outcome.raw_passes_s, outcome.passes_s
    assert scaled == pytest.approx(raw * clock.scale(clock.samples[0][0], clock.samples[-1][0]))
    assert outcome.latencies_s == [scaled]


def test_failed_experiment_and_quarantined_shard_count():
    passed = ExperimentResult("E-A", "a", ["h"], [["1"]])
    passed.check("fine", True, "")
    failed = ExperimentResult("E-B", "b", ["h"], [["1"]])
    failed.check("broken", False, "")
    report = BatchReport(results=[passed, failed], jobs=1, experiments=3)
    outcome = Outcome()
    check_sweep(["E-A", "E-B", "E-C"], report, outcome)
    assert (outcome.attempted, outcome.failed) == (3, 2)


def test_benchmark_json_names_the_metrics_the_code_prints():
    spec = _benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        tuple(row) for row in run.PER_LAYER
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["engine", "observed", "sweep"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _benchmark_spec()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(
            line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
            for line in lines[:-1]
        )
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    if workload == "engine" and trace == "1":
        assert result["metrics"]["obs.calls"]["value"] == 0
    if workload == "observed" and trace == "1":
        assert result["metrics"]["sim.recorder.keepup_blocks"]["value"] == 0
        assert result["metrics"]["obs.calls"]["value"] > 0


def test_refuses_more_sweep_jobs_than_cpus():
    done = _run("--workload", "sweep", "--jobs", str(run.usable_cpus() + 1),
                "--seconds", "1", "--size", "tiny")
    assert done.returncode == 2
    assert "oversubscribed" in done.stderr
    assert not done.stdout.strip()


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
