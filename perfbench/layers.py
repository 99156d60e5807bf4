"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``.  For a traced run it wraps the public
functions of each layer (listed in :data:`LAYERS`) with timing shims,
runs the workload, and puts the originals back.  Each shim

* counts the call and adds its wall time to the layer's busy time, counting
  only the outermost call when a layer re-enters itself (a combined policy
  stepping its inner phased policy is one ``core.policy`` call);
* charges its elapsed time to the enclosing shim as child time, so a
  layer's self time is its busy time minus the time its child spans cover;
* records one span (start, end, parent) for the coarse layers, kept in
  memory and written out at the end in the ``repro.obs.tracing`` JSONL
  layout, so ``python -m repro trace`` can summarise it.  Layers entered
  once per simulated slot (``hot``) are aggregated only: a span per slot
  would cost more memory than the run it describes.

Span times are whole microseconds since the tracer started; ``repro
trace`` labels them "slots" because its own spans count simulation slots.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import sys
import time
from dataclasses import dataclass, field

#: Spans kept in memory per traced run; later coarse spans are counted in
#: ``Tracer.dropped_spans`` instead of stored.
MAX_SPANS = 200_000


@dataclass(frozen=True)
class Layer:
    """One layer: the public functions it owns and how to trace them."""

    name: str
    #: ``module:function`` or ``module:Class.method`` targets.
    targets: tuple[str, ...]
    #: Entered about once per simulated slot: aggregate, keep no spans.
    hot: bool = False


LAYERS: tuple[Layer, ...] = (
    Layer(
        "sim.run",
        (
            "repro.sim.engine:run_single_session",
            "repro.sim.engine:run_multi_session",
            "repro.sim.vector:run_batched",
        ),
    ),
    Layer(
        "sim.recorder.record",
        (
            "repro.sim.recorder:SingleSessionRecorder.record",
            "repro.sim.recorder:MultiSessionRecorder.record",
            "repro.sim.vector:_SummaryCollector.record",
        ),
        hot=True,
    ),
    Layer(
        "sim.recorder.keepup",
        (
            "repro.sim.recorder:SingleSessionRecorder.record_keepup_block",
            "repro.sim.recorder:MultiSessionRecorder.record_keepup_block",
            "repro.sim.vector:_SummaryCollector.record_keepup_block",
        ),
        hot=True,
    ),
    Layer(
        "sim.recorder.finalize",
        (
            "repro.sim.recorder:SingleSessionRecorder.finalize",
            "repro.sim.recorder:MultiSessionRecorder.finalize",
            "repro.sim.vector:_SummaryCollector.finalize",
        ),
    ),
    Layer(
        "core.policy",
        (
            "repro.core.single_session:SingleSessionOnline.decide",
            "repro.core.phased:PhasedMultiSession.step",
            "repro.core.continuous:ContinuousMultiSession.step",
            "repro.core.combined:CombinedMultiSession.step",
            "repro.core.epoch:EpochDrivenMultiSession.step",
        ),
        hot=True,
    ),
    Layer(
        "core.stagekernel.scan",
        ("repro.core.stagekernel:StageKernel.scan",),
        hot=True,
    ),
    Layer(
        "network.serve",
        (
            "repro.network.queue:BitQueue.serve",
            "repro.network.channel:SessionChannels.serve",
        ),
        hot=True,
    ),
    Layer(
        "obs",
        (
            "repro.obs.registry:Counter.inc",
            "repro.obs.registry:Gauge.set",
            "repro.obs.registry:Histogram.observe",
        ),
        hot=True,
    ),
    Layer(
        "faults.signal",
        (
            "repro.faults.signaling:UnreliableSignaling.decide",
            "repro.faults.signaling:UnreliableMultiSignaling.step",
        ),
        hot=True,
    ),
    Layer(
        "verify.certify",
        (
            "repro.verify.certificates:certify",
            "repro.verify.certificates:certify_single",
            "repro.verify.certificates:certify_multi",
            "repro.verify.fairness:certify_max_min_trace",
            "repro.verify.fairness:certify_tier_trace",
        ),
    ),
    Layer("verify.oracle", ("repro.verify.oracle:min_changes_oracle",)),
    Layer(
        "traffic.feasible",
        (
            "repro.traffic.feasible:generate_feasible_stream",
            "repro.traffic.multi:generate_multi_feasible",
        ),
    ),
    # ArrivalProcess.generate is abstract: every subclass that defines
    # its own ``generate`` is wrapped (see _generate_targets).
    Layer("traffic.generate", ()),
    Layer(
        "runner.cache.load",
        (
            "repro.runner.cache:ContentCache.load_json",
            "repro.runner.cache:ContentCache.load_arrays",
        ),
    ),
    Layer(
        "runner.cache.store",
        (
            "repro.runner.cache:ContentCache.store_json",
            "repro.runner.cache:ContentCache.store_arrays",
        ),
    ),
    Layer("runner.batch", ("repro.runner.batch:run_batch",)),
    Layer("arena.cell", ("repro.arena.cells:run_cell",)),
    Layer(
        "adversary.score",
        (
            "repro.adversary.search:score_single",
            "repro.adversary.search:score_multi",
        ),
    ),
    # Keyed by the experiment id argument: one layer per id.
    Layer(
        "experiments",
        (
            "repro.experiments.registry:run",
            "repro.experiments.registry:run_point",
        ),
    ),
)


@dataclass
class LayerStats:
    """What the shims measured for one layer."""

    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    #: Layer-specific counts (slots recorded, cache hits, certified runs).
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


@dataclass
class _Frame:
    start: int
    child_ns: int = 0
    span: int = -1


def _resolve(target: str):
    """``module:Class.method`` -> (owner object, attribute name), or None
    when the program no longer has that function."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        return (owner, parts[-1]) if parts[-1] in owner.__dict__ else None
    return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None


def _generate_targets() -> list[tuple[type, str]]:
    """Every loaded ArrivalProcess subclass that defines ``generate``."""
    from repro.traffic.base import ArrivalProcess

    found: list[tuple[type, str]] = []
    pending = list(ArrivalProcess.__subclasses__())
    seen: set[type] = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "generate" in cls.__dict__:
            found.append((cls, "generate"))
    return found


class Tracer:
    """Install timing shims on every layer, collect stats and spans.

    Use as a context manager around the traced part of a run; entering
    installs the shims, leaving restores the original functions.  Stats
    accumulate across several ``with`` blocks of the same tracer.
    """

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[dict] = []
        self.dropped_spans = 0
        self._origin = time.perf_counter_ns()
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        #: Targets the program no longer defines (their layer reads 0).
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            return
        self.missing = []
        for layer in LAYERS:
            targets = []
            for target in layer.targets:
                resolved = _resolve(target)
                if resolved is None:
                    self.missing.append(target)
                else:
                    targets.append(resolved)
            if layer.name == "traffic.generate":
                targets = _generate_targets()
            for owner, attr in targets:
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                shim = self._shim(layer, original, attr)
                self._patches.append((owner, attr, original, shim))
        for owner, attr, original, shim in self._patches:
            _swap(owner, attr, original, shim)

    def uninstall(self) -> None:
        for owner, attr, original, shim in reversed(self._patches):
            _swap(owner, attr, shim, original)
        self._patches = []

    # -- the shim ---------------------------------------------------------

    def _shim(self, layer: Layer, original, attr: str):
        tracer = self
        name = layer.name
        keyed = name == "experiments"
        observe = _OBSERVERS.get(name)
        label = getattr(original, "__qualname__", attr)

        @functools.wraps(original)
        def shim(*args, **kwargs):
            key = f"experiments.{_experiment_id(args, kwargs)}" if keyed else name
            frame = _Frame(time.perf_counter_ns())
            stack = tracer._stack
            stack.append(frame)
            depth = tracer._depth.get(key, 0)
            tracer._depth[key] = depth + 1
            if not layer.hot:
                frame.span = tracer._open_span(label, key)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._depth[key] = depth
                elapsed = end - frame.start
                stats = tracer.stats.get(key)
                if stats is None:
                    stats = tracer.stats[key] = LayerStats()
                stats.self_ns += elapsed - frame.child_ns
                if depth == 0:
                    stats.calls += 1
                    stats.busy_ns += elapsed
                if stack:
                    stack[-1].child_ns += elapsed
                if frame.span >= 0:
                    tracer._close_span(frame.span, end)
            if observe is not None and depth == 0:
                observe(stats, args, result)
            return result

        return shim

    def _open_span(self, label: str, layer: str) -> int:
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return -1
        parent = next(
            (frame.span for frame in reversed(self._stack[:-1]) if frame.span >= 0),
            -1,
        )
        start = (self._stack[-1].start - self._origin) // 1000
        self.spans.append(
            {
                "name": label,
                "kind": layer,
                "t0": start,
                "t1": None,
                "attrs": {"id": len(self.spans), "parent": parent, "unit": "us"},
            }
        )
        return len(self.spans) - 1

    def _close_span(self, index: int, end: int) -> None:
        self.spans[index]["t1"] = (end - self._origin) // 1000

    # -- results ----------------------------------------------------------

    def layer(self, name: str) -> LayerStats:
        return self.stats.get(name, LayerStats())

    def export_jsonl(self, path) -> int:
        """Write the kept spans in the ``repro.obs.tracing`` JSONL layout."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        return len(self.spans)


def _swap(owner, attr: str, old, new) -> None:
    """Replace ``owner.attr`` (and, for a function, every name bound to it).

    Callers import layer functions by name (``from repro.sim.engine
    import run_single_session``), so patching the defining module alone
    would miss them.
    """
    setattr(owner, attr, new)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is old:
                namespace[key] = new


def _experiment_id(args, kwargs) -> str:
    if args:
        return str(args[0])
    return str(kwargs.get("experiment_id", "unknown"))


def _observe_keepup(stats: LayerStats, args, result) -> None:
    # record_keepup_block(self, arrivals | rows, ...): one block of slots.
    stats.add("slots", len(args[1]))


def _observe_load(stats: LayerStats, args, result) -> None:
    if result is not None:
        stats.add("hits")


def _observe_certify(stats: LayerStats, args, result) -> None:
    stats.add("reports")
    if getattr(result, "certified", False):
        stats.add("certified")


_OBSERVERS = {
    "sim.recorder.keepup": _observe_keepup,
    "verify.certify": _observe_certify,
    "runner.cache.load": _observe_load,
}


#: The engine entry points: one call each is one "engine call".
ENGINE_CALLS = (
    "repro.sim.engine:run_single_session",
    "repro.sim.engine:run_multi_session",
    "repro.sim.vector:run_batched",
)


class EngineCallMeter:
    """Slots and latency of every engine call a sweep makes.

    The experiments call the engine from pool workers, so the counts live
    in shared memory that forked workers inherit together with the shims.
    This is the only instrumentation of an untraced run: two clock reads
    and a locked increment per engine call, against calls that take
    milliseconds.
    """

    def __init__(self, capacity: int = 1 << 20):
        context = multiprocessing.get_context("fork")
        self.capacity = capacity
        self._lock = context.Lock()
        self._count = context.RawValue("q", 0)
        self._slots = context.RawValue("q", 0)
        self._samples = context.RawArray("d", capacity)
        self._patches: list[tuple[object, str, object, object]] = []

    @property
    def calls(self) -> int:
        return self._count.value

    @property
    def slots(self) -> int:
        return self._slots.value

    def latencies(self) -> list[float]:
        return list(self._samples[: min(self.calls, self.capacity)])

    def __enter__(self) -> "EngineCallMeter":
        for target in ENGINE_CALLS:
            resolved = _resolve(target)
            if resolved is None:
                continue
            owner, attr = resolved
            original = getattr(owner, attr)
            shim = self._shim(original)
            self._patches.append((owner, attr, original, shim))
            _swap(owner, attr, original, shim)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, shim in reversed(self._patches):
            _swap(owner, attr, shim, original)
        self._patches = []

    def _shim(self, original):
        lock, count, slots, samples = self._lock, self._count, self._slots, self._samples
        capacity = self.capacity

        @functools.wraps(original)
        def shim(*args, **kwargs):
            begin = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - begin
            runs = result if isinstance(result, list) else [result]
            simulated = sum(getattr(run, "slots", 0) for run in runs)
            with lock:
                index = count.value
                count.value = index + 1
                slots.value += simulated
            if index < capacity:
                samples[index] = elapsed
            return result

        return shim
