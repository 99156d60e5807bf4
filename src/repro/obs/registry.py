"""The metrics registry: counters, gauges, and value histograms.

The registry is the single sink for everything the instrumented layers
emit — engine run loops, the core algorithms' stage/phase machinery, the
fault signaling plane, and the soft invariant monitors.  Instruments are
get-or-created by name (``registry.counter("engine.single.slots")``), so
emitters never coordinate and a snapshot is one dict.

Two implementations share the interface:

* :class:`MetricsRegistry` — the live registry (``enabled = True``).
* :class:`NullRegistry` — the default when telemetry is off: every lookup
  returns a shared do-nothing instrument, so instrumented code costs one
  attribute check (or nothing at all, when the emitter hoists the
  ``enabled`` flag out of its hot loop).

Histograms bucket by powers of two — the same quantization the paper's
allocator uses — so a queue-depth histogram reads directly against the
allocation ladder.
"""

from __future__ import annotations

import math
import threading

import numpy as np


def bucket_percentile(
    buckets: dict, count: int, q: float, maximum: float | None = None
) -> float:
    """Nearest-rank percentile over a power-of-two bucket dict.

    ``buckets`` maps upper bounds to hit counts (keys may be floats or
    the stringified bounds a snapshot carries).  Returns the smallest
    bucket bound whose cumulative count reaches rank ``ceil(q * count)``
    — exactly numpy's ``inverted_cdf`` quantile when every observation
    sits on a bucket boundary — clamped to the observed ``maximum`` so an
    estimate never exceeds reality.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q!r}")
    count = int(count)
    if count <= 0 or not buckets:
        return 0.0
    rank = max(1, math.ceil(q * count))
    cumulative = 0
    result = 0.0
    for bound in sorted(buckets, key=float):
        cumulative += int(buckets[bound])
        if cumulative >= rank:
            result = float(bound)
            break
    else:
        result = float(max(buckets, key=float))
    if maximum is not None and result > maximum:
        return maximum
    return result


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value:g})"


class Gauge:
    """A last-value instrument that also tracks its observed range."""

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1


def _fold_total(
    total: float, values: np.ndarray, heads: np.ndarray, runs: np.ndarray
) -> float:
    """``total`` plus every element of ``values``, added left to right.

    ``heads``/``runs`` are ``values`` run-length encoded.  When the prior
    total and every nonzero term are non-negative multiples of one power
    of two ``g`` and the sum stays below ``2**52 * g``, every partial sum
    is exact, so any exact summation — one product per run — equals the
    sequential one.  Otherwise the nonzero values are folded with
    ``np.add.accumulate`` (an exact zero leaves a running total unchanged,
    and the total is never -0.0).
    """
    terms = heads[heads != 0.0]
    if not terms.size:
        return total
    if total >= 0.0 and terms.min() > 0.0:
        grid_terms = np.append(terms, total) if total else terms
        mantissa, exponent = np.frexp(grid_terms)
        digits = (mantissa * 2.0**53).astype(np.int64)
        lowest_bit = np.frexp((digits & -digits).astype(float))[1] - 1
        grid = int((exponent - 53 + lowest_bit).min())
        exact = total + float(np.dot(heads, runs))
        if exact < math.ldexp(1.0, 52 + grid):
            return exact
    nonzero = values[values != 0.0]
    fold = np.empty(nonzero.size + 1)
    fold[0] = total
    fold[1:] = nonzero
    return float(np.add.accumulate(fold, out=fold)[-1])


class Histogram:
    """A value distribution with power-of-two buckets.

    ``observe(v)`` files ``v`` under the smallest power of two that is at
    least ``v`` (non-positive values land in bucket ``0``), and keeps the
    count/sum/min/max needed for means and ranges.  Time-series use:
    ``observe_array`` a run's per-slot series (queue depth, allocation)
    and the buckets describe how the run spent its time.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[float, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            # value = m * 2**e with m in [0.5, 1): a power of two iff
            # m == 0.5.  (A rounded ``2 ** ceil(log2(v))`` misfiles
            # values a few ulps above a power into the bucket below.)
            mantissa, exponent = math.frexp(value)
            bucket = math.ldexp(1.0, exponent - 1 if mantissa == 0.5 else exponent)
        else:
            bucket = 0.0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def observe_array(self, values: np.ndarray) -> None:
        """``observe`` every element of ``values`` in order, in bulk.

        Bit-identical to the per-element fold: ``total`` is the sequential
        left-to-right sum from its prior value (see :func:`_fold_total`),
        and min/max keep the first extreme seen.  Work is per run of equal
        values where it can be: per-slot series hold long constant
        stretches.
        """
        values = np.asarray(values, dtype=float)
        n = values.size
        if not n:
            return
        starts = np.flatnonzero(values[1:] != values[:-1]) + 1
        runs = np.diff(starts, prepend=0, append=n)
        heads = values[np.concatenate(([0], starts))]
        self.count += n
        self.total = _fold_total(self.total, values, heads, runs)
        low = float(values[values.argmin()])
        if low < self.min:
            self.min = low
        high = float(values[values.argmax()])
        if high > self.max:
            self.max = high
        buckets = self.buckets
        positive = heads > 0.0
        if not positive.all():
            buckets[0.0] = buckets.get(0.0, 0) + int(runs[~positive].sum())
            heads, runs = heads[positive], runs[positive]
        if heads.size:
            # Bucket exponents as in observe, counted per run.
            mantissa, exponent = np.frexp(heads)
            exponent = exponent - (mantissa == 0.5)
            lowest = int(exponent.min())
            hits = np.bincount(exponent - lowest, weights=runs)
            for offset in np.flatnonzero(hits).tolist():
                bound = math.ldexp(1.0, lowest + offset)
                buckets[bound] = buckets.get(bound, 0) + int(hits[offset])

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) from the bucket counts.

        Nearest-rank over the power-of-two buckets: the answer is a
        bucket upper bound (clamped to the observed max), so it is exact
        whenever observations land on bucket boundaries and otherwise
        over-estimates by at most one bucket (a factor of 2).
        """
        return bucket_percentile(self.buckets, self.count, q, maximum=self.max)

    def as_dict(self) -> dict:
        """JSON-ready summary (buckets keyed by their upper bound).

        Snapshots buckets through an atomic ``list()`` copy so a
        concurrent ``observe`` creating a new bucket cannot raise
        mid-iteration (see the registry's thread-safety contract).
        """
        count = self.count
        return {
            "count": count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if count else 0.0,
            "max": self.max if count else 0.0,
            "buckets": {
                _bucket_key(bound): hits
                for bound, hits in sorted(list(self.buckets.items()))
            },
        }


def _bucket_key(bound: float) -> str:
    """The snapshot key of a bucket bound: its shortest round-trip
    ``repr``, without a trailing ``.0`` (``"128"``, ``"0.5"``,
    ``"2097152"``), so ``float(key) == bound`` for every bound."""
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text


class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0.0
    min = 0.0
    max = 0.0
    updates = 0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def observe_array(self, values) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def as_dict(self) -> dict:
        return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0,
                "max": 0.0, "buckets": {}}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named counters, gauges, and histograms, created on first use.

    Thread-safety contract (the live-observatory reader side):

    * Instrument mutation (``inc``/``set``/``observe``) is lock-free —
      the hot loops pay no synchronization, relying on the GIL's
      per-bytecode atomicity.  Individual reads may therefore observe a
      value mid-update-sequence (e.g. a gauge's ``value`` before its
      ``max``), but never a torn float.
    * :meth:`snapshot`, :meth:`merge_snapshot`, :meth:`stage_snapshot`
      and :meth:`fold_snapshots` serialize against each other on an
      internal lock, so a concurrent scrape never observes a half-merged
      worker shard; staged shards are included in every snapshot until
      they are folded.  :meth:`snapshot` additionally iterates
      over atomic ``list()`` copies of the instrument dicts, so a hot
      loop creating a new instrument (or histogram bucket) mid-snapshot
      cannot raise ``RuntimeError``; the :class:`~repro.obs.series.Sampler`
      still guards each tick as a belt-and-braces backstop.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._merge_lock = threading.Lock()
        #: Shard snapshots shown to :meth:`snapshot` readers but not yet
        #: folded in (see :meth:`stage_snapshot`).
        self._staged: list[dict] = []

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0.0

    def snapshot(self) -> dict:
        """A JSON-ready dump of every instrument, sorted by name.

        Serialized against :meth:`merge_snapshot` (never observes a
        half-merged shard) and race-tolerant against concurrent hot-loop
        mutation via atomic ``list()`` copies.
        """
        with self._merge_lock:
            if not self._staged:
                return self._snapshot_locked()
            view = MetricsRegistry()
            view._merge_locked(self._snapshot_locked())
            for staged in self._staged:
                view._merge_locked(staged)
            return view._snapshot_locked()

    def _snapshot_locked(self) -> dict:
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(list(self._counters.items()))
            },
            "gauges": {
                name: {
                    "value": g.value,
                    "min": g.min if g.updates else 0.0,
                    "max": g.max if g.updates else 0.0,
                    "updates": g.updates,
                }
                for name, g in sorted(list(self._gauges.items()))
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(
                    list(self._histograms.items())
                )
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The batch runner uses this to aggregate worker-process telemetry
        into the parent registry: counters add, gauges keep the incoming
        last value while widening the observed range, histogram buckets
        add.  Malformed sections are skipped rather than raising — a
        telemetry merge must never fail a batch.

        Holds the registry lock for the whole fold, so a concurrent
        :meth:`snapshot` (e.g. a live ``GET /metrics`` scrape) sees each
        worker shard either fully merged or not at all.  Fold order
        matters for float sums and a gauge's last ``value``, so callers
        fold shards in a fixed (submission) order.
        """
        if not isinstance(snapshot, dict):
            return
        with self._merge_lock:
            self._merge_locked(snapshot)

    def _merge_locked(self, snapshot: dict) -> None:
        for name, value in (snapshot.get("counters") or {}).items():
            try:
                amount = float(value)
            except (TypeError, ValueError):
                continue
            self.counter(name).inc(amount)
        for name, raw in (snapshot.get("gauges") or {}).items():
            if not isinstance(raw, dict):
                continue
            try:
                updates = int(raw.get("updates", 0))
                if updates <= 0:
                    continue
                gauge = self.gauge(name)
                gauge.value = float(raw.get("value", 0.0))
                gauge.min = min(gauge.min, float(raw.get("min", 0.0)))
                gauge.max = max(gauge.max, float(raw.get("max", 0.0)))
                gauge.updates += updates
            except (TypeError, ValueError):
                continue
        for name, raw in (snapshot.get("histograms") or {}).items():
            if not isinstance(raw, dict):
                continue
            try:
                count = int(raw.get("count", 0))
                if count <= 0:
                    continue
                histogram = self.histogram(name)
                histogram.count += count
                histogram.total += float(raw.get("total", 0.0))
                histogram.min = min(histogram.min, float(raw.get("min", 0.0)))
                histogram.max = max(histogram.max, float(raw.get("max", 0.0)))
                for bound, hits in (raw.get("buckets") or {}).items():
                    bucket = float(bound)
                    histogram.buckets[bucket] = (
                        histogram.buckets.get(bucket, 0) + int(hits)
                    )
            except (TypeError, ValueError):
                continue

    def stage_snapshot(self, snapshot: dict) -> None:
        """Show a worker shard to :meth:`snapshot` readers at once.

        The batch runner stages each shard as it completes, so a live
        scrape (``--serve``) sees counters move mid-sweep, and folds them
        all with :meth:`fold_snapshots` once the sweep ends.  Staged
        shards never touch the instruments themselves: float sums then
        depend only on the final fold order, not on completion order.
        """
        if not isinstance(snapshot, dict):
            return
        with self._merge_lock:
            self._staged.append(snapshot)

    def fold_snapshots(self, snapshots: list[dict]) -> None:
        """Drop every staged shard and fold ``snapshots`` in the given order."""
        with self._merge_lock:
            self._staged.clear()
            for snapshot in snapshots:
                if isinstance(snapshot, dict):
                    self._merge_locked(snapshot)


class NullRegistry:
    """The telemetry-off registry: every instrument is a shared no-op."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def counter_value(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snapshot: dict) -> None:
        pass

    def stage_snapshot(self, snapshot: dict) -> None:
        pass

    def fold_snapshots(self, snapshots: list[dict]) -> None:
        pass


#: The shared telemetry-off registry.
NULL_REGISTRY = NullRegistry()
