"""Metrics: counters, gauges, fixed-bucket histograms, run reports.

Every HADES subsystem exposes counters and timings through a shared
:class:`MetricsRegistry`.  The registry hands out *metric objects*
(:class:`Counter`, :class:`Gauge`, :class:`Histogram`) that call sites
cache once at construction time, so the per-event cost is a single
method call.  When metrics are disabled — the default — call sites hold
the shared null metric objects instead, whose update methods are empty,
making the instrumentation near-zero-cost.

A :class:`RunReport` is an immutable snapshot of a registry at the end
of one run.  Reports are plain data: they serialise to/from dicts,
flatten to scalar metric dicts (the shape fault campaigns aggregate),
and merge across runs with :func:`aggregate_reports`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "RunReport",
    "aggregate_reports",
    "exact_quantile",
    "resolve_metrics",
]

#: Default histogram bucket upper bounds (microseconds): roughly
#: logarithmic, covering one-hop network latencies up to long waits.
DEFAULT_BUCKETS: Tuple[int, ...] = (
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000,
    50_000, 100_000, 250_000, 500_000, 1_000_000,
)


def exact_quantile(sample: Sequence[int], q: float) -> Optional[int]:
    """Nearest-rank quantile of a **sorted** sample (None if empty).

    This is the one exact-quantile implementation in the tree: the
    scenario scoreboard, the live monitoring windows and the campaign
    reports all call it, so "p99" means the same thing everywhere.
    Nearest-rank (not interpolated) keeps the result an observed value
    — an integer on integer samples — which is what byte-identical
    cross-shard comparisons need.
    """
    if not sample:
        return None
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    rank = max(1, -(-int(len(sample) * q * 1_000_000) // 1_000_000))
    return sample[min(rank, len(sample)) - 1]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A sampled value; remembers the largest sample seen."""

    __slots__ = ("name", "value", "max_value", "samples")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.max_value = 0
        self.samples = 0

    def set(self, value) -> None:
        """Record the current value of the tracked quantity."""
        self.value = value
        self.samples += 1
        if value > self.max_value:
            self.max_value = value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value} max={self.max_value}>"


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``buckets`` are upper bounds; an observation lands in the first
    bucket whose bound is >= the value, or in the overflow bucket.
    Fixed buckets keep observation O(log #buckets) with no allocation.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total",
                 "min_value", "max_value")

    def __init__(self, name: str, buckets: Sequence[int] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0
        self.min_value: Optional[int] = None
        self.max_value: Optional[int] = None

    def observe(self, value) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def mean(self) -> float:
        """Mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> "HistogramSnapshot":
        """An immutable copy of the current state."""
        return HistogramSnapshot(buckets=self.buckets,
                                 counts=tuple(self.counts),
                                 count=self.count, total=self.total,
                                 min_value=self.min_value,
                                 max_value=self.max_value)

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean():.1f}>"


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen histogram state inside a :class:`RunReport`."""

    buckets: Tuple[int, ...]
    counts: Tuple[int, ...]
    count: int
    total: int
    min_value: Optional[int]
    max_value: Optional[int]

    def mean(self) -> float:
        """Mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[int]:
        """Upper bound of the bucket holding the q-quantile (None when
        empty; None also for observations past the last bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            seen += bucket_count
            if seen >= rank:
                return bound
        return None  # falls in the overflow bucket: no finite bound

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serialisable representation."""
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "count": self.count, "total": self.total,
                "min": self.min_value, "max": self.max_value}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "HistogramSnapshot":
        """Inverse of :meth:`to_dict`."""
        return cls(buckets=tuple(raw["buckets"]), counts=tuple(raw["counts"]),
                   count=raw["count"], total=raw["total"],
                   min_value=raw["min"], max_value=raw["max"])

    @classmethod
    def merge(cls, snapshots: Sequence["HistogramSnapshot"],
              name: str = "histogram") -> "HistogramSnapshot":
        """Merge snapshots of disjoint observation sets bucket-wise.

        The documented cross-seed/cross-window aggregation path: both
        :func:`aggregate_reports` (campaign reports) and the live
        monitoring windows (:mod:`repro.obs.live`) merge through here,
        so they cannot drift apart.  All snapshots must share bucket
        bounds — merging histograms with different bounds would need
        re-binning, which loses information, so it raises instead
        (``name`` only labels the error).
        """
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError(f"histogram {name!r}: nothing to merge")
        first = snapshots[0]
        counts = list(first.counts)
        count, total = first.count, first.total
        min_value, max_value = first.min_value, first.max_value
        for snap in snapshots[1:]:
            if snap.buckets != first.buckets:
                raise ValueError(
                    f"histogram {name!r}: bucket bounds differ across runs")
            counts = [a + b for a, b in zip(counts, snap.counts)]
            count += snap.count
            total += snap.total
            if min_value is None:
                min_value = snap.min_value
            elif snap.min_value is not None:
                min_value = min(min_value, snap.min_value)
            if max_value is None:
                max_value = snap.max_value
            elif snap.max_value is not None:
                max_value = max(max_value, snap.max_value)
        return cls(buckets=first.buckets, counts=tuple(counts),
                   count=count, total=total,
                   min_value=min_value, max_value=max_value)


# --------------------------------------------------------------------------
# Null (disabled) metrics
# --------------------------------------------------------------------------

class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0
    max_value = 0
    samples = 0

    def set(self, value) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0

    def observe(self, value) -> None:
        pass

    def mean(self) -> float:
        return 0.0


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetricsRegistry:
    """The disabled registry: hands out shared no-op metric objects.

    Instrumented code never needs to branch on whether metrics are on;
    it asks its registry for metric objects once and updates them
    unconditionally.
    """

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str,
                  buckets: Sequence[int] = DEFAULT_BUCKETS) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self, **meta: Any) -> "RunReport":
        return RunReport(meta=dict(meta))

    def reset(self) -> None:
        pass


#: The process-wide disabled registry, shared by every uninstrumented run.
NULL_METRICS = NullMetricsRegistry()


def resolve_metrics(metrics: Any) -> Any:
    """Resolve the uniform ``metrics=`` parameter contract.

    Every instrumented component (:class:`~repro.system.HadesSystem`,
    :class:`~repro.sim.engine.Simulator`,
    :class:`~repro.network.network.Network`,
    :class:`~repro.kernel.node.Node`,
    :class:`~repro.core.dispatcher.Dispatcher`, ...) accepts

    * ``None`` or ``False`` — disabled: the shared :data:`NULL_METRICS`
      null-object registry (the near-zero-cost default),
    * ``True`` — create a fresh :class:`MetricsRegistry`,
    * a :class:`MetricsRegistry` / :class:`NullMetricsRegistry`
      instance — used as given (the sharing case: one registry wired
      through a whole deployment).

    Any other object raises :class:`TypeError`.
    """
    if metrics is None or metrics is False:
        return NULL_METRICS
    if metrics is True:
        return MetricsRegistry()
    if isinstance(metrics, (MetricsRegistry, NullMetricsRegistry)):
        return metrics
    raise TypeError(
        f"metrics={metrics!r}: expected a MetricsRegistry, "
        f"NullMetricsRegistry, True, False or None")


# --------------------------------------------------------------------------
# The live registry
# --------------------------------------------------------------------------

class MetricsRegistry:
    """Creates and owns the metric objects of one run."""

    enabled = True

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter with this name (created on first use)."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge with this name (created on first use)."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str,
                  buckets: Sequence[int] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram with this name (created on first use)."""
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, buckets)
        return metric

    def snapshot(self, **meta: Any) -> "RunReport":
        """Freeze the current state into a :class:`RunReport`."""
        return RunReport(
            counters={n: c.value for n, c in sorted(self._counters.items())},
            gauges={n: {"value": g.value, "max": g.max_value}
                    for n, g in sorted(self._gauges.items())},
            histograms={n: h.snapshot()
                        for n, h in sorted(self._histograms.items())},
            meta=dict(meta))

    def reset(self) -> None:
        """Zero every metric (the objects stay valid at their call sites)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
            gauge.max_value = 0
            gauge.samples = 0
        for histogram in self._histograms.values():
            histogram.counts = [0] * (len(histogram.buckets) + 1)
            histogram.count = 0
            histogram.total = 0
            histogram.min_value = None
            histogram.max_value = None


# --------------------------------------------------------------------------
# Run reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    """One run's structured metrics snapshot.

    ``to_dict()``/``from_dict()`` round-trip exactly — values, key
    insertion order, and int/float distinctions all survive, including
    through a JSON encode/decode — so a report can be stored as JSON
    and read back unchanged.  Between processes (parallel campaigns,
    shard workers) reports travel pickled as they are.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def counter(self, name: str) -> int:
        """A counter's value (0 when absent)."""
        return self.counters.get(name, 0)

    def flat(self) -> Dict[str, Any]:
        """Flatten to one scalar metric per key.

        Counters keep their name; gauges contribute ``<name>.value`` and
        ``<name>.max``; histograms contribute ``<name>.count`` and
        ``<name>.mean`` — the dict shape fault campaigns aggregate.
        """
        out: Dict[str, Any] = dict(self.counters)
        for name, gauge in self.gauges.items():
            out[f"{name}.value"] = gauge["value"]
            out[f"{name}.max"] = gauge["max"]
        for name, hist in self.histograms.items():
            out[f"{name}.count"] = hist.count
            out[f"{name}.mean"] = hist.mean()
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serialisable representation."""
        return {
            "counters": dict(self.counters),
            "gauges": {n: dict(g) for n, g in self.gauges.items()},
            "histograms": {n: h.to_dict()
                           for n, h in self.histograms.items()},
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "RunReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            counters=dict(raw.get("counters", {})),
            gauges={n: dict(g) for n, g in raw.get("gauges", {}).items()},
            histograms={n: HistogramSnapshot.from_dict(h)
                        for n, h in raw.get("histograms", {}).items()},
            meta=dict(raw.get("meta", {})))


def aggregate_reports(reports: Sequence[RunReport]) -> RunReport:
    """Merge per-run reports into one campaign-level report.

    Counters and histogram contents are summed; gauges keep the mean of
    the per-run values and the max of the per-run maxima.  Histograms
    with mismatched bucket bounds cannot be merged bucket-wise and raise.
    """
    counters: Dict[str, int] = {}
    gauge_values: Dict[str, List[float]] = {}
    gauge_maxima: Dict[str, float] = {}
    histograms: Dict[str, List[HistogramSnapshot]] = {}
    for report in reports:
        for name, value in report.counters.items():
            counters[name] = counters.get(name, 0) + value
        for name, gauge in report.gauges.items():
            gauge_values.setdefault(name, []).append(gauge["value"])
            gauge_maxima[name] = max(gauge_maxima.get(name, gauge["max"]),
                                     gauge["max"])
        for name, hist in report.histograms.items():
            histograms.setdefault(name, []).append(hist)
    return RunReport(
        counters=counters,
        gauges={name: {"value": sum(vals) / len(vals),
                       "max": gauge_maxima[name]}
                for name, vals in gauge_values.items()},
        histograms={name: HistogramSnapshot.merge(snaps, name=name)
                    for name, snaps in histograms.items()},
        meta={"runs": len(reports)})
