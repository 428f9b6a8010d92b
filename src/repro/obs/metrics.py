"""Typed per-machine metrics: counters, gauges, latency histograms.

Metric names follow the ``subsystem.verb.unit`` convention used across
the stack — ``kernel.trap.calls``, ``xnu.ipc.send.ns``,
``diplomacy.call.ns``, ``sim.sched.switches`` — so a snapshot sorts into
a readable per-subsystem report and two snapshots diff mechanically.
Instrumented code counts through ``Machine.count``.

Histograms use **fixed** bucket boundaries over virtual nanoseconds and
report deterministic percentiles (the upper bound of the bucket holding
the requested rank), which makes p50/p95/p99 bit-stable across runs and
platforms — the property gem5-style stats layers need for regression
baselines.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: Default latency buckets (virtual ns): 100ns … 1s, geometric, plus
#: an overflow bucket.  Chosen to straddle everything from a persona
#: check (~30ns) to a fork+exec (~4ms) to a composition pass.
DEFAULT_BUCKET_BOUNDS_NS: Tuple[float, ...] = (
    100.0,
    316.0,
    1_000.0,
    3_160.0,
    10_000.0,
    31_600.0,
    100_000.0,
    316_000.0,
    1_000_000.0,
    3_160_000.0,
    10_000_000.0,
    31_600_000.0,
    100_000_000.0,
    1_000_000_000.0,
)


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (queue depth, resident pages, live ports)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket latency histogram over virtual nanoseconds."""

    __slots__ = ("name", "bounds", "buckets", "count", "sum", "min", "max")

    def __init__(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(
            bounds if bounds is not None else DEFAULT_BUCKET_BOUNDS_NS
        )
        # One bucket per bound ("<= bound") plus the overflow bucket.
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value_ns: float) -> None:
        self.count += 1
        self.sum += value_ns
        if self.min is None or value_ns < self.min:
            self.min = value_ns
        if self.max is None or value_ns > self.max:
            self.max = value_ns
        for index, bound in enumerate(self.bounds):
            if value_ns <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def percentile(self, p: float) -> float:
        """Deterministic percentile: the upper bound of the bucket that
        contains the ``p``-th rank (``max`` for the overflow bucket).
        Returns 0.0 for an empty histogram."""
        if self.count == 0:
            return 0.0
        exact = p * self.count  # ceil(p * count), clamped to [1, count]
        rank = int(exact)
        if rank < exact:
            rank += 1
        rank = max(1, min(rank, self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max if self.max is not None else 0.0
        return self.max if self.max is not None else 0.0  # pragma: no cover

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:
        return (
            f"<Histogram {self.name} n={self.count} "
            f"p50={self.percentile(0.5):.0f}ns p99={self.percentile(0.99):.0f}ns>"
        )


class MetricsRegistry:
    """All metrics of one machine, keyed by ``subsystem.verb.unit`` name.

    ``derived``, when set, yields ``(name, value)`` pairs for counters
    another view already counts (the observatory's ``<subsystem>.calls``
    and ``sim.sched.switches``).  Every read includes them; nothing here
    stores or increments them.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self.derived: Optional[Callable[[], Iterable[Tuple[str, int]]]] = None

    # -- constructors (get-or-create, type-checked) -------------------------

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, bounds)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def _get(self, name: str, cls: type) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    # -- introspection ------------------------------------------------------

    def _all(self) -> Dict[str, object]:
        """The counted metrics plus the derived counters."""
        if self.derived is None:
            return self._metrics
        metrics = dict(self._metrics)
        for name, value in self.derived():
            counter = metrics[name] = Counter(name)
            counter.value = value
        return metrics

    def get(self, name: str) -> Optional[object]:
        return self._all().get(name)

    def names(self) -> List[str]:
        return sorted(self._all())

    def __contains__(self, name: str) -> bool:
        return name in self._all()

    def __len__(self) -> int:
        return len(self._all())

    # -- snapshot / diff ----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A deterministic (name-sorted) dump of every metric."""
        metrics = self._all()
        return {
            name: metrics[name].snapshot()  # type: ignore[attr-defined]
            for name in sorted(metrics)
        }

    @staticmethod
    def diff(
        before: Mapping[str, Mapping[str, object]],
        after: Mapping[str, Mapping[str, object]],
    ) -> Dict[str, Dict[str, object]]:
        """Counter/histogram-count deltas between two snapshots.

        Gauges report their ``after`` value.  Metrics present only in
        ``after`` diff against zero; metrics that disappeared are ignored
        (registries only grow).
        """
        result: Dict[str, Dict[str, object]] = {}
        for name in sorted(after):
            new = after[name]
            old = before.get(name, {})
            kind = new.get("type")
            if kind == "counter":
                delta = int(new.get("value", 0)) - int(old.get("value", 0) or 0)
                if delta:
                    result[name] = {"type": "counter", "delta": delta}
            elif kind == "gauge":
                if new.get("value") != old.get("value"):
                    result[name] = {"type": "gauge", "value": new.get("value")}
            elif kind == "histogram":
                delta = int(new.get("count", 0)) - int(old.get("count", 0) or 0)
                if delta:
                    result[name] = {"type": "histogram", "count_delta": delta}
        return result
