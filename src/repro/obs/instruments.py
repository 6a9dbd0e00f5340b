"""Typed instruments: counters, gauges, and histograms.

Instruments are dumb value holders — cheap enough for hot paths (an update
is an attribute add, no locking, no allocation). All bookkeeping that costs
anything (sorting, formatting, schema) happens at snapshot/render time in
:mod:`repro.obs.registry`.

Label sets are frozen at creation: an instrument is identified by its name
plus its sorted ``(key, value)`` label pairs, and the registry hands back
the same object for the same identity.
"""

from __future__ import annotations

import bisect

#: Labels as stored on an instrument: sorted, hashable.
LabelPairs = tuple[tuple[str, str], ...]

#: Default histogram boundaries for untimed value distributions (sizes,
#: fan-outs): roughly log-spaced upper bucket bounds.
DEFAULT_BOUNDARIES: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

#: Default boundaries for latency histograms, in seconds (100µs .. 10s).
DEFAULT_LATENCY_BOUNDARIES: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def labels_to_pairs(labels: dict[str, object]) -> LabelPairs:
    """Normalize a labels dict into the sorted pair tuple identity."""
    if not labels:
        return ()
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


#: The quantiles derived into every histogram snapshot (p50/p95/p99).
SNAPSHOT_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def quantile_from_buckets(
    boundaries: tuple[float, ...] | list[float],
    counts: list[int],
    q: float,
    minimum: float | None = None,
    maximum: float | None = None,
) -> float | None:
    """Estimate the ``q``-quantile of a bucketed distribution.

    Linear interpolation within the winning bucket (the Prometheus
    ``histogram_quantile`` estimator), computed purely from the merged
    bucket counts so the value is identical however partition snapshots
    were merged (associativity). ``minimum``/``maximum`` clamp the
    estimate to the observed range when known — the overflow bucket has
    no upper bound, so the tracked max is its best edge.
    """
    total = sum(counts)
    if total == 0 or not (0.0 <= q <= 1.0):
        return None
    target = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        cumulative += count
        if cumulative < target:
            continue
        lower = boundaries[index - 1] if index > 0 else (
            minimum if minimum is not None else 0.0
        )
        if index < len(boundaries):
            upper = boundaries[index]
        else:  # overflow bucket: open-ended upper bound
            upper = maximum if maximum is not None else boundaries[-1]
        if upper < lower:
            upper = lower
        inside = target - (cumulative - count)
        value = lower + (upper - lower) * (inside / count)
        if minimum is not None and value < minimum:
            value = minimum
        if maximum is not None and value > maximum:
            value = maximum
        return value
    return maximum  # unreachable for q <= 1, kept for completeness


class Counter:
    """A monotonically increasing count (events, items, requests)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}

    def __repr__(self):
        return f"<Counter {self.name} {dict(self.labels)} = {self.value}>"


class Gauge:
    """A value that goes up and down (sizes, levels). Last write wins."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}

    def __repr__(self):
        return f"<Gauge {self.name} {dict(self.labels)} = {self.value}>"


class Histogram:
    """A distribution over fixed bucket boundaries.

    ``boundaries`` are *upper* bounds: bucket ``i`` counts observations
    ``<= boundaries[i]``; one overflow bucket catches the rest, so
    ``len(counts) == len(boundaries) + 1``. Boundaries are fixed at
    creation so snapshots from different processes merge bucket-by-bucket.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "boundaries", "counts", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        boundaries: tuple[float, ...] = DEFAULT_BOUNDARIES,
    ):
        self.name = name
        self.labels = labels
        self.boundaries = tuple(boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile estimated from this histogram's buckets."""
        return quantile_from_buckets(
            self.boundaries, self.counts, q, minimum=self.min, maximum=self.max
        )

    def snapshot(self) -> dict:
        # p50/p95/p99 are *derived* fields: Registry.merge ignores them and
        # sums raw bucket counts, so merging partition snapshots in any
        # order re-derives identical quantiles (associativity).
        snapshot = {
            "name": self.name,
            "labels": dict(self.labels),
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        for key, q in SNAPSHOT_QUANTILES:
            snapshot[key] = self.quantile(q)
        return snapshot

    def __repr__(self):
        return f"<Histogram {self.name} {dict(self.labels)} n={self.count} sum={self.sum:.6g}>"
