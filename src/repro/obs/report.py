"""Continuous telemetry: a background reporter writing JSONL time series.

A :class:`Reporter` samples a registry on a fixed interval from a daemon
thread, computes per-instrument **deltas and rates** between consecutive
snapshots, and appends one JSON line per sample to a bounded sink file
under the ``repro-report/1`` schema::

    {"schema": "repro-report/1", "interval": 0.5, "registry": "default"}
    {"seq": 1, "elapsed": 0.5, "counters": [...], "gauges": [...], ...}
    {"seq": 2, ...}

The sink is *bounded*: once more than ``max_samples`` samples exist the
file is compacted to the header plus the most recent ``max_samples``
lines, so a long-lived engine can never fill a disk with telemetry.

Ownership: the :class:`~repro.core.engine.AlexEngine` starts a reporter
lazily when ``AlexConfig(report_interval=..., report_path=...)`` asks for
one and stops it from :meth:`~repro.core.engine.AlexEngine.close`; an
``atexit`` hook stops any reporter still running at interpreter exit.
Everything is off by default — no reporter exists, no thread runs, and no
instrument is created unless a reporter was explicitly configured.
"""

from __future__ import annotations

import atexit
import json
import threading
import time
import weakref
from typing import Any, Callable

from repro.errors import ObsError
from repro.obs.instruments import SNAPSHOT_QUANTILES
from repro.obs.registry import Registry

#: Versioned schema tag stamped into every report header line.
REPORT_SCHEMA = "repro-report/1"

#: Default bound on samples kept in the sink file.
DEFAULT_MAX_SAMPLES = 2048


def _identity(entry: dict) -> tuple:
    return (entry["name"], tuple(sorted(entry["labels"].items())))


def build_sample(
    snapshot: dict,
    previous: dict | None,
    elapsed: float | None,
    seq: int,
    wall: float,
) -> dict:
    """One report sample: current values plus deltas/rates vs ``previous``.

    Counters get ``delta`` (increase since the last
    sample; the full value when there is none) and, when ``elapsed`` is a
    positive duration, ``rate`` per second. Gauges are levels and carry the
    value only. Histograms report ``count``/``sum`` deltas plus the
    p50/p95/p99 derived from the *cumulative* buckets.
    """
    previous = previous or {}

    def index(section: str) -> dict[tuple, dict]:
        return {_identity(entry): entry for entry in previous.get(section, ())}

    def flow(value: float, before: dict | None, key: str = "value") -> dict:
        delta = value - (before[key] if before is not None else 0.0)
        out: dict[str, Any] = {"value": value, "delta": delta}
        if elapsed is not None and elapsed > 0:
            out["rate"] = delta / elapsed
        return out

    prior_counters = index("counters")
    counters = [
        {
            "name": entry["name"],
            "labels": entry["labels"],
            **flow(entry["value"], prior_counters.get(_identity(entry))),
        }
        for entry in snapshot.get("counters", ())
    ]
    gauges = [
        {"name": entry["name"], "labels": entry["labels"], "value": entry["value"]}
        for entry in snapshot.get("gauges", ())
    ]
    prior_histograms = index("histograms")
    histograms = []
    for entry in snapshot.get("histograms", ()):
        before = prior_histograms.get(_identity(entry))
        record: dict[str, Any] = {
            "name": entry["name"],
            "labels": entry["labels"],
            "count": entry["count"],
            "sum": entry["sum"],
            "delta_count": entry["count"] - (before["count"] if before else 0),
            "delta_sum": entry["sum"] - (before["sum"] if before else 0.0),
        }
        for key, _ in SNAPSHOT_QUANTILES:
            record[key] = entry.get(key)
        histograms.append(record)
    return {
        "seq": seq,
        "wall": wall,
        "elapsed": elapsed,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def render_sample(sample: dict, top: int | None = None) -> str:
    """A report sample as human-readable text (``repro stats --watch``)."""
    lines = [
        f"== report sample seq={sample.get('seq')} "
        f"elapsed={sample.get('elapsed')} =="
    ]

    def suffix(labels: dict) -> str:
        if not labels:
            return ""
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return "{" + inner + "}"

    counters = sorted(
        sample.get("counters", ()), key=lambda e: (-e.get("delta", 0), e["name"])
    )
    if top is not None:
        counters = counters[:top]
    if counters:
        lines.append("counters (value, delta/sample, rate/s):")
        for entry in counters:
            rate = entry.get("rate")
            lines.append(
                f"  {entry['name'] + suffix(entry['labels']):<52} "
                f"{entry['value']:>12g} {entry.get('delta', 0):>+10g}"
                + (f" {rate:>10.3g}/s" if rate is not None else "")
            )
    gauges = sorted(sample.get("gauges", ()), key=lambda e: e["name"])
    if top is not None:
        gauges = gauges[:top]
    if gauges:
        lines.append("gauges:")
        for entry in gauges:
            lines.append(
                f"  {entry['name'] + suffix(entry['labels']):<52} "
                f"{entry['value']:>12g}"
            )
    histograms = sorted(
        sample.get("histograms", ()), key=lambda e: (-e.get("delta_count", 0), e["name"])
    )
    if top is not None:
        histograms = histograms[:top]
    if histograms:
        lines.append("histograms (n, Δn, p50/p95/p99):")
        for entry in histograms:
            quantiles = "/".join(
                "-" if entry.get(key) is None else f"{entry[key]:.4g}"
                for key, _ in SNAPSHOT_QUANTILES
            )
            lines.append(
                f"  {entry['name'] + suffix(entry['labels']):<52} "
                f"n={entry['count']} Δ{entry.get('delta_count', 0)} {quantiles}"
            )
    if len(lines) == 1:
        lines.append("(empty sample)")
    return "\n".join(lines)


_live_reporters: "weakref.WeakSet[Reporter]" = weakref.WeakSet()


def _stop_live_reporters() -> None:
    """atexit hook: flush every reporter still running at interpreter exit."""
    for reporter in list(_live_reporters):
        reporter.stop()


atexit.register(_stop_live_reporters)


class Reporter:
    """Samples a registry on an interval into a bounded JSONL sink.

    ``registry`` pins the reporter to one :class:`Registry`; the default
    (``None``) resolves the process-global registry at *each* sample, so
    ``obs.use_registry`` redirects a running reporter just like it
    redirects instrumented code. ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        interval: float,
        path: str,
        registry: Registry | None = None,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        clock: Callable[[], float] = time.monotonic,
    ):
        if interval <= 0:
            raise ObsError(f"report interval must be > 0, got {interval}")
        if not path:
            raise ObsError("report path must be a non-empty file path")
        if max_samples < 1:
            raise ObsError(f"max_samples must be >= 1, got {max_samples}")
        self.interval = interval
        self.path = path
        self.max_samples = max_samples
        self._registry = registry
        self._clock = clock
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._previous: tuple[float, dict] | None = None
        self._seq = 0
        self._lines: list[str] = []
        self._header: str | None = None
        self.last_error: str | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def running(self) -> bool:
        with self._lock:
            thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def samples_written(self) -> int:
        with self._lock:
            return self._seq

    def start(self) -> "Reporter":
        """Write the header, take the baseline snapshot, start the thread.

        Idempotent: a running reporter is returned unchanged.
        """
        header = json.dumps(
            {
                "schema": REPORT_SCHEMA,
                "interval": self.interval,
                "max_samples": self.max_samples,
                "registry": self._registry_name(),
            },
            sort_keys=True,
        )
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._header = header
            self._lines = []
            self._seq = 0
            thread = threading.Thread(
                target=self._loop, name="repro-obs-reporter", daemon=True
            )
            self._thread = thread
        # File IO and the baseline snapshot happen outside the lock: the
        # sink write blocks, and snapshot() takes the registry lock.
        self._stop_event.clear()
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(header + "\n")
        baseline = (self._clock(), self._resolve_registry().snapshot())
        with self._lock:
            self._previous = baseline
        _live_reporters.add(self)
        thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the thread and flush one final sample. Idempotent — safe to
        call on a never-started or already-stopped reporter."""
        with self._lock:
            thread = self._thread
            self._thread = None
        self._stop_event.set()
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        if thread is not None:
            # One final sample so even sub-interval runs leave evidence.
            self.sample_now(final=True)
        _live_reporters.discard(self)

    def _registry_name(self) -> str:
        return self._registry.name if self._registry is not None else "default"

    def _resolve_registry(self) -> Registry:
        if self._registry is not None:
            return self._registry
        from repro import obs  # late: repro.obs imports this module

        return obs.get_registry()

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                self.sample_now()
            except Exception as error:  # keep the thread alive; surface in health()
                self.last_error = repr(error)

    def sample_now(self, final: bool = False) -> dict:
        """Take one sample immediately and append it to the sink."""
        snapshot = self._resolve_registry().snapshot()
        now = self._clock()
        wall = time.time()
        with self._lock:
            if self._previous is not None:
                previous_time, previous_snapshot = self._previous
                elapsed: float | None = now - previous_time
            else:
                previous_snapshot, elapsed = None, None
            self._seq += 1
            sample = build_sample(snapshot, previous_snapshot, elapsed, self._seq, wall)
            if final:
                sample["final"] = True
            self._previous = (now, snapshot)
            line = json.dumps(sample, sort_keys=True)
            self._lines.append(line)
            if len(self._lines) <= self.max_samples:
                mode, text = "a", line + "\n"
            else:
                self._lines = self._lines[-self.max_samples:]
                mode = "w"
                text = "\n".join([self._header or "", *self._lines]) + "\n"
        # Sink IO outside the lock: a slow disk must not stall sampling
        # callers. The only concurrent writers are the reporter thread and
        # stop()'s final sample, and stop() joins the thread first.
        with open(self.path, mode, encoding="utf-8") as handle:
            handle.write(text)
        return sample

    def __repr__(self):
        state = "running" if self.running else "stopped"
        return (
            f"<Reporter {self.path!r} interval={self.interval} "
            f"{state} samples={self.samples_written}>"
        )


def load_report(path: str) -> dict:
    """Read a report sink: ``{"header": ..., "samples": [...]}``, validated."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ObsError(f"empty report file: {path!r}")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("schema") != REPORT_SCHEMA:
        raise ObsError(f"not a {REPORT_SCHEMA} report: {path!r}")
    samples = []
    for index, line in enumerate(lines[1:], start=2):
        sample = json.loads(line)
        if not isinstance(sample, dict) or "seq" not in sample:
            raise ObsError(f"{path!r} line {index}: not a report sample")
        samples.append(sample)
    return {"header": header, "samples": samples}


__all__ = [
    "DEFAULT_MAX_SAMPLES",
    "REPORT_SCHEMA",
    "Reporter",
    "build_sample",
    "load_report",
    "render_sample",
]
