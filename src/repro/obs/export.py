"""Registry snapshot exposition: Prometheus text format (v0.0.4).

:func:`render_prometheus` turns one versioned registry snapshot (see
:meth:`repro.obs.registry.Registry.snapshot`) into the Prometheus text
exposition format:

* dotted instrument names mangle to ``repro_``-prefixed underscore names
  (``sparql.plan_cache.hits`` → ``repro_sparql_plan_cache_hits_total``);
* counters carry the ``_total`` suffix; gauges expose as-is; histograms
  expose cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count``
  (a timed region, :func:`repro.obs.region`, is one such histogram);
* label keys are emitted in sorted order and label values escaped per the
  format (``\\``, ``"``, newline), so the rendering is byte-stable for a
  given snapshot.

:func:`validate_exposition` is a minimal line-format parser for the same
subset — it exists so tests can fuzz ``render_prometheus`` output against
an independent reader (HELP/TYPE discipline, name/label/value syntax,
cumulative bucket monotonicity, ``+Inf`` == ``_count``).
"""

from __future__ import annotations

import math
import re

from repro.errors import ObsError
from repro.obs.registry import SNAPSHOT_VERSION

#: Valid exposed metric names (Prometheus data model).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Valid label keys.
_LABEL_KEY_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_MANGLE_RE = re.compile(r"[^a-zA-Z0-9_]")


def mangle_name(name: str, suffix: str = "") -> str:
    """A dotted instrument name as a ``repro_``-prefixed exposed name."""
    mangled = "repro_" + _MANGLE_RE.sub("_", name) + suffix
    if not _NAME_RE.match(mangled):
        raise ObsError(f"cannot expose metric name {name!r} as {mangled!r}")
    return mangled


def escape_label_value(value: str) -> str:
    """Escape a label value per the text format: ``\\``, ``"``, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """One sample value: integral floats print as integers, ``inf`` as
    ``+Inf`` (the ``le`` convention), everything else via ``repr``."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict, extra: tuple[tuple[str, str], ...] = ()) -> str:
    """``{k="v",...}`` with sorted keys and escaped values; "" when empty."""
    pairs = sorted((str(key), str(value)) for key, value in labels.items())
    pairs.extend(extra)
    if not pairs:
        return ""
    for key, _ in pairs:
        if not _LABEL_KEY_RE.match(key):
            raise ObsError(f"cannot expose label key {key!r}")
    inner = ",".join(f'{key}="{escape_label_value(value)}"' for key, value in pairs)
    return "{" + inner + "}"


class _Family:
    """One exposed metric family: HELP + TYPE + its sample lines."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: list[str] = []


def _family(
    families: dict[str, _Family], name: str, kind: str, help_text: str
) -> _Family:
    existing = families.get(name)
    if existing is None:
        existing = families[name] = _Family(name, kind, help_text)
    elif existing.kind != kind:
        raise ObsError(
            f"exposed name collision: {name!r} is both {existing.kind} and {kind}"
        )
    return existing


def render_prometheus(snapshot: dict) -> str:
    """A registry snapshot as Prometheus text exposition (v0.0.4)."""
    version = snapshot.get("format_version")
    if version != SNAPSHOT_VERSION:
        raise ObsError(f"unsupported obs snapshot version: {version!r}")
    families: dict[str, _Family] = {}

    for entry in snapshot.get("counters", ()):
        family = _family(
            families,
            mangle_name(entry["name"], "_total"),
            "counter",
            f"counter {entry['name']}",
        )
        family.samples.append(
            f"{family.name}{_format_labels(entry['labels'])} "
            f"{format_value(entry['value'])}"
        )

    for entry in snapshot.get("gauges", ()):
        family = _family(
            families, mangle_name(entry["name"]), "gauge", f"gauge {entry['name']}"
        )
        family.samples.append(
            f"{family.name}{_format_labels(entry['labels'])} "
            f"{format_value(entry['value'])}"
        )

    for entry in snapshot.get("histograms", ()):
        family = _family(
            families,
            mangle_name(entry["name"]),
            "histogram",
            f"histogram {entry['name']}",
        )
        labels = entry["labels"]
        cumulative = 0
        for boundary, count in zip(entry["boundaries"], entry["counts"]):
            cumulative += count
            le = _format_labels(labels, (("le", format_value(float(boundary))),))
            family.samples.append(
                f"{family.name}_bucket{le} {format_value(cumulative)}"
            )
        inf = _format_labels(labels, (("le", "+Inf"),))
        family.samples.append(
            f"{family.name}_bucket{inf} {format_value(entry['count'])}"
        )
        suffix_labels = _format_labels(labels)
        family.samples.append(
            f"{family.name}_sum{suffix_labels} {format_value(entry['sum'])}"
        )
        family.samples.append(
            f"{family.name}_count{suffix_labels} {format_value(entry['count'])}"
        )

    events = snapshot.get("events")
    if events is not None:
        buffered = _family(
            families, "repro_trace_buffered", "gauge", "gauge buffered trace records"
        )
        buffered.samples.append(
            f"repro_trace_buffered {format_value(len(events.get('records', ())))}"
        )
        dropped = _family(
            families,
            "repro_trace_dropped_total",
            "counter",
            "counter trace ring records dropped",
        )
        dropped.samples.append(
            f"repro_trace_dropped_total {format_value(events.get('dropped', 0))}"
        )

    lines: list[str] = []
    for name in sorted(families):
        family = families[name]
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        # Samples keep their emission order: snapshots list instruments
        # sorted by (name, labels), and histogram buckets ascend by le —
        # already deterministic, and conventional for scrapers.
        lines.extend(family.samples)
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------- #
# Minimal exposition validator (the fuzz test's independent reader)
# --------------------------------------------------------------------- #

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>-?[0-9]+))?$"
)

_VALUE_RE = re.compile(r"^(?:[+-]?Inf|NaN|-?(?:[0-9]*\.)?[0-9]+(?:[eE][+-]?[0-9]+)?)$")


def _parse_labels(body: str) -> dict[str, str]:
    """Parse a ``k="v",...`` label body honouring value escapes."""
    labels: dict[str, str] = {}
    position = 0
    length = len(body)
    while position < length:
        match = re.match(r'([a-zA-Z_][a-zA-Z0-9_]*)="', body[position:])
        if match is None:
            raise ObsError(f"bad label syntax at {body[position:]!r}")
        key = match.group(1)
        position += match.end()
        value_chars: list[str] = []
        while True:
            if position >= length:
                raise ObsError(f"unterminated label value for {key!r}")
            char = body[position]
            if char == "\\":
                if position + 1 >= length:
                    raise ObsError(f"dangling escape in label value for {key!r}")
                escaped = body[position + 1]
                if escaped == "n":
                    value_chars.append("\n")
                elif escaped in ('"', "\\"):
                    value_chars.append(escaped)
                else:
                    raise ObsError(f"unknown escape \\{escaped} in label {key!r}")
                position += 2
            elif char == '"':
                position += 1
                break
            elif char == "\n":
                raise ObsError(f"raw newline in label value for {key!r}")
            else:
                value_chars.append(char)
                position += 1
        if key in labels:
            raise ObsError(f"duplicate label key {key!r}")
        labels[key] = "".join(value_chars)
        if position < length:
            if body[position] != ",":
                raise ObsError(f"expected ',' between labels at {body[position:]!r}")
            position += 1
    return labels


def _parse_value(text: str) -> float:
    if not _VALUE_RE.match(text):
        raise ObsError(f"bad sample value {text!r}")
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def _base_family(name: str, families: dict[str, str]) -> str | None:
    """The declared family a sample name belongs to, honouring histogram
    ``_bucket``/``_sum``/``_count`` suffixes."""
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if families.get(base) == "histogram":
                return base
    return None


def validate_exposition(text: str) -> int:
    """Parse Prometheus text exposition; returns the number of samples.

    Raises :class:`~repro.errors.ObsError` on any line that is not a valid
    comment, TYPE/HELP declaration, or sample; on samples referencing an
    undeclared family; on non-cumulative histogram buckets; and on
    ``le="+Inf"`` buckets disagreeing with ``_count``.
    """
    families: dict[str, str] = {}
    samples = 0
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}

    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ObsError(f"line {line_number}: malformed {parts[1]} line")
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ObsError(f"line {line_number}: bad metric name {name!r}")
            if parts[1] == "TYPE":
                kind = parts[3]
                if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise ObsError(f"line {line_number}: unknown type {kind!r}")
                if name in families:
                    raise ObsError(f"line {line_number}: duplicate TYPE for {name!r}")
                families[name] = kind
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObsError(f"line {line_number}: unparseable sample {line!r}")
        name = match.group("name")
        label_body = match.group("labels")
        labels = _parse_labels(label_body) if label_body else {}
        value = _parse_value(match.group("value"))
        family = _base_family(name, families)
        if family is None:
            raise ObsError(f"line {line_number}: sample {name!r} has no TYPE")
        kind = families[family]
        if kind == "counter" and (value < 0 or math.isnan(value)):
            raise ObsError(f"line {line_number}: counter {name!r} value {value}")
        if kind == "histogram":
            identity = (family, tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            )))
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    raise ObsError(f"line {line_number}: bucket without le label")
                buckets.setdefault(identity, []).append((_parse_value(le), value))
            elif name.endswith("_count"):
                counts[identity] = value
        samples += 1

    for identity, series in buckets.items():
        series.sort(key=lambda pair: pair[0])
        previous = 0.0
        saw_inf = False
        for le, value in series:
            if value < previous:
                raise ObsError(
                    f"histogram {identity[0]!r}: bucket counts not cumulative"
                )
            previous = value
            if math.isinf(le) and le > 0:
                saw_inf = True
                expected = counts.get(identity)
                if expected is not None and value != expected:
                    raise ObsError(
                        f"histogram {identity[0]!r}: le=\"+Inf\" bucket {value} "
                        f"!= _count {expected}"
                    )
        if not saw_inf:
            raise ObsError(f"histogram {identity[0]!r}: missing le=\"+Inf\" bucket")
    return samples


__all__ = [
    "escape_label_value",
    "format_value",
    "mangle_name",
    "render_prometheus",
    "validate_exposition",
]
