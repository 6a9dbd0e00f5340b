"""Reference reader for Prometheus text exposition (version 0.0.4).

:func:`validate_exposition` is a minimal line-format parser for the subset
:func:`repro.obs.render_prometheus` writes. It is the independent reader
the exposition tests check ``render_prometheus`` output against (HELP/TYPE
discipline, name/label/value syntax, cumulative bucket monotonicity,
``+Inf`` == ``_count``). Not shipped with the package: it is the test
oracle, not the exporter.
"""

from __future__ import annotations

import math
import re

from repro.errors import ObsError

#: Valid exposed metric names (Prometheus data model).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

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
