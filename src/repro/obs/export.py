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


__all__ = [
    "escape_label_value",
    "format_value",
    "mangle_name",
    "render_prometheus",
]
