"""Simplified PARIS: probabilistic instance alignment for initial links."""

from repro.paris.align import DEFAULT_EVIDENCE_TAU, ParisAligner, paris_links
from repro.paris.model import RelationStatistics

__all__ = [
    "DEFAULT_EVIDENCE_TAU",
    "ParisAligner",
    "RelationStatistics",
    "paris_links",
]
