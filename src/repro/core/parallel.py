"""Partitioned ALEX: independent engines over partitioned spaces (Section 6.2).

The larger dataset is round-robin partitioned; each partition gets its own
:class:`~repro.core.engine.AlexEngine` with an independent policy, value
table, blacklist, and candidate set. Feedback on a link is routed to the
engine owning it. Partitions share nothing, so they may execute in parallel;
this implementation runs them in-process (the paper's parallelism affects
wall-clock only, not link quality).

:class:`PartitionedAlex` mirrors the single-engine interface so the feedback
session and experiment runner treat both uniformly.
"""

from __future__ import annotations

import zlib

from typing import Iterable, Sequence

from repro.core.config import AlexConfig
from repro.core.engine import AlexEngine
from repro.core.episode import EpisodeStats
from repro.errors import ConfigError
from repro.features.space import FeatureSpace
from repro.links import Link, LinkSet


def route(spaces: Sequence[FeatureSpace], link: Link) -> int:
    """The index of the partition owning ``link``: the first space that
    contains it, else a crc32 hash of its left entity.

    Links outside every filtered space (possible for initial candidates and
    ground-truth links) still need an owner for removal bookkeeping.
    :class:`PartitionedAlex` places initial links and routes feedback with
    this rule.
    """
    for index, space in enumerate(spaces):
        if link in space:
            return index
    return zlib.crc32(link.left.value.encode()) % len(spaces)


class PartitionedAlex:
    """A federation of per-partition ALEX engines."""

    def __init__(
        self,
        spaces: Sequence[FeatureSpace],
        initial_links: LinkSet | Iterable[Link],
        config: AlexConfig,
    ):
        if not spaces:
            raise ConfigError("PartitionedAlex needs at least one space")
        self.config = config
        self._spaces = tuple(spaces)
        self.engines: list[AlexEngine] = []
        routed: list[list[Link]] = [[] for _ in spaces]
        for link in initial_links:
            routed[route(spaces, link)].append(link)
        for index, (space, partition_links) in enumerate(zip(spaces, routed)):
            self.engines.append(
                AlexEngine(
                    space,
                    LinkSet(partition_links),
                    # Distinct seeds so partitions don't mirror each other's
                    # random choices.
                    config.replace(seed=config.seed + index),
                    name=f"partition-{index}",
                )
            )

    # ------------------------------------------------------------------ #
    # Engine-compatible interface
    # ------------------------------------------------------------------ #

    def owns(self, link: Link) -> bool:
        return any(engine.owns(link) for engine in self.engines)

    def engine_for(self, link: Link) -> AlexEngine:
        return self.engines[route(self._spaces, link)]

    def process_feedback(self, link: Link, positive: bool) -> list[Link]:
        return self.engine_for(link).process_feedback(link, positive)

    def end_episode(self) -> EpisodeStats:
        """End the episode on every engine; returns merged stats."""
        merged = EpisodeStats(index=self.episodes_completed + 1)
        for engine in self.engines:
            stats = engine.end_episode()
            merged.feedback_count += stats.feedback_count
            merged.positive_count += stats.positive_count
            merged.negative_count += stats.negative_count
            merged.links_discovered += stats.links_discovered
            merged.links_removed += stats.links_removed
            merged.rollbacks += stats.rollbacks
        return merged

    @property
    def candidates(self) -> LinkSet:
        """Union of all partitions' candidate links (built on demand)."""
        union = LinkSet(name="all-partitions")
        for engine in self.engines:
            for link in engine.candidates:
                union.add(link)
        return union

    @property
    def episodes_completed(self) -> int:
        return max(engine.episodes_completed for engine in self.engines)

    @property
    def converged(self) -> bool:
        return all(engine.converged for engine in self.engines)

    @property
    def stopped(self) -> bool:
        return all(engine.stopped for engine in self.engines)

    @property
    def converged_at(self) -> int | None:
        marks = [engine.converged_at for engine in self.engines]
        if any(mark is None for mark in marks):
            return None
        return max(marks)

    @property
    def relaxed_converged_at(self) -> int | None:
        marks = [engine.relaxed_converged_at for engine in self.engines]
        if any(mark is None for mark in marks):
            return None
        return max(marks)

    def __repr__(self):
        return f"<PartitionedAlex with {len(self.engines)} partitions>"
