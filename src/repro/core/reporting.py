"""Introspection reports: what did ALEX learn?

Operators of a feedback-driven system need to see *why* it explores the way
it does. These helpers summarize an engine's learned state: which features
the policy prefers (per state and in aggregate) and which features were
ruled out as non-distinctive.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.engine import AlexEngine
from repro.features.feature_set import FeatureKey


def feature_label(key: FeatureKey) -> str:
    """Human-readable ``(left_local, right_local)`` rendering of a feature."""
    return f"({key[0].local_name}, {key[1].local_name})"


@dataclass
class FeatureSummary:
    """Aggregate view of one feature across the engine's experience."""

    key: FeatureKey
    greedy_states: int            # states whose improved policy picks it
    positives: int                # positive feedback on links it generated
    negatives: int
    average_return: float | None
    distinctive: bool

    @property
    def label(self) -> str:
        return feature_label(self.key)


@dataclass
class PolicyReport:
    """The full introspection bundle for one engine."""

    engine_name: str
    improved_states: int
    candidate_count: int
    blacklist_count: int
    episodes_completed: int
    features: list[FeatureSummary] = field(default_factory=list)

    def preferred_features(self, top: int = 5) -> list[FeatureSummary]:
        """Features ranked by how many states' greedy policies choose them."""
        ranked = sorted(self.features, key=lambda f: (-f.greedy_states, f.label))
        return [summary for summary in ranked[:top] if summary.greedy_states > 0]

    def non_distinctive_features(self) -> list[FeatureSummary]:
        return sorted(
            (summary for summary in self.features if not summary.distinctive),
            key=lambda f: f.label,
        )

    def render(self) -> str:
        lines = [
            f"policy report for {self.engine_name!r}: "
            f"{self.candidate_count} candidates, {self.blacklist_count} blacklisted, "
            f"{self.improved_states} improved states, "
            f"{self.episodes_completed} episodes",
            "",
            "preferred features (by greedy-state count):",
        ]
        for summary in self.preferred_features():
            avg = "n/a" if summary.average_return is None else f"{summary.average_return:+.2f}"
            lines.append(
                f"  {summary.greedy_states:3d}x {summary.label}  "
                f"(+{summary.positives}/-{summary.negatives}, avg return {avg})"
            )
        poisoned = self.non_distinctive_features()
        lines.append("")
        lines.append(f"non-distinctive features ({len(poisoned)}):")
        for summary in poisoned:
            lines.append(
                f"  {summary.label}  (+{summary.positives}/-{summary.negatives})"
            )
        return "\n".join(lines)


def policy_report(engine: AlexEngine) -> PolicyReport:
    """Build the introspection report for ``engine``."""
    greedy_counts: Counter[FeatureKey] = Counter()
    for state in engine.policy.states():
        action = engine.policy.greedy_action(state)
        if action is not None:
            greedy_counts[action] += 1

    distinctiveness = engine.distinctiveness
    keys = set(greedy_counts)
    keys.update(engine.space.feature_keys())
    summaries = [
        FeatureSummary(
            key=key,
            greedy_states=greedy_counts.get(key, 0),
            positives=distinctiveness.positives(key),
            negatives=distinctiveness.negatives(key),
            average_return=distinctiveness.average_return(key),
            distinctive=distinctiveness.is_distinctive(key),
        )
        for key in sorted(keys, key=lambda k: (k[0].value, k[1].value))
    ]
    return PolicyReport(
        engine_name=engine.name,
        improved_states=len(engine.policy),
        candidate_count=len(engine.candidates),
        blacklist_count=len(engine.blacklist),
        episodes_completed=engine.episodes_completed,
        features=summaries,
    )
