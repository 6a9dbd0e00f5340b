"""States and actions of the ALEX decision process.

A *state* is a link (the paper uses the terms interchangeably), represented
by its feature set. An *action* picks one feature of the state and an
exploration offset: "find all the links that have similarity value between
sf and sf ± af" (Section 4.2). State-action pairs key the action-value
table and the provenance ledger.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.features.feature_set import FeatureKey, FeatureSet
from repro.links import Link


class StateAction(NamedTuple):
    """A (state, action) pair: the link acted on and the feature explored."""

    state: Link
    action: FeatureKey

    def describe(self) -> str:
        p1, p2 = self.action
        return f"explore ({p1.local_name}, {p2.local_name}) around {self.state.left.local_name}"


def available_actions(feature_set: FeatureSet) -> list[FeatureKey]:
    """A(s): one action per feature of the state's feature set, in
    deterministic order."""
    return feature_set.keys_sorted()
