"""Unit tests for the policy, action-value table, and episode bookkeeping."""

import random

import pytest

from repro.core import ActionValueTable, Episode, EpsilonGreedyPolicy, StateAction
from repro.core.state import available_actions
from repro.errors import PolicyError
from repro.features.feature_set import FeatureSet
from repro.links import Link
from repro.rdf.terms import URIRef


def key(a: str, b: str):
    return (URIRef(f"http://a/ont/{a}"), URIRef(f"http://b/ont/{b}"))


def link(n: int) -> Link:
    return Link(URIRef(f"http://a/res/e{n}"), URIRef(f"http://b/res/e{n}"))


FEATURES = [key("label", "name"), key("birth", "born"), key("type", "type")]


class TestEpsilonGreedyPolicy:
    def test_uniform_before_improvement(self):
        policy = EpsilonGreedyPolicy(0.1)
        probabilities = policy.action_probabilities(link(1), FEATURES)
        assert all(p == pytest.approx(1 / 3) for p in probabilities.values())
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_epsilon_greedy_after_improvement(self):
        policy = EpsilonGreedyPolicy(0.1)
        policy.improve(link(1), FEATURES[0])
        probabilities = policy.action_probabilities(link(1), FEATURES)
        assert probabilities[FEATURES[0]] == pytest.approx(1 - 0.1 + 0.1 / 3)
        assert probabilities[FEATURES[1]] == pytest.approx(0.1 / 3)
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_all_actions_keep_nonzero_probability(self):
        policy = EpsilonGreedyPolicy(0.05)
        policy.improve(link(1), FEATURES[2])
        for probability in policy.action_probabilities(link(1), FEATURES).values():
            assert probability > 0.0

    def test_choose_respects_greedy_mostly(self):
        policy = EpsilonGreedyPolicy(0.1)
        policy.improve(link(1), FEATURES[1])
        rng = random.Random(0)
        choices = [policy.choose(link(1), FEATURES, rng) for _ in range(1000)]
        greedy_share = choices.count(FEATURES[1]) / len(choices)
        assert greedy_share > 0.85

    def test_choose_uniform_for_unknown_state(self):
        policy = EpsilonGreedyPolicy(0.1)
        rng = random.Random(0)
        choices = {policy.choose(link(9), FEATURES, rng) for _ in range(100)}
        assert choices == set(FEATURES)

    def test_stale_greedy_action_ignored(self):
        policy = EpsilonGreedyPolicy(0.1)
        policy.improve(link(1), key("gone", "gone"))
        rng = random.Random(0)
        # the remembered greedy action is not among the available ones
        choice = policy.choose(link(1), FEATURES, rng)
        assert choice in FEATURES

    def test_empty_actions_raise(self):
        policy = EpsilonGreedyPolicy(0.1)
        with pytest.raises(PolicyError):
            policy.choose(link(1), [], random.Random(0))

    def test_invalid_epsilon(self):
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(PolicyError):
                EpsilonGreedyPolicy(eps)


class TestActionValueTable:
    def test_q_undefined_initially(self):
        table = ActionValueTable()
        assert table.q(StateAction(link(1), FEATURES[0])) is None

    def test_q_is_average_of_returns(self):
        table = ActionValueTable()
        sa = StateAction(link(1), FEATURES[0])
        table.record_return(sa, 1.0)
        table.record_return(sa, -1.0)
        table.record_return(sa, 1.0)
        assert table.q(sa) == pytest.approx(1 / 3)
        assert table.returns(sa) == [1.0, -1.0, 1.0]

    def test_greedy_action_argmax(self):
        table = ActionValueTable()
        table.record_return(StateAction(link(1), FEATURES[0]), 1.0)
        table.record_return(StateAction(link(1), FEATURES[1]), -1.0)
        assert table.greedy_action(link(1), FEATURES) == FEATURES[0]

    def test_greedy_action_none_when_no_values(self):
        table = ActionValueTable()
        assert table.greedy_action(link(1), FEATURES) is None

    def test_greedy_ignores_other_states(self):
        table = ActionValueTable()
        table.record_return(StateAction(link(2), FEATURES[0]), 5.0)
        assert table.greedy_action(link(1), FEATURES) is None

    def test_tie_breaks_deterministically(self):
        table = ActionValueTable()
        table.record_return(StateAction(link(1), FEATURES[0]), 1.0)
        table.record_return(StateAction(link(1), FEATURES[1]), 1.0)
        first = table.greedy_action(link(1), FEATURES)
        assert first == table.greedy_action(link(1), FEATURES)


class TestEpisode:
    def test_first_visit_semantics(self):
        episode = Episode(index=1)
        assert episode.first_visit(link(1)) is True
        assert episode.first_visit(link(1)) is False
        assert episode.first_visit(link(2)) is True

    def test_feedback_counters(self):
        episode = Episode(index=1)
        episode.record_feedback(True)
        episode.record_feedback(False)
        episode.record_feedback(False)
        assert episode.stats.positive_count == 1
        assert episode.stats.negative_count == 2
        assert episode.stats.negative_fraction == pytest.approx(2 / 3)

    def test_negative_fraction_empty(self):
        assert Episode(index=1).stats.negative_fraction == 0.0

    def test_acted_states(self):
        episode = Episode(index=1)
        episode.record_action(link(1))
        episode.record_action(link(1))
        episode.record_action(link(2))
        assert episode.acted_states() == {link(1), link(2)}


class TestStateHelpers:
    def test_available_actions_sorted(self):
        fs = FeatureSet({FEATURES[1]: 0.5, FEATURES[0]: 0.9})
        actions = available_actions(fs)
        assert actions == sorted(actions, key=lambda k: (k[0].value, k[1].value))
