"""Tests for the policy introspection reports."""

import pytest

from repro.core import AlexConfig, AlexEngine, policy_report
from repro.core.reporting import feature_label
from repro.features import FeatureSpace
from repro.feedback import FeedbackSession, GroundTruthOracle
from repro.links import Link, LinkSet
from repro.rdf.entity import Entity
from repro.rdf.terms import Literal, URIRef

LEFT_NAME = URIRef("http://a/ont/name")
RIGHT_NAME = URIRef("http://b/ont/name")
LEFT_KIND = URIRef("http://a/ont/kind")
RIGHT_KIND = URIRef("http://b/ont/kind")


def link(i: int, j: int) -> Link:
    return Link(URIRef(f"http://a/res/e{i}"), URIRef(f"http://b/res/e{j}"))


@pytest.fixture()
def trained():
    """A small space with a good feature (name) and a junk feature (kind,
    constant across all entities), trained with oracle feedback."""
    names = ["Alpha Jones", "Bravo Smith", "Carol Jones", "Delta Smith",
             "Echo Jones", "Foxtrot Smith"]
    space = FeatureSpace(theta=0.3)
    for i in range(6):
        left = Entity(
            URIRef(f"http://a/res/e{i}"),
            {LEFT_NAME: (Literal(names[i]),), LEFT_KIND: (Literal("thing"),)},
        )
        for j in range(6):
            right = Entity(
                URIRef(f"http://b/res/e{j}"),
                {RIGHT_NAME: (Literal(names[j]),), RIGHT_KIND: (Literal("thing"),)},
            )
            space.add_pair(left, right)
    space.freeze()
    truth = LinkSet([link(i, i) for i in range(6)])
    engine = AlexEngine(
        space,
        LinkSet([link(0, 0)]),
        AlexConfig(episode_size=20, seed=5, rollback_min_negatives=3,
                   distinctiveness_min_negatives=5),
        name="trained",
    )
    session = FeedbackSession(engine, GroundTruthOracle(truth), seed=5)
    session.run(episode_size=20, max_episodes=15)
    return engine


class TestPolicyReport:
    def test_counts_match_engine(self, trained):
        report = policy_report(trained)
        assert report.engine_name == "trained"
        assert report.candidate_count == len(trained.candidates)
        assert report.blacklist_count == len(trained.blacklist)
        assert report.episodes_completed == trained.episodes_completed

    def test_name_feature_learned_positive(self, trained):
        report = policy_report(trained)
        name_summary = next(s for s in report.features if s.label == "(name, name)")
        kind_summary = next(s for s in report.features if s.label == "(kind, kind)")
        assert name_summary.average_return is not None
        assert name_summary.average_return > 0, "the identifying feature earns positive returns"
        assert kind_summary.average_return is not None
        assert kind_summary.average_return < 0, "the junk feature earns negative returns"
        assert any("name" in s.label for s in report.preferred_features())

    def test_junk_feature_poisoned(self, trained):
        report = policy_report(trained)
        poisoned_labels = {summary.label for summary in report.non_distinctive_features()}
        assert "(kind, kind)" in poisoned_labels

    def test_render_contains_sections(self, trained):
        text = policy_report(trained).render()
        assert "preferred features" in text
        assert "non-distinctive features" in text
        assert "trained" in text

    def test_feature_label(self):
        label = feature_label((LEFT_NAME, RIGHT_NAME))
        assert label == "(name, name)"
