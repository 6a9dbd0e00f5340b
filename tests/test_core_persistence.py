"""Tests for engine state save/load (the AlexEngine method API)."""

import json
import os
import subprocess
import sys

import pytest

from repro.core import AlexConfig, AlexEngine
from repro.errors import ConfigError
from repro.features import FeatureSpace
from repro.feedback import FeedbackSession, GroundTruthOracle
from repro.links import Link, LinkSet
from repro.rdf.entity import Entity
from repro.rdf.terms import Literal, URIRef

LEFT_NAME = URIRef("http://a/ont/name")
RIGHT_NAME = URIRef("http://b/ont/name")


def link(i: int, j: int) -> Link:
    return Link(URIRef(f"http://a/res/e{i}"), URIRef(f"http://b/res/e{j}"))


@pytest.fixture()
def space() -> FeatureSpace:
    space = FeatureSpace(theta=0.3)
    for i in range(5):
        left = Entity(URIRef(f"http://a/res/e{i}"), {LEFT_NAME: (Literal(f"Name{i} Jones"),)})
        for j in range(5):
            right = Entity(
                URIRef(f"http://b/res/e{j}"), {RIGHT_NAME: (Literal(f"Name{j} Jones"),)}
            )
            space.add_pair(left, right)
    space.freeze()
    return space


@pytest.fixture()
def trained_engine(space) -> AlexEngine:
    truth = LinkSet([link(i, i) for i in range(5)])
    engine = AlexEngine(space, LinkSet([link(0, 0)]), AlexConfig(episode_size=15, seed=3))
    session = FeedbackSession(engine, GroundTruthOracle(truth), seed=3)
    session.run(episode_size=15, max_episodes=6)
    return engine


class TestRoundTrip:
    def test_candidates_preserved(self, space, trained_engine):
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        assert restored.candidates.snapshot() == trained_engine.candidates.snapshot()

    def test_blacklist_and_confirmed_preserved(self, space, trained_engine):
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        assert restored.blacklist == trained_engine.blacklist
        assert restored.confirmed == trained_engine.confirmed

    def test_policy_preserved(self, space, trained_engine):
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        for state in trained_engine.policy.states():
            assert restored.policy.greedy_action(state) == trained_engine.policy.greedy_action(state)

    def test_q_values_preserved(self, space, trained_engine):
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        for state_action in trained_engine.values.known_pairs():
            assert restored.values.q(state_action) == pytest.approx(
                trained_engine.values.q(state_action)
            )

    def test_episode_counters_preserved(self, space, trained_engine):
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        assert restored.episodes_completed == trained_engine.episodes_completed
        assert restored.converged_at == trained_engine.converged_at

    def test_restored_engine_keeps_learning(self, space, trained_engine):
        truth = LinkSet([link(i, i) for i in range(5)])
        restored = AlexEngine.from_dict(space, trained_engine.to_dict())
        session = FeedbackSession(restored, GroundTruthOracle(truth), seed=4)
        session.run_episode(15)
        assert restored.episodes_completed == trained_engine.episodes_completed + 1

    def test_file_round_trip(self, space, trained_engine, tmp_path):
        path = str(tmp_path / "engine.json")
        trained_engine.save(path)
        restored = AlexEngine.load(space, path)
        assert restored.candidates.snapshot() == trained_engine.candidates.snapshot()
        # the file is real JSON
        with open(path) as handle:
            assert json.load(handle)["format_version"] == 1

    def test_scores_preserved(self, space):
        candidates = LinkSet()
        candidates.add(link(0, 0), score=0.93)
        engine = AlexEngine(space, candidates, AlexConfig(episode_size=5))
        restored = AlexEngine.from_dict(space, engine.to_dict())
        assert restored.candidates.score(link(0, 0)) == 0.93

    def test_unknown_version_rejected(self, space, trained_engine):
        state = trained_engine.to_dict()
        state["format_version"] = 99
        with pytest.raises(ConfigError):
            AlexEngine.from_dict(space, state)

    def test_dump_is_deterministic(self, space, trained_engine):
        first = json.dumps(trained_engine.to_dict(), sort_keys=True)
        second = json.dumps(trained_engine.to_dict(), sort_keys=True)
        assert first == second


class TestStateValidation:
    def test_pre_3_0_pool_fields_are_dropped(self, space, trained_engine):
        state = trained_engine.to_dict()
        old = json.loads(json.dumps(state))
        old["config"].update(pool_workers=0, pool_idle_timeout=300.0)
        assert AlexEngine.from_dict(space, old).to_dict() == state

    def test_pre_5_0_reporter_fields_are_dropped(self, space, trained_engine, tmp_path):
        state = trained_engine.to_dict()
        old = json.loads(json.dumps(state))
        old["config"].update(report_interval=0.0, report_path=None)
        path = tmp_path / "engine-4x.json"
        path.write_text(json.dumps(old))
        assert AlexEngine.load(space, str(path)).to_dict() == state

    @pytest.mark.parametrize(
        "section", ["config", "candidates", "blacklist", "confirmed", "returns", "policy", "ledger"]
    )
    def test_missing_section_rejected(self, space, trained_engine, section):
        state = trained_engine.to_dict()
        del state[section]
        with pytest.raises(ConfigError, match=repr(section)):
            AlexEngine.from_dict(space, state)

    def test_config_must_be_a_mapping(self, space, trained_engine):
        state = trained_engine.to_dict()
        state["config"] = "episode_size=15"
        with pytest.raises(ConfigError, match="'config'"):
            AlexEngine.from_dict(space, state)

    def test_unknown_config_field_rejected(self, space, trained_engine):
        state = trained_engine.to_dict()
        state["config"]["episode_length"] = 15
        with pytest.raises(ConfigError, match="'episode_length'"):
            AlexEngine.from_dict(space, state)


#: Three seeded episodes on the smallest catalog pair, saved to argv[1].
_SEEDED_SAVE = """
import sys
from repro import (AlexConfig, AlexEngine, FeatureSpace, FeedbackSession,
                   GroundTruthOracle, load_pair, paris_links)
pair = load_pair("opencyc_nba_nytimes")
engine = AlexEngine(
    FeatureSpace.build(pair.left, pair.right),
    paris_links(pair.left, pair.right, score_threshold=0.8),
    AlexConfig(episode_size=20, seed=1),
)
FeedbackSession(engine, GroundTruthOracle(pair.ground_truth), seed=1).run(
    episode_size=20, max_episodes=3
)
engine.save(sys.argv[1])
"""


class TestHashSeedIndependence:
    def test_save_bytes_identical_across_hash_seeds(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        saved = []
        for hash_seed in ("0", "1"):
            path = tmp_path / f"engine-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-c", _SEEDED_SAVE, str(path)],
                check=True, env=env, timeout=300,
            )
            saved.append(path.read_bytes())
        state = json.loads(saved[0])
        # the run fills both set-backed sections with several entries
        assert len(state["distinctiveness"]) > 1
        assert any(len(entry["links"]) > 1 for entry in state["ledger"])
        assert saved[0] == saved[1]


class TestDeprecatedShims:
    """The pre-1.1 four-function surface is gone (v2.0.0); the
    AlexEngine methods carry no deprecation warnings."""

    def test_new_api_does_not_warn(self, space, trained_engine, tmp_path):
        import warnings

        path = str(tmp_path / "engine.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            trained_engine.save(path)
            AlexEngine.load(space, path)
            AlexEngine.from_dict(space, trained_engine.to_dict())
