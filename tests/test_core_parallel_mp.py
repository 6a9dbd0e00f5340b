"""Tests for the multiprocessing partition runner (and pickling support)."""

import pickle

import pytest

from repro.core import AlexConfig
from repro.core.parallel_mp import run_partitions_parallel
from repro.datasets import PERSON_PROFILE, PairSpec, generate_pair
from repro.errors import ConfigError
from repro.evaluation import evaluate_links
from repro.features import FeatureSpace, build_partitioned_spaces
from repro.links import LinkSet
from repro.paris import paris_links
from repro.rdf.terms import BNode, Literal, URIRef


@pytest.fixture(scope="module")
def pair():
    return generate_pair(
        PairSpec(
            name="mp",
            left_name="left",
            right_name="right",
            profiles=(PERSON_PROFILE,),
            n_shared=30,
            n_left_only=20,
            n_right_only=10,
            noise_left=0.1,
            noise_right=0.25,
            seed=21,
        )
    )


class TestPickling:
    def test_terms_pickle(self):
        for term in (URIRef("http://x/a"), BNode("b1"), Literal("v", language="en"),
                     Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer")):
            assert pickle.loads(pickle.dumps(term)) == term

    def test_feature_space_pickles(self, pair):
        space = FeatureSpace.build(pair.left, pair.right)
        clone = pickle.loads(pickle.dumps(space))
        assert set(clone.links()) == set(space.links())
        some_link = next(iter(space.links()))
        assert clone.feature_set(some_link) == space.feature_set(some_link)

    def test_linkset_pickles(self, pair):
        clone = pickle.loads(pickle.dumps(pair.ground_truth))
        assert clone == pair.ground_truth


class TestParallelRun:
    def test_parallel_matches_quality(self, pair):
        spaces = build_partitioned_spaces(pair.left, pair.right, 2)
        initial = paris_links(pair.left, pair.right, 0.8)
        merged, outcomes = run_partitions_parallel(
            spaces,
            initial,
            pair.ground_truth,
            AlexConfig(episode_size=30, seed=5, rollback_min_negatives=3),
            episode_size=30,
            max_episodes=25,
            max_workers=2,
        )
        assert len(outcomes) == 2
        quality = evaluate_links(merged, pair.ground_truth)
        assert quality.f_measure > 0.75

    def test_sequential_fallback_deterministic(self, pair):
        spaces = build_partitioned_spaces(pair.left, pair.right, 2)
        initial = paris_links(pair.left, pair.right, 0.8)

        def run():
            merged, _ = run_partitions_parallel(
                spaces, initial, pair.ground_truth,
                AlexConfig(episode_size=20, seed=5, rollback_min_negatives=3),
                episode_size=20, max_episodes=10, max_workers=1,
            )
            return merged.snapshot()

        assert run() == run()

    def test_parallel_equals_sequential(self, pair):
        spaces = build_partitioned_spaces(pair.left, pair.right, 2)
        initial = paris_links(pair.left, pair.right, 0.8)
        config = AlexConfig(episode_size=20, seed=5, rollback_min_negatives=3)
        sequential, _ = run_partitions_parallel(
            spaces, initial, pair.ground_truth, config,
            episode_size=20, max_episodes=10, max_workers=1,
        )
        parallel, _ = run_partitions_parallel(
            spaces, initial, pair.ground_truth, config,
            episode_size=20, max_episodes=10, max_workers=2,
        )
        assert sequential.snapshot() == parallel.snapshot()

    def test_outcomes_carry_metadata(self, pair):
        spaces = build_partitioned_spaces(pair.left, pair.right, 2)
        merged, outcomes = run_partitions_parallel(
            spaces, LinkSet(), pair.ground_truth,
            AlexConfig(episode_size=10, seed=5),
            episode_size=10, max_episodes=3, max_workers=1,
        )
        assert {outcome.name for outcome in outcomes} == {"partition-0", "partition-1"}
        for outcome in outcomes:
            assert outcome.episodes_run <= 3
            assert outcome.elapsed_seconds >= 0.0

    def test_empty_spaces_rejected(self, pair):
        with pytest.raises(ConfigError):
            run_partitions_parallel(
                [], LinkSet(), pair.ground_truth,
                AlexConfig(episode_size=10), episode_size=10, max_episodes=1,
            )


class TestRouting:
    def test_both_runners_route_every_link_alike(self, pair, monkeypatch):
        """PartitionedAlex and run_partitions_parallel give every initial
        link, every ground-truth link, and a link outside every space the
        same partition index."""
        from repro.core import PartitionedAlex, parallel_mp
        from repro.links import Link

        spaces = build_partitioned_spaces(pair.left, pair.right, 3)
        assert len(spaces) == 3
        outside = Link(URIRef("http://left.example/nowhere"), URIRef("http://right.example/nowhere"))
        assert all(outside not in space for space in spaces)
        initial = LinkSet(list(paris_links(pair.left, pair.right, 0.8)) + [outside])
        truth = LinkSet(list(pair.ground_truth) + [outside])
        config = AlexConfig(episode_size=5, seed=5)

        shipped = []  # per partition job: (initial links, ground-truth links)

        def capture(space_blob, initial_links, ground_truth_links, *rest):
            shipped.append((initial_links, ground_truth_links))
            return parallel_mp.PartitionOutcome(
                name=f"partition-{len(shipped) - 1}", candidates=frozenset(),
                episodes_run=0, converged_at=None, relaxed_converged_at=None,
                elapsed_seconds=0.0,
            )

        monkeypatch.setattr(parallel_mp, "_run_partition", capture)
        run_partitions_parallel(
            spaces, initial, truth, config, episode_size=5, max_episodes=1, max_workers=1
        )
        alex = PartitionedAlex(spaces, initial, config)

        assert len(shipped) == len(spaces)
        assert set().union(*(links for links, _ in shipped)) == set(initial)
        assert set().union(*(links for _, links in shipped)) == set(truth)
        for index, (initial_part, truth_part) in enumerate(shipped):
            for link in initial_part:
                assert link in alex.engines[index].candidates
            for link in initial_part | truth_part:
                assert alex.engine_for(link) is alex.engines[index]
        owner = alex.engines.index(alex.engine_for(outside))
        assert outside in shipped[owner][0] and outside in shipped[owner][1]
