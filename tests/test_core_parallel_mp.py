"""Tests for partitioned ALEX: pickling support for the worker pool, link
routing, and run determinism regardless of build workers and hash seed."""

import os
import pickle
import subprocess
import sys
import zlib

import pytest

from repro.core import AlexConfig, PartitionedAlex
from repro.core.parallel import route
from repro.datasets import PERSON_PROFILE, PairSpec, generate_pair
from repro.features import FeatureSpace, build_partitioned_spaces
from repro.links import Link, LinkSet
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


class TestRouting:
    def test_partitioned_alex_routes_every_link_by_route(self, pair):
        """Every initial link sits in exactly the engine ``route()`` picks,
        ground-truth links go to that engine too, and a link outside every
        space goes to engine ``crc32(left) % n``."""
        spaces = build_partitioned_spaces(pair.left, pair.right, 3)
        assert len(spaces) == 3
        outside = Link(URIRef("http://left.example/nowhere"), URIRef("http://right.example/nowhere"))
        assert all(outside not in space for space in spaces)
        initial = LinkSet(list(paris_links(pair.left, pair.right, 0.8)) + [outside])
        alex = PartitionedAlex(spaces, initial, AlexConfig(episode_size=5, seed=5))

        for link in initial:
            holders = [i for i, engine in enumerate(alex.engines) if link in engine.candidates]
            assert holders == [route(spaces, link)]
        for link in pair.ground_truth:
            engine = alex.engine_for(link)
            assert engine is alex.engines[route(spaces, link)]
            assert link in engine.space or all(link not in space for space in spaces)
        owner = zlib.crc32(outside.left.value.encode()) % len(spaces)
        assert alex.engine_for(outside) is alex.engines[owner]
        assert outside in alex.engines[owner].candidates


#: A seeded PartitionedAlex session over the ``pair`` fixture's spec, its
#: spaces built with argv[1] workers; prints the sorted final links.
_SEEDED_PARTITIONED_RUN = """
import sys
from repro import (AlexConfig, FeedbackSession, GroundTruthOracle, PartitionedAlex,
                   build_partitioned_spaces, paris_links)
from repro.datasets import PERSON_PROFILE, PairSpec, generate_pair
pair = generate_pair(PairSpec(
    name="mp", left_name="left", right_name="right", profiles=(PERSON_PROFILE,),
    n_shared=30, n_left_only=20, n_right_only=10, noise_left=0.1, noise_right=0.25,
    seed=21,
))
spaces = build_partitioned_spaces(pair.left, pair.right, 2, workers=int(sys.argv[1]))
alex = PartitionedAlex(
    spaces, paris_links(pair.left, pair.right, 0.8),
    AlexConfig(episode_size=20, seed=5, rollback_min_negatives=3),
)
FeedbackSession(alex, GroundTruthOracle(pair.ground_truth), seed=3).run(
    episode_size=20, max_episodes=10
)
for left, right in sorted((link.left.value, link.right.value) for link in alex.candidates):
    print(left, right)
"""


class TestDeterminism:
    def test_links_identical_across_build_workers_and_hash_seeds(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for workers, hash_seed in (("1", "0"), ("2", "1")):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", _SEEDED_PARTITIONED_RUN, workers],
                check=True, env=env, timeout=300, capture_output=True, text=True,
            )
            outputs.append(completed.stdout)
        assert len(outputs[0].splitlines()) > 0
        assert outputs[0] == outputs[1]
