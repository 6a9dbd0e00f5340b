"""Unit tests for the simplified PARIS aligner."""

import pytest

from repro import obs
from repro.datasets import catalog_keys, load_pair
from repro.errors import LinkingError
from repro.features.blocking import blocked_pairs
from repro.links import Link
from repro.paris import ParisAligner, RelationStatistics, paris_links
from repro.rdf import turtle
from repro.rdf.entity import entities_of
from repro.rdf.terms import URIRef
from repro.similarity.generic import object_similarity
from repro.similarity.prepared import cache_info, clear_caches


@pytest.fixture()
def left():
    return turtle.load(
        """
        @prefix r: <http://a/res/> .
        @prefix o: <http://a/ont/> .
        r:lebron o:name "LeBron James" ; o:code "LJ23" ; o:kind "player" .
        r:durant o:name "Kevin Durant" ; o:code "KD35" ; o:kind "player" .
        r:curry  o:name "Stephen Curry" ; o:code "SC30" ; o:kind "player" .
        """
    )


@pytest.fixture()
def right():
    return turtle.load(
        """
        @prefix r: <http://b/res/> .
        @prefix o: <http://b/ont/> .
        r:lj o:label "Lebron James" ; o:registry "LJ23" ; o:category "player" .
        r:kd o:label "Kevin Durant" ; o:registry "KD35" ; o:category "player" .
        r:sc o:label "Steph Curry" ; o:registry "SC30" ; o:category "player" .
        """
    )


class TestRelationStatistics:
    def test_functionality_single_valued(self, left):
        stats = RelationStatistics(left)
        assert stats.functionality(URIRef("http://a/ont/name")) == 1.0

    def test_inverse_functionality_identifying(self, left):
        stats = RelationStatistics(left)
        # codes are unique -> fully inverse functional
        assert stats.inverse_functionality(URIRef("http://a/ont/code")) == 1.0
        # 'kind' is shared by all three -> 1/3
        assert stats.inverse_functionality(URIRef("http://a/ont/kind")) == pytest.approx(1 / 3)

    def test_unknown_relation(self, left):
        stats = RelationStatistics(left)
        assert stats.functionality(URIRef("http://a/ont/none")) == 0.0


class TestAligner:
    def test_finds_correct_links(self, left, right):
        scored = ParisAligner(left, right).run()
        expected = {
            Link(URIRef("http://a/res/lebron"), URIRef("http://b/res/lj")),
            Link(URIRef("http://a/res/durant"), URIRef("http://b/res/kd")),
            Link(URIRef("http://a/res/curry"), URIRef("http://b/res/sc")),
        }
        assert expected <= set(scored)
        for link in expected:
            assert scored.score(link) > 0.8

    def test_mutual_best_is_one_to_one(self, left, right):
        scored = ParisAligner(left, right).run(mutual_best=True)
        lefts = [link.left for link in scored]
        rights = [link.right for link in scored]
        assert len(lefts) == len(set(lefts))
        assert len(rights) == len(set(rights))

    def test_all_candidates_superset_of_assignment(self, left, right):
        mutual = set(ParisAligner(left, right).run(mutual_best=True))
        everything = set(ParisAligner(left, right).run(mutual_best=False))
        assert mutual <= everything

    def test_relation_alignment_learned(self, left, right):
        aligner = ParisAligner(left, right)
        aligner.run()
        alignment = aligner.relation_alignment()
        name_pair = (URIRef("http://a/ont/name"), URIRef("http://b/ont/label"))
        assert alignment.get(name_pair, 0.0) > 0.5

    def test_invalid_iterations(self, left, right):
        with pytest.raises(LinkingError):
            ParisAligner(left, right, iterations=0)

    def test_empty_graphs(self):
        empty = turtle.load("")
        assert len(ParisAligner(empty, empty).run()) == 0

    def test_paris_links_threshold(self, left, right):
        strict = paris_links(left, right, score_threshold=0.95)
        loose = paris_links(left, right, score_threshold=0.1, mutual_best=False)
        assert len(strict) <= len(loose)
        for link in strict:
            assert link in loose


# --------------------------------------------------------------------- #
# Parity with the naive evidence loop
# --------------------------------------------------------------------- #


def naive_evidence(candidates, tau):
    """Parity oracle for ``ParisAligner._collect_evidence``, on the generic
    ``object_similarity``: per blocked pair, every attribute pair's best
    object similarity ≥ τ, in attribute order."""
    evidence = {}
    for left_entity, right_entity in candidates:
        matches = []
        for r1, objects1 in left_entity.attributes.items():
            for r2, objects2 in right_entity.attributes.items():
                best = 0.0
                for o1 in objects1:
                    for o2 in objects2:
                        score = object_similarity(o1, o2)
                        if score > best:
                            best = score
                if best >= tau:
                    matches.append((r1, r2, best))
        if matches:
            evidence[Link(left_entity.uri, right_entity.uri)] = matches
    return evidence


class OracleAligner(ParisAligner):
    def _collect_evidence(self, candidates):
        return naive_evidence(candidates, self.evidence_tau)


class TestNaiveParity:
    @pytest.mark.parametrize("key", catalog_keys())
    def test_evidence_equals_oracle_in_content_and_order(self, key):
        pair = load_pair(key)
        aligner = ParisAligner(pair.left, pair.right)
        candidates = list(
            blocked_pairs(list(entities_of(pair.left)), list(entities_of(pair.right)))
        )[::8]
        new = aligner._collect_evidence(candidates)
        oracle = naive_evidence(candidates, aligner.evidence_tau)
        assert new
        # the equivalence score is a float product over each list, so the
        # lists must match in order, not just as sets
        assert list(new.items()) == list(oracle.items())

    @pytest.mark.parametrize("key", ["opencyc_swdogfood", "opencyc_nba_nytimes"])
    def test_run_equals_oracle_run(self, key):
        pair = load_pair(key)
        aligner = ParisAligner(pair.left, pair.right)
        oracle = OracleAligner(pair.left, pair.right)
        scored = aligner.run(mutual_best=False)
        expected = oracle.run(mutual_best=False)
        assert len(scored) > 0
        assert {link: scored.score(link) for link in scored} == {
            link: expected.score(link) for link in expected
        }
        assert aligner.relation_alignment() == oracle.relation_alignment()


class TestScorerReleaseAndRegion:
    def test_memos_released_after_paris_links(self, left, right):
        paris_links(left, right)
        info = cache_info()
        assert info["score_entries"] == 0
        assert info["attr_entries"] == 0

    def test_one_region_per_call_and_scorer_tallies_flushed(self, left, right):
        clear_caches()  # cold memos: every attribute pair is a miss
        with obs.use_registry(obs.Registry("paris")) as registry:
            paris_links(left, right)
        snapshot = registry.snapshot()
        runs = [h for h in snapshot["histograms"] if h["name"] == "paris.run"]
        assert [h["count"] for h in runs] == [1]
        misses = [
            entry["value"]
            for entry in snapshot["counters"]
            if entry["name"] == "similarity.cache.misses"
            and entry["labels"] == {"layer": "attribute"}
        ]
        assert misses and misses[0] > 0
