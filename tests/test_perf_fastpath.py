"""Fast-path feature-space construction: parity, bounds, caches, obs.

The contract under test (docs/performance.md): for every feature the θ-filter
admits, the prepared/cached/prefiltered/parallel builds produce results
**bit-identical** to scoring each pair with the paper's generic rule
(``build_feature_set`` via ``FeatureSpace.add_pair``) — same links, same
feature keys, same float scores. Plus unit coverage for every upper bound
(bound ≥ true metric on randomized inputs), the cache bookkeeping, the
blocking token memo, the ``links_of_left`` index, and the ``Graph.count``
fast path.
"""

import random

import pytest

from repro import obs
from repro.datasets import PERSON_PROFILE, PairSpec, generate_pair
from repro.features import FeatureSpace, blocked_pairs
from repro.features.blocking import entity_tokens
from repro.features.feature_set import build_feature_set, build_feature_set_prepared
from repro.links import Link
from repro.rdf.entity import entities_of
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef
from repro.similarity import (
    jaro_winkler_similarity,
    jaro_winkler_upper_bound,
    normalize,
    token_jaccard_similarity,
    token_jaccard_upper_bound,
)
from repro.similarity.generic import best_object_similarity, object_similarity
from repro.similarity.prepared import (
    PreparedText,
    _prepared_jaro_winkler,
    best_prepared_similarity,
    cache_info,
    clear_caches,
    prepare_entity,
    prepare_term,
    prepared_object_similarity,
)
from repro.similarity.strings import shared_prefix_length


def _spec(shared=40, seed=5, **overrides):
    defaults = dict(
        name="fastpath",
        left_name="L",
        right_name="R",
        profiles=(PERSON_PROFILE,),
        n_shared=shared,
        n_left_only=15,
        n_right_only=15,
        seed=seed,
    )
    defaults.update(overrides)
    return PairSpec(**defaults)


@pytest.fixture()
def pair_entities():
    pair = generate_pair(_spec())
    return list(entities_of(pair.left)), list(entities_of(pair.right))


def parity_mismatches(reference: FeatureSpace, candidate: FeatureSpace) -> int:
    """Number of links whose presence or feature scores differ.

    Zero means the two spaces are exactly equal: the same admitted links and,
    for each, bit-identical feature sets.
    """
    links_a = set(reference.links())
    links_b = set(candidate.links())
    mismatches = len(links_a ^ links_b)
    for link in links_a & links_b:
        if reference.feature_set(link) != candidate.feature_set(link):
            mismatches += 1
    return mismatches


def _random_strings(rng, count, alphabet="abcdefg hi", max_len=14):
    out = []
    for _ in range(count):
        out.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))))
    return out


# --------------------------------------------------------------------- #
# Upper bounds: bound ≥ true score, always
# --------------------------------------------------------------------- #


class TestUpperBounds:
    def test_jaro_winkler_bound_dominates(self):
        rng = random.Random(11)
        strings = _random_strings(rng, 80)
        for a in strings[:40]:
            for b in strings[40:]:
                na, nb = normalize(a), normalize(b)
                assert jaro_winkler_upper_bound(na, nb) >= jaro_winkler_similarity(na, nb)

    def test_token_jaccard_bound_dominates(self):
        rng = random.Random(13)
        strings = _random_strings(rng, 80)
        for a in strings[:40]:
            for b in strings[40:]:
                assert token_jaccard_upper_bound(a, b) >= token_jaccard_similarity(a, b)

    def test_bounds_handle_empty_inputs(self):
        assert jaro_winkler_upper_bound("", "") == 1.0
        assert jaro_winkler_upper_bound("abc", "") == 0.0
        assert token_jaccard_upper_bound("", "") == 1.0
        assert token_jaccard_upper_bound("a", "") == 0.0


class TestPreparedJaro:
    def test_bit_identical_to_generic_metric(self):
        rng = random.Random(23)
        strings = _random_strings(rng, 120)
        for a in strings[:60]:
            for b in strings[60:]:
                na, nb = normalize(a), normalize(b)
                if na == nb or not na or not nb:
                    continue
                got = _prepared_jaro_winkler(
                    PreparedText(a), PreparedText(b), shared_prefix_length(na, nb)
                )
                assert got == jaro_winkler_similarity(na, nb)


# --------------------------------------------------------------------- #
# Prepared scoring parity (value level and attribute level)
# --------------------------------------------------------------------- #


class TestPreparedScoring:
    def _terms(self):
        return [
            Literal("LeBron James"),
            Literal("lebron  james"),
            Literal("1984", datatype="http://www.w3.org/2001/XMLSchema#integer"),
            Literal("1986", datatype="http://www.w3.org/2001/XMLSchema#integer"),
            Literal("3.25", datatype="http://www.w3.org/2001/XMLSchema#decimal"),
            Literal("true", datatype="http://www.w3.org/2001/XMLSchema#boolean"),
            Literal("1984-12-30", datatype="http://www.w3.org/2001/XMLSchema#date"),
            URIRef("http://a/res/LeBron_James"),
            URIRef("http://b/res/lebronJames"),
            Literal("Miami Heat"),
        ]

    def test_value_scores_match_object_similarity(self):
        clear_caches()
        terms = self._terms()
        for a in terms:
            for b in terms:
                got = prepared_object_similarity(prepare_term(a), prepare_term(b))
                assert got == object_similarity(a, b), (a, b)

    def test_best_prepared_matches_best_object_similarity(self):
        clear_caches()
        groups = [
            (Literal("LeBron James"), Literal("Akron")),
            (Literal("Lebron James"),),
            (Literal("1984", datatype="http://www.w3.org/2001/XMLSchema#integer"),),
            (URIRef("http://a/res/LeBron_James"), Literal("Cleveland")),
        ]
        for objects_a in groups:
            for objects_b in groups:
                prepared_a = tuple(prepare_term(t) for t in objects_a)
                prepared_b = tuple(prepare_term(t) for t in objects_b)
                got = best_prepared_similarity(prepared_a, prepared_b)
                assert got == best_object_similarity(objects_a, objects_b)

    def test_theta_floor_never_changes_admitted_scores(self, pair_entities):
        left, right = pair_entities
        clear_caches()
        for theta in (0.0, 0.3, 0.6):
            for left_entity in left[:8]:
                prepared_left = prepare_entity(left_entity)
                for right_entity in right[:8]:
                    naive = build_feature_set(left_entity, right_entity, theta)
                    fast = build_feature_set_prepared(
                        prepared_left, prepare_entity(right_entity), theta
                    )
                    assert naive == fast


# --------------------------------------------------------------------- #
# End-to-end build parity
# --------------------------------------------------------------------- #


class TestBuildParity:
    @pytest.mark.parametrize("use_blocking", [True, False])
    def test_fast_build_is_bit_identical(self, pair_entities, use_blocking):
        left, right = pair_entities
        naive = FeatureSpace()
        if use_blocking:
            pairs = blocked_pairs(left, right)
        else:
            pairs = ((l, r) for l in left for r in right)
        for left_entity, right_entity in pairs:
            naive.add_pair(left_entity, right_entity)
        naive.freeze()
        clear_caches()
        fast = FeatureSpace.build(left, right, use_blocking=use_blocking)
        assert parity_mismatches(naive, fast) == 0
        assert fast.total_pairs_considered == len(left) * len(right)

    def test_parallel_build_matches_single_process(self, pair_entities):
        left, right = pair_entities
        single = FeatureSpace.build(left, right)
        parallel = FeatureSpace.build(left, right, workers=2)
        assert parity_mismatches(single, parallel) == 0
        assert single.total_pairs_considered == parallel.total_pairs_considered

    def test_parallel_build_is_deterministic(self, pair_entities):
        left, right = pair_entities
        first = FeatureSpace.build(left, right, workers=3)
        second = FeatureSpace.build(left, right, workers=3)
        assert parity_mismatches(first, second) == 0

    def test_parallel_build_merges_obs(self, pair_entities):
        left, right = pair_entities
        with obs.use_registry() as registry:
            FeatureSpace.build(left, right, workers=2)
        snapshot = registry.snapshot()
        assert obs.counter_total(snapshot, "space.build.partitions") == 2
        assert obs.counter_total(snapshot, "space.pairs.admitted") > 0
        names = {h["name"] for h in snapshot["histograms"]}
        assert "space.build.merge" in names
        assert "space.build.score" in names


# --------------------------------------------------------------------- #
# Obs instrumentation of a single-process build
# --------------------------------------------------------------------- #


class TestBuildObservability:
    def test_phase_timers_and_cache_counters(self, pair_entities):
        left, right = pair_entities
        clear_caches()
        with obs.use_registry() as registry:
            FeatureSpace.build(left, right)
        snapshot = registry.snapshot()
        names = {h["name"] for h in snapshot["histograms"]}
        assert {"space.build.block", "space.build.score", "space.build.freeze"} <= names
        hits = obs.counter_total(snapshot, "similarity.cache.hits")
        misses = obs.counter_total(snapshot, "similarity.cache.misses")
        assert misses > 0
        assert hits > 0
        assert obs.counter_total(snapshot, "space.pairs.scanned") >= obs.counter_total(
            snapshot, "space.pairs.admitted"
        )


# --------------------------------------------------------------------- #
# Cache bookkeeping
# --------------------------------------------------------------------- #


class TestCaches:
    def test_cache_info_reports_sizes(self):
        clear_caches()
        prepare_term(Literal("Cleveland Cavaliers"))
        info = cache_info()
        assert info["term_entries"] == 1
        assert info["score_max"] > 0

    def test_score_cache_eviction_respects_bound(self, monkeypatch):
        import repro.similarity.prepared

        clear_caches()
        monkeypatch.setattr(repro.similarity.prepared, "_score_cache_max", 4)
        try:
            for index in range(10):
                a = prepare_term(Literal(f"alpha beta {index}"))
                b = prepare_term(Literal(f"alpha gamma {index + 1}"))
                prepared_object_similarity(a, b)
            assert cache_info()["score_entries"] <= 4
        finally:
            clear_caches()


# --------------------------------------------------------------------- #
# Satellites: blocking memo, links_of_left, Graph.count fast path
# --------------------------------------------------------------------- #


class TestBlockingMemo:
    def test_each_entity_tokenized_once_per_build(self, pair_entities, monkeypatch):
        import repro.features.blocking as blocking

        left, right = pair_entities
        calls = []
        real = entity_tokens
        monkeypatch.setattr(
            blocking, "entity_tokens", lambda entity: calls.append(entity) or real(entity)
        )
        token_map = {}
        list(blocked_pairs(left, right, token_map=token_map))
        assert len(calls) == len(left) + len(right)
        assert len(set(calls)) == len(calls)


class TestLinksOfLeft:
    def test_index_matches_scan(self, pair_entities):
        left, right = pair_entities
        space = FeatureSpace.build(left, right)
        for link in list(space.links())[:50]:
            assert link in space.links_of_left(link.left)
        some_left = next(iter(space.links())).left
        scan = [l for l in space.links() if l.left == some_left]
        assert sorted(space.links_of_left(some_left)) == sorted(scan)
        missing = URIRef("http://nowhere/x")
        assert space.links_of_left(missing) == []

    def test_unfrozen_space_falls_back_to_scan(self):
        space = FeatureSpace(0.3)
        left_uri = URIRef("http://a/res/x")
        link = Link(left_uri, URIRef("http://b/res/y"))
        space._feature_sets[link] = None
        assert space.links_of_left(left_uri) == [link]

    def test_old_pickles_without_index_still_work(self, pair_entities):
        left, right = pair_entities
        space = FeatureSpace.build(left[:10], right[:10])
        del space._by_left  # a space saved before the index existed
        some = [l for l in space.links()]
        if some:
            assert space.links_of_left(some[0].left)


class TestGraphCountFastPath:
    def test_bound_po_count(self):
        graph = Graph()
        p = URIRef("http://x/p")
        o = Literal("v")
        for index in range(5):
            graph.add((URIRef(f"http://x/s{index}"), p, o))
        graph.add((URIRef("http://x/s0"), p, Literal("other")))
        assert graph.count(predicate=p, object=o) == 5
        assert graph.count(predicate=p, object=Literal("absent")) == 0
        assert graph.count(predicate=URIRef("http://x/q"), object=o) == 0

    def test_optimizer_uses_po_estimate(self):
        from repro.sparql.ast import TriplePattern, Var
        from repro.sparql.optimizer import estimate_cardinality

        graph = Graph()
        p = URIRef("http://x/p")
        o = Literal("v")
        for index in range(4):
            graph.add((URIRef(f"http://x/s{index}"), p, o))
        estimate = estimate_cardinality(graph, TriplePattern(Var("s"), p, o), set())
        assert estimate == 4.0
