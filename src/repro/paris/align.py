"""Iterative probabilistic instance alignment (simplified PARIS).

The fixpoint alternates two estimates, exactly in the spirit of the
original algorithm (relation alignment ↔ instance equivalence), restricted
to literal evidence:

1. **Instance equivalence.** For a candidate pair (x, y), every pair of
   attribute values with similarity ≥ τ contributes independent evidence
   weighted by the relations' inverse functionality and the current
   relation-alignment probability::

       P(x ≡ y) = 1 − ∏ (1 − align(r1, r2) · max(ifun(r1), ifun(r2)) · sim)

2. **Relation alignment.** ``align(r1, r2)`` is re-estimated as the
   equivalence-weighted fraction of r1-statements whose value is matched by
   an r2-statement on the equivalent entity.

Candidate pairs come from token blocking, so the loop is near-linear in
practice. The result is a scored :class:`~repro.links.LinkSet`; the paper
keeps links with score > 0.95 as ALEX's starting candidates.
"""

from __future__ import annotations

from collections import defaultdict

from repro import obs
from repro.errors import LinkingError
from repro.features.blocking import blocked_pairs
from repro.features.feature_set import similarity_matrix_prepared
from repro.links import Link, LinkSet
from repro.paris.model import RelationStatistics
from repro.rdf.entity import Entity, entities_of
from repro.rdf.graph import Graph
from repro.rdf.terms import URIRef
from repro.similarity.prepared import (
    PreparedEntity,
    clear_caches,
    flush_similarity_stats,
    prepare_entity,
)

#: Value-match threshold for evidence (high: PARIS uses shared *values*).
DEFAULT_EVIDENCE_TAU = 0.8

#: Initial relation alignment before any equivalence evidence exists.
_INITIAL_ALIGNMENT = 0.5


class ParisAligner:
    """Runs the simplified PARIS fixpoint between two graphs."""

    def __init__(
        self,
        left: Graph,
        right: Graph,
        evidence_tau: float = DEFAULT_EVIDENCE_TAU,
        iterations: int = 3,
    ):
        if iterations < 1:
            raise LinkingError(f"iterations must be >= 1, got {iterations}")
        self.left = left
        self.right = right
        self.evidence_tau = evidence_tau
        self.iterations = iterations
        self._left_stats = RelationStatistics(left)
        self._right_stats = RelationStatistics(right)
        self._alignment: dict[tuple[URIRef, URIRef], float] = {}

    # ------------------------------------------------------------------ #

    def run(self, mutual_best: bool = True) -> LinkSet:
        """Execute the fixpoint and return scored links.

        With ``mutual_best=True`` (PARIS's maximal assignment) each entity
        keeps only its reciprocal best match; with ``mutual_best=False``
        every scored candidate pair is returned — thresholding such a raw
        set at a permissive score reproduces the low-precision/high-recall
        starting condition of the paper's Figure 2(b).
        """
        with obs.region("paris.run"):
            left_entities = list(entities_of(self.left))
            right_entities = list(entities_of(self.right))
            candidates = list(blocked_pairs(left_entities, right_entities))
            if not candidates:
                return LinkSet(name="paris")

            evidence = self._collect_evidence(candidates)
            equivalence: dict[Link, float] = {}
            for _ in range(self.iterations):
                equivalence = self._estimate_equivalence(evidence)
                self._update_alignment(evidence, equivalence)
            if mutual_best:
                return self._assign(equivalence)
            out = LinkSet(name="paris")
            for link, probability in equivalence.items():
                out.add(link, probability)
            return out

    # ------------------------------------------------------------------ #

    def _collect_evidence(
        self, candidates: list[tuple[Entity, Entity]]
    ) -> dict[Link, list[tuple[URIRef, URIRef, float]]]:
        """Per candidate pair, the list of (r1, r2, sim) value matches ≥ τ.

        ``sim`` is the best object similarity of the two attributes, from
        the prepared scorer the feature-space build uses. Its matrix keeps
        attribute-pair order, which the equivalence product depends on.
        The scorer's memos are released before returning: they are pure
        caches, so dropping them changes no score, and kept they would stay
        resident for the rest of the process.
        """
        prepared: dict[Entity, PreparedEntity] = {}
        evidence: dict[Link, list[tuple[URIRef, URIRef, float]]] = {}
        for left_entity, right_entity in candidates:
            prepared_left = prepared.get(left_entity)
            if prepared_left is None:
                prepared_left = prepared[left_entity] = prepare_entity(left_entity)
            prepared_right = prepared.get(right_entity)
            if prepared_right is None:
                prepared_right = prepared[right_entity] = prepare_entity(right_entity)
            matrix = similarity_matrix_prepared(prepared_left, prepared_right, self.evidence_tau)
            if matrix:
                evidence[Link(left_entity.uri, right_entity.uri)] = [
                    (r1, r2, score) for (r1, r2), score in matrix.items()
                ]
        flush_similarity_stats()
        clear_caches()
        return evidence

    def _alignment_of(self, r1: URIRef, r2: URIRef) -> float:
        return self._alignment.get((r1, r2), _INITIAL_ALIGNMENT)

    def _estimate_equivalence(
        self, evidence: dict[Link, list[tuple[URIRef, URIRef, float]]]
    ) -> dict[Link, float]:
        equivalence: dict[Link, float] = {}
        for link, matches in evidence.items():
            survival = 1.0
            for r1, r2, sim in matches:
                identifying = max(
                    self._left_stats.inverse_functionality(r1),
                    self._right_stats.inverse_functionality(r2),
                )
                weight = self._alignment_of(r1, r2) * identifying * sim
                survival *= 1.0 - min(0.999999, weight)
            equivalence[link] = 1.0 - survival
        return equivalence

    def _update_alignment(
        self,
        evidence: dict[Link, list[tuple[URIRef, URIRef, float]]],
        equivalence: dict[Link, float],
    ) -> None:
        support: dict[tuple[URIRef, URIRef], float] = defaultdict(float)
        normalizer: dict[tuple[URIRef, URIRef], float] = defaultdict(float)
        for link, matches in evidence.items():
            probability = equivalence.get(link, 0.0)
            for r1, r2, sim in matches:
                # P-weighted agreement over all value matches of (r1, r2):
                # relation pairs that co-occur mostly on equivalent entities
                # converge to alignment ~1; promiscuous pairs (shared cities,
                # categories) are dragged down by their non-equivalent
                # co-occurrences.
                support[(r1, r2)] += probability * sim
                normalizer[(r1, r2)] += sim
        self._alignment = {
            key: min(1.0, support[key] / normalizer[key])
            for key in support
            if normalizer[key] > 0
        }

    def _assign(self, equivalence: dict[Link, float]) -> LinkSet:
        """Mutual-best assignment: keep (x, y) when y is x's best match and
        x is y's best match (PARIS's maximal assignment, simplified)."""
        best_for_left: dict[URIRef, tuple[float, Link]] = {}
        best_for_right: dict[URIRef, tuple[float, Link]] = {}
        for link, probability in equivalence.items():
            key = (probability, link)
            current_left = best_for_left.get(link.left)
            if current_left is None or key > current_left:
                best_for_left[link.left] = key
            current_right = best_for_right.get(link.right)
            if current_right is None or key > current_right:
                best_for_right[link.right] = key
        out = LinkSet(name="paris")
        for left, (probability, link) in best_for_left.items():
            if best_for_right.get(link.right, (0.0, None))[1] == link:
                out.add(link, probability)
        return out

    def relation_alignment(self) -> dict[tuple[URIRef, URIRef], float]:
        """The final relation-alignment estimates (diagnostics/tests)."""
        return dict(self._alignment)


def paris_links(
    left: Graph,
    right: Graph,
    score_threshold: float = 0.95,
    evidence_tau: float = DEFAULT_EVIDENCE_TAU,
    iterations: int = 3,
    mutual_best: bool = True,
) -> LinkSet:
    """Run PARIS and keep links scoring above ``score_threshold``.

    ``score_threshold=0.95`` with ``mutual_best=True`` is the paper's
    default for generating ALEX's initial candidate links; lowering the
    threshold (and disabling the assignment) trades precision for recall —
    Figure 2(b)'s starting condition.
    """
    aligner = ParisAligner(left, right, evidence_tau=evidence_tau, iterations=iterations)
    scored = aligner.run(mutual_best=mutual_best)
    return scored.filter_by_score(score_threshold)
