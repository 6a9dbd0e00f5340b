"""Statistics underlying PARIS: relation (inverse) functionality.

PARIS (Suchanek, Abiteboul, Senellart; PVLDB 5(3), 2011) scores entity
equivalence from shared attribute values, weighted by how *identifying* the
attribute is. The key quantities are the functionality and inverse
functionality of each relation:

* ``functionality(r) = #distinct subjects of r / #triples of r`` — close to 1
  when each subject has a single value (e.g. birth date).
* ``inverse_functionality(r) = #distinct objects of r / #triples of r`` —
  close to 1 when a value identifies its subject (e.g. a name shared by one
  entity); low for non-identifying attributes (e.g. ``rdf:type``).

Sharing a value of a highly inverse-functional relation is strong evidence
that two entities are the same individual.
"""

from __future__ import annotations

from collections import defaultdict

from repro.rdf.graph import Graph
from repro.rdf.terms import URIRef


class RelationStatistics:
    """Per-relation (inverse) functionality for one graph."""

    def __init__(self, graph: Graph):
        triples_per_relation: dict[URIRef, int] = defaultdict(int)
        subjects_per_relation: dict[URIRef, set] = defaultdict(set)
        objects_per_relation: dict[URIRef, set] = defaultdict(set)
        for triple in graph.triples():
            triples_per_relation[triple.predicate] += 1
            subjects_per_relation[triple.predicate].add(triple.subject)
            objects_per_relation[triple.predicate].add(triple.object)
        self._functionality: dict[URIRef, float] = {}
        self._inverse_functionality: dict[URIRef, float] = {}
        for relation, count in triples_per_relation.items():
            self._functionality[relation] = len(subjects_per_relation[relation]) / count
            self._inverse_functionality[relation] = len(objects_per_relation[relation]) / count

    def functionality(self, relation: URIRef) -> float:
        return self._functionality.get(relation, 0.0)

    def inverse_functionality(self, relation: URIRef) -> float:
        return self._inverse_functionality.get(relation, 0.0)

    def relations(self) -> list[URIRef]:
        return sorted(self._functionality, key=lambda r: r.value)
