"""RDF substrate: terms, triples, graphs, namespaces, and serializations."""

from repro.rdf.dataset import Dataset, Quad
from repro.rdf.dictionary import TermDictionary
from repro.rdf.entity import Entity, entities_of
from repro.rdf.graph import Graph
from repro.rdf.namespaces import (
    DC,
    FOAF,
    OWL,
    OWL_SAMEAS,
    RDF,
    RDF_TYPE,
    RDFS,
    RDFS_LABEL,
    SKOS,
    Namespace,
    NamespaceManager,
)
from repro.rdf.stats import GraphStatistics, graph_statistics
from repro.rdf.terms import BNode, Literal, Term, URIRef
from repro.rdf.triples import Triple
from repro.rdf.validate import (
    DataDiagnostic,
    check_graph,
    check_links,
    validate_dataset,
    validate_graph,
    validate_links,
    validate_triples,
)

__all__ = [
    "BNode",
    "DC",
    "DataDiagnostic",
    "Dataset",
    "Entity",
    "FOAF",
    "Graph",
    "GraphStatistics",
    "Literal",
    "Namespace",
    "NamespaceManager",
    "OWL",
    "Quad",
    "OWL_SAMEAS",
    "RDF",
    "RDF_TYPE",
    "RDFS",
    "RDFS_LABEL",
    "SKOS",
    "Term",
    "TermDictionary",
    "Triple",
    "URIRef",
    "check_graph",
    "check_links",
    "entities_of",
    "graph_statistics",
    "validate_dataset",
    "validate_graph",
    "validate_links",
    "validate_triples",
]
