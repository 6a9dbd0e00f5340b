"""repro — a reproduction of "ALEX: Automatic Link Exploration in Linked Data".

This module is the **stable public API facade**: everything a typical
application needs imports directly from ``repro``::

    from repro import AlexConfig, AlexEngine, FeatureSpace, load_pair, obs

Names exported here follow the deprecation policy documented in
``docs/architecture.md`` — they stay importable across minor versions, and
replaced names keep working for at least one minor release while emitting
:class:`DeprecationWarning`. Subpackages remain importable for specialised
needs:

* :mod:`repro.rdf` — RDF terms, graphs, N-Triples/Turtle IO
* :mod:`repro.sparql` — SPARQL subset over local graphs
* :mod:`repro.federation` — federated queries with sameAs link provenance
* :mod:`repro.similarity` / :mod:`repro.features` — similarity functions,
  feature sets, and the θ-filtered link space
* :mod:`repro.paris` — the automatic linker producing initial candidates
* :mod:`repro.core` — the ALEX reinforcement-learning engine
* :mod:`repro.feedback` — simulated users (oracles, sessions)
* :mod:`repro.datasets` — synthetic Table 1 dataset pairs
* :mod:`repro.evaluation` — precision/recall/F tracking
* :mod:`repro.experiments` — one function per paper table/figure
* :mod:`repro.obs` — counters, gauges, histograms, timed regions
  (``repro stats``) and structured event tracing (:mod:`repro.obs.trace`,
  ``repro trace``)
"""

from repro import obs
from repro.core import (
    AlexConfig,
    AlexEngine,
    PartitionedAlex,
    WorkerPool,
    build_space_parallel,
    shared_pool,
    shutdown_shared_pool,
)
from repro.datasets import load_pair
from repro.errors import DataValidationError, QueryAnalysisError, ReproError
from repro.evaluation import QualityTracker, evaluate_links, quality_curve_table
from repro.features import FeatureSpace, build_partitioned_spaces
from repro.federation import Endpoint, FederatedEngine
from repro.feedback import (
    FeedbackSession,
    GroundTruthOracle,
    NoisyOracle,
    QueryFeedbackSession,
)
from repro.links import Link, LinkSet
from repro.paris import paris_links
from repro.rdf import (
    DataDiagnostic,
    Graph,
    Literal,
    TermDictionary,
    Triple,
    URIRef,
    validate_dataset,
    validate_graph,
    validate_links,
)
from repro.obs import trace
from repro.sparql import (
    Diagnostic,
    PreparedQuery,
    QueryPlan,
    analyze_query,
    explain,
    parse_query,
    prepare,
)

__version__ = "5.0.0"

__all__ = [
    "AlexConfig",
    "AlexEngine",
    "DataDiagnostic",
    "DataValidationError",
    "Diagnostic",
    "Endpoint",
    "FeatureSpace",
    "FederatedEngine",
    "FeedbackSession",
    "Graph",
    "GroundTruthOracle",
    "Link",
    "LinkSet",
    "Literal",
    "NoisyOracle",
    "PartitionedAlex",
    "PreparedQuery",
    "QualityTracker",
    "QueryAnalysisError",
    "QueryFeedbackSession",
    "QueryPlan",
    "ReproError",
    "TermDictionary",
    "Triple",
    "URIRef",
    "WorkerPool",
    "__version__",
    "analyze_query",
    "build_partitioned_spaces",
    "build_space_parallel",
    "evaluate_links",
    "explain",
    "load_pair",
    "obs",
    "paris_links",
    "parse_query",
    "prepare",
    "quality_curve_table",
    "shared_pool",
    "shutdown_shared_pool",
    "trace",
    "validate_dataset",
    "validate_graph",
    "validate_links",
]
