"""Federated bound-join fan-out on the persistent worker pool.

A bound join evaluates each incoming solution independently: resolve the
pattern's bound positions, enumerate sameAs counterpart substitutions,
probe the endpoint, merge the extensions. With thousands of intermediate
solutions that per-solution loop is the federated executor's hot path, and
it is embarrassingly parallel — so :func:`fan_out_bound_join` splits the
solution list into contiguous chunks and runs each chunk on the shared
:mod:`repro.core.workers` pool.

Endpoint graphs and the candidate link set cross the process boundary
dictionary-encoded (the flat-array wire format of
:mod:`repro.similarity.prepared`), never as pickled graph/entity objects;
workers memoize decoded blobs by digest, so a federation's graphs ship
once per worker lifetime however many queries fan out.

Parity contract: the fanned-out join produces exactly the sequential
join's solution *set* (same bindings, same link provenance, same request
counts — workers dedup locally, the parent dedups globally in chunk order)
but may order rows differently within an unordered query, because a
reconstructed graph can enumerate matches in a different order. ORDER BY
queries are unaffected. Fan-out is opt-in via
``FederatedEngine(pool_workers=N)``.
"""

from __future__ import annotations

import hashlib

from repro import obs
from repro.core.workers import WorkerPool
from repro.federation.endpoint import Endpoint
from repro.links import Link, LinkSet
from repro.rdf.graph import Graph
from repro.similarity.prepared import WireReader, WireWriter
from repro.sparql.ast import TriplePattern

#: Below this many input solutions the process hop costs more than the join.
FANOUT_MIN_SOLUTIONS = 8


# --------------------------------------------------------------------- #
# Graph and link-set wire codecs
# --------------------------------------------------------------------- #


def encode_graph(graph: Graph) -> bytes:
    """Dictionary-encode a graph: term table + one (s, p, o) ID triple per
    statement. Statement order is not preserved (a graph is a set)."""
    writer = WireWriter()
    ints = writer.ints
    triples = list(graph.triples())
    ints.append(len(triples))
    for s, p, o in triples:
        ints.append(writer.term_id(s))
        ints.append(writer.term_id(p))
        ints.append(writer.term_id(o))
    return writer.to_bytes()


def decode_graph(blob: bytes, name: str = "") -> Graph:
    """Inverse of :func:`encode_graph` (same triples, fresh indexes)."""
    reader = WireReader(blob)
    graph = Graph(name=name)
    for _ in range(reader.read_int()):
        s = reader.term(reader.read_int())
        p = reader.term(reader.read_int())
        o = reader.term(reader.read_int())
        graph.add((s, p, o))
    return graph


def encode_links(links: frozenset[Link]) -> bytes:
    """Dictionary-encode a link set (sorted, so equal sets encode equal)."""
    writer = WireWriter()
    ordered = sorted(links, key=lambda link: (link.left.value, link.right.value))
    writer.ints.append(len(ordered))
    for link in ordered:
        writer.ints.append(writer.term_id(link.left))
        writer.ints.append(writer.term_id(link.right))
    return writer.to_bytes()


def decode_links(blob: bytes) -> LinkSet:
    reader = WireReader(blob)
    links = LinkSet()
    for _ in range(reader.read_int()):
        left = reader.term(reader.read_int())
        right = reader.term(reader.read_int())
        links.add(Link(left, right))
    return links


# --------------------------------------------------------------------- #
# Worker-side decoded-blob memos (worker processes are single-threaded)
# --------------------------------------------------------------------- #

_graph_cache: dict[bytes, Graph] = {}
_links_cache: dict[bytes, LinkSet] = {}
_FED_CACHE_MAX = 16


def _cached(cache: dict, blob: bytes, decode, *args):
    digest = hashlib.sha1(blob).digest()
    value = cache.get(digest)
    if value is None:
        value = decode(blob, *args)
        if len(cache) >= _FED_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[digest] = value
    return value


def _match_chunk(
    endpoint_blobs: list[tuple[str, bytes]],
    links_blob: bytes,
    patterns: list[TriplePattern],
    grouped: bool,
    solutions: list,
    name: str,
) -> tuple[list, dict[str, int], dict]:
    """Worker body: bound-join one chunk of solutions.

    Returns ``(candidates, request_counts, obs_snapshot)`` where candidates
    are ``(merged_bindings, links_used, rewrote)`` tuples after chunk-local
    dedup (the parent dedups globally, in chunk order).
    """
    from repro.federation.executor import (
        _iter_bound_join,
        _iter_bound_join_group,
        _solution_key,
    )

    with obs.use_registry(obs.Registry(name)) as registry:
        endpoints = [
            Endpoint(_cached(_graph_cache, blob, decode_graph, ep_name), name=ep_name)
            for ep_name, blob in endpoint_blobs
        ]
        links = _cached(_links_cache, links_blob, decode_links)
        candidates: list = []
        seen: set = set()
        for solution in solutions:
            if grouped:
                found = _iter_bound_join_group(patterns, endpoints[0], links, solution)
            else:
                found = _iter_bound_join(patterns[0], endpoints, links, solution)
            for merged, used, rewrote in found:
                key = (_solution_key(merged), used)
                if key not in seen:
                    seen.add(key)
                    candidates.append((merged, used, rewrote))
        requests = {endpoint.name: endpoint.request_count for endpoint in endpoints}
        return candidates, requests, registry.snapshot()


# --------------------------------------------------------------------- #
# Parent-side fan-out
# --------------------------------------------------------------------- #


def fan_out_bound_join(
    patterns: list[TriplePattern],
    grouped: bool,
    endpoints: list[Endpoint],
    links: LinkSet,
    solutions: list,
    pool: WorkerPool,
    blob_cache: dict[str, tuple[int, bytes]],
) -> list:
    """Run one bound join across the pool; candidates come back in chunk
    order (chunk-locally deduped) for the caller's global dedup pass.

    ``blob_cache`` memoizes each endpoint's encoded graph by name and graph
    version so repeated queries over an unchanged federation re-ship the
    same blob bytes without re-encoding.
    """
    with obs.region("federation.fanout.ship"):
        endpoint_blobs = []
        for endpoint in endpoints:
            version = endpoint.graph.version
            cached = blob_cache.get(endpoint.name)
            if cached is None or cached[0] != version:
                cached = (version, encode_graph(endpoint.graph))
                blob_cache[endpoint.name] = cached
            endpoint_blobs.append((endpoint.name, cached[1]))
        links_blob = encode_links(links.snapshot())
        obs.inc(
            "pool.bytes.shipped",
            sum(len(blob) for _, blob in endpoint_blobs) + len(links_blob),
        )
    n_chunks = max(1, min(pool.size, len(solutions)))
    chunk_size = (len(solutions) + n_chunks - 1) // n_chunks
    chunks = [solutions[i:i + chunk_size] for i in range(0, len(solutions), chunk_size)]
    tasks = [
        (endpoint_blobs, links_blob, patterns, grouped, chunk, f"fanout-{index}")
        for index, chunk in enumerate(chunks)
    ]
    results = pool.run_tasks(_match_chunk, tasks, label="federation")
    obs.inc("federation.fanout.chunks", len(chunks))
    candidates: list = []
    request_totals: dict[str, int] = {}
    for chunk_candidates, requests, snapshot in results:
        obs.merge(snapshot)
        candidates.extend(chunk_candidates)
        for ep_name, count in requests.items():
            request_totals[ep_name] = request_totals.get(ep_name, 0) + count
    for endpoint in endpoints:
        endpoint.request_count += request_totals.get(endpoint.name, 0)
    return candidates
