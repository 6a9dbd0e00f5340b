"""Multi-process feature-space build on the persistent worker pool.

The paper (Section 6.2) explores partitions "independently ... in
parallel", which changes only wall-clock time, so
:class:`~repro.core.parallel.PartitionedAlex` runs their feedback episodes
in-process. The θ-filtered space build scores every blocked pair during
set-up; :func:`build_space_parallel` splits that work across processes and
is the worker pool's one call site.

The left side crosses the process boundary in chunks and the right side
whole, both **dictionary-encoded** (the flat-array wire format of
:mod:`repro.similarity.prepared`), never as pickled entity objects. Workers
return scored feature-space deltas
(:func:`~repro.features.space.encode_space_delta`) plus their obs snapshot,
and the parent merges and freezes once.

Workers memoize decoded blobs by digest, so the right side decodes once per
worker lifetime however many chunks or builds flow through, and the
module-level similarity caches stay warm between builds — decoded terms are
value-equal to the originals, so the intern tables hit and steady-state
rebuilds skip most of the string-metric work.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro import obs
from repro.core.workers import WorkerPool, shared_pool
from repro.errors import ConfigError
from repro.features.feature_set import DEFAULT_THETA
from repro.features.space import (
    FeatureSpace,
    decode_space_delta,
    encode_space_delta,
    merge_spaces,
)
from repro.rdf.entity import Entity
from repro.similarity.prepared import decode_entities, encode_entities


# --------------------------------------------------------------------- #
# Worker-side decoded-blob memo
# --------------------------------------------------------------------- #

#: digest → decoded entity list, bounded. Worker-process state: the shared
#: right side arrives with every chunk task but decodes once per worker
#: lifetime, and repeated builds of the same datasets skip decoding
#: entirely. Worker processes are single-threaded, so no lock is needed.
_decode_cache: dict[bytes, list[Entity]] = {}
_DECODE_CACHE_MAX = 8


def _decode_entities_cached(blob: bytes) -> list[Entity]:
    digest = hashlib.sha1(blob).digest()
    entities = _decode_cache.get(digest)
    if entities is None:
        entities = decode_entities(blob)
        if len(_decode_cache) >= _DECODE_CACHE_MAX:
            _decode_cache.pop(next(iter(_decode_cache)))
        _decode_cache[digest] = entities
    return entities


# --------------------------------------------------------------------- #
# Space building
# --------------------------------------------------------------------- #


def _score_space_partition(
    left_blob: bytes,
    right_blob: bytes,
    theta: float,
    use_blocking: bool,
    name: str,
) -> tuple[bytes, dict]:
    """Worker body: decode one partition, score it, encode the delta.

    Returns ``(delta_blob, obs_snapshot)``. Runs under an isolated obs
    registry so the worker's phase regions and cache counters travel back
    in the snapshot and merge into the parent registry.
    """
    with obs.use_registry(obs.Registry(name)) as registry:
        with obs.region("space.build.ship"):
            left_chunk = _decode_entities_cached(left_blob)
            right_entities = _decode_entities_cached(right_blob)
        space = FeatureSpace._build_single_process(
            left_chunk, right_entities, theta, use_blocking, freeze=False
        )
        with obs.region("space.build.ship"):
            delta = encode_space_delta(space)
        return delta, registry.snapshot()


def build_space_parallel(
    left_entities: Sequence[Entity],
    right_entities: Sequence[Entity],
    *,
    theta: float = DEFAULT_THETA,
    use_blocking: bool = True,
    workers: int = 2,
    pool: WorkerPool | None = None,
) -> FeatureSpace:
    """Build a :class:`FeatureSpace` with the left side split across processes.

    Each worker scores a contiguous slice of the left entities against the
    full right side, so no candidate pair is scored twice and the merged
    space is identical (links, scores, ``total_pairs_considered``) to a
    single-process build: blocking depends only on the right side, and the
    merge deduplicates by link. Worker obs snapshots (``space.build.*``
    phase regions, ``similarity.cache.*`` counters) merge into the caller's
    registry.

    ``workers`` controls the number of partitions; the pool itself sizes to
    the machine's CPUs and persists across calls (``pool=None`` uses the
    process-shared pool).
    """
    left_entities = list(left_entities)
    right_entities = list(right_entities)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(workers, max(1, len(left_entities)))
    chunk_size = (len(left_entities) + workers - 1) // workers if left_entities else 1
    chunks = [left_entities[i:i + chunk_size] for i in range(0, len(left_entities), chunk_size)]
    if not chunks:
        chunks = [[]]

    with obs.region("space.build.ship"):
        right_blob = encode_entities(right_entities)
        jobs = [
            (
                encode_entities(chunk),
                right_blob,
                theta,
                use_blocking,
                f"space-build-{index}",
            )
            for index, chunk in enumerate(chunks)
        ]
        obs.inc("pool.bytes.shipped", sum(len(job[0]) + len(right_blob) for job in jobs))

    if len(jobs) == 1 or workers == 1:
        # Inline fallback: same codec + scoring body, no process hop.
        results = [_score_space_partition(*job) for job in jobs]
    else:
        if pool is None:
            pool = shared_pool(workers)
        results = pool.run_tasks(_score_space_partition, jobs, label="space-build")

    with obs.region("space.build.merge"):
        spaces = []
        for delta, snapshot in results:
            spaces.append(decode_space_delta(delta))
            obs.merge(snapshot)
        obs.inc("space.build.partitions", len(spaces))
        merged = merge_spaces(spaces)
    return merged
