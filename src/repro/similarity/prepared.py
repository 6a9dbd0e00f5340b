"""Prepared entities: precomputed similarity inputs plus a score memo cache.

The naive similarity kernel re-derives everything from raw lexical forms for
every (entity, entity) pair: normalization, token sets, typed values. During
feature-space construction each entity participates in many pairs, so the
same derivations run thousands of times. This module computes them **once**
per entity (:class:`PreparedEntity` / :class:`PreparedTerm`), adds a bounded
memo cache on value-pair scores keyed by normalized lexical forms (literals
repeat heavily across entities — years, cities, person names), and applies
θ-aware upper bounds (see :mod:`repro.similarity.strings`) that skip the
expensive string metrics when the score provably cannot matter.

Invariant: for every feature the θ-filter admits, the fast path produces a
score **bit-identical** to the naive path — the prepared forms feed the very
same metric functions, the cache only stores their outputs, and a bound-based
skip happens only when the skipped score could not change the admitted
result. ``tests/test_perf_fastpath.py`` enforces this end to end.
"""

from __future__ import annotations

import struct
from array import array
from datetime import date, datetime

from repro import obs
from repro.rdf.entity import Entity
from repro.rdf.terms import BNode, Literal, Term, URIRef
from repro.similarity.generic import humanize_local_name
from repro.similarity.numbers import (
    boolean_similarity,
    date_similarity,
    numeric_similarity,
    year_similarity,
)
from repro.similarity.strings import (
    _common_char_count,
    _trigrams,
    jaro_winkler_bound_from_stats,
    normalize,
    shared_prefix_length,
    token_jaccard_bound_from_sizes,
    tokens,
)

#: Bound on the value-pair and attribute-pair score memo caches (entries, not bytes).
DEFAULT_SCORE_CACHE_SIZE = 1 << 18

#: Default bound on the per-term preparation cache.
DEFAULT_TERM_CACHE_SIZE = 1 << 16


class PreparedText:
    """One string's precomputed similarity inputs.

    ``norm`` is the canonical form every metric compares; ``tokens`` and
    ``char_counts`` feed the Jaccard score and the Jaro-Winkler upper bound.
    Trigram sets are derived lazily (nothing in the composite score needs
    them, but soft-TFIDF / Dice consumers reuse the prepared form).
    """

    __slots__ = ("norm", "length", "tokens", "char_counts", "char_positions", "_trigrams")

    def __init__(self, raw: str):
        self.norm = normalize(raw)
        self.length = len(self.norm)
        self.tokens = frozenset(tokens(self.norm))
        positions: dict[str, list[int]] = {}
        for index, char in enumerate(self.norm):
            if char in positions:
                positions[char].append(index)
            else:
                positions[char] = [index]
        #: char → sorted occurrence indexes; drives the prepared Jaro kernel
        self.char_positions = positions
        self.char_counts = {char: len(occ) for char, occ in positions.items()}
        self._trigrams: frozenset[str] | None = None

    @property
    def trigrams(self) -> frozenset[str]:
        if self._trigrams is None:
            self._trigrams = frozenset(_trigrams(self.norm))
        return self._trigrams

    def __repr__(self):
        return f"PreparedText({self.norm!r})"


#: Term categories mirroring the dispatch of ``object_similarity``.
_KIND_LITERAL = 0
_KIND_URI = 1
_KIND_OTHER = 2  # blank nodes etc. — the generic function scores these 0.0


class PreparedTerm:
    """One RDF object term with its typed value and string forms precomputed."""

    __slots__ = ("term", "kind", "value", "is_bool", "is_num", "is_year", "is_date", "text")

    def __init__(self, term: Term):
        self.term = term
        self.is_bool = self.is_num = self.is_year = self.is_date = False
        self.value = None
        if isinstance(term, Literal):
            self.kind = _KIND_LITERAL
            value = term.to_python()
            self.value = value
            self.is_bool = isinstance(value, bool)
            self.is_num = isinstance(value, (int, float))
            self.is_year = isinstance(value, int) and 1000 <= value <= 2999
            self.is_date = isinstance(value, (date, datetime))
            self.text = PreparedText(term.lexical)
        elif isinstance(term, URIRef):
            self.kind = _KIND_URI
            self.text = PreparedText(humanize_local_name(term.local_name))
        else:
            self.kind = _KIND_OTHER
            self.text = PreparedText("")

    def __repr__(self):
        return f"PreparedTerm({self.term!r})"


class PreparedEntity:
    """An :class:`~repro.rdf.entity.Entity` with every object term prepared."""

    __slots__ = ("entity", "uri", "arity", "attributes", "attr_items")

    def __init__(self, entity: Entity):
        self.entity = entity
        self.uri = entity.uri
        self.arity = entity.arity
        self.attributes = {
            predicate: prepare_objects(objects)
            for predicate, objects in entity.attributes.items()
        }
        #: items() materialized once — the matrix loop iterates it per pair
        self.attr_items = tuple(self.attributes.items())

    def __repr__(self):
        return f"<PreparedEntity {self.uri} with {self.arity} predicates>"


# --------------------------------------------------------------------- #
# Caches and their statistics
# --------------------------------------------------------------------- #

_term_cache: dict[Term, PreparedTerm] = {}
_term_cache_max = DEFAULT_TERM_CACHE_SIZE

#: Attribute tuples interned by their raw terms, so equal-valued attributes
#: of different entities share one prepared tuple object — which is what
#: lets the best-pairing memo below key by identity.
_objects_intern: dict[tuple[Term, ...], tuple[PreparedTerm, ...]] = {}
_objects_intern_max = DEFAULT_TERM_CACHE_SIZE

_score_cache: dict[tuple[str, str], float] = {}
_score_cache_max = DEFAULT_SCORE_CACHE_SIZE

#: Memo of best_prepared_similarity over interned attribute tuples, keyed by
#: the tuples themselves (identity hash — cheap, and keeps them alive so the
#: key can never dangle) plus θ. Repeated attribute combinations — constant
#: rdf:type values, pool values like cities and teams — resolve in one probe.
_best_cache: dict[tuple[tuple[PreparedTerm, ...], tuple[PreparedTerm, ...], float], float] = {}
_best_cache_max = DEFAULT_SCORE_CACHE_SIZE

_stats = {"hits": 0, "misses": 0, "attr_hits": 0, "attr_misses": 0, "skipped": 0}


def clear_caches() -> None:
    """Drop all prepared-term and score cache entries (stats stay)."""
    _term_cache.clear()
    _objects_intern.clear()
    _score_cache.clear()
    _best_cache.clear()


def cache_info() -> dict:
    """Current cache sizes and unflushed hit/miss/skip tallies."""
    return {
        "score_entries": len(_score_cache),
        "score_max": _score_cache_max,
        "attr_entries": len(_best_cache),
        "attr_max": _best_cache_max,
        "term_entries": len(_term_cache),
        "term_max": _term_cache_max,
        **_stats,
    }


def flush_similarity_stats() -> None:
    """Publish accumulated cache/prefilter tallies as obs counters.

    The hot loop counts locally (an obs counter lookup per value pair would
    dominate the savings) and the space builder flushes once per build, so
    ``similarity.cache.{hits,misses}`` (labelled by cache layer) and
    ``similarity.prefilter.skipped`` appear in the snapshot of whichever
    registry is current at flush time.
    """
    if _stats["hits"]:
        obs.inc("similarity.cache.hits", _stats["hits"], layer="value")
    if _stats["misses"]:
        obs.inc("similarity.cache.misses", _stats["misses"], layer="value")
    if _stats["attr_hits"]:
        obs.inc("similarity.cache.hits", _stats["attr_hits"], layer="attribute")
    if _stats["attr_misses"]:
        obs.inc("similarity.cache.misses", _stats["attr_misses"], layer="attribute")
    if _stats["skipped"]:
        obs.inc("similarity.prefilter.skipped", _stats["skipped"])
    for key in list(_stats):
        _stats[key] = 0


def prepare_term(term: Term) -> PreparedTerm:
    """Prepared view of one object term, interned across entities."""
    prepared = _term_cache.get(term)
    if prepared is None:
        prepared = PreparedTerm(term)
        if len(_term_cache) >= _term_cache_max:
            _term_cache.pop(next(iter(_term_cache)))
        _term_cache[term] = prepared
    return prepared


def prepare_objects(objects: tuple[Term, ...]) -> tuple[PreparedTerm, ...]:
    """Prepared view of one attribute's object tuple, interned by value."""
    prepared = _objects_intern.get(objects)
    if prepared is None:
        prepared = tuple(prepare_term(obj) for obj in objects)
        if len(_objects_intern) >= _objects_intern_max:
            _objects_intern.pop(next(iter(_objects_intern)))
        _objects_intern[objects] = prepared
    return prepared


def prepare_entity(entity: Entity) -> PreparedEntity:
    """Prepared view of one entity (terms interned via :func:`prepare_term`)."""
    return PreparedEntity(entity)


# --------------------------------------------------------------------- #
# Scoring
# --------------------------------------------------------------------- #


def _prepared_jaro_winkler(
    text_a: PreparedText, text_b: PreparedText, shared_prefix: int
) -> float:
    """Jaro-Winkler over prepared texts, bit-identical to the generic metric.

    The generic ``jaro_similarity`` scans a window of ``b`` for every char of
    ``a``; this kernel replays the same greedy matching through ``b``'s
    precomputed char→positions lists with one advancing pointer per char.
    A position is passed over only when it is consumed by a match or falls
    permanently below the (monotonically advancing) window, so the matched
    (i, j) set — and with it the match and transposition counts — is exactly
    the generic algorithm's. The final expressions reuse the generic
    functions' operand order, so the floats are identical too.
    """
    norm_a, norm_b = text_a.norm, text_b.norm
    len_a, len_b = text_a.length, text_b.length
    window = max(len_a, len_b) // 2 - 1
    if window < 0:
        window = 0
    positions_b = text_b.char_positions
    pointers: dict[str, int] = {}
    matched_chars: list[str] = []
    matched_js: list[int] = []
    for i, char in enumerate(norm_a):
        occurrences = positions_b.get(char)
        if occurrences is None:
            continue
        pointer = pointers.get(char, 0)
        limit = len(occurrences)
        low = i - window
        while pointer < limit and occurrences[pointer] < low:
            pointer += 1
        if pointer < limit and occurrences[pointer] <= i + window:
            matched_js.append(occurrences[pointer])
            matched_chars.append(char)
            pointer += 1
        pointers[char] = pointer
    matches = len(matched_js)
    if matches == 0:
        jaro = 0.0
    else:
        matched_js.sort()
        transpositions = 0
        for char, j in zip(matched_chars, matched_js):
            if norm_b[j] != char:
                transpositions += 1
        transpositions //= 2
        jaro = (
            matches / len_a + matches / len_b + (matches - transpositions) / matches
        ) / 3.0
    return jaro + shared_prefix * 0.1 * (1.0 - jaro)


def _token_jaccard(tokens_a: frozenset[str], tokens_b: frozenset[str]) -> float:
    # Mirrors token_jaccard_similarity on prebuilt sets, including the
    # both-empty → 1.0 convention.
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def _string_score(text_a: PreparedText, text_b: PreparedText, floor: float) -> float | None:
    """Composite string score from prepared forms, memoized and θ-bounded.

    Returns the exact ``string_similarity`` value, or ``None`` when a cheap
    upper bound proves the score is below ``floor`` (in which case it cannot
    change any admitted feature — see the module docstring).
    """
    norm_a, norm_b = text_a.norm, text_b.norm
    if norm_a == norm_b:
        return 1.0
    if not norm_a or not norm_b:
        return 0.0
    key = (norm_a, norm_b)
    cached = _score_cache.get(key)
    if cached is not None:
        _stats["hits"] += 1
        return cached
    prefix = shared_prefix_length(norm_a, norm_b)
    jw_bound = jaro_winkler_bound_from_stats(
        text_a.length,
        text_b.length,
        _common_char_count(text_a.char_counts, text_b.char_counts),
        prefix,
    )
    if floor > 0.0 and jw_bound < floor:
        if token_jaccard_bound_from_sizes(len(text_a.tokens), len(text_b.tokens)) < floor:
            _stats["skipped"] += 1
            return None
    _stats["misses"] += 1
    jaccard = _token_jaccard(text_a.tokens, text_b.tokens)
    if jw_bound <= jaccard:
        # max(jw, jaccard) == jaccard exactly — Jaro never needs to run
        score = jaccard
    else:
        jw = _prepared_jaro_winkler(text_a, text_b, prefix)
        score = jw if jw > jaccard else jaccard
    if len(_score_cache) >= _score_cache_max:
        _score_cache.pop(next(iter(_score_cache)))
    _score_cache[key] = score
    return score


def _pair_score(a: PreparedTerm, b: PreparedTerm, floor: float) -> float | None:
    """Exact ``object_similarity`` of two prepared terms, or ``None`` when a
    bound proves the score is below ``floor``."""
    if a.kind == _KIND_LITERAL and b.kind == _KIND_LITERAL:
        # Typed branches are cheap; compute them directly (dispatch order
        # mirrors literal_similarity exactly, including bool ⊂ int).
        if a.is_bool and b.is_bool:
            return boolean_similarity(a.value, b.value)
        if a.is_num and b.is_num:
            if a.is_year and b.is_year:
                return year_similarity(int(a.value), int(b.value))
            return numeric_similarity(float(a.value), float(b.value))
        if a.is_date and b.is_date:
            return date_similarity(a.value, b.value)
        return _string_score(a.text, b.text, floor)
    if a.kind == _KIND_URI and b.kind == _KIND_URI:
        if a.term == b.term:
            return 1.0
        return _string_score(a.text, b.text, floor)
    if a.kind == _KIND_OTHER or b.kind == _KIND_OTHER:
        return 0.0
    # Literal vs URI (either order): lexical form against humanized name.
    return _string_score(a.text, b.text, floor)


def prepared_object_similarity(a: PreparedTerm, b: PreparedTerm) -> float:
    """Exact generic similarity of two prepared terms (no θ shortcuts);
    bit-identical to ``object_similarity(a.term, b.term)``."""
    score = _pair_score(a, b, 0.0)
    assert score is not None  # floor 0.0 never triggers a bound skip
    return score


def best_prepared_similarity(
    objects_a: tuple[PreparedTerm, ...],
    objects_b: tuple[PreparedTerm, ...],
    theta: float = 0.0,
) -> float:
    """Max pairwise similarity between two prepared object collections.

    Matches ``best_object_similarity`` exactly whenever the result is ≥ θ;
    below θ the returned value may be an underestimate (the caller drops
    sub-θ scores either way), which is what lets the upper bounds skip work.
    The result is memoized per (interned tuple pair, θ): it is a pure
    function of its inputs, so replaying it from the memo is exact.
    """
    key = (objects_a, objects_b, theta)
    cached = _best_cache.get(key)
    if cached is not None:
        _stats["attr_hits"] += 1
        return cached
    return _best_uncached(objects_a, objects_b, theta, key)


# --------------------------------------------------------------------- #
# Wire format: dictionary-encoded partition shipping
# --------------------------------------------------------------------- #
#
# Partitions cross the process boundary to the worker pool as flat arrays —
# one interned string table, one u32 ID stream, one f64 stream — never as
# pickled entity objects. Each distinct lexical form is shipped once no
# matter how many attributes repeat it (KB literals repeat heavily: years,
# cities, type URIs), each distinct term once, and the structural streams
# are pure integers. The decoder rebuilds value-equal `Term`/`Entity`
# objects, so every worker-side cache in this module (term intern, objects
# intern, score memo) behaves exactly as it does in-process — which is what
# keeps the multi-process build bit-identical to the single-process one.

_WIRE_MAGIC = b"RPRW1\n"
_WIRE_HEADER = struct.Struct("<4I")

#: Wire term kinds (independent of the scoring _KIND_* categories above).
_WIRE_URI = 0
_WIRE_BNODE = 1
_WIRE_LITERAL = 2


def wire_pack(strings: list[str], ints: array, floats: array) -> bytes:
    """Pack the three wire streams into one flat byte blob.

    Layout: magic, ``<4I`` header (string count, utf8 byte count, int count,
    float count), u32 per-string byte lengths, the utf8 block, the u32 int
    stream, the f64 float stream. Little-endian throughout, so a blob is
    valid across any fork/spawn boundary on one machine and across
    same-endianness machines.
    """
    utf8 = [s.encode("utf-8") for s in strings]
    lengths = array("I", [len(b) for b in utf8])
    text = b"".join(utf8)
    if ints.typecode != "I" or floats.typecode != "d":
        raise ValueError("wire streams must be array('I') and array('d')")
    parts = [
        _WIRE_MAGIC,
        _WIRE_HEADER.pack(len(strings), len(text), len(ints), len(floats)),
        lengths.tobytes(),
        text,
        ints.tobytes(),
        floats.tobytes(),
    ]
    return b"".join(parts)


def wire_unpack(blob: bytes) -> tuple[list[str], array, array]:
    """Inverse of :func:`wire_pack`; validates magic and stream sizes."""
    if not blob.startswith(_WIRE_MAGIC):
        raise ValueError("not a repro wire blob (bad magic)")
    offset = len(_WIRE_MAGIC)
    n_strings, n_text, n_ints, n_floats = _WIRE_HEADER.unpack_from(blob, offset)
    offset += _WIRE_HEADER.size
    lengths = array("I")
    lengths.frombytes(blob[offset : offset + 4 * n_strings])
    offset += 4 * n_strings
    strings: list[str] = []
    for length in lengths:
        strings.append(blob[offset : offset + length].decode("utf-8"))
        offset += length
    if offset != len(_WIRE_MAGIC) + _WIRE_HEADER.size + 4 * n_strings + n_text:
        raise ValueError("wire blob string block size mismatch")
    ints = array("I")
    ints.frombytes(blob[offset : offset + 4 * n_ints])
    offset += 4 * n_ints
    floats = array("d")
    floats.frombytes(blob[offset : offset + 8 * n_floats])
    offset += 8 * n_floats
    if offset != len(blob) or len(ints) != n_ints or len(floats) != n_floats:
        raise ValueError("wire blob truncated or oversized")
    return strings, ints, floats


class WireWriter:
    """Builds the dictionary-encoded streams: interned strings and terms,
    a flat u32 stream, and a flat f64 stream."""

    def __init__(self):
        self._strings: list[str] = []
        self._string_ids: dict[str, int] = {}
        #: fixed-width term table, 4 u32 per term: kind plus 3 operands
        self._terms = array("I")
        self._term_ids: dict[Term, int] = {}
        self.ints = array("I")
        self.floats = array("d")

    def string_id(self, text: str) -> int:
        sid = self._string_ids.get(text)
        if sid is None:
            sid = len(self._strings)
            self._string_ids[text] = sid
            self._strings.append(text)
        return sid

    def term_id(self, term: Term) -> int:
        """Dictionary ID of a term, appending it to the term table once."""
        tid = self._term_ids.get(term)
        if tid is not None:
            return tid
        if isinstance(term, URIRef):
            record = (_WIRE_URI, self.string_id(term.value), 0, 0)
        elif isinstance(term, BNode):
            record = (_WIRE_BNODE, self.string_id(term.id), 0, 0)
        elif isinstance(term, Literal):
            # +1 shift so 0 can mean "absent" for datatype/language
            datatype = 0 if term.datatype is None else self.string_id(term.datatype) + 1
            language = 0 if term.language is None else self.string_id(term.language) + 1
            record = (_WIRE_LITERAL, self.string_id(term.lexical), datatype, language)
        else:
            raise ValueError(f"cannot wire-encode term type {type(term).__name__}")
        tid = len(self._term_ids)
        self._term_ids[term] = tid
        self._terms.extend(record)
        return tid

    def to_bytes(self) -> bytes:
        """One blob: [n_terms, term table, payload ints] + floats."""
        ints = array("I", [len(self._term_ids)])
        ints.extend(self._terms)
        ints.extend(self.ints)
        return wire_pack(self._strings, ints, self.floats)


class WireReader:
    """Cursor over a :class:`WireWriter` blob; terms decode lazily."""

    def __init__(self, blob: bytes):
        self._strings, self._ints, self.floats = wire_unpack(blob)
        n_terms = self._ints[0]
        self._term_table_end = 1 + 4 * n_terms
        self._term_cache: list[Term | None] = [None] * n_terms
        self._cursor = self._term_table_end
        self._float_cursor = 0

    def read_int(self) -> int:
        value = self._ints[self._cursor]
        self._cursor += 1
        return value

    def read_float(self) -> float:
        value = self.floats[self._float_cursor]
        self._float_cursor += 1
        return value

    @property
    def exhausted(self) -> bool:
        return self._cursor == len(self._ints) and self._float_cursor == len(self.floats)

    def term(self, tid: int) -> Term:
        """Decode term ``tid`` (memoized, so shared terms stay shared)."""
        term = self._term_cache[tid]
        if term is None:
            base = 1 + 4 * tid
            kind, a, b, c = self._ints[base : base + 4]
            if kind == _WIRE_URI:
                term = URIRef(self._strings[a])
            elif kind == _WIRE_BNODE:
                term = BNode(self._strings[a])
            elif kind == _WIRE_LITERAL:
                term = Literal(
                    self._strings[a],
                    datatype=None if b == 0 else self._strings[b - 1],
                    language=None if c == 0 else self._strings[c - 1],
                )
            else:
                raise ValueError(f"unknown wire term kind {kind}")
            self._term_cache[tid] = term
        return term


def encode_entities(entities: list[Entity]) -> bytes:
    """Dictionary-encode a partition of entities into one flat byte blob.

    This is the only representation in which entities may cross the process
    boundary to the worker pool (enforced by ``tests/test_core_workers.py``).
    """
    writer = WireWriter()
    ints = writer.ints
    ints.append(len(entities))
    for entity in entities:
        ints.append(writer.term_id(entity.uri))
        ints.append(len(entity.attributes))
        for predicate, objects in entity.attributes.items():
            ints.append(writer.term_id(predicate))
            ints.append(len(objects))
            for obj in objects:
                ints.append(writer.term_id(obj))
    return writer.to_bytes()


def decode_entities(blob: bytes) -> list[Entity]:
    """Inverse of :func:`encode_entities`: value-equal ``Entity`` objects."""
    reader = WireReader(blob)
    entities: list[Entity] = []
    for _ in range(reader.read_int()):
        uri = reader.term(reader.read_int())
        attributes: dict[Term, tuple[Term, ...]] = {}
        for _ in range(reader.read_int()):
            predicate = reader.term(reader.read_int())
            objects = tuple(reader.term(reader.read_int()) for _ in range(reader.read_int()))
            attributes[predicate] = objects
        entities.append(Entity(uri, attributes))
    return entities


def _best_uncached(
    objects_a: tuple[PreparedTerm, ...],
    objects_b: tuple[PreparedTerm, ...],
    theta: float,
    key: tuple,
) -> float:
    """Memo-miss body of :func:`best_prepared_similarity`."""
    _stats["attr_misses"] += 1
    if len(objects_a) == 1 and len(objects_b) == 1:
        # the common single-valued case skips the loop scaffolding entirely
        score = _pair_score(objects_a[0], objects_b[0], theta)
        best = score if score is not None else 0.0
    else:
        best = 0.0
        for obj_a in objects_a:
            for obj_b in objects_b:
                floor = best if best > theta else theta
                score = _pair_score(obj_a, obj_b, floor)
                if score is not None and score > best:
                    best = score
                    if best >= 1.0:
                        break
            if best >= 1.0:
                break
    if len(_best_cache) >= _best_cache_max:
        _best_cache.pop(next(iter(_best_cache)))
    _best_cache[key] = best
    return best
