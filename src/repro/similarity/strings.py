"""String similarity metrics, all returning scores in [0, 1].

These are the workhorses behind the paper's generic similarity function
(Section 4.1): feature values are similarity scores between attribute
values, and for textual attributes those scores come from here.
"""

from __future__ import annotations

import re
from typing import Mapping

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def normalize(text: str) -> str:
    """Case-fold and collapse whitespace; the canonical form all metrics use."""
    return " ".join(text.lower().split())


def tokens(text: str) -> list[str]:
    """Alphanumeric tokens of the normalized text."""
    return _TOKEN_RE.findall(text.lower())


def levenshtein_distance(a: str, b: str) -> int:
    """Classic edit distance with a two-row dynamic program."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, char_b in enumerate(b, start=1):
        current = [j]
        for i, char_a in enumerate(a, start=1):
            insert_cost = current[i - 1] + 1
            delete_cost = previous[i] + 1
            substitute_cost = previous[i - 1] + (char_a != char_b)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """1 − normalized edit distance."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity: transposition-aware common-character ratio."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(len_a, len_b) // 2 - 1
    window = max(window, 0)
    matches_a = [False] * len_a
    matches_b = [False] * len_b
    matches = 0
    for i, char in enumerate(a):
        start = max(0, i - window)
        end = min(i + window + 1, len_b)
        for j in range(start, end):
            if matches_b[j] or b[j] != char:
                continue
            matches_a[i] = True
            matches_b[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i in range(len_a):
        if not matches_a[i]:
            continue
        while not matches_b[k]:
            k += 1
        if a[i] != b[k]:
            transpositions += 1
        k += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted by a shared prefix of up to 4 chars."""
    jaro = jaro_similarity(a, b)
    prefix = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def token_jaccard_similarity(a: str, b: str) -> float:
    """Jaccard overlap of the token sets."""
    set_a, set_b = set(tokens(a)), set(tokens(b))
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def _trigrams(text: str) -> set[str]:
    padded = f"  {text} "
    return {padded[i:i + 3] for i in range(len(padded) - 2)}


def trigrams(text: str) -> set[str]:
    """Padded character trigrams of the normalized text (the sets
    :func:`trigram_dice_similarity` compares; exposed for prepared-entity
    caching)."""
    return _trigrams(normalize(text))


def trigram_dice_similarity(a: str, b: str) -> float:
    """Dice coefficient over padded character trigrams."""
    norm_a, norm_b = normalize(a), normalize(b)
    if norm_a == norm_b:
        return 1.0
    if not norm_a or not norm_b:
        return 0.0
    grams_a, grams_b = _trigrams(norm_a), _trigrams(norm_b)
    return 2.0 * len(grams_a & grams_b) / (len(grams_a) + len(grams_b))


# --------------------------------------------------------------------- #
# θ-aware upper bounds
#
# Cheap, provable ceilings on the expensive metrics: when a bound is
# already below the threshold θ (or below the best score seen so far in a
# max-reduction) the metric itself never needs to run. Every bound is
# ≥ the true score for the same inputs, so skipping on the bound keeps the
# admitted results bit-identical to the unfiltered computation.
# --------------------------------------------------------------------- #


def _char_counts(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for char in text:
        counts[char] = counts.get(char, 0) + 1
    return counts


def _common_char_count(counts_a: Mapping[str, int], counts_b: Mapping[str, int]) -> int:
    """Size of the character multiset intersection (caps Jaro matches)."""
    if len(counts_a) > len(counts_b):
        counts_a, counts_b = counts_b, counts_a
    common = 0
    for char, count in counts_a.items():
        other = counts_b.get(char, 0)
        common += count if count < other else other
    return common


def jaro_winkler_bound_from_stats(
    len_a: int,
    len_b: int,
    common_chars: int,
    shared_prefix: int,
    prefix_weight: float = 0.1,
) -> float:
    """Upper bound on Jaro-Winkler from length/character statistics.

    Jaro is ``(m/|a| + m/|b| + (m−t)/m) / 3`` with ``m`` the number of
    matches; ``m`` can never exceed the character multiset intersection,
    and ``(m−t)/m ≤ 1``, so substituting the intersection size bounds Jaro
    from above. The Winkler boost is monotone in Jaro for a fixed shared
    prefix, so applying the *actual* shared prefix (cheap to read off the
    first four characters) to the Jaro bound keeps the result an upper
    bound on the full metric.
    """
    if common_chars <= 0:
        # jaro_similarity returns 1.0 for equal strings (incl. both empty)
        # and 0.0 whenever there are no matches.
        return 1.0 if len_a == 0 and len_b == 0 else 0.0
    matches = min(common_chars, len_a, len_b)
    jaro_bound = (matches / len_a + matches / len_b + 1.0) / 3.0
    if jaro_bound >= 1.0:
        return 1.0
    return jaro_bound + shared_prefix * prefix_weight * (1.0 - jaro_bound)


def shared_prefix_length(a: str, b: str, limit: int = 4) -> int:
    """Length of the common prefix of ``a`` and ``b``, capped at ``limit``."""
    prefix = 0
    for char_a, char_b in zip(a[:limit], b[:limit]):
        if char_a != char_b:
            break
        prefix += 1
    return prefix


def jaro_winkler_upper_bound(a: str, b: str) -> float:
    """Upper bound on :func:`jaro_winkler_similarity` for the same inputs."""
    if a == b:
        return 1.0
    return jaro_winkler_bound_from_stats(
        len(a), len(b), _common_char_count(_char_counts(a), _char_counts(b)),
        shared_prefix_length(a, b),
    )


def token_jaccard_bound_from_sizes(size_a: int, size_b: int) -> float:
    """Upper bound on token Jaccard from the two token-set sizes alone:
    ``|A∩B|/|A∪B| ≤ min/max`` (and two empty sets score exactly 1.0)."""
    if size_a == 0 and size_b == 0:
        return 1.0
    if size_a == 0 or size_b == 0:
        return 0.0
    return min(size_a, size_b) / max(size_a, size_b)


def token_jaccard_upper_bound(a: str, b: str) -> float:
    """Upper bound on :func:`token_jaccard_similarity` for the same inputs."""
    return token_jaccard_bound_from_sizes(len(set(tokens(a))), len(set(tokens(b))))


def string_similarity(a: str, b: str) -> float:
    """The composite string score used for feature values.

    Combines normalized-exact, Jaro-Winkler, and token overlap: exact match
    short-circuits to 1.0; otherwise the max of Jaro-Winkler (good for
    typos/short strings) and token Jaccard (good for word reorderings and
    long titles), which keeps the score meaningful across value styles.
    """
    norm_a, norm_b = normalize(a), normalize(b)
    if norm_a == norm_b:
        return 1.0
    if not norm_a or not norm_b:
        return 0.0
    return max(
        jaro_winkler_similarity(norm_a, norm_b),
        token_jaccard_similarity(norm_a, norm_b),
    )
