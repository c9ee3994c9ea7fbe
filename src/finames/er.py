"""Ranked resolution of mention strings against a normalized name corpus.

Each corpus name is treated as a bag-of-words document. A query is scored
against a candidate by three factors: a position-decayed sum of rarity
weights over query tokens found in the candidate (s_q), the decayed fraction
of candidate tokens found back in the query (s_c), and a bonus when the
candidate appears verbatim inside the query (s_b). The combined score is
``s_q * s_c + s_b``; the best-scoring candidate wins and a threshold decides
whether the match is kept.

Token order matters: both decayed sums run only over the longest leading run
of tokens whose first-match positions keep strictly increasing, so a query
that preserves the candidate's token order scores far higher than a
scrambled one.
"""
from __future__ import annotations

import functools
import logging
import math
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .ingest import NameList, NormalizedName
from .textutil import COMMA, entry_lines, name_tokens

logger = logging.getLogger(__name__)

DEFAULT_ER_STOP_WORDS = frozenset(
    {"THE", "A", "AN", "AND", "OF", "LLC", "INC", "LTD", "LP", "LLP", "PLC", "CO"}
)

DEFAULT_ABBREVIATIONS: Mapping[str, tuple[str, ...]] = MappingProxyType({
    "WAMU": ("WASHINGTON", "MUTUAL"),
})

# Largest accepted weight: s_q <= 2 * MAX_WEIGHT and s_b <= 1, so every score
# and every ranking bound stays finite; the undecayed ``idf`` sum saturates.
MAX_WEIGHT = sys.float_info.max / 4

SCORE_VARIANTS = ("idf", "sq", "sqsc", "full")

# Factors (a, b, c) of a score a * b + c, as (s_q, s_c, s_b) for the full score.
Factors = tuple[float, float, float]


class _ErConfigFields(NamedTuple):
    threshold: float = 0.085
    stop_words: frozenset[str] = DEFAULT_ER_STOP_WORDS
    # Defaults are shared by every config, so they are read-only.
    abbreviations: Mapping[str, tuple[str, ...]] = DEFAULT_ABBREVIATIONS
    weight_overrides: Mapping[str, float] = MappingProxyType({})


class ErConfig(_ErConfigFields):
    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> ErConfig:
        self = super().__new__(cls, *args, **kwargs)
        # ``not x >= 0`` also rejects NaN, which fails every comparison.
        if not self.threshold >= 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        for token, weight in self.weight_overrides.items():
            if not 0 <= weight <= MAX_WEIGHT:
                raise ValueError(f"weight override for {token!r} must be >= 0 and <= {MAX_WEIGHT}, got {weight}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> ErConfig:
        """``_replace`` builds through here: the result is validated too."""
        return cls(*iterable)


class Query(NamedTuple):
    original: str
    tokens: tuple[str, ...]


def _clean_token(token: str) -> str:
    """``token`` without its characters that are not letters or digits."""
    return token if token.isalnum() else "".join(filter(str.isalnum, token))


def _tokens(name: Iterable[str], config: ErConfig) -> tuple[str, ...]:
    """The query tokens of a name's ``name_tokens``, shared by queries and corpus names."""
    abbreviations, stop_words = config.abbreviations, config.stop_words
    tokens: list[str] = []
    for cleaned in map(_clean_token, name):
        if not cleaned:
            continue
        expansion = abbreviations.get(cleaned)
        if expansion is None:
            if cleaned not in stop_words:
                tokens.append(cleaned)
        else:
            tokens.extend(tok for tok in expansion if tok not in stop_words)
    return tuple(tokens)


def preprocess(mention: str, config: ErConfig) -> Query:
    """Tokens as a corpus name's: ``name_tokens``, cleaned, abbreviations expanded, stop words dropped."""
    return Query(mention, _tokens(name_tokens(mention), config))


class Corpus:
    """Resolution targets with their inverted index and token rarity weights."""

    __slots__ = ("entries", "tokens", "inverted_index", "idf", "weight_overrides")

    def __init__(
        self,
        entries: tuple[NormalizedName, ...],
        tokens: tuple[tuple[str, ...], ...],
        inverted_index: Mapping[str, tuple[int, ...]],
        idf: Mapping[str, float],
        weight_overrides: Mapping[str, float],
    ) -> None:
        self.entries, self.tokens, self.inverted_index = entries, tokens, inverted_index
        self.idf, self.weight_overrides = idf, weight_overrides

    def __len__(self) -> int:
        return len(self.entries)

    def name(self, entry_id: int) -> str:
        return self.entries[entry_id].text

    def weight(self, token: str) -> float:
        weight = self.weight_overrides.get(token)
        if weight is None:
            weight = self.idf.get(token)
        return math.log(len(self.entries)) if weight is None else weight

    def candidate_ids(self, query_tokens: Sequence[str]) -> list[int]:
        """Entries sharing at least one token with the query, ascending id."""
        hits: set[int] = set()
        for token in set(query_tokens):
            hits.update(self.inverted_index.get(token, ()))
        return sorted(hits)


def build_corpus(names: NameList, config: ErConfig) -> Corpus:
    """Preprocess every corpus name as a query is and build the index and IDF
    table.

    A name that preprocesses to nothing (only stop words or punctuation) keeps
    its cleaned raw tokens, with a warning: it keeps its entry id and its share
    of the IDF count, but no query can match it, since queries drop those tokens.
    """
    if not names.names:
        raise ValueError("corpus requires at least one name")
    entry_tokens: list[tuple[str, ...]] = []
    for name in names.names:
        tokens = _tokens(name.tokens, config)
        if not tokens:
            fallback = tuple(t for t in map(_clean_token, name.tokens) if t)
            tokens = fallback or tuple(tok for tok in name.tokens if tok != COMMA)
            logger.warning(
                "corpus name %r empty after preprocessing; keeping its raw tokens, which no query can match",
                name.text,
            )
        entry_tokens.append(tokens)
    index: dict[str, list[int]] = {}
    for entry_id, tokens in enumerate(entry_tokens):
        for token in dict.fromkeys(tokens):
            index.setdefault(token, []).append(entry_id)
    total = len(entry_tokens)
    idf = {token: math.log(total / len(ids)) for token, ids in index.items()}
    return Corpus(
        entries=names.names,
        tokens=tuple(entry_tokens),
        inverted_index={token: tuple(ids) for token, ids in index.items()},
        idf=idf,
        weight_overrides=dict(config.weight_overrides),
    )


def _leading_run(source: Sequence[str], target: Sequence[str]) -> range:
    """Indexes of the ``source`` tokens found in ``target`` within the longest
    leading run whose first-match positions in ``target`` keep strictly
    increasing. Only index 0 can be absent, so the run starts at 0 or 1."""
    first: dict[str, int] = {}
    for j, token in enumerate(target):
        first.setdefault(token, j)
    positions = [first.get(token, -1) for token in source]
    end = 1
    while end < len(positions) and positions[end] > positions[end - 1]:
        end += 1
    return range(0 if positions and positions[0] >= 0 else 1, end)


def _weighted_run(q: Sequence[str], weight: Callable[[str], float], run: range) -> float:
    """``s_q`` over the query positions in ``run``."""
    # One sum() in index order, as in the definition: since Python 3.12 sum()
    # of floats is compensated, so a += loop differs from it in the last bits.
    return sum((0.5**i * weight(q[i]) for i in run), 0.0)


@functools.cache
def _run_share(length: int, start: int, end: int) -> float:
    """Decayed share of positions ``start..end-1`` among ``length`` positions:
    ``s_c`` of a candidate over its run, and ``s_b`` of a query over the block
    where the candidate occurs. Few (length, start, end) triples recur."""
    return sum(0.5**j for j in range(start, end)) / sum(0.5**j for j in range(length))


def score_sq(q: Sequence[str], p: Sequence[str], weight: Callable[[str], float]) -> float:
    """Decayed weighted sum over query tokens found in the candidate."""
    return _weighted_run(q, weight, _leading_run(q, p))


def score_sc(q: Sequence[str], p: Sequence[str]) -> float:
    """Decayed fraction of candidate tokens that occur in the query."""
    if not p:
        return 0.0
    run = _leading_run(p, q)
    return _run_share(len(p), run.start, run.stop)


def score_sb(q: Sequence[str], p: Sequence[str]) -> float:
    """Bonus when the candidate occurs contiguously inside the query, over its
    first occurrence."""
    q, p = tuple(q), tuple(p)
    if p:
        for start in range(len(q) - len(p) + 1):
            if q[start : start + len(p)] == p:
                return _run_share(len(q), start, start + len(p))
    return 0.0


class MatchResult(NamedTuple):
    query: Query
    entry_id: int
    entry_name: str
    score: float
    s_q: float
    s_c: float
    s_b: float


def decayed_gains(query_tokens: Sequence[str], weight: Callable[[str], float]) -> tuple[float, ...]:
    """Per-position bounds for the full score and its reductions: what
    query position ``i`` can add to a candidate holding ``query_tokens[i]``.
    ``s_q`` counts only held positions and ``s_c <= 1``; ``s_b`` counts only
    positions in a block of candidate tokens, each worth ``0.5**i / Σ_k 0.5**k``."""
    block = _run_share(len(query_tokens), 0, 1)
    return tuple(0.5**i * (weight(token) + block) for i, token in enumerate(query_tokens))


def score_cap(
    query_tokens: Sequence[str], weight: Callable[[str], float], sc: bool = True, sb: bool = True
) -> Callable[[Sequence[str]], float]:
    """Cap of ``s_q * s_c + s_b`` against a candidate (of ``s_q * s_c`` without
    ``sb``, of ``s_q`` alone without ``sc`` either) that skips the order checks.

    ``s_q`` counts at most the query's leading run of held positions (0 if
    held, then 1, 2, … up to the first one the candidate lacks), and ``s_c``
    at most the candidate's leading run of tokens the query holds; ``s_b``
    needs every candidate token in the query and counts only held positions.
    The ``s_q`` and ``s_c`` parts are ``_weighted_run`` and ``_run_share``
    of the cap's runs, as the scores are of theirs, so where the runs agree
    the cap equals the score exactly, however small the weights. The cap
    is 0 when the candidate holds neither ``q[0]`` nor ``q[1]`` or the query
    holds neither ``p[0]`` nor ``p[1]``, unless ``sb`` is set and every
    candidate token is in the query."""
    q = tuple(query_tokens)
    held_at: dict[str, int] = {}  # token -> bit mask of its query positions
    for i, token in enumerate(q):
        held_at[token] = held_at.get(token, 0) | 1 << i
    sq_of: dict[int, float] = {}  # mask of held positions -> s_q cap

    def cap(p: Sequence[str]) -> float:
        mask = 0
        inside = True
        for token in p:
            positions = held_at.get(token)
            if positions is None:
                inside = False
            else:
                mask |= positions
        value = sq_of.get(mask)
        if value is None:
            rest = mask >> 1
            # The run after position 0 ends before the lowest position not held.
            end = (~rest & (rest + 1)).bit_length()
            sq_of[mask] = value = _weighted_run(q, weight, range(1 - (mask & 1), end))
        if sc and value:
            j = 1
            while j < len(p) and p[j] in held_at:
                j += 1
            value *= _run_share(len(p), 0 if p[0] in held_at else 1, j)
        if sb and inside and mask:
            value += sum(0.5**i for i in range(len(q)) if mask >> i & 1) / sum(0.5**i for i in range(len(q)))
        return value

    return cap


def best_candidate(
    query_tokens: Sequence[str],
    corpus: Corpus,
    scorer: Callable[[Sequence[str]], Factors],
    gains: Sequence[float],
    cap: Callable[[Sequence[str]], float],
) -> tuple[int, float, Factors] | None:
    """(entry id, score, factors) of the candidate ranked highest, where
    ``scorer(candidate)`` gives the factors ``(a, b, c)`` of the score
    ``a * b + c``; only a strictly higher score replaces the leader, so ties go
    to the lowest entry id. None when no entry shares a token with the query.

    ``gains[i]`` must bound what position ``i`` adds to the score of a
    candidate holding ``query_tokens[i]``, and ``cap(candidate)`` must bound
    the candidate's score, up to a ``1e-9`` relative margin for rounding. The
    tokens' postings are read in descending gain, and the best-capped new
    candidate of each token is scored when it can raise the floor, the best
    score so far. Reading stops once the summed gain of the unread tokens
    (with the margin) is below the floor: a candidate holding only those
    cannot win. The candidates of the tokens read are then ranked in
    ascending id, skipping every one whose cap stays below the floor or is
    not above the leader's score, which a later id must beat."""
    gain_of: dict[str, float] = {}  # summed gain of each distinct query token
    for token, gain in zip(query_tokens, gains):
        gain_of[token] = gain_of.get(token, 0.0) + gain
    order = sorted(gain_of, key=gain_of.__getitem__, reverse=True)
    # unread[k]: summed gain of order[k:], added up from the low-gain end; a
    # running total minus the gains read would lose small gains beside a huge one.
    unread = [0.0] * (len(order) + 1)
    for k in range(len(order) - 1, -1, -1):
        unread[k] = gain_of[order[k]] + unread[k + 1]

    def scored(entry_id: int) -> tuple[float, Factors]:
        a, b, c = factors = scorer(corpus.tokens[entry_id])
        return a * b + c, factors

    caps: dict[int, float] = {}
    results: dict[int, tuple[float, Factors]] = {}
    floor = -math.inf
    read = 0
    for token in order:
        if unread[read] * (1 + 1e-9) < floor:
            break
        read += 1
        new = [entry_id for entry_id in corpus.inverted_index.get(token, ()) if entry_id not in caps]
        for entry_id in new:
            caps[entry_id] = cap(corpus.tokens[entry_id])
        if new:
            top = max(new, key=caps.__getitem__)
            if caps[top] * (1 + 1e-9) > floor:
                results[top] = result = scored(top)
                floor = max(floor, result[0])
    best: tuple[int, float, Factors] | None = None
    for entry_id in corpus.candidate_ids(order[:read]):
        result = results.get(entry_id)
        if result is None:
            limit = caps[entry_id] * (1 + 1e-9)
            if limit < floor or best is not None and limit <= best[1]:
                continue
            result = scored(entry_id)
            floor = max(floor, result[0])
        if best is None or result[0] > best[1]:
            best = (entry_id, *result)
    return best


def score_idf(q: Sequence[str], p: Sequence[str], weight: Callable[[str], float]) -> float:
    """``idf`` score: the weight of every query position the candidate holds,
    without decay or order, saturating at ``sys.float_info.max``."""
    return min(sum(weight(token) for token in q if token in p), sys.float_info.max)


def rank(query_tokens: Sequence[str], corpus: Corpus, variant: str = "full") -> tuple[int, float, Factors] | None:
    """(entry id, score, factors) of the best candidate under a scoring variant,
    lowest id on ties; None when the query is empty or shares no token with
    the corpus. ``full`` scores ``s_q * s_c + s_b`` with the factors
    ``(s_q, s_c, s_b)``; ``sqsc`` drops ``s_b`` and ``sq`` keeps ``s_q`` alone.
    ``idf`` sums the weight of every query position the candidate holds,
    without decay or order (``score_idf``); its factors are ``(sum, 1.0,
    0.0)``, and as it needs no order check its cap is the score."""
    if variant not in SCORE_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {SCORE_VARIANTS}")
    q = tuple(query_tokens)
    if not q:
        return None
    weight = {token: corpus.weight(token) for token in set(q)}.__getitem__
    if variant == "idf":
        # The cap is the score: sum each candidate once for both.
        idf = functools.cache(lambda p: score_idf(q, p, weight))
        return best_candidate(q, corpus, lambda p: (idf(p), 1.0, 0.0), [weight(token) for token in q], idf)
    sc, sb = variant != "sq", variant == "full"

    def factors(p: Sequence[str]) -> Factors:
        return score_sq(q, p, weight), score_sc(q, p) if sc else 1.0, score_sb(q, p) if sb else 0.0

    return best_candidate(q, corpus, factors, decayed_gains(q, weight), score_cap(q, weight, sc, sb))


def best_match(mention: str | Query, corpus: Corpus, config: ErConfig) -> MatchResult | None:
    """Highest-scoring candidate regardless of threshold; ties go to the lower
    entry id. None when the query is empty or shares no token with the corpus."""
    query = mention if isinstance(mention, Query) else preprocess(mention, config)
    if not query.tokens:
        logger.warning("query %r is empty after preprocessing", query.original)
        return None
    best = rank(query.tokens, corpus)
    if best is None:
        return None
    entry_id, combined, (s_q, s_c, s_b) = best
    return MatchResult(query, entry_id, corpus.name(entry_id), combined, s_q, s_c, s_b)


def resolve(mention: str | Query, corpus: Corpus, config: ErConfig) -> MatchResult | None:
    """Best match if it clears the score threshold, else None."""
    result = best_match(mention, corpus, config)
    if result is None or result.score < config.threshold:
        return None
    return result


def _one_token(path: str | Path, number: int, text: str) -> str:
    """The query token ``text`` stands for; a value that is not one token with a letter
    or digit, commas aside, could never match one, so it raises naming the line."""
    words = [word for word in name_tokens(text) if word != COMMA]
    token = _clean_token(words[0]) if len(words) == 1 else ""
    if not token:
        raise ValueError(f"{path}:{number}: expected one token with a letter or digit, got {text.strip()!r}")
    return token


def load_stop_words(path: str | Path) -> frozenset[str]:
    """Stop-word file: one token per line."""
    return frozenset(_one_token(path, number, line) for number, line in entry_lines(path))


def load_abbreviations(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Abbreviation file: ABBREV<TAB>EXPANSION, one per line. The abbreviation
    is one query token, and the expansion keeps at least one."""
    mapping: dict[str, tuple[str, ...]] = {}
    for number, line in entry_lines(path):
        abbrev, sep, expansion = line.partition("\t")
        if not sep or not expansion.strip():
            raise ValueError(f"{path}:{number}: expected ABBREV<TAB>EXPANSION")
        key = _one_token(path, number, abbrev)
        value = tuple(t for t in map(_clean_token, name_tokens(expansion)) if t)
        if not value:
            raise ValueError(f"{path}:{number}: expansion has no token with a letter or digit: {expansion.strip()!r}")
        mapping[key] = value
    return mapping


def load_weight_overrides(path: str | Path) -> dict[str, float]:
    """Override file: TOKEN<TAB>weight, one per line; weights must lie in
    [0, MAX_WEIGHT] (not NaN)."""
    overrides: dict[str, float] = {}
    for number, line in entry_lines(path):
        token, sep, value = line.partition("\t")
        if not sep:
            raise ValueError(f"{path}:{number}: expected TOKEN<TAB>weight")
        try:
            weight = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: bad weight {value.strip()!r}") from exc
        if not 0 <= weight <= MAX_WEIGHT:
            raise ValueError(f"{path}:{number}: weight must be >= 0 and <= {MAX_WEIGHT}, got {value.strip()!r}")
        overrides[_one_token(path, number, token)] = weight
    return overrides
