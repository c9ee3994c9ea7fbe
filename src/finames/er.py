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

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .ingest import NameList, NormalizedName
from .textutil import entry_lines

logger = logging.getLogger(__name__)

DEFAULT_ER_STOP_WORDS = frozenset(
    {"THE", "A", "AN", "AND", "OF", "LLC", "INC", "LTD", "LP", "LLP", "PLC", "CO"}
)

DEFAULT_ABBREVIATIONS: Mapping[str, tuple[str, ...]] = {
    "WAMU": ("WASHINGTON", "MUTUAL"),
}


@dataclass(frozen=True)
class ErConfig:
    threshold: float = 0.085
    stop_words: frozenset[str] = DEFAULT_ER_STOP_WORDS
    abbreviations: Mapping[str, tuple[str, ...]] = field(default_factory=lambda: dict(DEFAULT_ABBREVIATIONS))
    weight_overrides: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        for token, weight in self.weight_overrides.items():
            if weight < 0:
                raise ValueError(f"negative weight override for {token!r}")


@dataclass(frozen=True)
class Query:
    original: str
    tokens: tuple[str, ...]


def _clean_token(token: str) -> str:
    return "".join(ch for ch in token if ch.isalnum())


def preprocess(mention: str, config: ErConfig) -> Query:
    """Uppercase, strip punctuation, expand abbreviations, drop stop words."""
    expanded: list[str] = []
    for raw in mention.upper().split():
        cleaned = _clean_token(raw)
        if not cleaned:
            continue
        expanded.extend(config.abbreviations.get(cleaned, (cleaned,)))
    tokens = tuple(tok for tok in expanded if tok not in config.stop_words)
    return Query(mention, tokens)


@dataclass(frozen=True)
class Corpus:
    """Resolution targets with their inverted index and token rarity weights."""

    entries: tuple[NormalizedName, ...]
    tokens: tuple[tuple[str, ...], ...]
    inverted_index: Mapping[str, tuple[int, ...]]
    idf: Mapping[str, float]
    weight_overrides: Mapping[str, float]

    def __len__(self) -> int:
        return len(self.entries)

    def name(self, entry_id: int) -> str:
        return self.entries[entry_id].text

    def weight(self, token: str) -> float:
        override = self.weight_overrides.get(token)
        if override is not None:
            return override
        return self.idf.get(token, math.log(len(self.entries)))

    def candidate_ids(self, query_tokens: Sequence[str]) -> list[int]:
        """Entries sharing at least one token with the query, ascending id."""
        hits: set[int] = set()
        for token in set(query_tokens):
            hits.update(self.inverted_index.get(token, ()))
        return sorted(hits)


def build_corpus(names: NameList, config: ErConfig) -> Corpus:
    """Preprocess every corpus name and build the index and IDF table.

    A name that preprocesses to nothing is kept with its raw tokens so it
    stays resolvable, with a warning.
    """
    if not names.names:
        raise ValueError("corpus requires at least one name")
    entry_tokens: list[tuple[str, ...]] = []
    for name in names.names:
        tokens = preprocess(name.text, config).tokens
        if not tokens:
            fallback = tuple(t for t in (_clean_token(tok) for tok in name.tokens) if t)
            tokens = fallback or tuple(tok for tok in name.tokens if tok != ",")
            logger.warning("corpus name %r empty after preprocessing; keeping raw tokens", name.text)
        entry_tokens.append(tokens)
    index: dict[str, list[int]] = {}
    for entry_id, tokens in enumerate(entry_tokens):
        for token in sorted(set(tokens)):
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


def _tokens_of(value: Query | Sequence[str]) -> tuple[str, ...]:
    if isinstance(value, Query):
        return value.tokens
    return tuple(value)


def map_token(token: str, candidate: Sequence[str]) -> int:
    """Index of the first occurrence of ``token`` in ``candidate``, -1 if absent."""
    for j, other in enumerate(candidate):
        if other == token:
            return j
    return -1


def _ordered_prefix_end(source: Sequence[str], target: Sequence[str]) -> int:
    """Last index of the longest leading run whose first-match positions keep
    strictly increasing; the first index is always accepted, and -1 means the
    source is empty."""
    limit = -1
    highest: float | None = None
    for i, token in enumerate(source):
        position = map_token(token, target)
        if highest is not None and position <= highest:
            break
        limit = i
        highest = position if highest is None else max(highest, position)
    return limit


def score_sq(q: Query | Sequence[str], p: Sequence[str], weight: Callable[[str], float]) -> float:
    """Decayed weighted sum over query tokens found in the candidate."""
    q_tokens = _tokens_of(q)
    limit = _ordered_prefix_end(q_tokens, p)
    total = 0.0
    for i in range(limit + 1):
        if map_token(q_tokens[i], p) >= 0:
            total += 0.5**i * weight(q_tokens[i])
    return total


def score_sc(q: Query | Sequence[str], p: Sequence[str]) -> float:
    """Decayed fraction of candidate tokens that occur in the query."""
    q_tokens = _tokens_of(q)
    p_tokens = tuple(p)
    if not p_tokens:
        return 0.0
    limit = _ordered_prefix_end(p_tokens, q_tokens)
    numerator = sum(0.5**j for j in range(limit + 1) if map_token(p_tokens[j], q_tokens) >= 0)
    denominator = sum(0.5**j for j in range(len(p_tokens)))
    return numerator / denominator


def score_sb(q: Query | Sequence[str], p: Sequence[str]) -> float:
    """Bonus when the candidate occurs contiguously inside the query."""
    q_tokens = _tokens_of(q)
    p_tokens = tuple(p)
    if not p_tokens or not q_tokens or len(p_tokens) > len(q_tokens):
        return 0.0
    start = next(
        (i for i in range(len(q_tokens) - len(p_tokens) + 1) if q_tokens[i : i + len(p_tokens)] == p_tokens),
        None,
    )
    if start is None:
        return 0.0
    numerator = sum(0.5**i for i in range(start, start + len(p_tokens)))
    denominator = sum(0.5**i for i in range(len(q_tokens)))
    return numerator / denominator


def score(q: Query | Sequence[str], p: Sequence[str], weight: Callable[[str], float]) -> float:
    return score_sq(q, p, weight) * score_sc(q, p) + score_sb(q, p)


@dataclass(frozen=True)
class MatchResult:
    query: Query
    entry_id: int
    entry_name: str
    score: float
    s_q: float
    s_c: float
    s_b: float


def best_candidate(
    query_tokens: Sequence[str], corpus: Corpus, scorer: Callable[[Sequence[str], Sequence[str]], float]
) -> tuple[int, float] | None:
    """(entry id, score) of the candidate ``scorer(query_tokens, candidate)``
    ranks highest; only a strictly higher score replaces the leader, so ties go
    to the lowest entry id. None when no entry shares a token with the query."""
    best: tuple[int, float] | None = None
    for entry_id in corpus.candidate_ids(query_tokens):
        value = scorer(query_tokens, corpus.tokens[entry_id])
        if best is None or value > best[1]:
            best = (entry_id, value)
    return best


def best_match(mention: str | Query, corpus: Corpus, config: ErConfig) -> MatchResult | None:
    """Highest-scoring candidate regardless of threshold; ties go to the lower
    entry id. None when the query is empty or shares no token with the corpus."""
    query = mention if isinstance(mention, Query) else preprocess(mention, config)
    if not query.tokens:
        logger.warning("query %r is empty after preprocessing", query.original)
        return None
    best = best_candidate(query.tokens, corpus, lambda q, p: score(q, p, corpus.weight))
    if best is None:
        return None
    entry_id, combined = best
    candidate = corpus.tokens[entry_id]
    return MatchResult(
        query,
        entry_id,
        corpus.name(entry_id),
        combined,
        score_sq(query.tokens, candidate, corpus.weight),
        score_sc(query.tokens, candidate),
        score_sb(query.tokens, candidate),
    )


def resolve(mention: str | Query, corpus: Corpus, config: ErConfig) -> MatchResult | None:
    """Best match if it clears the score threshold, else None."""
    result = best_match(mention, corpus, config)
    if result is None or result.score < config.threshold:
        return None
    return result


def load_stop_words(path: str | Path) -> frozenset[str]:
    words = {_clean_token(line.upper()) for _, line in entry_lines(path)}
    return frozenset(w for w in words if w)


def load_abbreviations(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Abbreviation file: ABBREV<TAB>EXPANSION, one per line."""
    mapping: dict[str, tuple[str, ...]] = {}
    for number, line in entry_lines(path):
        abbrev, sep, expansion = line.partition("\t")
        if not sep or not expansion.strip():
            raise ValueError(f"{path}:{number}: expected ABBREV<TAB>EXPANSION")
        key = _clean_token(abbrev.strip().upper())
        value = tuple(t for t in (_clean_token(tok) for tok in expansion.upper().split()) if t)
        if key and value:
            mapping[key] = value
    return mapping


def load_weight_overrides(path: str | Path) -> dict[str, float]:
    """Override file: TOKEN<TAB>weight, one per line; weights must be >= 0."""
    overrides: dict[str, float] = {}
    for number, line in entry_lines(path):
        token, sep, value = line.partition("\t")
        if not sep:
            raise ValueError(f"{path}:{number}: expected TOKEN<TAB>weight")
        try:
            weight = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: bad weight {value.strip()!r}") from exc
        if weight < 0:
            raise ValueError(f"{path}:{number}: negative weight")
        overrides[_clean_token(token.strip().upper())] = weight
    return overrides
