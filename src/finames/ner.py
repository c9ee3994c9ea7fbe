"""Dictionary-driven mention extraction.

Extraction is a single left-to-right pass over the token stream: find the
leftmost-longest root entry, then repeatedly append the longest literal or
pattern suffix that follows, then resume scanning after the consumed span.
Matching is purely token based, so line breaks inside a name do not matter.
An entry is matched by looking its token slice up in the dictionary's own set,
at every length from the dictionary's longest entry (or the tokens left, if
fewer) down to one, and only at a token that starts some entry of it.
"""
from __future__ import annotations

import string
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .dict_gen import RootDictionary, SuffixDictionary, SuffixPattern
from .ingest import Document
from .textutil import SEPARATORS, TokenSeq

DEFAULT_ROLE_KEYWORDS = frozenset(
    {"SERVICER", "SERVICERS", "ISSUER", "SPONSOR", "DEPOSITOR", "TRUSTEE", "UNDERWRITER", "ORIGINATOR"}
)
DEFAULT_ROLE_WINDOW = 10

_PUNCT = string.punctuation


def tokenize(doc: Document) -> TokenSeq:
    """Uppercased tokens of the document (``textutil.TOKEN``), their offsets in
    ``doc.token_bounds``; cut once per document and shared by extraction and
    the role filter."""
    return doc.tokens


class Mention(NamedTuple):
    """An extracted name occurrence with its root/suffix decomposition: the
    root covers ``start``..``root_end``, each suffix one of ``suffix_spans``."""

    doc_id: str
    start: int
    end: int
    surface: str
    root_end: int
    suffix_spans: tuple[tuple[int, int], ...]
    section: str


def _longest_match(entries: frozenset[TokenSeq], longest: int, texts: TokenSeq, start: int) -> int:
    """Token length of the longest entry matching at ``start``; 0 if none. Only
    lengths that fit in the tokens left are tried: a cut-off slice could equal
    a shorter entry."""
    for length in range(min(longest, len(texts) - start), 0, -1):
        if texts[start : start + length] in entries:
            return length
    return 0


class Extractor:
    """Reusable matcher over the dictionaries' entry sets.

    A match whose whole token sequence, or whose root alone, is in
    ``invalid`` yields no mention; scanning still resumes after it.
    """

    def __init__(
        self,
        roots: RootDictionary,
        suffixes: SuffixDictionary,
        invalid: frozenset[TokenSeq] = frozenset(),
    ) -> None:
        self._roots = roots.entries
        self._first_tokens = frozenset(map(itemgetter(0), roots.entries))
        self._root_longest = max(map(len, roots.entries), default=0)
        self._suffixes = suffixes.literal_entries
        self._suffix_first_tokens = frozenset(map(itemgetter(0), suffixes.literal_entries))
        self._suffix_longest = max(map(len, suffixes.literal_entries), default=0)
        # A pattern whose first token is literal text is tried only at that
        # text; every other pattern at each extension step.
        heads = [(p.head, p) for p in suffixes.pattern_entries]
        anywhere = tuple(p for head, p in heads if head is None)
        self._patterns_anywhere = anywhere
        self._patterns_at: dict[str, tuple[SuffixPattern, ...]] = {}
        for head, pattern in heads:
            if head is not None:
                self._patterns_at[head] = self._patterns_at.get(head, anywhere) + (pattern,)
        self._invalid = invalid

    def _extend(self, texts: TokenSeq, pos: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        ranges: list[tuple[int, int]] = []
        while pos < len(texts):
            length = 0
            token = texts[pos]
            if token in self._suffix_first_tokens:
                length = _longest_match(self._suffixes, self._suffix_longest, texts, pos)
            for pattern in self._patterns_at.get(token, self._patterns_anywhere):
                count = pattern.token_count
                if count > length and pos + count <= len(texts) and pattern.matches(texts[pos : pos + count]):
                    length = count
            if not length:
                break
            ranges.append((pos, pos + length))
            pos += length
        return pos, tuple(ranges)

    def extract(self, doc: Document) -> list[Mention]:
        texts = tokenize(doc)
        first_tokens = self._first_tokens
        mentions: list[Mention] = []
        pos = 0
        for start in [i for i, tok in enumerate(texts) if tok in first_tokens]:
            if start < pos:
                continue
            root_end = start + _longest_match(self._roots, self._root_longest, texts, start)
            if root_end == start:
                continue
            end, suffix_ranges = self._extend(texts, root_end)
            dropped = self._invalid and (texts[start:end] in self._invalid or texts[start:root_end] in self._invalid)
            if not dropped:
                mentions.append(_build_mention(doc, start, root_end, end, suffix_ranges))
            pos = end
        return mentions


def _build_mention(
    doc: Document, start: int, root_end: int, end: int, suffix_ranges: tuple[tuple[int, int], ...]
) -> Mention:
    bounds = doc.token_bounds
    start_char = bounds[2 * start]
    end_char = bounds[2 * end - 1]
    return Mention(
        doc.doc_id,
        start_char,
        end_char,
        SEPARATORS.sub(" ", doc.raw_text[start_char:end_char]),
        bounds[2 * root_end - 1],
        tuple([(bounds[2 * i], bounds[2 * j - 1]) for i, j in suffix_ranges]),
        doc.section_at(start_char),
    )


def _bare(token_text: str) -> str:
    return token_text.strip(_PUNCT)


def filter_by_role_keyword(
    mentions: Sequence[Mention],
    doc: Document,
    keywords: Iterable[str] | None = None,
    window: int | None = None,
) -> list[Mention]:
    """Keep mentions with a role keyword within ``window`` tokens before them;
    None means ``DEFAULT_ROLE_KEYWORDS`` and ``DEFAULT_ROLE_WINDOW``.

    Distance 0 is the token immediately preceding the mention; punctuation
    stuck to the keyword ("Servicers:") is ignored for the comparison.
    """
    wanted = {k.upper() for k in (keywords if keywords is not None else DEFAULT_ROLE_KEYWORDS)}
    if not wanted:
        raise ValueError("role keyword set is empty")
    if window is None:
        window = DEFAULT_ROLE_WINDOW
    elif window < 0:
        raise ValueError(f"role window must be >= 0, got {window}")
    texts = tokenize(doc)
    starts = doc.token_bounds[0:-1:2]
    kept = []
    for mention in mentions:
        idx = bisect_left(starts, mention.start)
        for distance in range(window + 1):
            k = idx - 1 - distance
            if k < 0:
                break
            if _bare(texts[k]) in wanted:
                kept.append(mention)
                break
    return kept
