"""Dictionary-driven mention extraction.

Extraction is a single left-to-right pass over the token stream: find the
leftmost-longest root entry, then repeatedly append the longest literal or
pattern suffix that follows, then resume scanning after the consumed span.
Matching is purely token based, so line breaks inside a name do not matter.
Each dictionary answers the longest entry at a token itself
(``longest_match``), parsing only the entries under the first tokens the
documents hold.
"""
from __future__ import annotations

import string
from bisect import bisect_left
from typing import Container, Iterable, NamedTuple, Sequence

from .dict_gen import RootDictionary, SuffixDictionary
from .ingest import Document
from .textutil import SEPARATORS, TOKEN, TokenSeq

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


class Extractor:
    """Reusable matcher over the dictionaries' entries.

    A match whose whole token sequence, or whose root alone, is in
    ``invalid`` yields no mention; scanning still resumes after it.
    """

    def __init__(
        self,
        roots: RootDictionary,
        suffixes: SuffixDictionary,
        invalid: Container[TokenSeq] = frozenset(),
    ) -> None:
        self._roots, self._suffixes, self._invalid = roots, suffixes, invalid

    def extract(self, doc: Document) -> list[Mention]:
        texts = tokenize(doc)
        roots, suffixes = self._roots, self._suffixes
        mentions: list[Mention] = []
        pos = 0
        for start in roots.starts(texts):
            if start < pos:
                continue
            root_end = start + roots.longest_match(texts, start)
            if root_end == start:
                continue
            end, suffix_ranges = root_end, []
            while end < len(texts) and (length := suffixes.longest_match(texts, end)):
                suffix_ranges.append((end, end + length))
                end += length
            dropped = self._invalid and (texts[start:end] in self._invalid or texts[start:root_end] in self._invalid)
            if not dropped:
                mentions.append(_build_mention(doc, start, root_end, end, suffix_ranges))
            pos = end
        return mentions


def _build_mention(doc: Document, start: int, root_end: int, end: int, suffix_ranges: list[tuple[int, int]]) -> Mention:
    bounds = doc.token_bounds
    start_char = bounds[2 * start]
    end_char = bounds[2 * end - 1]
    surface = doc.raw_text[start_char:end_char]  # only the space is a printable separator
    return Mention(
        doc.doc_id,
        start_char,
        end_char,
        surface if surface.isprintable() and "  " not in surface else SEPARATORS.sub(" ", surface),
        bounds[2 * root_end - 1],
        tuple([(bounds[2 * i], bounds[2 * j - 1]) for i, j in suffix_ranges]),
        doc.section_at(start_char),
    )


def _bare(token_text: str) -> str:
    return token_text.strip(_PUNCT)


def _role_settings(keywords: Iterable[str] | None, window: int | None) -> tuple[frozenset[str], int]:
    """The uppercased keywords and the window of the role filter; None means ``DEFAULT_ROLE_KEYWORDS``
    and ``DEFAULT_ROLE_WINDOW``. An empty keyword set, a negative window or a keyword that is not one
    token without ASCII edge punctuation, so that no stripped token can equal it, raises ValueError."""
    keywords = DEFAULT_ROLE_KEYWORDS if keywords is None else tuple(keywords)
    wanted = frozenset(k.upper() for k in keywords)
    if not wanted:
        raise ValueError("role keyword set is empty")
    window = DEFAULT_ROLE_WINDOW if window is None else window
    if window < 0:
        raise ValueError(f"role window must be >= 0, got {window}")
    for keyword in keywords:
        if not TOKEN.fullmatch(upper := keyword.upper()) or _bare(upper) != upper:
            raise ValueError(f"role keyword {keyword!r} can match no token: not one token without edge punctuation")
    return wanted, window


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
    wanted, window = _role_settings(keywords, window)
    texts = tokenize(doc)
    starts = doc.token_bounds[0:-1:2]
    kept = []
    for mention in mentions:
        idx = bisect_left(starts, mention.start)  # the mention's first token
        if not wanted.isdisjoint(map(_bare, texts[max(0, idx - 1 - window) : idx])):
            kept.append(mention)
    return kept
