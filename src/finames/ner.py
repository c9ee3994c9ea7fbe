"""Dictionary-driven mention extraction.

Extraction is a single left-to-right pass over the token stream: find the
leftmost-longest root entry, then repeatedly append the longest literal or
pattern suffix that follows, then resume scanning after the consumed span.
Matching is purely token based, so line breaks inside a name do not matter.
An entry is matched by looking its token slice up among the entries its first
token starts, only at their lengths (longest first, those that fit in the
tokens left); those entries are parsed from the dictionary's sorted lines when
a document first holds the token, so extraction parses no other entry.
"""
from __future__ import annotations

import string
from bisect import bisect_left
from typing import Iterable, NamedTuple, Sequence

from .dict_gen import RootDictionary, SuffixDictionary, SuffixPattern, first_token_entries
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


class _Entries:
    """One dictionary's entries, parsed from its sorted canonical lines per
    first token on the token's first lookup. ``lengths`` maps a token to a bit
    mask of the token lengths of the entries it starts (bit ``n`` for ``n``
    tokens); ``skip`` holds the tokens that start none."""

    def __init__(self, lines: Sequence[str]) -> None:
        self.lines, self.lengths, self.entries, self.skip = lines, {}, set(), set()

    def longest_match(self, texts: TokenSeq, start: int) -> int:
        """Token length of the longest entry matching at ``start``; 0 if none.
        Only the lengths of the entries ``texts[start]`` starts are tried, and
        only those that fit in the tokens left: a cut-off slice could equal a
        shorter entry."""
        lengths = self.lengths.get(texts[start])
        if lengths is None:
            entries = first_token_entries(self.lines, texts[start])
            self.entries.update(entries)
            lengths = self.lengths[texts[start]] = sum({1 << len(entry) for entry in entries})  # one bit per length
            if not lengths:
                self.skip.add(texts[start])
        left = len(texts) - start
        if lengths >> left > 1:
            lengths &= (2 << left) - 1
        while lengths:
            length = lengths.bit_length() - 1
            if texts[start : start + length] in self.entries:
                return length
            lengths ^= 1 << length
        return 0


class Extractor:
    """Reusable matcher over the dictionaries' entries.

    A match whose whole token sequence, or whose root alone, is in
    ``invalid`` yields no mention; scanning still resumes after it.
    """

    def __init__(
        self,
        roots: RootDictionary,
        suffixes: SuffixDictionary,
        invalid: frozenset[TokenSeq] = frozenset(),
    ) -> None:
        self._roots = _Entries(roots.lines)
        self._suffixes = _Entries(suffixes.literals.lines)
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
            length = self._suffixes.longest_match(texts, pos)
            for pattern in self._patterns_at.get(texts[pos], self._patterns_anywhere):
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
        roots, skip = self._roots, self._roots.skip
        mentions: list[Mention] = []
        pos = 0
        # A token not looked up yet is a candidate: the lookup learns whether it starts a root.
        for start in [i for i, tok in enumerate(texts) if tok not in skip]:
            if start < pos or texts[start] in skip:
                continue
            root_end = start + roots.longest_match(texts, start)
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
    """The uppercased keywords and the window of the role filter; None means
    ``DEFAULT_ROLE_KEYWORDS`` and ``DEFAULT_ROLE_WINDOW``. An empty keyword
    set or a negative window raises ValueError."""
    wanted = frozenset(k.upper() for k in (keywords if keywords is not None else DEFAULT_ROLE_KEYWORDS))
    if not wanted:
        raise ValueError("role keyword set is empty")
    if window is None:
        return wanted, DEFAULT_ROLE_WINDOW
    if window < 0:
        raise ValueError(f"role window must be >= 0, got {window}")
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
