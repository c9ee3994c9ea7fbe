"""Dictionary-driven mention extraction.

Extraction is a single left-to-right pass over the token stream: find the
leftmost-longest root entry, then repeatedly append the longest literal or
pattern suffix that follows, then resume scanning after the consumed span.
Matching is purely token based, so line breaks inside a name do not matter.
"""
from __future__ import annotations

import string
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .dict_gen import RootDictionary, SuffixDictionary, SuffixPattern, load_suffix_dictionary, load_token_entries
from .ingest import Document
from .textutil import RawToken, TokenSeq, collapse_whitespace, iter_raw_tokens, name_tokens

DEFAULT_ROLE_KEYWORDS = frozenset(
    {"SERVICER", "SERVICERS", "ISSUER", "SPONSOR", "DEPOSITOR", "TRUSTEE", "UNDERWRITER", "ORIGINATOR"}
)
DEFAULT_ROLE_WINDOW = 10

_PUNCT = string.punctuation


def tokenize(doc: Document) -> tuple[RawToken, ...]:
    """Uppercased whitespace tokens with offsets; commas become own tokens."""
    return tuple(iter_raw_tokens(doc.raw_text))


@dataclass(frozen=True)
class Mention:
    """An extracted name occurrence with its root/suffix decomposition."""

    doc_id: str
    start: int
    end: int
    surface: str
    root_start: int
    root_end: int
    root_surface: str
    suffix_spans: tuple[tuple[int, int], ...]
    section: str


@dataclass(frozen=True)
class CustomizationDictionaries:
    """User-supplied roots, suffixes and invalid elements layered onto the
    generated dictionaries."""

    custom_roots: frozenset[TokenSeq] = frozenset()
    custom_suffixes: frozenset[TokenSeq] = frozenset()
    invalid_elements: frozenset[TokenSeq] = frozenset()
    custom_suffix_patterns: tuple[SuffixPattern, ...] = ()

    def __post_init__(self) -> None:
        overlap = self.invalid_elements & (self.custom_roots | self.custom_suffixes)
        if overlap:
            raise ValueError(f"invalid elements overlap custom dictionaries: {sorted(overlap)}")

    @classmethod
    def from_files(
        cls,
        custom_roots: str | Path | None = None,
        custom_suffixes: str | Path | None = None,
        invalid_elements: str | Path | None = None,
    ) -> "CustomizationDictionaries":
        roots: frozenset[TokenSeq] = frozenset()
        suffixes = SuffixDictionary(frozenset())
        invalid: frozenset[TokenSeq] = frozenset()
        if custom_roots:
            roots = load_token_entries(custom_roots)
        if custom_suffixes:
            suffixes = load_suffix_dictionary(custom_suffixes)
        if invalid_elements:
            invalid = load_token_entries(invalid_elements)
        return cls(roots, suffixes.literal_entries, invalid, suffixes.pattern_entries)


class _TokenTrie:
    __slots__ = ("children", "terminal")

    def __init__(self) -> None:
        self.children: dict[str, _TokenTrie] = {}
        self.terminal = False

    @classmethod
    def build(cls, entries: Iterable[TokenSeq]) -> "_TokenTrie":
        root = cls()
        for entry in entries:
            node = root
            for tok in entry:
                node = node.children.setdefault(tok, cls())
            node.terminal = True
        return root

    def longest_match(self, texts: Sequence[str], start: int) -> int:
        """Token length of the longest entry matching at ``start``; 0 if none."""
        node = self
        best = 0
        i = start
        while i < len(texts):
            node = node.children.get(texts[i])
            if node is None:
                break
            i += 1
            if node.terminal:
                best = i - start
        return best


class Extractor:
    """Reusable matcher holding the prebuilt root and suffix tries."""

    def __init__(
        self,
        roots: RootDictionary,
        suffixes: SuffixDictionary,
        customizations: CustomizationDictionaries | None = None,
    ) -> None:
        custom = customizations or CustomizationDictionaries()
        self._root_trie = _TokenTrie.build(roots.entries | custom.custom_roots)
        self._suffix_trie = _TokenTrie.build(suffixes.literal_entries | custom.custom_suffixes)
        self._patterns = tuple(suffixes.pattern_entries) + tuple(custom.custom_suffix_patterns)
        self._invalid = custom.invalid_elements

    def _next_root(self, texts: Sequence[str], pos: int) -> tuple[int, int] | None:
        for i in range(pos, len(texts)):
            length = self._root_trie.longest_match(texts, i)
            if length:
                return i, i + length
        return None

    def _extend(self, texts: Sequence[str], pos: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        ranges: list[tuple[int, int]] = []
        while pos < len(texts):
            length = self._suffix_trie.longest_match(texts, pos)
            for pattern in self._patterns:
                count = pattern.token_count
                if count > length and pos + count <= len(texts) and pattern.matches(texts[pos : pos + count]):
                    length = count
            if not length:
                break
            ranges.append((pos, pos + length))
            pos += length
        return pos, tuple(ranges)

    def extract(self, doc: Document) -> list[Mention]:
        tokens = tokenize(doc)
        texts = [tok.text for tok in tokens]
        mentions: list[Mention] = []
        pos = 0
        while pos < len(texts):
            hit = self._next_root(texts, pos)
            if hit is None:
                break
            root_start, root_end = hit
            end, suffix_ranges = self._extend(texts, root_end)
            mentions.append(_build_mention(doc, tokens, root_start, root_end, end, suffix_ranges))
            pos = end
        return filter_invalid(mentions, self._invalid)


def _build_mention(
    doc: Document,
    tokens: Sequence[RawToken],
    root_start: int,
    root_end: int,
    end: int,
    suffix_ranges: tuple[tuple[int, int], ...],
) -> Mention:
    start_char = tokens[root_start].start
    end_char = tokens[end - 1].end
    root_end_char = tokens[root_end - 1].end
    return Mention(
        doc_id=doc.doc_id,
        start=start_char,
        end=end_char,
        surface=collapse_whitespace(doc.raw_text[start_char:end_char]),
        root_start=start_char,
        root_end=root_end_char,
        root_surface=collapse_whitespace(doc.raw_text[start_char:root_end_char]),
        suffix_spans=tuple((tokens[i].start, tokens[j - 1].end) for i, j in suffix_ranges),
        section=doc.section_at(start_char),
    )


def filter_invalid(mentions: Sequence[Mention], invalid: frozenset[TokenSeq]) -> list[Mention]:
    """Drop mentions whose full surface or root equals an invalid entry."""
    if not invalid:
        return list(mentions)
    kept = []
    for mention in mentions:
        if name_tokens(mention.surface) in invalid or name_tokens(mention.root_surface) in invalid:
            continue
        kept.append(mention)
    return kept


def extract(
    doc: Document,
    roots: RootDictionary,
    suffixes: SuffixDictionary,
    customizations: CustomizationDictionaries | None = None,
) -> list[Mention]:
    """Tokenize, match roots, extend suffixes and drop invalid mentions."""
    return Extractor(roots, suffixes, customizations).extract(doc)


def _bare(token_text: str) -> str:
    return token_text.strip(_PUNCT)


def filter_by_role_keyword(
    mentions: Sequence[Mention],
    doc: Document,
    keywords: frozenset[str] | None = None,
    window: int = DEFAULT_ROLE_WINDOW,
) -> list[Mention]:
    """Keep mentions with a role keyword within ``window`` tokens before them.

    Distance 0 is the token immediately preceding the mention; punctuation
    stuck to the keyword ("Servicers:") is ignored for the comparison.
    """
    wanted = {k.upper() for k in (keywords if keywords is not None else DEFAULT_ROLE_KEYWORDS)}
    if not wanted:
        raise ValueError("role keyword set is empty")
    tokens = tokenize(doc)
    starts = [tok.start for tok in tokens]
    kept = []
    for mention in mentions:
        idx = bisect_left(starts, mention.start)
        for distance in range(window + 1):
            k = idx - 1 - distance
            if k < 0:
                break
            if _bare(tokens[k].text) in wanted:
                kept.append(mention)
                break
    return kept
