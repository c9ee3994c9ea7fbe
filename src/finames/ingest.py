"""Loading and normalization of name lists and raw documents."""
from __future__ import annotations

import os
import re
from functools import cached_property, lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .textutil import TOKEN, TokenSeq, entry_lines, join_tokens, name_tokens, read_utf8

HEADER = "HEADER"
SUMMARY = "SUMMARY"
BODY = "BODY"

# Names shorter than this after normalization carry no signal and are dropped.
MIN_NAME_LENGTH = 5

# Delimiters that introduce trailing junk in noisy name lists ("... /BD").
GARBAGE_DELIMITERS = ("\\", "/", "#")
_GARBAGE_MAX_CHARS = 4

DEFAULT_HEADER_MARKERS = ("SUMMARY", "PROSPECTUS SUPPLEMENT")
DEFAULT_SUMMARY_END_MARKERS = ("TABLE OF CONTENTS",)


class NormalizedName(NamedTuple):
    """Canonical uppercase form of an entity name plus its token sequence.

    Joining ``tokens`` with single spaces and re-attaching commas reproduces
    ``text`` exactly, and ``name_tokens(text)`` gives ``tokens`` back; so
    equality and order, which compare both fields, follow ``text``.
    """

    text: str
    tokens: TokenSeq


def normalize_name(raw: str) -> NormalizedName:
    tokens = name_tokens(raw)
    return NormalizedName(join_tokens(tokens), tokens)


class NameList:
    """Deduplicated, sorted set of normalized names from one source."""

    __slots__ = ("source_id", "names", "dropped_short", "dropped_duplicates")

    def __init__(
        self, source_id: str, names: tuple[NormalizedName, ...], dropped_short: int = 0, dropped_duplicates: int = 0
    ) -> None:
        self.source_id, self.names = source_id, names
        self.dropped_short, self.dropped_duplicates = dropped_short, dropped_duplicates

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[NormalizedName]:
        return iter(self.names)


def name_list_from_strings(raw_names: Iterable[str], source_id: str) -> NameList:
    """Normalize, drop short names, deduplicate and sort."""
    seen: dict[str, NormalizedName] = {}
    dropped_short = 0
    dropped_duplicates = 0
    for raw in raw_names:
        name = normalize_name(raw)
        if len(name.text) < MIN_NAME_LENGTH:
            dropped_short += 1
            continue
        if name.text in seen:
            dropped_duplicates += 1
            continue
        seen[name.text] = name
    names = tuple(seen[text] for text in sorted(seen))
    return NameList(source_id, names, dropped_short, dropped_duplicates)


def load_name_list(path: str | Path, source_id: str) -> NameList:
    """Load a one-name-per-line UTF-8 file, skipping blank and comment lines."""
    return name_list_from_strings([line for _, line in entry_lines(path)], source_id)


def strip_trailing_garbage(name: str) -> str:
    """Drop short trailing fragments introduced by '\\\\', '/' or '#'.

    A trailing fragment is junk when it has no ``TOKEN`` or one of up to four
    characters; the rule is applied to a fixpoint so the result is stable
    under re-application.
    """
    if "\\" not in name and "/" not in name and "#" not in name:  # none of GARBAGE_DELIMITERS
        return name
    current = name
    while True:
        cut = max(current.rfind(d) for d in GARBAGE_DELIMITERS)
        if cut < 0:
            return current
        tail = TOKEN.findall(current, cut + 1)
        if tail and (len(tail) > 1 or len(tail[0]) > _GARBAGE_MAX_CHARS):
            return current
        current = current[:cut].rstrip()


class Section(NamedTuple):
    label: str
    start: int
    end: int


class _DocumentFields(NamedTuple):
    doc_id: str
    raw_text: str
    sections: tuple[Section, ...]


class Document(_DocumentFields):
    @cached_property
    def _cut(self) -> tuple[TokenSeq, tuple[int, ...]]:
        # Separator runs and tokens alternate in ``parts``, starting and ending
        # with a (possibly empty) run, so the running lengths are the offsets.
        # Uppercasing ASCII text keeps every length, so it is done once.
        text = self.raw_text
        if text.isascii():
            parts = TOKEN.split(text.upper())
            tokens = tuple(parts[1::2])
        else:
            parts = TOKEN.split(text)
            tokens = tuple(map(str.upper, parts[1::2]))
        return tokens, tuple(accumulate(map(len, parts)))

    @property
    def tokens(self) -> TokenSeq:
        """Uppercased ``TOKEN`` matches of ``raw_text``, cut on first use and kept
        (not a field: equality and hashing ignore it). Each token of non-ASCII
        text is uppercased on its own, so a character such as "ß" that
        uppercases to two moves no offset in ``token_bounds``."""
        return self._cut[0]

    @property
    def token_bounds(self) -> tuple[int, ...]:
        """Boundary table ``b``: token ``k`` spans ``raw_text[b[2k]:b[2k + 1]]``,
        and the last entry is ``len(raw_text)``."""
        return self._cut[1]

    def section_at(self, offset: int) -> str:
        for section in self.sections:
            if section.start <= offset < section.end:
                return section.label
        return BODY


class SectionConfig(NamedTuple):
    """Marker strings that delimit the header, summary and body of a filing."""

    header_markers: tuple[str, ...] = DEFAULT_HEADER_MARKERS
    summary_end_markers: tuple[str, ...] = DEFAULT_SUMMARY_END_MARKERS


@lru_cache(maxsize=None)
def _marker_search(markers: tuple[str, ...]) -> Callable[..., re.Match[str] | None]:
    """``search(text, start=0)`` for the earliest of ``markers``, ignoring
    case; with no markers it never matches. Compiled once per marker tuple."""
    return re.compile("|".join(map(re.escape, markers)) if markers else "(?!)", re.IGNORECASE).search


def segment_text(text: str, config: SectionConfig | None = None) -> tuple[Section, ...]:
    """Split ``text`` into header/summary/body sections by marker occurrence.

    The first header marker starts the summary; the first end marker after it
    starts the body. Without any marker the whole text is body; empty text has
    no sections.
    """
    if not text:
        return ()
    config = config or SectionConfig()
    header = _marker_search(tuple(config.header_markers))(text)
    if header is None:
        return (Section(BODY, 0, len(text)),)
    split = header.start()
    sections: list[Section] = []
    if split > 0:
        sections.append(Section(HEADER, 0, split))
    end = _marker_search(tuple(config.summary_end_markers))(text, split + 1)
    if end is None:
        sections.append(Section(SUMMARY, split, len(text)))
    else:
        sections.append(Section(SUMMARY, split, end.start()))
        sections.append(Section(BODY, end.start(), len(text)))
    return tuple(sections)


def document_from_text(doc_id: str, text: str, config: SectionConfig | None = None) -> Document:
    return Document(doc_id, text, segment_text(text, config))


def load_document(path: str | Path, section_config: SectionConfig | None = None) -> Document:
    """Document read with ``read_utf8``: a leading byte-order mark is dropped,
    and undecodable bytes raise a ValueError naming the file."""
    return document_from_text(os.path.basename(path), read_utf8(path), section_config)
