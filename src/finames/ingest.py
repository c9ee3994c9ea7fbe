"""Loading and normalization of name lists and raw documents."""
from __future__ import annotations

import logging
import re
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .textutil import TOKEN, TokenSeq, entry_lines, join_tokens, name_tokens, read_utf8

logger = logging.getLogger(__name__)

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
    raw = [line for _, line in entry_lines(path)]
    result = name_list_from_strings(raw, source_id)
    if result.dropped_short or result.dropped_duplicates:
        logger.info(
            "%s: dropped %d short and %d duplicate names",
            source_id,
            result.dropped_short,
            result.dropped_duplicates,
        )
    return result


def strip_trailing_garbage(name: str) -> str:
    """Drop short trailing fragments introduced by '\\\\', '/' or '#'.

    A trailing fragment is junk when it is at most one token of up to four
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
        tail = current[cut + 1 :].strip()
        if tail and (len(tail) > _GARBAGE_MAX_CHARS or len(tail.split()) != 1):
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
        parts = TOKEN.split(self.raw_text)
        return tuple(map(str.upper, parts[1::2])), tuple(accumulate(map(len, parts)))

    @property
    def tokens(self) -> TokenSeq:
        """Uppercased ``TOKEN`` matches of ``raw_text``, cut on first use and kept
        (not a field: equality and hashing ignore it). Each token is uppercased
        on its own, so a character such as "ß" that uppercases to two moves no
        offset in ``token_bounds``."""
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


class _Markers:
    """Search for the earliest of some marker strings, ignoring case."""

    def __init__(self, markers: tuple[str, ...]) -> None:
        self._pattern = re.compile("|".join(map(re.escape, markers)), re.IGNORECASE) if markers else None
        self._ascii_upper = tuple(m.upper() for m in markers) if all(map(str.isascii, markers)) else None

    def first(self, text: str, upper: str | None, start: int = 0) -> int:
        """Offset in ``text`` of the earliest marker at or after ``start``; -1
        if none. ``upper`` is ``text.upper()`` when ``text`` is ASCII, else None.
        Searching an uppercased copy of other text would shift every offset
        after a character such as "ß" that uppercases to two."""
        if self._pattern is None:
            return -1
        if upper is not None and self._ascii_upper is not None:
            return min((i for i in (upper.find(m, start) for m in self._ascii_upper) if i >= 0), default=-1)
        hit = self._pattern.search(text, start)
        return hit.start() if hit else -1


class _SectionConfigFields(NamedTuple):
    header_markers: tuple[str, ...] = DEFAULT_HEADER_MARKERS
    summary_end_markers: tuple[str, ...] = DEFAULT_SUMMARY_END_MARKERS


class SectionConfig(_SectionConfigFields):
    """Marker strings that delimit the header, summary and body of a filing."""

    @cached_property
    def _header(self) -> _Markers:
        return _Markers(tuple(self.header_markers))

    @cached_property
    def _summary_end(self) -> _Markers:
        return _Markers(tuple(self.summary_end_markers))


_DEFAULT_SECTION_CONFIG = SectionConfig()


def segment_text(text: str, config: SectionConfig | None = None) -> tuple[Section, ...]:
    """Split ``text`` into header/summary/body sections by marker occurrence.

    The first header marker starts the summary; the first end marker after it
    starts the body. Without any marker the whole text is body; empty text has
    no sections.
    """
    if not text:
        return ()
    config = config or _DEFAULT_SECTION_CONFIG
    upper = text.upper() if text.isascii() else None
    split = config._header.first(text, upper)
    if split < 0:
        return (Section(BODY, 0, len(text)),)
    sections: list[Section] = []
    if split > 0:
        sections.append(Section(HEADER, 0, split))
    end = config._summary_end.first(text, upper, split + 1)
    if end < 0:
        sections.append(Section(SUMMARY, split, len(text)))
    else:
        sections.append(Section(SUMMARY, split, end))
        sections.append(Section(BODY, end, len(text)))
    return tuple(sections)


def document_from_text(doc_id: str, text: str, config: SectionConfig | None = None) -> Document:
    return Document(doc_id, text, segment_text(text, config))


def load_document(path: str | Path, section_config: SectionConfig | None = None) -> Document:
    """Document read with ``read_utf8``: a leading byte-order mark is dropped,
    and undecodable bytes raise a ValueError naming the file."""
    return document_from_text(Path(path).name, read_utf8(path), section_config)
