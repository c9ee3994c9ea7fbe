"""Loading and normalization of name lists and raw documents."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .textutil import TokenSeq, entry_lines, join_tokens, name_tokens

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


@dataclass(frozen=True, order=True)
class NormalizedName:
    """Canonical uppercase form of an entity name plus its token sequence.

    Joining ``tokens`` with single spaces and re-attaching commas reproduces
    ``text`` exactly.
    """

    text: str
    tokens: TokenSeq = field(compare=False)


def normalize_name(raw: str) -> NormalizedName:
    tokens = name_tokens(raw)
    return NormalizedName(join_tokens(tokens), tokens)


@dataclass(frozen=True)
class NameList:
    """Deduplicated, sorted set of normalized names from one source."""

    source_id: str
    names: tuple[NormalizedName, ...]
    dropped_short: int = 0
    dropped_duplicates: int = 0

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
    names = tuple(sorted(seen.values()))
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
    current = name
    while True:
        cut = max(current.rfind(d) for d in GARBAGE_DELIMITERS)
        if cut < 0:
            return current
        tail = current[cut + 1 :].strip()
        if tail and (len(tail) > _GARBAGE_MAX_CHARS or len(tail.split()) != 1):
            return current
        current = current[:cut].rstrip()


@dataclass(frozen=True)
class Section:
    label: str
    start: int
    end: int


@dataclass(frozen=True)
class Document:
    doc_id: str
    raw_text: str
    sections: tuple[Section, ...]

    def section_at(self, offset: int) -> str:
        for section in self.sections:
            if section.start <= offset < section.end:
                return section.label
        return BODY


@dataclass(frozen=True)
class SectionConfig:
    """Marker strings that delimit the header, summary and body of a filing."""

    header_markers: tuple[str, ...] = DEFAULT_HEADER_MARKERS
    summary_end_markers: tuple[str, ...] = DEFAULT_SUMMARY_END_MARKERS


def _first_marker(text_upper: str, markers: Iterable[str], start: int = 0) -> int:
    hits = [text_upper.find(m.upper(), start) for m in markers]
    hits = [h for h in hits if h >= 0]
    return min(hits) if hits else -1


def segment_text(text: str, config: SectionConfig | None = None) -> tuple[Section, ...]:
    """Split ``text`` into header/summary/body sections by marker occurrence.

    The first header marker starts the summary; the first end marker after it
    starts the body. Without any marker the whole text is body; empty text has
    no sections.
    """
    if not text:
        return ()
    config = config or SectionConfig()
    upper = text.upper()
    split = _first_marker(upper, config.header_markers)
    if split < 0:
        return (Section(BODY, 0, len(text)),)
    sections: list[Section] = []
    if split > 0:
        sections.append(Section(HEADER, 0, split))
    end = _first_marker(upper, config.summary_end_markers, split + 1)
    if end < 0:
        sections.append(Section(SUMMARY, split, len(text)))
    else:
        sections.append(Section(SUMMARY, split, end))
        sections.append(Section(BODY, end, len(text)))
    return tuple(sections)


def document_from_text(doc_id: str, text: str, config: SectionConfig | None = None) -> Document:
    return Document(doc_id, text, segment_text(text, config))


def load_document(path: str | Path, section_config: SectionConfig | None = None) -> Document:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    return document_from_text(path.name, text, section_config)
