"""Root and suffix dictionary generation from curated name lists.

Institution names split into a distinguishing leading fragment (the root,
e.g. "WELLS FARGO") and a short trailing type fragment shared across many
institutions (the suffix, e.g. "BANK", ", N.A.", "TRUST 2006-A1"). This
module mines both kinds of entry from name lists with a handful of
splitting heuristics, applies token filters, and produces deterministic,
serializable dictionaries for the matcher.

Suffixes with embedded numbering ("TRUST 2006-1", "SERIES 2005-HE3") are
covered by pattern entries instead of literals. Pattern syntax is a minimal
token-level class: literal tokens, ``\\d{n}`` for a run of exactly n digits,
``[A-Z0-9]+`` for an alphanumeric run, and a literal ``-``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .ingest import MIN_NAME_LENGTH, NameList, NormalizedName, normalize_name, strip_trailing_garbage
from .textutil import COMMA, TokenSeq, entry_lines, join_tokens, name_tokens

DEFAULT_STOP_TOKENS = frozenset({"THE", "OF", "AND", "A", "AN"})

DEFAULT_SPECIAL_TOKENS = frozenset({"BANK", "FUND", "TRUST", "CORP", "GROUP"})

DEFAULT_ADDRESS_TERMS = frozenset(
    {
        "STREET", "AVENUE", "ROAD", "BOULEVARD", "CENTER", "CENTRE", "PLAZA",
        "SQUARE", "SUITE", "FLOOR", "BUILDING", "TOWER", "DRIVE", "LANE",
        "PLACE", "PARKWAY", "HIGHWAY",
    }
)

DEFAULT_LOCATION_TERMS = frozenset(
    {
        "ALABAMA", "ALASKA", "ARIZONA", "ARKANSAS", "CALIFORNIA", "COLORADO",
        "CONNECTICUT", "DELAWARE", "FLORIDA", "GEORGIA", "HAWAII", "IDAHO",
        "ILLINOIS", "INDIANA", "IOWA", "KANSAS", "KENTUCKY", "LOUISIANA",
        "MAINE", "MARYLAND", "MASSACHUSETTS", "MICHIGAN", "MINNESOTA",
        "MISSISSIPPI", "MISSOURI", "MONTANA", "NEBRASKA", "NEVADA", "OHIO",
        "OKLAHOMA", "OREGON", "PENNSYLVANIA", "TENNESSEE", "TEXAS", "UTAH",
        "VERMONT", "VIRGINIA", "WASHINGTON", "WISCONSIN", "WYOMING",
        "ATLANTA", "BALTIMORE", "BOSTON", "BROOKLYN", "CHARLOTTE", "CHICAGO",
        "CINCINNATI", "CLEVELAND", "DALLAS", "DENVER", "DETROIT", "HOUSTON",
        "MANHATTAN", "MEMPHIS", "MIAMI", "MILWAUKEE", "MINNEAPOLIS",
        "PHILADELPHIA", "PHOENIX", "PITTSBURGH", "SEATTLE",
    }
)

# A comma-separated middle fragment is worth keeping as a root on its own
# only when it is long; short fragments are state abbreviations and the like.
_LONG_SEGMENT_TOKENS = 2
_LONG_SEGMENT_CHARS = 8

# Last-token thresholds that trigger the two-token suffix form.
_SHORT_SUFFIX_CHARS = 3

# Tri-grams are only mined from names long enough that the whole-name
# variants do not already cover the windows.
_TRIGRAM_MIN_TOKENS = 5

PATTERN_PREFIX = "re:"

_DIGIT_RUN = re.compile(r"\\d\{(\d+)\}")
_ALNUM_RUN = "[A-Z0-9]+"


def _translate_pattern_token(token: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(token):
        if token.startswith(_ALNUM_RUN, i):
            out.append(_ALNUM_RUN)
            i += len(_ALNUM_RUN)
            continue
        run = _DIGIT_RUN.match(token, i)
        if run:
            out.append(r"\d{%s}" % run.group(1))
            i = run.end()
            continue
        out.append(re.escape(token[i]))
        i += 1
    return "".join(out)


@lru_cache(maxsize=None)
def _compile_pattern(pattern_text: str) -> tuple[re.Pattern[str], ...]:
    tokens = pattern_text.split()
    if not tokens:
        raise ValueError("empty suffix pattern")
    return tuple(re.compile(_translate_pattern_token(tok)) for tok in tokens)


@dataclass(frozen=True)
class SuffixPattern:
    """Token-sequence pattern for suffixes that mix keywords and numbering."""

    pattern_text: str
    positive_examples: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _compile_pattern(self.pattern_text)
        for example in self.positive_examples:
            if not self.matches(name_tokens(example)):
                raise ValueError(f"pattern {self.pattern_text!r} does not match its example {example!r}")

    @property
    def token_count(self) -> int:
        return len(_compile_pattern(self.pattern_text))

    def matches(self, tokens: Sequence[str]) -> bool:
        matchers = _compile_pattern(self.pattern_text)
        if len(tokens) != len(matchers):
            return False
        return all(m.fullmatch(t) for m, t in zip(matchers, tokens))


BUILTIN_SUFFIX_PATTERNS = (
    SuffixPattern(r"SERIES \d{4}-[A-Z0-9]+", ("SERIES 2005-HE3",)),
    SuffixPattern(r"TRUST \d{4}-[A-Z0-9]+", ("TRUST 2006-1", "TRUST 2006-A1")),
)


@dataclass(frozen=True)
class FilterSet:
    """Token sets used to weed address terms, place names and stop-only entries."""

    address_terms: frozenset[str] = DEFAULT_ADDRESS_TERMS
    location_terms: frozenset[str] = DEFAULT_LOCATION_TERMS
    stop_tokens: frozenset[str] = DEFAULT_STOP_TOKENS


@dataclass(frozen=True)
class RootDictionary:
    entries: frozenset[TokenSeq]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, tokens: object) -> bool:
        return tokens in self.entries


@dataclass(frozen=True)
class SuffixDictionary:
    literal_entries: frozenset[TokenSeq]
    pattern_entries: tuple[SuffixPattern, ...] = ()

    def __len__(self) -> int:
        return len(self.literal_entries) + len(self.pattern_entries)

    def covers(self, tokens: TokenSeq) -> bool:
        """True when the suffix is stored literally or matched by a pattern."""
        if tokens in self.literal_entries:
            return True
        return any(p.matches(tokens) for p in self.pattern_entries)


def _strip_edge_commas(tokens: Sequence[str]) -> TokenSeq:
    seq = tuple(tokens)
    while seq and seq[0] == COMMA:
        seq = seq[1:]
    while seq and seq[-1] == COMMA:
        seq = seq[:-1]
    return seq


def _comma_segments(tokens: TokenSeq) -> list[TokenSeq]:
    segments: list[TokenSeq] = []
    current: list[str] = []
    for tok in tokens:
        if tok == COMMA:
            segments.append(tuple(current))
            current = []
        else:
            current.append(tok)
    segments.append(tuple(current))
    return segments


def split_on_commas(name: NormalizedName) -> tuple[list[TokenSeq], list[TokenSeq]]:
    """Mine roots and suffixes from a comma-structured name 'A, B, ..., E'.

    Roots are every proper comma-prefix plus any long middle segment;
    suffixes are each trailing segment with its leading comma.
    """
    tokens = name.tokens
    if COMMA not in tokens:
        raise ValueError(f"name has no comma: {name.text!r}")
    segments = _comma_segments(tokens)
    roots: list[TokenSeq] = []
    suffixes: list[TokenSeq] = []
    for k in range(1, len(segments)):
        prefix = tuple(chain.from_iterable((COMMA,) + seg if i else seg for i, seg in enumerate(segments[:k])))
        prefix = _strip_edge_commas(prefix)
        if prefix and prefix not in roots:
            roots.append(prefix)
    for segment in segments[1:-1]:
        if not segment:
            continue
        if len(segment) >= _LONG_SEGMENT_TOKENS or len(join_tokens(segment)) >= _LONG_SEGMENT_CHARS:
            if segment not in roots:
                roots.append(segment)
    for segment in segments[1:]:
        if segment:
            suffixes.append((COMMA,) + segment)
    return roots, suffixes


def extract_trailing_suffix(name: NormalizedName) -> TokenSeq | None:
    """Last token of a comma-free name; last two when the final token is short
    or digit-heavy; nothing when the name contains 'OF'."""
    tokens = name.tokens
    if COMMA in tokens:
        raise ValueError(f"name contains a comma: {name.text!r}")
    if not tokens or "OF" in tokens:
        return None
    last = tokens[-1]
    digits = sum(ch.isdigit() for ch in last)
    if len(tokens) >= 2 and (len(last) <= _SHORT_SUFFIX_CHARS or 2 * digits >= len(last)):
        return tokens[-2:]
    return (last,)


def root_variants(name: NormalizedName, suffix: TokenSeq | None = None) -> list[TokenSeq]:
    """Whole name, name without its suffix, and both again without the first token."""
    tokens = name.tokens
    variants: list[TokenSeq] = []

    def add(seq: Sequence[str]) -> None:
        trimmed = _strip_edge_commas(seq)
        if trimmed and trimmed not in variants:
            variants.append(trimmed)

    add(tokens)
    strip_suffix = suffix is not None and 0 < len(suffix) < len(tokens) and tokens[-len(suffix) :] == tuple(suffix)
    if strip_suffix:
        add(tokens[: -len(suffix)])
    if len(tokens) > 1:
        add(tokens[1:])
        if strip_suffix:
            add(tokens[1 : -len(suffix)])
    return variants


def split_on_special_token(
    name: NormalizedName, special_tokens: frozenset[str] = DEFAULT_SPECIAL_TOKENS
) -> tuple[TokenSeq | None, TokenSeq | None] | None:
    """Split at the first type keyword (BANK, FUND, ...) into root and suffix.

    Normally the part before the keyword is the root and the keyword plus the
    rest is the suffix. When either side contains 'OF' the 'OF' part belongs
    to the root instead and no suffix is produced.
    """
    tokens = name.tokens
    idx = next((i for i, tok in enumerate(tokens) if tok in special_tokens), None)
    if idx is None:
        return None
    before = _strip_edge_commas(tokens[:idx])
    after = _strip_edge_commas(tokens[idx + 1 :])
    if "OF" in after:
        return (after, None)
    if "OF" in before:
        return (before, None)
    return (before or None, tokens[idx:])


def trigram_roots(name: NormalizedName, stop_tokens: frozenset[str] = DEFAULT_STOP_TOKENS) -> set[TokenSeq]:
    """All 3-token windows of a long name that contain no stop token or comma."""
    tokens = name.tokens
    if len(tokens) < _TRIGRAM_MIN_TOKENS:
        return set()
    windows: set[TokenSeq] = set()
    for i in range(len(tokens) - 2):
        window = tokens[i : i + 3]
        if any(tok in stop_tokens or tok == COMMA for tok in window):
            continue
        windows.add(window)
    return windows


def apply_filters(entries: Iterable[TokenSeq], filters: FilterSet) -> set[TokenSeq]:
    """Drop single-token address/location entries, stop-token-only entries and
    entries whose first token starts with ``#``.

    A saved entry starting with ``#`` would read back as a comment line, so
    such entries are never stored. Never edits inside multi-token entries;
    the result is always a subset of the input.
    """
    single_bad = filters.address_terms | filters.location_terms
    kept: set[TokenSeq] = set()
    for entry in entries:
        entry = tuple(entry)
        if not entry or entry[0].startswith("#"):
            continue
        if len(entry) == 1 and entry[0] in single_bad:
            continue
        if all(tok in filters.stop_tokens or tok == COMMA for tok in entry):
            continue
        kept.add(entry)
    return kept


def generate_dictionaries(
    lists: Sequence[NameList],
    filters: FilterSet | None = None,
    special_tokens: frozenset[str] = DEFAULT_SPECIAL_TOKENS,
    patterns: Sequence[SuffixPattern] = BUILTIN_SUFFIX_PATTERNS,
) -> tuple[RootDictionary, SuffixDictionary]:
    """Run every applicable heuristic over each name and union the results.

    Trailing junk is stripped first; literal suffixes already covered by a
    pattern entry are not stored twice. Output is deterministic for a fixed
    input set.
    """
    filters = filters or FilterSet()
    roots: set[TokenSeq] = set()
    suffixes: set[TokenSeq] = set()
    unique_names = sorted({name for lst in lists for name in lst.names})
    for name in unique_names:
        stripped = strip_trailing_garbage(name.text)
        if len(stripped) < MIN_NAME_LENGTH:
            continue
        if stripped != name.text:
            name = normalize_name(stripped)
        suffix_hint: TokenSeq | None = None
        if COMMA in name.tokens:
            comma_roots, comma_suffixes = split_on_commas(name)
            roots.update(comma_roots)
            suffixes.update(comma_suffixes)
        else:
            trailing = extract_trailing_suffix(name)
            if trailing:
                suffixes.add(trailing)
                suffix_hint = trailing
        roots.update(root_variants(name, suffix_hint))
        split = split_on_special_token(name, special_tokens)
        if split:
            root_part, suffix_part = split
            if root_part:
                roots.add(root_part)
            if suffix_part:
                suffixes.add(suffix_part)
        roots.update(trigram_roots(name, filters.stop_tokens))
    pattern_entries = tuple(sorted(set(patterns), key=lambda p: p.pattern_text))
    literal = apply_filters(suffixes, filters)
    literal = {entry for entry in literal if not any(p.matches(entry) for p in pattern_entries)}
    return (
        RootDictionary(frozenset(apply_filters(roots, filters))),
        SuffixDictionary(frozenset(literal), pattern_entries),
    )


def save_root_dictionary(dictionary: RootDictionary, path: str | Path) -> None:
    lines = sorted(join_tokens(entry) for entry in dictionary.entries)
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def save_suffix_dictionary(dictionary: SuffixDictionary, path: str | Path) -> None:
    lines = sorted(join_tokens(entry) for entry in dictionary.literal_entries)
    lines += [PATTERN_PREFIX + p.pattern_text for p in sorted(dictionary.pattern_entries, key=lambda p: p.pattern_text)]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_token_entries(path: str | Path) -> frozenset[TokenSeq]:
    """Literal entries from a one-entry-per-line file, normalized to tokens."""
    entries = set()
    for _, line in entry_lines(path):
        if line.startswith(PATTERN_PREFIX):
            raise ValueError(f"{path}: pattern entry not allowed here: {line!r}")
        tokens = name_tokens(line)
        if tokens:
            entries.add(tokens)
    return frozenset(entries)


def load_root_dictionary(path: str | Path) -> RootDictionary:
    return RootDictionary(load_token_entries(path))


def load_suffix_dictionary(path: str | Path) -> SuffixDictionary:
    literal: set[TokenSeq] = set()
    patterns: list[SuffixPattern] = []
    for _, line in entry_lines(path):
        if line.startswith(PATTERN_PREFIX):
            patterns.append(SuffixPattern(line[len(PATTERN_PREFIX) :].strip()))
        else:
            tokens = name_tokens(line)
            if tokens:
                literal.add(tokens)
    return SuffixDictionary(frozenset(literal), tuple(sorted(set(patterns), key=lambda p: p.pattern_text)))


def load_suffix_patterns(path: str | Path) -> tuple[SuffixPattern, ...]:
    """Pattern file: one pattern per line, optional tab-separated examples."""
    patterns = []
    for _, line in entry_lines(path):
        if line.startswith(PATTERN_PREFIX):
            line = line[len(PATTERN_PREFIX) :].strip()
        text, _, examples = line.partition("\t")
        positive = tuple(e.strip() for e in examples.split("|") if e.strip()) if examples else ()
        patterns.append(SuffixPattern(text.strip(), positive))
    return tuple(patterns)
