"""Root and suffix dictionary generation from curated name lists.

Institution names split into a distinguishing leading fragment (the root,
e.g. "WELLS FARGO") and a short trailing type fragment shared across many
institutions (the suffix, e.g. "BANK", ", N.A.", "TRUST 2006-A1"). This
module mines both kinds of entry from name lists with a handful of
splitting heuristics, applies token filters, and produces deterministic,
serializable dictionaries for the matcher.

Suffixes with embedded numbering ("TRUST 2006-1", "SERIES 2005-HE3") are
covered by pattern entries instead of literals: token sequences in a small
syntax of their own (``_parse``), matched without backtracking.
"""
from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .ingest import MIN_NAME_LENGTH, NameList, NormalizedName, normalize_name, strip_trailing_garbage
from .textutil import (
    COMMA,
    NON_SPACE_CONTROL,
    TokenSeq,
    entry_lines,
    join_tokens,
    name_tokens,
    read_utf8,
    text_entry_lines,
)

STOP_TOKENS = frozenset({"THE", "OF", "AND", "A", "AN"})
# Tokens that carry no name of their own: a trigram holding one is not a
# root, and an entry made only of them is dropped.
_FILLER_TOKENS = STOP_TOKENS | {COMMA}

SPECIAL_TOKENS = frozenset({"BANK", "FUND", "TRUST", "CORP", "GROUP"})

ADDRESS_TERMS = frozenset(
    {
        "STREET", "AVENUE", "ROAD", "BOULEVARD", "CENTER", "CENTRE", "PLAZA",
        "SQUARE", "SUITE", "FLOOR", "BUILDING", "TOWER", "DRIVE", "LANE",
        "PLACE", "PARKWAY", "HIGHWAY",
    }
)

LOCATION_TERMS = frozenset(
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
_SINGLE_TOKEN_DROPS = ADDRESS_TERMS | LOCATION_TERMS

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

_ALNUM = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")
# One element of a pattern token, tried in this order at each offset.
_ELEMENT = re.compile(r"(\[A-Z0-9\]\+)|\\d\{([0-9]+)\}|(.)", re.DOTALL)
# Counts reach the largest that ``re`` accepts in ``\d{n}``.
_MAX_COUNT = 4_294_967_294

_Element = tuple[Callable[[str], bool], int, int]


def _parse(pattern_text: str) -> tuple[tuple[_Element, ...], ...]:
    """The elements of each whitespace-separated token, in order. An element
    is a character test and the fewest and most characters it takes:
    ``[A-Z0-9]+`` takes one or more of ``_ALNUM``, ``\\d{n}`` exactly n
    decimal characters, and any other character itself."""
    parsed = []
    for token in pattern_text.split():
        elements: list[_Element] = []
        for alnum, count, char in _ELEMENT.findall(token):
            if alnum:
                elements.append((_ALNUM.__contains__, 1, sys.maxsize))
            elif char:
                elements.append((char.__eq__, 1, 1))
            else:  # by value: int() refuses a string of more than 4300 digits
                digits = count.lstrip("0")
                if len(digits) > len(str(_MAX_COUNT)) or int(digits or 0) > _MAX_COUNT:
                    raise ValueError(f"{pattern_text!r}: count {count} in token {token!r} is above {_MAX_COUNT}")
                if digits:  # \d{0} matches only the empty string: no element
                    elements.append((str.isdecimal, int(digits), int(digits)))
        if not elements:
            raise ValueError(f"{pattern_text!r}: token {token!r} can match only an empty token")
        parsed.append(tuple(elements))
    if not parsed:
        raise ValueError("empty suffix pattern")
    return tuple(parsed)


def _token_matches(elements: tuple[_Element, ...], token: str) -> bool:
    """Whether the elements match all of ``token``. Every offset the elements
    so far can end at is carried in one set, so no choice is tried twice:
    each element is one pass over the token at most."""
    ends = {0}
    for accepts, fewest, most in elements:
        reached = set()
        run = 0  # accepted characters ending at q
        last = -1  # the largest end at most q + 1 - fewest
        for q in range(min(ends), min(len(token), max(ends) + most)):
            run = run + 1 if accepts(token[q]) else 0
            if q + 1 - fewest in ends:
                last = q + 1 - fewest
            if last >= q + 1 - min(run, most):
                reached.add(q + 1)
        if not reached:
            return False
        ends = reached
    return len(token) in ends


class _SuffixPatternFields(NamedTuple):
    pattern_text: str
    positive_examples: tuple[str, ...] = ()


class SuffixPattern(_SuffixPatternFields):
    """Token-sequence pattern for suffixes that mix keywords and numbering,
    parsed once; a bad pattern or a missed positive example raises ValueError.
    The parsed elements are not a field: equality and hashing ignore them."""

    def __new__(cls, *args: object, **kwargs: object) -> SuffixPattern:
        self = super().__new__(cls, *args, **kwargs)
        self._elements = _parse(self.pattern_text)
        for example in self.positive_examples:
            if not self.matches(name_tokens(example)):
                raise ValueError(f"pattern {self.pattern_text!r} does not match its example {example!r}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> SuffixPattern:
        """``_replace`` builds through here: the result is parsed and checked too."""
        return cls(*iterable)

    @property
    def token_count(self) -> int:
        return len(self._elements)

    @property
    def head(self) -> str | None:
        """The one token the first pattern token matches, when it is literal
        text (every element a single character of its own); else None."""
        chars = [getattr(accepts, "__self__", None) for accepts, _, _ in self._elements[0]]
        return "".join(chars) if all(isinstance(c, str) for c in chars) else None

    def matches(self, tokens: Sequence[str]) -> bool:
        return len(tokens) == len(self._elements) and all(map(_token_matches, self._elements, tokens))


def _by_pattern_text(patterns: Iterable[SuffixPattern]) -> tuple[SuffixPattern, ...]:
    """One pattern per pattern text (a later one replaces an earlier), in text order."""
    by_text = {p.pattern_text: p for p in patterns}
    return tuple(by_text[text] for text in sorted(by_text))


BUILTIN_SUFFIX_PATTERNS = (
    SuffixPattern(r"SERIES \d{4}-[A-Z0-9]+", ("SERIES 2005-HE3",)),
    SuffixPattern(r"TRUST \d{4}-[A-Z0-9]+", ("TRUST 2006-1", "TRUST 2006-A1")),
)


class RootDictionary:
    __slots__ = ("entries",)

    def __init__(self, entries: frozenset[TokenSeq]) -> None:
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootDictionary) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, tokens: object) -> bool:
        return tokens in self.entries


class SuffixDictionary:
    """Literal suffixes and suffix patterns, one pattern per pattern text."""

    __slots__ = ("literal_entries", "pattern_entries")

    def __init__(self, literal_entries: frozenset[TokenSeq], pattern_entries: Iterable[SuffixPattern] = ()) -> None:
        self.literal_entries, self.pattern_entries = literal_entries, _by_pattern_text(pattern_entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SuffixDictionary) and (self.literal_entries, self.pattern_entries) == (
            other.literal_entries, other.pattern_entries)

    def __hash__(self) -> int:
        return hash((self.literal_entries, self.pattern_entries))

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


def split_on_commas(name: NormalizedName) -> tuple[set[TokenSeq], set[TokenSeq]]:
    """Mine roots and suffixes from a comma-structured name 'A, B, ..., E'.

    Roots are every proper comma-prefix plus any long middle segment;
    suffixes are each trailing segment with its leading comma.
    """
    tokens = name.tokens
    commas = [i for i, tok in enumerate(tokens) if tok == COMMA]
    if not commas:
        raise ValueError(f"name has no comma: {name.text!r}")
    roots = {prefix for c in commas if (prefix := _strip_edge_commas(tokens[:c]))}
    for c, end in zip(commas, commas[1:]):
        segment = tokens[c + 1 : end]
        if len(segment) >= _LONG_SEGMENT_TOKENS or len(join_tokens(segment)) >= _LONG_SEGMENT_CHARS:
            roots.add(segment)
    suffixes = {tokens[c:end] for c, end in zip(commas, commas[1:] + [len(tokens)]) if end > c + 1}
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


def root_variants(name: NormalizedName, suffix: TokenSeq | None = None) -> set[TokenSeq]:
    """Whole name, name without its suffix, and both again without the first token."""
    tokens = name.tokens
    variants = [tokens, tokens[1:]]
    if suffix is not None and 0 < len(suffix) < len(tokens) and tokens[-len(suffix) :] == tuple(suffix):
        variants += [tokens[: -len(suffix)], tokens[1 : -len(suffix)]]
    return {trimmed for seq in variants if (trimmed := _strip_edge_commas(seq))}


def split_on_special_token(name: NormalizedName) -> tuple[TokenSeq | None, TokenSeq | None] | None:
    """Split at the first type keyword (BANK, FUND, ...) into root and suffix.

    Normally the part before the keyword is the root and the keyword plus the
    rest is the suffix. When either side contains 'OF' the 'OF' part belongs
    to the root instead and no suffix is produced.
    """
    tokens = name.tokens
    idx = next((i for i, tok in enumerate(tokens) if tok in SPECIAL_TOKENS), None)
    if idx is None:
        return None
    before = _strip_edge_commas(tokens[:idx])
    after = _strip_edge_commas(tokens[idx + 1 :])
    if "OF" in after:
        return (after, None)
    if "OF" in before:
        return (before, None)
    return (before or None, tokens[idx:])


def trigram_roots(name: NormalizedName) -> set[TokenSeq]:
    """All 3-token windows of a long name that contain no stop token or comma."""
    tokens = name.tokens
    windows = zip(tokens, tokens[1:], tokens[2:]) if len(tokens) >= _TRIGRAM_MIN_TOKENS else ()
    return {window for window in windows if _FILLER_TOKENS.isdisjoint(window)}


def apply_filters(entries: Iterable[TokenSeq]) -> set[TokenSeq]:
    """Drop single-token address/location entries, stop-token-only entries and
    entries whose first token starts with ``#``.

    A saved entry starting with ``#`` would read back as a comment line, so
    such entries are never stored. Never edits inside multi-token entries;
    the result is always a subset of the input.
    """
    kept: set[TokenSeq] = set()
    for entry in entries:
        entry = tuple(entry)
        if not entry or entry[0].startswith("#"):
            continue
        if len(entry) == 1 and entry[0] in _SINGLE_TOKEN_DROPS:
            continue
        if _FILLER_TOKENS.issuperset(entry):
            continue
        kept.add(entry)
    return kept


def generate_dictionaries(
    lists: Sequence[NameList],
    patterns: Sequence[SuffixPattern] = BUILTIN_SUFFIX_PATTERNS,
) -> tuple[RootDictionary, SuffixDictionary]:
    """Run every applicable heuristic over each name and union the results.

    Trailing junk is stripped first; literal suffixes already covered by a
    pattern entry are not stored twice. Output is deterministic for a fixed
    input set.
    """
    roots: set[TokenSeq] = set()
    suffixes: set[TokenSeq] = set()
    unique_names = {name.text: name for lst in lists for name in lst.names}
    for name in unique_names.values():
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
        split = split_on_special_token(name)
        if split:
            root_part, suffix_part = split
            if root_part:
                roots.add(root_part)
            if suffix_part:
                suffixes.add(suffix_part)
        roots.update(trigram_roots(name))
    literal = {entry for entry in apply_filters(suffixes) if not any(p.matches(entry) for p in patterns)}
    return (
        RootDictionary(frozenset(apply_filters(roots))),
        SuffixDictionary(frozenset(literal), patterns),
    )


def save_root_dictionary(dictionary: RootDictionary, path: str | Path) -> None:
    lines = sorted(join_tokens(entry) for entry in dictionary.entries)
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def save_suffix_dictionary(dictionary: SuffixDictionary, path: str | Path) -> None:
    lines = sorted(join_tokens(entry) for entry in dictionary.literal_entries)
    lines += [PATTERN_PREFIX + p.pattern_text for p in dictionary.pattern_entries]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_token_entries(path: str | Path) -> frozenset[TokenSeq]:
    """Literal entries from a one-entry-per-line file, normalized to tokens.

    A file that is already uppercase and holds no control character other
    than whitespace (what ``save_root_dictionary`` writes) is cut with
    ``str.split``: there, ``str.isspace`` and ``TOKEN``'s separators agree,
    so the entries are those of the per-line path below."""
    text = read_utf8(path)
    if text.upper() == text and not NON_SPACE_CONTROL.search(text):
        entries = frozenset(map(tuple, map(str.split, text.replace(COMMA, " , ").splitlines())))
        if "#" in text or () in entries:  # comment or blank lines
            entries = frozenset(tokens for tokens in entries if tokens and not tokens[0].startswith("#"))
        return entries
    found = set()
    for number, line in text_entry_lines(text):
        if line.startswith(PATTERN_PREFIX):
            raise ValueError(f"{path}:{number}: pattern entry not allowed here: {line!r}")
        tokens = name_tokens(line)
        if tokens:
            found.add(tokens)
    return frozenset(found)


def load_root_dictionary(path: str | Path) -> RootDictionary:
    return RootDictionary(load_token_entries(path))


def _pattern_at(path: str | Path, number: int, text: str, examples: tuple[str, ...] = ()) -> SuffixPattern:
    try:
        return SuffixPattern(text, examples)
    except ValueError as exc:
        raise ValueError(f"{path}:{number}: bad pattern: {exc}") from None


def load_suffix_dictionary(path: str | Path) -> SuffixDictionary:
    literal: set[TokenSeq] = set()
    patterns: list[SuffixPattern] = []
    for number, line in entry_lines(path):
        if line.startswith(PATTERN_PREFIX):
            patterns.append(_pattern_at(path, number, line[len(PATTERN_PREFIX) :].strip()))
        else:
            tokens = name_tokens(line)
            if tokens:
                literal.add(tokens)
    return SuffixDictionary(frozenset(literal), patterns)


def load_suffix_patterns(path: str | Path) -> tuple[SuffixPattern, ...]:
    """Pattern file: one pattern per line, optional tab-separated examples."""
    patterns = []
    for number, line in entry_lines(path):
        if line.startswith(PATTERN_PREFIX):
            line = line[len(PATTERN_PREFIX) :].strip()
        text, _, examples = line.partition("\t")
        positive = tuple(e.strip() for e in examples.split("|") if e.strip()) if examples else ()
        patterns.append(_pattern_at(path, number, text.strip(), positive))
    return tuple(patterns)
