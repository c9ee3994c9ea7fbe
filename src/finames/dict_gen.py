"""Root and suffix dictionary generation from curated name lists.

Institution names split into a distinguishing leading fragment (the root,
e.g. "WELLS FARGO") and a short trailing type fragment shared across many
institutions (the suffix, e.g. "BANK", ", N.A.", "TRUST 2006-A1"). This
module mines both kinds of entry from name lists with a handful of
splitting heuristics, applies one token filter to both, and produces
deterministic, serializable dictionaries for the matcher.

Suffixes with embedded numbering ("TRUST 2006-1", "SERIES 2005-HE3") are
covered by pattern entries instead of literals: token sequences in a small
syntax of their own (``_parse``), matched without backtracking.
"""
from __future__ import annotations

import operator
import re
import sys
from bisect import bisect_left, bisect_right
from itertools import compress, filterfalse, groupby, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .ingest import MIN_NAME_LENGTH, NameList, NormalizedName, normalize_name, strip_trailing_garbage
from .textutil import (
    COMMA,
    TOKEN,
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

# Prefix roots end at a name's first commas only: a prefix at every comma
# would give a name of n commas n roots of up to n tokens.
_PREFIX_COMMAS = 8

# Last-token thresholds that trigger the two-token suffix form.
_SHORT_SUFFIX_CHARS = 3

# Tri-grams are only mined from names long enough that the whole-name
# variants do not already cover the windows.
_TRIGRAM_MIN_TOKENS = 5

PATTERN_PREFIX = "re:"
_COMMA_BEFORE_TOKEN = re.compile(r",[^ ,\n]")

_ALNUM = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")
# One element of a pattern token, tried in this order at each offset.
_ELEMENT = re.compile(r"(\[A-Z0-9\]\+)|\\d\{([0-9]+)\}|(.)", re.DOTALL)
# Counts reach the largest that ``re`` accepts in ``\d{n}``.
_MAX_COUNT = 4_294_967_294

_Element = tuple[Callable[[str], bool], int, int]


def _parse(pattern_text: str) -> tuple[tuple[_Element, ...], ...]:
    """The elements of each token, cut by ``TOKEN`` with case kept. An element
    is a character test and the fewest and most characters it takes:
    ``[A-Z0-9]+`` takes one or more of ``_ALNUM``, ``\\d{n}`` exactly n
    decimal characters, and any other character itself."""
    parsed = []
    for token in TOKEN.findall(pattern_text):
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
    """Entries, roots or literal suffixes, as their sorted, unique canonical
    lines alone, what the savers write: ``join_tokens`` of each entry the token
    rule cuts, or ``from_lines``' lines as they are. ``entries`` parses every
    line; a lookup parses only the entries under the first tokens asked about.
    ``_lengths`` maps each such token to a bit mask of the token lengths of the
    entries it starts (bit ``n`` for ``n`` tokens, 0 for none), and ``_parsed``
    holds those entries."""

    __slots__ = ("lines", "_lengths", "_parsed")

    def __init__(self, entries: Iterable[TokenSeq]) -> None:
        self.lines = tuple(sorted(set(map(join_tokens, entries))))
        self._lengths: dict[str, int] = {}
        self._parsed: set[TokenSeq] = set()

    @classmethod
    def from_lines(cls, lines: Sequence[str]) -> RootDictionary:
        self = cls(())
        self.lines = tuple(lines)
        return self

    @property
    def entries(self) -> frozenset[TokenSeq]:
        return frozenset(map(_line_entry, self.lines))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootDictionary) and self.lines == other.lines

    def __hash__(self) -> int:
        return hash(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def __contains__(self, tokens: object) -> bool:
        if not tokens:  # the empty entry's line sorts first
            return self.lines[:1] == ("",)
        return self.longest_match(tokens, 0) == len(tokens)  # type: ignore[arg-type]

    def __or__(self, other: RootDictionary) -> RootDictionary:
        """The sorted union of the two dictionaries' lines; parses no entry."""
        if not other:
            return self
        return RootDictionary.from_lines(sorted({*self.lines, *other.lines}))

    def starts(self, texts: TokenSeq) -> Iterator[int]:
        """The positions in ``texts`` whose token may start an entry: all but
        those of tokens already looked up and found to start none. Each is read
        from the table when the iterator reaches it, so a token found to start
        none by a lookup made meanwhile is passed over too."""
        return compress(range(len(texts)), map(self._lengths.get, texts, repeat(1)))

    def longest_match(self, texts: TokenSeq, start: int) -> int:
        """Token length of the longest entry at ``start``; 0 if none. The entries
        ``texts[start]`` starts are parsed on its first lookup: the line of the
        token itself and the lines that go on from it with a space (up to
        ``token + "!"``) or with a comma token (up to ``token + "-"``). Only their
        lengths are tried, longest first, and only those that fit in the tokens
        left: a cut-off slice could equal a shorter entry."""
        lengths = self._lengths.get(token := texts[start])
        if lengths is None:
            lines = self.lines
            found = lines[bisect_left(lines, token) : bisect_left(lines, token + "!")]
            found += lines[bisect_left(lines, token + COMMA) : bisect_left(lines, token + "-")]
            entries = list(map(_line_entry, found))
            self._parsed.update(entries)
            lengths = self._lengths[token] = sum({1 << len(entry) for entry in entries})  # one bit per length
        left = len(texts) - start
        if lengths >> left > 1:
            lengths &= (2 << left) - 1
        while lengths:
            length = lengths.bit_length() - 1
            if texts[start : start + length] in self._parsed:
                return length
            lengths ^= 1 << length
        return 0


def _line_entry(line: str) -> TokenSeq:
    return tuple(line.replace(COMMA, " , ").split())  # a canonical line's only separator is the space


class SuffixDictionary:
    """Literal suffixes, kept as a ``RootDictionary`` of their lines, and suffix
    patterns, one pattern per pattern text. A pattern whose first token is
    literal text is tried only at that text, every other one at each position."""

    __slots__ = ("literals", "pattern_entries", "_patterns_at", "_patterns_anywhere")

    def __init__(self, literals: RootDictionary, pattern_entries: Iterable[SuffixPattern] = ()) -> None:
        self.literals, self.pattern_entries = literals, _by_pattern_text(pattern_entries)
        heads = [(p.head, p) for p in self.pattern_entries]
        anywhere = self._patterns_anywhere = tuple(p for head, p in heads if head is None)
        self._patterns_at: dict[str, tuple[SuffixPattern, ...]] = {}
        for head, pattern in heads:
            if head is not None:
                self._patterns_at[head] = self._patterns_at.get(head, anywhere) + (pattern,)

    @property
    def literal_entries(self) -> frozenset[TokenSeq]:
        return self.literals.entries

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SuffixDictionary) and (self.literals, self.pattern_entries) == (
            other.literals, other.pattern_entries)

    def __hash__(self) -> int:
        return hash((self.literals, self.pattern_entries))

    def __len__(self) -> int:
        return len(self.literals) + len(self.pattern_entries)

    def __or__(self, other: SuffixDictionary) -> SuffixDictionary:
        """Both literals and both patterns; a pattern of ``other`` replaces one of the same text."""
        return SuffixDictionary(self.literals | other.literals, self.pattern_entries + other.pattern_entries)

    def longest_match(self, texts: TokenSeq, pos: int) -> int:
        """Token length of the longest literal or pattern suffix at ``pos``; 0 if none."""
        length = self.literals.longest_match(texts, pos)
        for pattern in self._patterns_at.get(texts[pos], self._patterns_anywhere):
            count = pattern.token_count
            if count > length and pos + count <= len(texts) and pattern.matches(texts[pos : pos + count]):
                length = count
        return length

    def covers(self, tokens: TokenSeq) -> bool:
        """True when the suffix, not empty, is stored literally or matched by a pattern."""
        return bool(tokens) and self.longest_match(tokens, 0) == len(tokens)


def _strip_edge_commas(tokens: Sequence[str]) -> TokenSeq:
    start, end = 0, len(tokens)
    while start < end and tokens[start] == COMMA:
        start += 1
    while end > start and tokens[end - 1] == COMMA:
        end -= 1
    return tuple(tokens[start:end])


def split_on_commas(name: NormalizedName) -> tuple[set[TokenSeq], set[TokenSeq]]:
    """Mine roots and suffixes from a comma-structured name 'A, B, ..., E'.

    Roots are the proper comma-prefixes that end at the name's first eight
    commas, plus any long middle segment; suffixes are each trailing segment
    with its leading comma.
    """
    tokens = name.tokens
    commas = [i for i, tok in enumerate(tokens) if tok == COMMA]
    if not commas:
        raise ValueError(f"name has no comma: {name.text!r}")
    roots = {prefix for c in commas[:_PREFIX_COMMAS] if (prefix := _strip_edge_commas(tokens[:c]))}
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


def _filtered_lines(entries: Iterable[TokenSeq]) -> list[str]:
    """The sorted canonical lines of the entries, each once, but for an entry of
    filler tokens alone (an empty one is), a single address or location token
    and a line led by ``#``, which would read back as a comment. A single-token
    entry's line is its token, and ``#``-led lines sort from ``#`` up to ``$``."""
    lines = sorted(map(join_tokens, filterfalse(_FILLER_TOKENS.issuperset, entries)))
    lines = list(filterfalse(_SINGLE_TOKEN_DROPS.__contains__, map(operator.itemgetter(0), groupby(lines))))
    del lines[bisect_left(lines, "#") : bisect_left(lines, "$")]
    return lines


def _mined_roots(names: Iterable[NormalizedName], suffixes: set[TokenSeq]) -> Iterator[TokenSeq]:
    """The roots of every heuristic, name by name, once the name's trailing
    garbage is stripped; the suffixes go to ``suffixes``."""
    for name in names:
        stripped = strip_trailing_garbage(name.text)
        if len(stripped) < MIN_NAME_LENGTH:
            continue
        if stripped != name.text:
            name = normalize_name(stripped)
        roots, hint = set(), None
        if COMMA in name.tokens:
            roots, comma_suffixes = split_on_commas(name)
            suffixes.update(comma_suffixes)
        elif hint := extract_trailing_suffix(name):
            suffixes.add(hint)
        roots.update(root_variants(name, hint))
        root_part, suffix_part = split_on_special_token(name) or (None, None)
        if root_part:
            roots.add(root_part)
        if suffix_part:
            suffixes.add(suffix_part)
        roots.update(trigram_roots(name))
        yield from roots


def generate_dictionaries(
    lists: Sequence[NameList],
    patterns: Sequence[SuffixPattern] = BUILTIN_SUFFIX_PATTERNS,
) -> tuple[RootDictionary, SuffixDictionary]:
    """Run every applicable heuristic over each name and union the results.

    Roots and literal suffixes go through one filter, and a literal suffix a
    pattern covers is not stored. Output is deterministic for a fixed input set.
    Roots go to lines as each name yields them: no root tuple outlives its name.
    """
    suffixes: set[TokenSeq] = set()
    roots = _filtered_lines(_mined_roots({name.text: name for lst in lists for name in lst.names}.values(), suffixes))
    literals = _filtered_lines(entry for entry in suffixes if not any(p.matches(entry) for p in patterns))
    return RootDictionary.from_lines(roots), SuffixDictionary(RootDictionary.from_lines(literals), patterns)


def _write_lines(path: str | Path, lines: Sequence[str]) -> None:
    """Each line with its line break, written as one text."""
    Path(path).write_text("\n".join([*lines, ""]), encoding="utf-8")


def save_root_dictionary(dictionary: RootDictionary, path: str | Path) -> None:
    _write_lines(path, dictionary.lines)


def save_suffix_dictionary(dictionary: SuffixDictionary, path: str | Path) -> None:
    patterns = [PATTERN_PREFIX + p.pattern_text for p in dictionary.pattern_entries]
    _write_lines(path, [*dictionary.literals.lines, *patterns])


def _entry_lines(path: str | Path) -> tuple[list[str], list[tuple[int, str]]]:
    """The sorted, unique canonical lines of the entries of a one-entry-per-line
    file, and (line number, line) of its ``re:`` lines in order. A file that is
    already canonical, as the savers write it, is kept as its lines: printable
    but for line breaks (so its other separators are spaces), and, but for the
    lines led by ``re:``, uppercase with one space between tokens and none
    before a comma. Any other is cut line by line."""
    text = read_utf8(path)
    literals, patterns = text, []
    if text.startswith(PATTERN_PREFIX) or "\n" + PATTERN_PREFIX in text:
        lines = text.split("\n")
        patterns = [(number, line.strip()) for number, line in enumerate(lines, 1) if line.startswith(PATTERN_PREFIX)]
        literals = "\n".join(line for line in lines if not line.startswith(PATTERN_PREFIX))
    framed = f"\n{literals}\n"
    if (literals.upper() == literals and text.replace("\n", "").isprintable() and not _COMMA_BEFORE_TOKEN.search(literals)
            and not any(part in framed for part in ("  ", " ,", "\n ", " \n"))):
        lines = sorted(literals.split("\n"))
        del lines[bisect_left(lines, "#") : bisect_left(lines, "$")]  # comments
        del lines[: bisect_right(lines, "")]  # blank lines
        return (lines if all(map(operator.lt, lines, lines[1:])) else sorted(set(lines))), patterns
    found, patterns = set(), []
    for number, line in text_entry_lines(text):
        if line.startswith(PATTERN_PREFIX):
            patterns.append((number, line))
        elif tokens := name_tokens(line):
            found.add(join_tokens(tokens))
    return sorted(found), patterns


def load_root_dictionary(path: str | Path) -> RootDictionary:
    lines, patterns = _entry_lines(path)
    if patterns:
        raise ValueError("{}:{}: pattern entry not allowed here: {!r}".format(path, *patterns[0]))
    return RootDictionary.from_lines(lines)


def _pattern_at(path: str | Path, number: int, text: str, examples: tuple[str, ...] = ()) -> SuffixPattern:
    try:
        return SuffixPattern(text, examples)
    except ValueError as exc:
        raise ValueError(f"{path}:{number}: bad pattern: {exc}") from None


def load_suffix_dictionary(path: str | Path) -> SuffixDictionary:
    lines, patterns = _entry_lines(path)
    parsed = [_pattern_at(path, number, line[len(PATTERN_PREFIX) :].strip()) for number, line in patterns]
    return SuffixDictionary(RootDictionary.from_lines(lines), parsed)


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
