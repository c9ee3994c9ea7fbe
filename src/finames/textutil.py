"""Low-level text primitives shared by the loaders, the tokenizer and the matchers.

Everything in this package matches on tokens. A token is a maximal run of
non-separator characters, except that commas are always split off as
standalone tokens; separators are whitespace and control characters. The
canonical text form re-attaches each comma to the token before it
("WELLS FARGO BANK, N.A."), so canonical text and token sequences convert
back and forth without loss.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

COMMA = ","

TokenSeq = tuple[str, ...]


class RawToken(NamedTuple):
    text: str
    start: int
    end: int
    preceded_by_newline: bool


def _is_separator(ch: str) -> bool:
    return ch.isspace() or ord(ch) < 32 or ord(ch) == 127


def iter_raw_tokens(text: str) -> Iterator[RawToken]:
    """Yield uppercased tokens with their character offsets in ``text``.

    ``preceded_by_newline`` is set when the gap immediately before the token
    contains a line break; tokens split out of the same run (a word and its
    trailing comma) have no gap and are never flagged.
    """
    i = 0
    n = len(text)
    newline = False
    while i < n:
        ch = text[i]
        if _is_separator(ch):
            if ch in "\n\r":
                newline = True
            i += 1
            continue
        if ch == COMMA:
            yield RawToken(COMMA, i, i + 1, newline)
            newline = False
            i += 1
            continue
        j = i
        while j < n and not _is_separator(text[j]) and text[j] != COMMA:
            j += 1
        yield RawToken(text[i:j].upper(), i, j, newline)
        newline = False
        i = j


def name_tokens(text: str) -> TokenSeq:
    """Uppercase token sequence of ``text`` with commas as standalone tokens."""
    return tuple(tok.text for tok in iter_raw_tokens(text))


def join_tokens(tokens: Sequence[str]) -> str:
    """Inverse of :func:`name_tokens`: single spaces between tokens, commas re-attached."""
    parts: list[str] = []
    for tok in tokens:
        if tok == COMMA or not parts:
            parts.append(tok)
        else:
            parts.append(" " + tok)
    return "".join(parts)


def collapse_whitespace(text: str) -> str:
    return " ".join(text.split())


def read_utf8(path: str | Path) -> str:
    """Whole text of a UTF-8 file; undecodable bytes raise a ValueError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 (byte {exc.start}: {exc.reason})") from None


def entry_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for every line of a list, dictionary or
    config file that is neither blank nor a comment (first non-blank
    character ``#``)."""
    for number, line in enumerate(read_utf8(path).splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield number, line
