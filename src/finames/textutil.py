"""Low-level text primitives shared by the loaders, the tokenizer and the matchers.

Everything in this package matches on tokens, cut by one rule, ``TOKEN``: a
token is a maximal run of characters that are neither separators nor commas,
or a single comma. Separators are the characters ``str.isspace`` accepts and
the control characters U+0000-U+001F and U+007F; ``SEPARATORS`` matches a run
of them. The canonical text form re-attaches each comma to the token before it
("WELLS FARGO BANK, N.A."), so canonical text and token sequences convert back
and forth without loss.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Sequence

COMMA = ","
# The separators spelled out code point by code point: exactly the characters
# ``str.isspace`` accepts plus U+0000-U+001F and U+007F (a test checks every
# code point). ``re`` tests such a class by table lookup, where ``\s`` costs a
# Unicode-category call per character.
_SEPARATOR = r"\x00-\x20\x7f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000"
# One capture group, so that ``TOKEN.split`` keeps the tokens between the
# separator runs and ``TOKEN.findall`` returns the tokens alone.
TOKEN = re.compile(rf"([^{_SEPARATOR},]+|,)")
SEPARATORS = re.compile(rf"[{_SEPARATOR}]+")
# The separators ``str.isspace`` rejects; without them ``str.split`` cuts as ``TOKEN`` does.
NON_SPACE_CONTROL = re.compile(r"[\x00-\x08\x0e-\x1b\x7f]")

TokenSeq = tuple[str, ...]


def name_tokens(text: str) -> TokenSeq:
    """Uppercase token sequence of ``text`` with commas as standalone tokens."""
    return tuple(map(str.upper, TOKEN.findall(text)))


def join_tokens(tokens: Sequence[str]) -> str:
    """Inverse of :func:`name_tokens`: single spaces between tokens, commas re-attached."""
    # Tokens hold no separator and a comma is always a token of its own, so
    # " ," occurs only where a comma token follows another token.
    return " ".join(tokens).replace(" " + COMMA, COMMA)


def read_utf8(path: str | Path) -> str:
    """Whole text of a UTF-8 file without a leading byte-order mark, with every
    line ending read as "\\n"; undecodable bytes raise a ValueError naming the
    file."""
    try:
        with open(path, encoding="utf-8-sig") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 (byte {exc.start}: {exc.reason})") from None


def entry_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """:func:`text_entry_lines` of a list, dictionary or config file."""
    return text_entry_lines(read_utf8(path))


def text_entry_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for every line of ``text`` that is neither
    blank nor a comment (first non-blank character ``#``)."""
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield number, line
