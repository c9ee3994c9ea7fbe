"""Independent brute-force reference implementations used to check the fast paths.

Everything here is written straight from the definitions: quantifier loops,
linear scans over all spans, no tries, no inverted index, no shared helpers
with the package code.
"""
from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Callable, Sequence

Tokens = Sequence[str]


# ---------------------------------------------------------------------------
# Ranked scoring


def ob_map(token: str, candidate: Tokens) -> int:
    positions = [j for j, other in enumerate(candidate) if other == token]
    return positions[0] if positions else -1


def ob_sgn(token: str, candidate: Tokens) -> int:
    return 0 if ob_map(token, candidate) == -1 else 1


def ob_limit(source: Tokens, target: Tokens) -> int:
    """Largest index of the leading run where each first-match position
    exceeds every earlier one (checked with the full quantifier)."""
    accepted = -1
    for i in range(len(source)):
        value = ob_map(source[i], target)
        if all(value > ob_map(source[k], target) for k in range(i)):
            accepted = i
        else:
            break
    return accepted


def ob_sq(q: Tokens, p: Tokens, weight: Callable[[str], float]) -> float:
    limit = ob_limit(q, p)
    return sum(0.5**i * ob_sgn(q[i], p) * weight(q[i]) for i in range(limit + 1))


def ob_sc(q: Tokens, p: Tokens) -> float:
    if not p:
        return 0.0
    limit = ob_limit(p, q)
    numerator = sum(0.5**j * ob_sgn(p[j], q) for j in range(limit + 1))
    denominator = sum(0.5**j for j in range(len(p)))
    return numerator / denominator


def ob_sb(q: Tokens, p: Tokens) -> float:
    if not p or len(p) > len(q):
        return 0.0
    starts = [
        i
        for i in range(len(q) - len(p) + 1)
        if all(q[i + k] == p[k] for k in range(len(p)))
    ]
    if not starts:
        return 0.0
    first = min(starts)
    numerator = sum(0.5**i for i in range(first, first + len(p)))
    denominator = sum(0.5**i for i in range(len(q)))
    return numerator / denominator


def ob_score(q: Tokens, p: Tokens, weight: Callable[[str], float]) -> float:
    return ob_sq(q, p, weight) * ob_sc(q, p) + ob_sb(q, p)


def ob_variant_score(variant: str, q: Tokens, p: Tokens, weight: Callable[[str], float]) -> float:
    """Reduced forms of ``ob_score``: ``idf`` is the undecayed weight of every
    query position the candidate holds, in any order, saturating at the
    largest float; ``sq`` is ``s_q`` alone, ``sqsc`` is ``s_q * s_c``."""
    if variant == "idf":
        return min(sum(ob_sgn(q[i], p) * weight(q[i]) for i in range(len(q))), sys.float_info.max)
    if variant == "sq":
        return ob_sq(q, p, weight)
    if variant == "sqsc":
        return ob_sq(q, p, weight) * ob_sc(q, p)
    if variant == "full":
        return ob_score(q, p, weight)
    raise ValueError(f"unknown variant {variant!r}")


def ob_best_match(
    q: Tokens, entries: Sequence[Tokens], weight: Callable[[str], float]
) -> tuple[int, float] | None:
    """Score every entry sharing a token with the query; lowest id wins ties."""
    best: tuple[int, float] | None = None
    for entry_id, p in enumerate(entries):
        if not set(q) & set(p):
            continue
        value = ob_score(q, p, weight)
        if best is None or value > best[1]:
            best = (entry_id, value)
    return best


def ob_resolve(
    q: Tokens,
    entries: Sequence[Tokens],
    weight: Callable[[str], float],
    threshold: float,
) -> tuple[int, float] | None:
    best = ob_best_match(q, entries, weight)
    if best is None or best[1] < threshold:
        return None
    return best


# ---------------------------------------------------------------------------
# Extraction bookkeeping


def ob_overlaps(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    return a_start < b_end and b_start < a_end


def ob_label_mentions(mentions: Sequence[tuple[str, int, int]], gold: Sequence) -> list[tuple]:
    """(doc, start, end, label) per mention, comparing with every gold span
    of every document: an exact span is CORRECT, else any overlapping gold
    span makes it PAR, else WRO."""
    labeled = []
    for doc_id, start, end in mentions:
        same_doc = [g for g in gold if g.doc_id == doc_id]
        if any((g.start, g.end) == (start, end) for g in same_doc):
            label = "CORRECT"
        elif any(ob_overlaps(start, end, g.start, g.end) for g in same_doc):
            label = "PAR"
        else:
            label = "WRO"
        labeled.append((doc_id, start, end, label))
    return labeled


def ob_count(labeled: Sequence, gold: Sequence) -> tuple[int, int, int, int]:
    """(ALL, WRO, PAR, MIS); a gold span is missing when no labelled mention
    of any document overlaps it in its own document."""
    mis = sum(
        1
        for g in gold
        if not any(m.doc_id == g.doc_id and ob_overlaps(m.start, m.end, g.start, g.end) for m in labeled)
    )
    wro = sum(1 for m in labeled if m.label == "WRO")
    par = sum(1 for m in labeled if m.label == "PAR")
    return len(labeled), wro, par, mis


# ---------------------------------------------------------------------------
# Dictionary matching


def ob_extract_spans(
    texts: Sequence[str],
    roots: set[tuple[str, ...]],
    suffix_literals: set[tuple[str, ...]],
    patterns: Sequence = (),
) -> list[tuple[int, int, int]]:
    """All-spans matcher: returns (root_start, root_end, end) token triples.

    Scans left to right; at the first position with any root match it takes
    the longest, then repeatedly consumes the longest literal or pattern
    suffix, then resumes after the consumed span.
    """
    spans: list[tuple[int, int, int]] = []
    n = len(texts)
    pos = 0
    while pos < n:
        found = None
        for i in range(pos, n):
            for length in range(n - i, 0, -1):
                if tuple(texts[i : i + length]) in roots:
                    found = (i, i + length)
                    break
            if found:
                break
        if not found:
            break
        start, root_end = found
        end = root_end
        while True:
            best = 0
            for length in range(n - end, 0, -1):
                if tuple(texts[end : end + length]) in suffix_literals:
                    best = length
                    break
            for pattern in patterns:
                k = pattern.token_count
                if k > best and end + k <= n and pattern.matches(texts[end : end + k]):
                    best = k
            if not best:
                break
            end += best
        spans.append((start, root_end, end))
        pos = end
    return spans


def ob_filter_invalid(
    text: str, spans: Sequence[tuple[int, int, int]], invalid: frozenset[tuple[str, ...]]
) -> list[tuple[int, int, int]]:
    """Keep the (start, root_end, end) character spans whose surface
    ``text[start:end]`` and root ``text[start:root_end]``, whitespace-collapsed
    and tokenized again, are both absent from ``invalid``."""
    kept = []
    for start, root_end, end in spans:
        surface = tuple(t for t, _, _ in ob_tokens(" ".join(text[start:end].split())))
        root = tuple(t for t, _, _ in ob_tokens(" ".join(text[start:root_end].split())))
        if surface not in invalid and root not in invalid:
            kept.append((start, root_end, end))
    return kept


# ---------------------------------------------------------------------------
# Suffix patterns


_ALNUM_RUN = "[A-Z0-9]+"
_DIGIT_RUN = re.compile(r"\\d\{([0-9]+)\}")


def _translate_pattern_token(token: str) -> str:
    """A pattern token as a backtracking ``re`` pattern: ``[A-Z0-9]+`` and
    ``\\d{n}`` (n in ASCII digits) as they are, every other character escaped."""
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


def ob_pattern_matchers(pattern_text: str) -> list[re.Pattern] | None:
    """One compiled ``re`` matcher per whitespace-separated token; None when
    the text is rejected: it has no token, ``re`` cannot compile a token, or
    a token's matcher takes the empty string."""
    tokens = pattern_text.split()
    if not tokens:
        return None
    try:
        matchers = [re.compile(_translate_pattern_token(tok)) for tok in tokens]
    except (re.error, OverflowError, ValueError):
        return None
    if any(m.fullmatch("") for m in matchers):
        return None
    return matchers


def ob_pattern_matches(matchers: Sequence[re.Pattern], tokens: Tokens) -> bool:
    return len(tokens) == len(matchers) and all(m.fullmatch(t) for m, t in zip(matchers, tokens))


# ---------------------------------------------------------------------------
# Tokenizing


def ob_tokens(text: str) -> list[tuple[str, int, int]]:
    """Character loop: (uppercased token, start, end) for every maximal run of
    characters that are neither separators nor commas, and for every comma.
    A separator is a character with ``str.isspace()``, a code point below 32,
    or code point 127."""

    def separator(ch: str) -> bool:
        return ch.isspace() or ord(ch) < 32 or ord(ch) == 127

    tokens: list[tuple[str, int, int]] = []
    i = 0
    n = len(text)
    while i < n:
        if separator(text[i]):
            i += 1
            continue
        if text[i] == ",":
            tokens.append((",", i, i + 1))
            i += 1
            continue
        j = i
        while j < n and not separator(text[j]) and text[j] != ",":
            j += 1
        tokens.append((text[i:j].upper(), i, j))
        i = j
    return tokens


def ob_join_tokens(tokens: Sequence[str]) -> str:
    """Token loop: single spaces between tokens, each comma re-attached to
    the text before it."""
    parts: list[str] = []
    for tok in tokens:
        if tok == "," or not parts:
            parts.append(tok)
        else:
            parts.append(" " + tok)
    return "".join(parts)


def ob_clean_token(token: str) -> str:
    """Character loop: the characters of ``token`` with ``str.isalnum()``."""
    return "".join(ch for ch in token if ch.isalnum())


def ob_token_entries(path: str | Path) -> frozenset[tuple[str, ...]]:
    """Line loop: the ``ob_tokens`` of every stripped line of a UTF-8 file
    (leading byte-order mark dropped) that is neither blank nor a comment
    (first non-blank character ``#``); a line starting ``re:`` raises a
    ValueError naming ``path:line``."""
    entries = set()
    text = Path(path).read_bytes().decode("utf-8-sig")
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("re:"):
            raise ValueError(f"{path}:{number}: pattern entry not allowed here: {line!r}")
        tokens = tuple(t for t, _, _ in ob_tokens(line))
        if tokens:
            entries.add(tokens)
    return frozenset(entries)


# ---------------------------------------------------------------------------
# Sections


def ob_first_marker(text: str, markers: Sequence[str], start: int = 0) -> int:
    """Position loop: the first offset at or after ``start`` where some marker
    matches under ``re.IGNORECASE``; -1 if none."""
    patterns = [re.compile(re.escape(marker), re.IGNORECASE) for marker in markers]
    for i in range(start, len(text) + 1):
        if any(pattern.match(text, i) for pattern in patterns):
            return i
    return -1
