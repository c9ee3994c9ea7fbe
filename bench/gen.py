"""Seeded generator of the benchmark's inputs.

For one workload and one seed it writes, into an empty directory:

- ``list_a.txt``, ``list_b.txt``: overlapping name lists for ``build-dicts``;
- ``corpus.txt``: the resolution corpus (most list names plus names found in
  no list);
- ``docs/*.txt``: documents with planted names;
- ``gold.tsv``: ``doc_id, start, end, surface`` of every planted name that
  counts as a true mention (exact character spans);
- ``expected.tsv``: ``doc_id, start, end, corpus name or '-'``, read only by
  the benchmark to score resolution;
- ``labeled.tsv``: ``mention, expected corpus name or '-'`` for ``pr-curve``.

The program under test sees only these files, and the same seed always gives
byte-identical files. Every random choice comes from one ``random.Random``
seeded from the workload name and the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

# Plain filler vocabulary. It holds no type word, suffix word, role keyword or
# section marker, so filler alone never yields a root or suffix match; type
# words enter filler only at ``TYPE_WORD_RATE``.
FILLER = (
    "the certificates will be distributed pursuant to this agreement and any "
    "holders of each class may receive interest or principal on every payment "
    "date after the closing date subject to available funds from collections "
    "on loans in that pool as described under risk factors herein with respect "
    "to delinquencies losses prepayments defaults advances reserve accounts "
    "credit enhancement ratings servicing fees expenses indemnification notice "
    "investors should consider carefully whether an investment in these notes "
    "is appropriate for them because yields could differ materially from those "
    "expected if actual performance varies such events might reduce amounts "
    "payable including final maturity dates record dates remittance reports "
    "purchase price cut off balance weighted average coupon margin index "
    "adjustment period rounding servicer fee rate net interest shortfall "
    "realized loss allocation priority distribution waterfall swap cap "
    "counterparty collateral substitution repurchase obligation warranty "
    "representations breach cure remedy termination clean up call optional "
    "redemption auction calculation agent paying registrar transfer restrictions "
    "legal investment considerations federal income tax consequences erisa plans "
    "method of distribution use of proceeds ratings reports annual statements"
).split()

TYPE_WORDS = ("bank", "trust", "mortgage")
TYPE_WORD_RATE = 0.002   # share of filler words replaced by a type word
LINEBREAK_SHARE = 0.15   # planted names split across a line break
TITLECASE_SHARE = 0.3    # planted names written in title case
PUNCT_SHARE = 0.25       # planted names followed by punctuation
NOT_IN_CORPUS = 0.1      # share of the pool missing from the corpus

ROLE_KEYWORDS = ("Servicer", "Trustee", "Depositor", "Sponsor", "Issuer", "Underwriter", "Originator")
ROLE_FORMS = ("{kw}: ", "as {kw}, ", "the {kw} is ", "{kw} - ")

# Type fragments and their weights. BANK, TRUST and MORTGAGE dominate, so
# their postings lists in the corpus index are long.
SUFFIXES = (
    ("BANK", 8),
    ("BANK, N.A.", 6),
    ("NATIONAL BANK", 4),
    ("SAVINGS BANK", 3),
    ("BANK AND TRUST COMPANY", 3),
    ("TRUST COMPANY", 5),
    ("ASSET TRUST", 2),
    ("MORTGAGE CORP", 3),
    ("MORTGAGE COMPANY", 2),
    ("MORTGAGE TRUST {series}", 3),
    ("FINANCIAL CORP", 3),
    ("CAPITAL MARKETS INC", 2),
    ("SECURITIES LLC", 2),
    ("FEDERAL CREDIT UNION", 2),
    ("HOLDINGS INC", 2),
)

_CONSONANTS = "BCDFGKLMNPRSTVZ"
_VOWELS = "AEIOU"
_EXCLUDED = {w.upper() for w in FILLER} | {w.upper() for w in TYPE_WORDS} | {k.upper() for k in ROLE_KEYWORDS}
_EXCLUDED |= {tok for suffix, _ in SUFFIXES for tok in suffix.replace(",", " ").split()}


@dataclass(frozen=True)
class Spec:
    """Sizes and rates of one workload; ``why`` records why it exists."""

    why: str
    list_names: int          # distinct names across the two name lists
    corpus_from_lists: float  # share of list names that are also in the corpus
    corpus_extra: int        # corpus names that are in no list
    docs: int
    doc_chars: int           # target length of one document
    pool: int                # distinct planted names
    gap: tuple[int, int]     # filler words between two planted names
    role_share: float        # share of planted names with a role keyword before them
    role_filter: bool        # run extract --role-filter; then gold holds only keyword names
    sections: bool           # documents carry header/summary/body markers
    labeled: int             # labelled queries for pr-curve


WORKLOADS: dict[str, Spec] = {
    "filings": Spec(
        why="few long filings with sparse keyword-led names: time goes to ner tokenizing, root scan and the role filter",
        list_names=2000,
        corpus_from_lists=0.85,
        corpus_extra=300,
        docs=6,
        doc_chars=200_000,
        pool=50,
        gap=(150, 350),
        role_share=0.6,
        role_filter=True,
        sections=True,
        labeled=100,
    ),
    "registry": Spec(
        why="big name lists and corpus with long BANK/TRUST postings and many distinct queries: time goes to er scoring and set-up",
        list_names=12_000,
        corpus_from_lists=0.35,
        corpus_extra=1000,
        docs=5,
        doc_chars=1500,
        pool=120,
        gap=(2, 6),
        role_share=0.0,
        role_filter=False,
        sections=False,
        labeled=40,
    ),
    "batch": Spec(
        why="a thousand small documents with dense names from a small pool: time goes to per-document ingest/cli and O(M*G) evaluation",
        list_names=1500,
        corpus_from_lists=0.85,
        corpus_extra=100,
        docs=1000,
        doc_chars=1500,
        pool=40,
        gap=(12, 30),
        role_share=0.3,
        role_filter=False,
        sections=True,
        labeled=80,
    ),
}


def scaled(spec: Spec, scale: float) -> Spec:
    """A smaller copy of ``spec`` for smoke tests; rates stay the same."""
    def n(value: int, low: int) -> int:
        return max(low, int(value * scale))

    return replace(
        spec,
        list_names=n(spec.list_names, 200),
        corpus_extra=n(spec.corpus_extra, 20),
        docs=n(spec.docs, 2),
        doc_chars=n(spec.doc_chars, 1500),
        pool=n(spec.pool, 20),
        labeled=n(spec.labeled, 10),
    )


def _pseudo_word(rng: random.Random) -> str:
    syllables = rng.choice((2, 2, 3))
    word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
    if rng.random() < 0.3:
        word += rng.choice("NRST")
    return word


def _words(rng: random.Random, count: int) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < count:
        word = _pseudo_word(rng)
        if word not in _EXCLUDED:
            seen[word] = None
    return list(seen)


def _series(rng: random.Random) -> str:
    return f"{rng.randint(2003, 2008)}-{rng.choice(('A', 'HE', 'AR', 'NC'))}{rng.randint(1, 9)}"


def _names(rng: random.Random, count: int, words: list[str]) -> dict[str, int]:
    """``count`` distinct names, each mapped to the index of its type fragment."""
    weights = [w for _, w in SUFFIXES]
    names: dict[str, int] = {}
    while len(names) < count:
        root = " ".join(rng.choice(words) for _ in range(rng.choices((1, 2, 3), (35, 50, 15))[0]))
        kind = rng.choices(range(len(SUFFIXES)), weights)[0]
        names[f"{root} {SUFFIXES[kind][0].format(series=_series(rng))}"] = kind
    return names


def _interleave(groups: list[list[str]]) -> list[str]:
    """Merge lists so that every prefix holds each list in proportion to its length."""
    keyed = [((k + 0.5) / len(group), g, name) for g, group in enumerate(groups) for k, name in enumerate(group)]
    return [name for _, _, name in sorted(keyed)]


def _stratified(rng: random.Random, candidates: list[str], kinds: dict[str, int], count: int) -> list[str]:
    """``count`` of ``candidates`` whose type fragments follow the SUFFIXES
    weights exactly (largest remainder), so that the costly BANK/TRUST share
    of the queries does not vary with the seed."""
    total = sum(w for _, w in SUFFIXES)
    raw = [count * w / total for _, w in SUFFIXES]
    quota = [int(r) for r in raw]
    for i in sorted(range(len(raw)), key=lambda i: quota[i] - raw[i])[: count - sum(quota)]:
        quota[i] += 1
    groups = []
    for kind, wanted in enumerate(quota):
        bucket = [name for name in candidates if kinds[name] == kind]
        groups.append(rng.sample(bucket, min(wanted, len(bucket))))
    return _interleave([g for g in groups if g])


def _cycle(rng: random.Random, pool: list[str]) -> Iterator[str]:
    """Pool names in shuffled rounds: every name is planted before any repeats."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def _surface(rng: random.Random, name: str) -> str:
    """How a planted name is written: maybe title-cased, maybe broken over a line."""
    text = name.title() if rng.random() < TITLECASE_SHARE else name
    if rng.random() < LINEBREAK_SHARE and " " in text:
        spaces = [i for i, ch in enumerate(text) if ch == " "]
        cut = rng.choice(spaces)
        text = text[:cut] + "\n" + text[cut + 1 :]
    return text


class _Writer:
    """Accumulates document text and tracks the character offset."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.offset = 0
        self.column = 0

    def add(self, text: str) -> int:
        start = self.offset
        self.parts.append(text)
        self.offset += len(text)
        newline = text.rfind("\n")
        self.column = len(text) - newline - 1 if newline >= 0 else self.column + len(text)
        return start

    def filler(self, rng: random.Random, count: int) -> None:
        for _ in range(count):
            if rng.random() < TYPE_WORD_RATE:
                word = rng.choice(TYPE_WORDS)
            else:
                word = rng.choice(FILLER)
            if self.column > 72:
                self.add("\n\n" if rng.random() < 0.08 else "\n")
            elif self.column:
                self.add(" ")
            self.add(word)

    def text(self) -> str:
        return "".join(self.parts)


def _document(rng: random.Random, spec: Spec, planted: Iterator[str], doc_id: str, in_corpus: set[str]):
    """One document plus its gold rows and expected resolutions."""
    w = _Writer()
    gold: list[tuple[str, int, int, str]] = []
    expected: list[tuple[str, int, int, str]] = []
    if spec.sections:
        w.add("FORM 424B5 FILED PURSUANT TO RULE 424(b)(5)\n")
        w.filler(rng, 30)
        w.add("\n\nPROSPECTUS SUPPLEMENT\n")
        w.filler(rng, 40)
        w.add("\n\nSUMMARY\n")
    in_body = not spec.sections
    while w.offset < spec.doc_chars:
        if not in_body and w.offset > spec.doc_chars // 10:
            w.add("\n\nTABLE OF CONTENTS\n")
            in_body = True
        w.filler(rng, rng.randint(*spec.gap))
        name = next(planted)
        keyword = rng.random() < spec.role_share
        w.add(" " if w.column else "")
        if keyword:
            w.add(rng.choice(ROLE_FORMS).format(kw=rng.choice(ROLE_KEYWORDS)))
        surface = _surface(rng, name)
        start = w.add(surface)
        end = start + len(surface)
        if rng.random() < PUNCT_SHARE:
            w.add(rng.choice((",", ",", ",", ";", ".")))
        if keyword or not spec.role_filter:
            gold.append((doc_id, start, end, " ".join(surface.split())))
            expected.append((doc_id, start, end, name if name in in_corpus else "-"))
    w.filler(rng, 5)
    w.add("\n")
    return w.text(), gold, expected


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def generate(workload: str, seed: int, out: Path, spec: Spec | None = None) -> Spec:
    """Write the inputs of ``workload`` for ``seed`` into ``out``; returns the spec used."""
    spec = spec or WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    words = _words(rng, max(200, int(spec.list_names * 0.9)))
    kinds = _names(rng, spec.list_names + spec.corpus_extra, words)
    all_names = list(kinds)
    listed, extra = all_names[: spec.list_names], all_names[spec.list_names :]
    corpus_listed = rng.sample(listed, int(len(listed) * spec.corpus_from_lists))
    in_corpus = set(corpus_listed) | set(extra)

    absent = [n for n in listed if n not in in_corpus]
    present = [n for n in listed if n in in_corpus]
    missing = int(spec.pool * NOT_IN_CORPUS)
    pool = _interleave([
        _stratified(rng, absent, kinds, missing),
        _stratified(rng, present, kinds, spec.pool - missing),
    ])

    out.mkdir(parents=True, exist_ok=True)
    (out / "docs").mkdir(exist_ok=True)
    # The two lists overlap by a third; build-dicts deduplicates them.
    cut_a, cut_b = (2 * len(listed)) // 3, len(listed) // 3
    header = [f"# synthetic name list, workload {workload}, seed {seed}"]
    _write_lines(out / "list_a.txt", header + listed[:cut_a])
    _write_lines(out / "list_b.txt", header + listed[cut_b:])
    corpus = sorted(in_corpus)
    rng.shuffle(corpus)
    _write_lines(out / "corpus.txt", corpus)

    gold_rows: list[tuple[str, int, int, str]] = []
    expected_rows: list[tuple[str, int, int, str]] = []
    planted = _cycle(rng, pool)
    for i in range(spec.docs):
        doc_id = f"doc{i:04d}.txt"
        text, gold, expected = _document(rng, spec, planted, doc_id, in_corpus)
        (out / "docs" / doc_id).write_text(text, encoding="utf-8")
        gold_rows += gold
        expected_rows += expected
    _write_lines(out / "gold.tsv", [f"{d}\t{s}\t{e}\t{t}" for d, s, e, t in gold_rows])
    _write_lines(out / "expected.tsv", [f"{d}\t{s}\t{e}\t{n}" for d, s, e, n in expected_rows])

    labeled = []
    for i in range(spec.labeled):
        name = pool[i % len(pool)]
        labeled.append(f"{' '.join(_surface(rng, name).split())}\t{name if name in in_corpus else '-'}")
    _write_lines(out / "labeled.tsv", labeled)
    return spec
