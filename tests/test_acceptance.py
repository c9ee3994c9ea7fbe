"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""
from __future__ import annotations

import logging
import random
import time
from contextlib import contextmanager
from itertools import combinations, product

import pytest

from finames.cli import main
from finames.dict_gen import RootDictionary, SuffixDictionary, SuffixPattern, generate_dictionaries
from finames.er import ErConfig, Query, best_match, build_corpus, resolve, score_sb, score_sc, score_sq
from finames.evaluation import EvalCounts, metrics, pr_curve, variant_best_match
from finames.ingest import document_from_text, name_list_from_strings
from finames.ner import Extractor, tokenize
from finames.textutil import name_tokens

from oracles import ob_best_match, ob_extract_spans, ob_resolve

PLAIN = ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={})


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance] criterion {number} ({description}): PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. metric-formula reproduction for every published table row


TABLE_ROWS = {
    # (ALL, WRO, PAR, MIS): (PRE%, PAR_PRE%, REC%, PAR_REC%, F1, PAR_F1)
    (214, 0, 15, 7): (92.99, 100.00, 96.60, 96.83, 0.9476, 0.9839),
    (196, 0, 9, 9): (95.41, 100.00, 95.41, 95.61, 0.9541, 0.9776),
    (410, 0, 24, 16): (94.15, 100.00, 96.02, 96.24, 0.9508, 0.9808),
    (219, 19, 54, 35): (66.67, 91.32, 80.66, 85.11, 0.7300, 0.8811),
    (208, 9, 53, 14): (70.19, 95.67, 91.25, 93.43, 0.7935, 0.9454),
    (427, 28, 107, 49): (68.38, 93.44, 85.63, 89.06, 0.7604, 0.9120),
    (57, 0, 6, 7): (89.47, 100.00, 87.93, 89.06, 0.8869, 0.9421),
    (46, 0, 0, 9): (100.00, 100.00, 83.64, 83.64, 0.9109, 0.9109),
    (103, 0, 6, 16): (94.17, 100.00, 85.84, 86.55, 0.8981, 0.9279),
    (66, 1, 16, 6): (74.24, 98.48, 89.09, 91.55, 0.8099, 0.9489),
    (57, 6, 14, 3): (64.91, 89.47, 92.50, 94.44, 0.7629, 0.9189),
    (123, 7, 30, 9): (69.92, 94.31, 90.53, 92.80, 0.7890, 0.9355),
}


def test_criterion_1_metric_formula_reproduction():
    with criterion(1, "metric formulas reproduce published rows"):
        started = time.perf_counter()
        for counts, expected in TABLE_ROWS.items():
            report = metrics(EvalCounts(*counts))
            pre, par_pre, rec, par_rec, f1, par_f1 = expected
            assert abs(100 * report.pre - pre) < 0.01, counts
            assert abs(100 * report.par_pre - par_pre) < 0.01, counts
            assert abs(100 * report.rec - rec) < 0.01, counts
            assert abs(100 * report.par_rec - par_rec) < 0.01, counts
            assert abs(report.f1 - f1) < 1e-4, counts
            assert abs(report.par_f1 - par_f1) < 1e-4, counts
        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 2. dictionary-generation golden entries


GOLDEN_NAMES = [
    "SOUTHEAST INVESTMENTS, N.C., INC.",
    "J.P. MORGAN ALTERNATIVE LOAN TRUST 2006-A1",
    "SAVINGS BANK OF THE FINGER LAKES FSB",
]

GOLDEN_ROOTS = [
    "SOUTHEAST INVESTMENTS",
    "SOUTHEAST INVESTMENTS, N.C.",
    "J.P. MORGAN ALTERNATIVE LOAN TRUST 2006-A1",
    "J.P. MORGAN ALTERNATIVE LOAN",
    "MORGAN ALTERNATIVE LOAN",
    "OF THE FINGER LAKES FSB",
]

GOLDEN_SUFFIXES = [", N.C.", ",INC.", "TRUST 2006-A1"]


def test_criterion_2_dictionary_golden_entries():
    with criterion(2, "worked dictionary entries generate verbatim"):
        started = time.perf_counter()
        lists = [name_list_from_strings(GOLDEN_NAMES, "golden")]
        roots, suffixes = generate_dictionaries(lists)
        for want in GOLDEN_ROOTS:
            assert name_tokens(want) in roots.entries, want
        for want in GOLDEN_SUFFIXES:
            assert suffixes.covers(name_tokens(want)), want
        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 3. scoring-oracle equivalence


ALPHABET = ("ALPHA", "BRAVO", "CARGO", "DELTA", "EAGLE", "FOXES")

A, B, C, D, E, F = ALPHABET

ORACLE_CORPORA = [
    [(A,)],
    [(A,), (A, B), (A, B, C), (A, B, C, D)],
    [(A, A), (A, B, A, B), (B, A)],
    [(A, B, C), (C, B, A), (B, A, C), (A, C, B)],
    [(A, B), (C, D), (E, F)],
    [(A, F), (B, F), (C, F), (D, F), (E, F)],
    [(A,), (B, C), (C, D, E), (D, E, F, A), (F,), (E, D), (B, A, C), (C, C)],
    [(F, E, D, C), (A, B), (B, B, B), (C,)],
]


def _assert_match_agreement(query_tokens, corpus, threshold):
    query = Query(" ".join(query_tokens), tuple(query_tokens))
    expected = ob_best_match(query_tokens, corpus.tokens, corpus.weight)
    got = best_match(query, corpus, PLAIN)
    if expected is None:
        assert got is None, query_tokens
        return
    assert got is not None, query_tokens
    assert abs(got.score - expected[1]) < 1e-9, (query_tokens, got.score, expected)
    assert got.entry_id == expected[0], (query_tokens, got.entry_id, expected)
    decided = resolve(query, corpus, ErConfig(threshold=threshold, stop_words=frozenset(), abbreviations={}))
    oracle_decided = ob_resolve(query_tokens, corpus.tokens, corpus.weight, threshold)
    assert (decided is None) == (oracle_decided is None), query_tokens


def test_criterion_3_scoring_oracle_equivalence(caplog):
    caplog.set_level(logging.ERROR, logger="finames.er")  # empty queries are expected here
    with criterion(3, "ranked scoring agrees with brute-force oracle"):
        started = time.perf_counter()
        corpora = [build_corpus(name_list_from_strings([" ".join(e) for e in entries], "c"), PLAIN) for entries in ORACLE_CORPORA]
        # every query of length <= 5 over the six-symbol alphabet
        checked = 0
        for length in range(0, 6):
            for query_tokens in product(ALPHABET, repeat=length):
                for corpus in corpora:
                    _assert_match_agreement(query_tokens, corpus, 0.085)
                    checked += 1
        # fully exhaustive corpora sweep at reduced scale: every corpus of at
        # most two entries with entries of length <= 2 over three symbols
        small = ALPHABET[:3]
        small_entries = [tuple(e) for length in (1, 2) for e in product(small, repeat=length)]
        small_corpora = [[entry] for entry in small_entries]
        small_corpora += [list(pair) for pair in combinations(small_entries, 2)]
        for entries in small_corpora:
            names = [" ".join(e) for e in entries]
            corpus = build_corpus(name_list_from_strings(names, "c"), PLAIN)
            for length in range(0, 4):
                for query_tokens in product(small, repeat=length):
                    _assert_match_agreement(query_tokens, corpus, 0.085)
                    checked += 1
        elapsed = time.perf_counter() - started
        assert checked > 70_000
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 4. hand-computed score check


def test_criterion_4_hand_computed_score():
    with criterion(4, "hand-derived component scores"):
        q = ("WELLS", "FARGO", "BANK")
        p = ("WELLS", "FARGO")
        uniform = lambda token: 1.0  # noqa: E731
        assert abs(score_sq(q, p, uniform) - 1.5) < 1e-9
        assert abs(score_sc(q, p) - 1.0) < 1e-9
        assert abs(score_sb(q, p) - 6 / 7) < 1e-9
        config = ErConfig(
            threshold=0.0,
            stop_words=frozenset(),
            abbreviations={},
            weight_overrides={"WELLS": 1.0, "FARGO": 1.0, "BANK": 1.0},
        )
        corpus = build_corpus(name_list_from_strings(["WELLS FARGO"], "c"), config)
        result = resolve("WELLS FARGO BANK", corpus, config)
        assert result is not None
        assert abs(result.score - (1.5 + 6 / 7)) < 1e-9


# ---------------------------------------------------------------------------
# 5. dictionary-matching brute-force equivalence


def test_criterion_5_ner_bruteforce_equivalence():
    with criterion(5, "extraction equals all-spans matcher on random inputs"):
        started = time.perf_counter()
        rng = random.Random(20240917)
        vocabulary = ["ALPHA", "BRAVO", "CARGO", "DELTA", "EAGLE", ",", "TRUST", "2006-A1", "1999-X7"]
        pattern = SuffixPattern(r"TRUST \d{4}-[A-Z0-9]+")
        for trial in range(1000):
            words = [rng.choice(vocabulary) for _ in range(rng.randint(0, 50))]
            text = " ".join(words)
            root_entries = {
                tuple(rng.choices(vocabulary[:5], k=rng.randint(1, 3)))
                for _ in range(rng.randint(1, 12))
            }
            suffix_entries = {
                tuple(rng.choices(vocabulary[:5] + ["TRUST"], k=rng.randint(1, 2)))
                for _ in range(rng.randint(0, 6))
            }
            patterns = (pattern,) if trial % 2 else ()
            doc = document_from_text(f"doc{trial}", text)
            expected = ob_extract_spans(tokenize(doc), root_entries, suffix_entries, patterns)
            starts = doc.token_bounds[0:-1:2]
            ends = doc.token_bounds[1::2]
            expected_spans = [
                (starts[s], ends[root_end - 1], ends[e - 1]) for s, root_end, e in expected
            ]
            got = Extractor(
                RootDictionary(frozenset(root_entries)),
                SuffixDictionary(RootDictionary(suffix_entries), patterns),
            ).extract(doc)
            assert [(m.start, m.root_end, m.end) for m in got] == expected_spans, text
        assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 6. line-break robustness


def _planted_names():
    adjectives = ["GRANITE", "MERIDIAN", "VERDANT", "CRIMSON", "AZURE", "SILVER", "COPPER", "SUMMIT", "PINNACLE", "HALCYON"]
    nouns = ["ATLAS", "BEACON", "CASCADE", "DELTA", "EMBER", "FALCON", "GARNET", "HOLLOW", "IRONWOOD", "JUNIPER"]
    suffixes = ["BANK", "TRUST", "GROUP", "FUND", "CAPITAL"]
    names = []
    for i, (adjective, noun) in enumerate(product(adjectives, nouns)):
        names.append(f"{adjective} {noun} {suffixes[i % len(suffixes)]}")
    return names


def test_criterion_6_line_break_robustness():
    with criterion(6, "newline inside a planted name changes nothing"):
        names = _planted_names()
        assert len(names) == 100
        extractor = Extractor(*generate_dictionaries([name_list_from_strings(names, "planted")]))
        rng = random.Random(11)
        changed = 0
        for i, name in enumerate(names):
            prefix = "this agreement concerns obligations owed to"
            tail = "under certain conditions described elsewhere"
            text = f"{prefix} {name} {tail}"
            doc = document_from_text(f"doc{i}", text)
            baseline = [(m.start, m.end, m.surface) for m in extractor.extract(doc)]
            assert any(m[2] == name for m in baseline), name

            spaces = [k for k, ch in enumerate(name) if ch == " "]
            pick = len(prefix) + 1 + rng.choice(spaces)
            assert text[pick] == " "
            broken_text = text[:pick] + "\n" + text[pick + 1 :]
            broken = document_from_text(f"doc{i}", broken_text)
            after = [(m.start, m.end, m.surface) for m in extractor.extract(broken)]
            if after != baseline:
                changed += 1
        assert changed == 0


# ---------------------------------------------------------------------------
# 7. baseline dominance on the synthetic fixture


def _dominance_fixture():
    rng = random.Random(4242)
    commons = ["BANCORP", "FUNDING", "HOLDING"]
    entries = []
    for i in range(50):
        tokens = [f"ROOT{i:02d}"]
        if i % 5 == 0:
            tokens.append(f"MIDDLE{i % 7}")
        tokens.append(commons[i % len(commons)])
        entries.append(tuple(tokens))
    names = [" ".join(e) for e in entries]

    queries = []
    for i in range(120):
        entry = entries[i % len(entries)]
        noise = [f"NOISE{rng.randint(0, 30)}" for _ in range(rng.randint(0, 2))]
        queries.append((" ".join(list(entry) + noise), " ".join(entry)))
    for j in range(80):
        source = entries[rng.randrange(len(entries))]
        scrambled = list(source)
        scrambled.reverse()
        if scrambled == list(source):
            scrambled = scrambled[1:] + scrambled[:1]
        other = entries[rng.randrange(len(entries))]
        queries.append((" ".join(scrambled + [other[0]]), "-"))
    return names, queries


def _interpolated_precision(points, recall):
    eligible = [p.precision for p in points if p.recall >= recall - 1e-12]
    return max(eligible) if eligible else 0.0


def test_criterion_7_full_score_dominates_idf_baseline():
    with criterion(7, "full score PR curve dominates the IDF baseline"):
        names, queries = _dominance_fixture()
        corpus = build_corpus(name_list_from_strings(names, "fixture"), PLAIN)
        curves = {}
        for variant in ("full", "idf"):
            pairs = []
            for mention, expected in queries:
                best = variant_best_match(variant, mention, corpus, PLAIN)
                if best is None:
                    pairs.append((0.0, False))
                else:
                    entry_id, score = best
                    pairs.append((score, expected != "-" and corpus.name(entry_id) == expected))
            curves[variant] = pr_curve(pairs)
        recalls = sorted(
            {p.recall for p in curves["full"]} | {p.recall for p in curves["idf"]}
        )
        for recall in recalls:
            full_precision = _interpolated_precision(curves["full"], recall)
            idf_precision = _interpolated_precision(curves["idf"], recall)
            assert full_precision >= idf_precision - 1e-12, (recall, full_precision, idf_precision)
        # the dominance must be strict somewhere, otherwise the fixture is vacuous
        assert any(
            _interpolated_precision(curves["full"], r) > _interpolated_precision(curves["idf"], r) + 1e-9
            for r in recalls
        )


# ---------------------------------------------------------------------------
# 8. end-to-end determinism


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "pipeline outputs are byte-identical across runs"):
        names = tmp_path / "names.txt"
        names.write_text(
            "GRANITE HARBOR BANK, N.A.\nMERIDIAN CAPITAL TRUST 2004-B2\nSOUTHEAST INVESTMENTS, N.C., INC.\n",
            encoding="utf-8",
        )
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("GRANITE HARBOR BANK\nMERIDIAN CAPITAL\n", encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text(
            "Issuer: GRANITE HARBOR BANK, N.A.\nSUMMARY\nServicers: MERIDIAN CAPITAL TRUST 2004-B2\n",
            encoding="utf-8",
        )
        gold = tmp_path / "gold.tsv"
        gold.write_text("doc.txt\t8\t33\tGRANITE HARBOR BANK, N.A.\n", encoding="utf-8")

        captured = []
        for run_name in ("first", "second"):
            run_dir = tmp_path / run_name
            run_dir.mkdir()
            assert main(["build-dicts", "--name-lists", str(names), "--output", str(run_dir)]) == 0
            mentions = run_dir / "mentions.tsv"
            assert (
                main(
                    [
                        "extract",
                        "--root-dict",
                        str(run_dir / "root.dict"),
                        "--suffix-dict",
                        str(run_dir / "suffix.dict"),
                        "--output",
                        str(mentions),
                        str(doc),
                    ]
                )
                == 0
            )
            resolved = run_dir / "resolved.tsv"
            assert main(["resolve", "--corpus", str(corpus), "--output", str(resolved), str(mentions)]) == 0
            report = run_dir / "report.tsv"
            assert main(["eval", "--output", str(report), str(mentions), str(gold)]) == 0
            captured.append(
                tuple(
                    (run_dir / item).read_bytes()
                    for item in ("root.dict", "suffix.dict", "mentions.tsv", "resolved.tsv", "report.tsv")
                )
            )
        assert captured[0] == captured[1]
