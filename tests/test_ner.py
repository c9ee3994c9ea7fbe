import random

import pytest

from finames.dict_gen import RootDictionary, SuffixDictionary, SuffixPattern
from finames.ingest import document_from_text, name_list_from_strings
from finames.dict_gen import generate_dictionaries
from finames.ner import (
    CustomizationDictionaries,
    Extractor,
    extract,
    filter_by_role_keyword,
    filter_invalid,
    tokenize,
)
from finames.textutil import name_tokens

from oracles import ob_extract_spans


def doc(text, doc_id="d"):
    return document_from_text(doc_id, text)


def roots_of(*entries):
    return RootDictionary(frozenset(name_tokens(e) for e in entries))


def suffixes_of(*entries, patterns=()):
    return SuffixDictionary(frozenset(name_tokens(e) for e in entries), tuple(patterns))


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_newline_flag():
    stream = tokenize(doc("Wells\nFargo Bank"))
    assert [t.text for t in stream] == ["WELLS", "FARGO", "BANK"]
    assert [t.preceded_by_newline for t in stream] == [False, True, False]


def test_tokenize_empty():
    assert len(tokenize(doc(""))) == 0


def test_tokenize_double_space_offsets():
    stream = tokenize(doc("A  B"))
    assert [(t.text, t.start, t.end) for t in stream] == [("A", 0, 1), ("B", 3, 4)]


def test_tokenize_detaches_commas():
    stream = tokenize(doc("Bank, N.A."))
    assert [(t.text, t.start, t.end) for t in stream] == [
        ("BANK", 0, 4),
        (",", 4, 5),
        ("N.A.", 6, 10),
    ]


def test_tokenize_offsets_strictly_increasing():
    stream = tokenize(doc("One two,three\nfour  ,five"))
    spans = [(t.start, t.end) for t in stream]
    assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))
    assert all(start < end for start, end in spans)


# ---------------------------------------------------------------------------
# root matching and suffix extension, as token ranges


def token_spans(d, roots, suffixes):
    """Each mention of ``Extractor.extract`` as (root range, end, suffix ranges) in token indices."""
    tokens = tokenize(d)
    first = {t.start: i for i, t in enumerate(tokens)}
    after = {t.end: i + 1 for i, t in enumerate(tokens)}
    return [
        (
            (first[m.root_start], after[m.root_end]),
            after[m.end],
            tuple((first[a], after[b]) for a, b in m.suffix_spans),
        )
        for m in Extractor(roots, suffixes).extract(d)
    ]


def root_ranges(d, roots):
    return [root for root, _, _ in token_spans(d, roots, suffixes_of())]


def test_match_roots_multi_token():
    assert root_ranges(doc("WELLS FARGO BANK"), roots_of("WELLS FARGO")) == [(0, 2)]


def test_match_roots_longest_wins():
    assert root_ranges(doc("WELLS FARGO BANK"), roots_of("WELLS", "WELLS FARGO")) == [(0, 2)]


def test_match_roots_empty_stream():
    assert root_ranges(doc(""), roots_of("WELLS")) == []


def test_match_roots_ignores_line_breaks():
    assert root_ranges(doc("WELLS\nFARGO"), roots_of("WELLS FARGO")) == [(0, 2)]


def test_extend_suffix_chains_entries():
    [(root, end, spans)] = token_spans(
        doc("WELLS FARGO BANK, N.A. rest"), roots_of("WELLS FARGO"), suffixes_of("BANK", ", N.A.")
    )
    assert root == (0, 2)
    assert end == 5
    assert len(spans) == 2


def test_extend_suffix_cross_institution():
    # A suffix learned from one institution extends a different root.
    [(root, end, spans)] = token_spans(doc("COUNTRYWIDE MBS"), roots_of("COUNTRYWIDE"), suffixes_of("MBS", "BANK"))
    assert root == (0, 1)
    assert end == 2
    assert spans == ((1, 2),)


def test_extend_suffix_nothing_following():
    [(root, end, spans)] = token_spans(doc("WELLS FARGO"), roots_of("WELLS FARGO"), suffixes_of("BANK"))
    assert root == (0, 2)
    assert end == 2
    assert spans == ()


def test_extend_suffix_pattern_entries():
    pattern = SuffixPattern(r"TRUST \d{4}-[A-Z0-9]+")
    [(root, end, spans)] = token_spans(
        doc("MERIDIAN TRUST 2006-A1"), roots_of("MERIDIAN"), suffixes_of(patterns=[pattern])
    )
    assert root == (0, 1)
    assert end == 3
    assert spans == ((1, 3),)


# ---------------------------------------------------------------------------
# filter_invalid


def test_filter_invalid_drops_surface_match():
    d = doc("MAY BE LIMITED BY BOOK-ENTRY")
    mentions = extract(d, roots_of("MAY BE LIMITED BY BOOK-ENTRY"), suffixes_of())
    invalid = frozenset({name_tokens("MAY BE LIMITED BY BOOK-ENTRY")})
    assert filter_invalid(mentions, invalid) == []


def test_filter_invalid_empty_set_is_identity():
    d = doc("WELLS FARGO BANK")
    mentions = extract(d, roots_of("WELLS FARGO"), suffixes_of("BANK"))
    assert filter_invalid(mentions, frozenset()) == mentions


def test_filter_invalid_all_dropped():
    d = doc("ALPHA ONE and ALPHA ONE")
    mentions = extract(d, roots_of("ALPHA ONE"), suffixes_of())
    assert len(mentions) == 2
    assert filter_invalid(mentions, frozenset({("ALPHA", "ONE")})) == []


def test_extract_applies_invalid_elements():
    custom = CustomizationDictionaries(invalid_elements=frozenset({("ALPHA", "ONE")}))
    d = doc("ALPHA ONE")
    assert extract(d, roots_of("ALPHA ONE"), suffixes_of(), custom) == []


def test_customizations_reject_invalid_overlap():
    with pytest.raises(ValueError):
        CustomizationDictionaries(
            custom_roots=frozenset({("ALPHA",)}),
            invalid_elements=frozenset({("ALPHA",)}),
        )


# ---------------------------------------------------------------------------
# extract


def test_extract_three_planted_names():
    text = "intro GRANITE HARBOR BANK middle words MERIDIAN TRUST tail SOUTHEAST INVESTMENTS, N.C. done"
    d = doc(text)
    roots = roots_of("GRANITE HARBOR", "MERIDIAN", "SOUTHEAST INVESTMENTS")
    suffixes = suffixes_of("BANK", "TRUST", ", N.C.")
    mentions = extract(d, roots, suffixes)
    assert [m.surface for m in mentions] == [
        "GRANITE HARBOR BANK",
        "MERIDIAN TRUST",
        "SOUTHEAST INVESTMENTS, N.C.",
    ]
    for m in mentions:
        assert text[m.start : m.end].replace("\n", " ") == m.surface


def test_extract_survives_line_break_inside_root():
    d = doc("note WELLS\nFARGO BANK end")
    mentions = extract(d, roots_of("WELLS FARGO"), suffixes_of("BANK"))
    assert [m.surface for m in mentions] == ["WELLS FARGO BANK"]


def test_extract_zero_hits():
    assert extract(doc("nothing to see"), roots_of("WELLS"), suffixes_of()) == []


def test_extract_custom_roots_participate():
    custom = CustomizationDictionaries(custom_roots=frozenset({("ZEPHYR",)}))
    mentions = extract(doc("ZEPHYR FUNDING"), roots_of("OTHER"), suffixes_of("FUNDING"), custom)
    assert [m.surface for m in mentions] == ["ZEPHYR FUNDING"]


def test_extract_abutting_root_consumed_by_suffix_extension():
    # The earlier match's suffix extension wins the shared tokens; the later
    # root match is re-attempted after the consumed span.
    d = doc("ALPHA ONE GAMMA TWO")
    roots = roots_of("ALPHA ONE", "GAMMA TWO")
    suffixes = suffixes_of("GAMMA TWO")
    mentions = extract(d, roots, suffixes)
    assert [m.surface for m in mentions] == ["ALPHA ONE GAMMA TWO"]


def test_extract_no_mention_is_subspan_of_another_with_same_start():
    d = doc("ALPHA ONE TWO ALPHA ONE")
    mentions = extract(d, roots_of("ALPHA", "ALPHA ONE", "ONE TWO"), suffixes_of())
    starts = {}
    for m in mentions:
        assert m.start not in starts
        starts[m.start] = m


def test_extract_unresolved_split_name_stays_unmatched():
    # A root split around unrelated text is not stitched back together.
    d = doc("Wells \n abc def xxx \n Fargo Bank")
    mentions = extract(d, roots_of("WELLS FARGO"), suffixes_of("BANK"))
    assert mentions == []


def test_extract_infers_unseen_combination():
    # Roots and suffixes learned from different names combine into a new one.
    lists = [name_list_from_strings(["WELLS FARGO BANK", "COUNTRYWIDE HOME LOANS"], "x")]
    roots, suffixes = generate_dictionaries(lists)
    mentions = extract(doc("COUNTRYWIDE HOME BANK"), roots, suffixes)
    assert "COUNTRYWIDE HOME BANK" in [m.surface for m in mentions]


def test_extract_brute_force_equivalence_randomized():
    rng = random.Random(7)
    alphabet = ["ALPHA", "BETA", "GAMMA", "DELTA", "EPSILON", ","]
    pattern = SuffixPattern(r"TRUST \d{4}-[A-Z0-9]+")
    for _ in range(200):
        words = [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
        text = " ".join(words)
        root_entries = {
            tuple(rng.choices(alphabet[:5], k=rng.randint(1, 3))) for _ in range(rng.randint(1, 8))
        }
        suffix_entries = {
            tuple(rng.choices(alphabet[:5], k=rng.randint(1, 2))) for _ in range(rng.randint(0, 4))
        }
        d = doc(text)
        tokens = tokenize(d)
        expected = ob_extract_spans([t.text for t in tokens], root_entries, suffix_entries, [pattern])
        got = extract(
            d,
            RootDictionary(frozenset(root_entries)),
            SuffixDictionary(frozenset(suffix_entries), (pattern,)),
        )
        starts = [t.start for t in tokens]
        ends = [t.end for t in tokens]
        expected_char_spans = [(starts[s], ends[e - 1]) for s, _, e in expected]
        assert [(m.start, m.end) for m in got] == expected_char_spans


# ---------------------------------------------------------------------------
# filter_by_role_keyword


def test_role_filter_keeps_adjacent():
    d = doc("Servicers: WELLS FARGO BANK")
    mentions = extract(d, roots_of("WELLS FARGO"), suffixes_of("BANK"))
    kept = filter_by_role_keyword(mentions, d)
    assert [m.surface for m in kept] == ["WELLS FARGO BANK"]


def test_role_filter_drops_distant():
    filler = " ".join(["word"] * 12)
    d = doc(f"Issuer {filler} WELLS FARGO BANK")
    mentions = extract(d, roots_of("WELLS FARGO"), suffixes_of("BANK"))
    assert filter_by_role_keyword(mentions, d, window=10) == []


def test_role_filter_window_zero_requires_immediate():
    cases = {
        "Sponsor ALPHA ONE": True,
        "Sponsor x ALPHA ONE": False,
    }
    for text, expected in cases.items():
        d = doc(text)
        mentions = extract(d, roots_of("ALPHA ONE"), suffixes_of())
        kept = filter_by_role_keyword(mentions, d, window=0)
        assert bool(kept) is expected, text


def test_role_filter_distances():
    roots = roots_of("ALPHA ONE")
    for distance, expected in [(0, True), (1, True), (11, False)]:
        filler = " ".join(["pad"] * distance)
        text = f"Trustee {filler} ALPHA ONE".replace("  ", " ")
        d = doc(text)
        mentions = extract(d, roots, suffixes_of())
        kept = filter_by_role_keyword(mentions, d, window=10)
        assert bool(kept) is expected, text


def test_role_filter_empty_keywords_rejected():
    d = doc("Sponsor ALPHA")
    with pytest.raises(ValueError):
        filter_by_role_keyword([], d, keywords=frozenset())


# ---------------------------------------------------------------------------
# span fidelity / sections


def test_mention_spans_lie_within_sections():
    text = "GRANITE HARBOR BANK\nSUMMARY\nGRANITE HARBOR BANK\nTABLE OF CONTENTS\nGRANITE HARBOR BANK"
    d = doc(text)
    mentions = extract(d, roots_of("GRANITE HARBOR"), suffixes_of("BANK"))
    assert [m.section for m in mentions] == ["HEADER", "SUMMARY", "BODY"]


def test_surface_collapses_internal_whitespace():
    d = doc("WELLS\n  FARGO BANK")
    mentions = extract(d, roots_of("WELLS FARGO"), suffixes_of("BANK"))
    assert mentions[0].surface == "WELLS FARGO BANK"
    assert " ".join(d.raw_text[mentions[0].start : mentions[0].end].split()) == mentions[0].surface
