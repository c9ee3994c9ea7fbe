import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from finames.dict_gen import RootDictionary, SuffixDictionary, SuffixPattern
from finames.ingest import document_from_text, name_list_from_strings
from finames.dict_gen import generate_dictionaries
from finames.ner import Extractor, filter_by_role_keyword, tokenize
from finames.textutil import SEPARATORS, TOKEN, name_tokens

from oracles import ob_extract_spans, ob_filter_invalid, ob_tokens


def doc(text, doc_id="d"):
    return document_from_text(doc_id, text)


def roots_of(*entries):
    return RootDictionary(frozenset(name_tokens(e) for e in entries))


def suffixes_of(*entries, patterns=()):
    return SuffixDictionary(frozenset(name_tokens(e) for e in entries), tuple(patterns))


def token_triples(d):
    """(text, start, end) of every token of ``d``, offsets from its boundary table."""
    bounds = d.token_bounds
    return [(text, bounds[2 * k], bounds[2 * k + 1]) for k, text in enumerate(tokenize(d))]


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_line_break_separates():
    stream = tokenize(doc("Wells\nFargo Bank"))
    assert list(stream) == ["WELLS", "FARGO", "BANK"]


def test_tokenize_empty():
    assert len(tokenize(doc(""))) == 0


def test_tokenize_double_space_offsets():
    assert token_triples(doc("A  B")) == [("A", 0, 1), ("B", 3, 4)]


def test_tokenize_detaches_commas():
    assert token_triples(doc("Bank, N.A.")) == [
        ("BANK", 0, 4),
        (",", 4, 5),
        ("N.A.", 6, 10),
    ]


def test_tokenize_offsets_strictly_increasing():
    spans = [(start, end) for _, start, end in token_triples(doc("One two,three\nfour  ,five"))]
    assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))
    assert all(start < end for start, end in spans)


def test_document_tokenized_once():
    d = doc("Wells Fargo Bank, N.A.")
    assert tokenize(d) is tokenize(d)
    assert d.token_bounds is d.token_bounds
    twin = doc("Wells Fargo Bank, N.A.")
    assert twin == d and hash(twin) == hash(d)
    assert tokenize(twin) == tokenize(d)
    assert tokenize(twin) is not tokenize(d)


# Separators and near-separators: ASCII controls, DEL, NEL, no-break space,
# line separator, ideographic space, the byte-order mark and zero-width space
# (neither is whitespace), and letters whose uppercase is longer.
_TRICKY = [",", " ", "\x7f", "\x85", "\xa0", "\u2028", "\u3000", "\ufeff", "\u200b", "ß", "ŉ", "a", "Z"]
_TRICKY += [chr(c) for c in range(32)]


@given(st.text(st.sampled_from(_TRICKY) | st.characters()))
@example("straße, x")
@example("A\x7fb\x85c\xa0d\u2028e\u3000f,,g\x00h\x1fi")
def test_token_rule_equals_character_loop_oracle(text):
    want = ob_tokens(text)
    assert token_triples(doc(text)) == want
    assert list(name_tokens(text)) == [t for t, _, _ in want]


# ASCII text is uppercased whole before it is cut; commas, controls and DEL
# are drawn often.
@given(st.text(st.characters(max_codepoint=127) | st.sampled_from([",", " ", "\x7f", "\x00", "\x1f", "\t", "a"])))
@example(",a,,b\x7fc\x1c\x1dd, ")
def test_ascii_cut_equals_character_loop_oracle(text):
    d = doc(text)
    want = ob_tokens(text)
    assert d.tokens == tuple(t for t, _, _ in want)
    assert d.token_bounds == (*(offset for _, start, end in want for offset in (start, end)), len(text))


def test_separator_class_is_isspace_and_controls_on_every_code_point():
    # The class is spelled out code point by code point; a Python whose
    # Unicode data adds or drops a whitespace character fails here.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    want = "".join(c for c in every if c.isspace() or ord(c) < 32 or ord(c) == 127)
    assert "".join(SEPARATORS.findall(every)) == want
    assert "".join(TOKEN.split(every)[0::2]) == want


# ---------------------------------------------------------------------------
# root matching and suffix extension, as token ranges


def token_spans(d, roots, suffixes):
    """Each mention of ``Extractor.extract`` as (root range, end, suffix ranges) in token indices."""
    tokens = token_triples(d)
    first = {start: i for i, (_, start, _) in enumerate(tokens)}
    after = {end: i + 1 for i, (_, _, end) in enumerate(tokens)}
    return [
        (
            (first[m.start], after[m.root_end]),
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


def test_match_roots_entry_longer_than_the_tokens_left():
    # The slice of "A B C" cut off by the end of the document equals the
    # shorter root "A B"; only "A B" itself may match.
    assert root_ranges(doc("x A B"), roots_of("A B C", "A B")) == [(1, 3)]
    assert root_ranges(doc("x A B"), roots_of("A B C")) == []


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


def test_extend_suffix_entry_longer_than_the_tokens_left():
    [(root, end, spans)] = token_spans(doc("x R S T"), roots_of("R"), suffixes_of("S T U", "S T"))
    assert (root, end, spans) == ((1, 2), 4, ((2, 4),))
    [(root, end, spans)] = token_spans(doc("x R S T"), roots_of("R"), suffixes_of("S T U"))
    assert (root, end, spans) == ((1, 2), 2, ())


def test_extend_suffix_pattern_entries():
    pattern = SuffixPattern(r"TRUST \d{4}-[A-Z0-9]+")
    [(root, end, spans)] = token_spans(
        doc("MERIDIAN TRUST 2006-A1"), roots_of("MERIDIAN"), suffixes_of(patterns=[pattern])
    )
    assert root == (0, 1)
    assert end == 3
    assert spans == ((1, 3),)


# ---------------------------------------------------------------------------
# invalid elements


def test_filter_invalid_drops_surface_match():
    d = doc("MAY BE LIMITED BY BOOK-ENTRY")
    invalid = frozenset({name_tokens("MAY BE LIMITED BY BOOK-ENTRY")})
    assert Extractor(roots_of("MAY BE LIMITED BY BOOK-ENTRY"), suffixes_of(), invalid).extract(d) == []


def test_filter_invalid_empty_set_is_identity():
    d = doc("WELLS FARGO BANK")
    roots, suffixes = roots_of("WELLS FARGO"), suffixes_of("BANK")
    mentions = Extractor(roots, suffixes).extract(d)
    assert [m.surface for m in mentions] == ["WELLS FARGO BANK"]
    assert Extractor(roots, suffixes, frozenset()).extract(d) == mentions


def test_filter_invalid_all_dropped():
    d = doc("ALPHA ONE and ALPHA ONE")
    assert len(Extractor(roots_of("ALPHA ONE"), suffixes_of()).extract(d)) == 2
    assert Extractor(roots_of("ALPHA ONE"), suffixes_of(), frozenset({("ALPHA", "ONE")})).extract(d) == []


def test_extract_applies_invalid_elements():
    # An invalid root drops the whole mention, suffixes included; the scan
    # resumes after it, so the suffix does not start a mention of its own.
    d = doc("ALPHA ONE BANK then BETA BANK")
    roots, suffixes = roots_of("ALPHA ONE", "BETA", "BANK"), suffixes_of("BANK")
    mentions = Extractor(roots, suffixes, frozenset({("ALPHA", "ONE")})).extract(d)
    assert [m.surface for m in mentions] == ["BETA BANK"]


# ---------------------------------------------------------------------------
# extract


def test_extract_three_planted_names():
    text = "intro GRANITE HARBOR BANK middle words MERIDIAN TRUST tail SOUTHEAST INVESTMENTS, N.C. done"
    d = doc(text)
    roots = roots_of("GRANITE HARBOR", "MERIDIAN", "SOUTHEAST INVESTMENTS")
    suffixes = suffixes_of("BANK", "TRUST", ", N.C.")
    mentions = Extractor(roots, suffixes).extract(d)
    assert [m.surface for m in mentions] == [
        "GRANITE HARBOR BANK",
        "MERIDIAN TRUST",
        "SOUTHEAST INVESTMENTS, N.C.",
    ]
    for m in mentions:
        assert text[m.start : m.end].replace("\n", " ") == m.surface


def test_extract_survives_line_break_inside_root():
    d = doc("note WELLS\nFARGO BANK end")
    mentions = Extractor(roots_of("WELLS FARGO"), suffixes_of("BANK")).extract(d)
    assert [m.surface for m in mentions] == ["WELLS FARGO BANK"]


def test_extract_zero_hits():
    assert Extractor(roots_of("WELLS"), suffixes_of()).extract(doc("nothing to see")) == []


def test_extract_custom_roots_participate():
    # A custom root is one more entry of the root dictionary.
    roots = RootDictionary(roots_of("OTHER").entries | {("ZEPHYR",)})
    mentions = Extractor(roots, suffixes_of("FUNDING")).extract(doc("ZEPHYR FUNDING"))
    assert [m.surface for m in mentions] == ["ZEPHYR FUNDING"]


def test_extract_abutting_root_consumed_by_suffix_extension():
    # The earlier match's suffix extension wins the shared tokens; the later
    # root match is re-attempted after the consumed span.
    d = doc("ALPHA ONE GAMMA TWO")
    roots = roots_of("ALPHA ONE", "GAMMA TWO")
    suffixes = suffixes_of("GAMMA TWO")
    mentions = Extractor(roots, suffixes).extract(d)
    assert [m.surface for m in mentions] == ["ALPHA ONE GAMMA TWO"]


def test_extract_no_mention_is_subspan_of_another_with_same_start():
    d = doc("ALPHA ONE TWO ALPHA ONE")
    mentions = Extractor(roots_of("ALPHA", "ALPHA ONE", "ONE TWO"), suffixes_of()).extract(d)
    starts = {}
    for m in mentions:
        assert m.start not in starts
        starts[m.start] = m


def test_extract_unresolved_split_name_stays_unmatched():
    # A root split around unrelated text is not stitched back together.
    d = doc("Wells \n abc def xxx \n Fargo Bank")
    mentions = Extractor(roots_of("WELLS FARGO"), suffixes_of("BANK")).extract(d)
    assert mentions == []


def test_extract_infers_unseen_combination():
    # Roots and suffixes learned from different names combine into a new one.
    lists = [name_list_from_strings(["WELLS FARGO BANK", "COUNTRYWIDE HOME LOANS"], "x")]
    roots, suffixes = generate_dictionaries(lists)
    mentions = Extractor(roots, suffixes).extract(doc("COUNTRYWIDE HOME BANK"))
    assert "COUNTRYWIDE HOME BANK" in [m.surface for m in mentions]


def test_extract_brute_force_equivalence_randomized():
    rng = random.Random(7)
    alphabet = ["ALPHA", "BETA", "GAMMA", "DELTA", "EPSILON", ","]
    pattern = SuffixPattern(r"TRUST \d{4}-[A-Z0-9]+")
    for _ in range(200):
        words = [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
        text = "".join(word + rng.choice([" ", " ", "\n", "  \t"]) for word in words)
        root_entries = {
            tuple(rng.choices(alphabet[:5], k=rng.randint(1, 3))) for _ in range(rng.randint(1, 8))
        }
        suffix_entries = {
            tuple(rng.choices(alphabet[:5], k=rng.randint(1, 2))) for _ in range(rng.randint(0, 4))
        }
        # Invalid elements: whole roots and root+suffix combinations.
        combinations = sorted(root_entries) + [r + s for r in sorted(root_entries) for s in sorted(suffix_entries)]
        invalid = frozenset(rng.sample(combinations, rng.randint(0, min(3, len(combinations)))))
        d = doc(text)
        tokens = token_triples(d)
        spans = ob_extract_spans(tokenize(d), root_entries, suffix_entries, [pattern])
        char_spans = [(tokens[s][1], tokens[r - 1][2], tokens[e - 1][2]) for s, r, e in spans]
        got = Extractor(
            RootDictionary(frozenset(root_entries)),
            SuffixDictionary(frozenset(suffix_entries), (pattern,)),
            invalid,
        ).extract(d)
        assert [(m.start, m.root_end, m.end) for m in got] == ob_filter_invalid(text, char_spans, invalid)


def test_extract_equals_oracle_for_nested_entries_cut_off_at_the_end():
    # Roots and suffixes are prefixes of one chain each, so entries share a
    # first token at several lengths, and the document ends inside a longer
    # one; only an entry that fits in the tokens left may match.
    rng = random.Random(11)
    words = ["ALPHA", "BETA", "GAMMA", ","]
    for _ in range(300):
        root_chain = rng.choices(words[:3], k=rng.randint(1, 6))
        suffix_chain = rng.choices(words, k=rng.randint(1, 4))
        lengths = rng.sample(range(1, len(root_chain) + 1), rng.randint(1, len(root_chain)))
        root_entries = {tuple(root_chain[:k]) for k in lengths}
        suffix_entries = {tuple(suffix_chain[:k]) for k in range(1, len(suffix_chain) + 1) if rng.random() < 0.6}
        tail = root_chain + suffix_chain
        text = " ".join(rng.choices(words, k=rng.randint(0, 12)) + tail[: rng.randint(0, len(tail))])
        d = doc(text)
        tokens = token_triples(d)
        spans = ob_extract_spans(tokenize(d), root_entries, suffix_entries)
        got = Extractor(RootDictionary(frozenset(root_entries)), SuffixDictionary(frozenset(suffix_entries))).extract(d)
        assert [(m.start, m.root_end, m.end) for m in got] == [
            (tokens[s][1], tokens[r - 1][2], tokens[e - 1][2]) for s, r, e in spans
        ]


# Patterns of each kind: literal first tokens (one through ``\d{0}``) and a
# first token that is not literal text.
DISPATCH_PATTERNS = [
    SuffixPattern(r"TRUST \d{4}-[A-Z0-9]+"),
    SuffixPattern(r"SERIES \d{4}-[A-Z0-9]+"),
    SuffixPattern(r"[A-Z0-9]+ TRUST"),
    SuffixPattern(r"SER\d{0}IES [A-Z0-9]+"),
]


def test_extract_equals_oracle_with_patterns_of_every_kind():
    rng = random.Random(13)
    alphabet = ["ALPHA", "BETA", "TRUST", "SERIES", "2006-A1", ","]
    extended = 0
    for _ in range(300):
        words = [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
        text = "".join(word + rng.choice([" ", "\n"]) for word in words)
        root_entries = {tuple(rng.choices(alphabet[:2], k=rng.randint(1, 2))) for _ in range(rng.randint(1, 3))}
        suffix_entries = {tuple(rng.choices(alphabet, k=1)) for _ in range(rng.randint(0, 2))}
        patterns = rng.sample(DISPATCH_PATTERNS, rng.randint(0, len(DISPATCH_PATTERNS)))
        d = doc(text)
        tokens = token_triples(d)
        spans = ob_extract_spans(tokenize(d), root_entries, suffix_entries, patterns)
        got = Extractor(
            RootDictionary(frozenset(root_entries)), SuffixDictionary(frozenset(suffix_entries), patterns)
        ).extract(d)
        assert [(m.start, m.root_end, m.end) for m in got] == [
            (tokens[s][1], tokens[r - 1][2], tokens[e - 1][2]) for s, r, e in spans
        ]
        if not suffix_entries:
            extended += sum(e > r for _, r, e in spans)
    assert extended >= 20  # the patterns do match


def test_literal_head_pattern_is_tried_only_at_its_head(monkeypatch):
    assert [p.head for p in DISPATCH_PATTERNS] == ["TRUST", "SERIES", None, "SERIES"]
    calls = []
    matches = SuffixPattern.matches

    def counted(pattern, tokens):
        calls.append((pattern.pattern_text, tokens[0]))
        return matches(pattern, tokens)

    extractor = Extractor(roots_of("ALPHA", "BETA"), suffixes_of(patterns=DISPATCH_PATTERNS))
    monkeypatch.setattr(SuffixPattern, "matches", counted)
    d = doc("ALPHA TRUST 2006-A1 BETA SERIES ALPHA BETA ALPHA TRUST ALPHA , SERIES 2005-HE3 BETA 2006-A1")
    surfaces = [m.surface for m in extractor.extract(d)]
    assert surfaces == ["ALPHA TRUST 2006-A1", "BETA SERIES ALPHA", "BETA ALPHA TRUST", "ALPHA", "BETA"]
    # Extension steps stand at TRUST, BETA, SERIES, BETA, ALPHA, ALPHA and ","
    # (none at the last token: no two-token pattern fits there). The
    # non-literal pattern is tried at each; a literal-head one only at its
    # head, so never at the SERIES that follows no root.
    anywhere = r"[A-Z0-9]+ TRUST"
    assert Counter(calls) == Counter(
        [(anywhere, token) for token in ("TRUST", "BETA", "SERIES", "BETA", "ALPHA", "ALPHA", ",")]
        + [(r"TRUST \d{4}-[A-Z0-9]+", "TRUST"), (r"SERIES \d{4}-[A-Z0-9]+", "SERIES")]
        + [(r"SER\d{0}IES [A-Z0-9]+", "SERIES")]
    )


# ---------------------------------------------------------------------------
# filter_by_role_keyword


def test_role_filter_keeps_adjacent():
    d = doc("Servicers: WELLS FARGO BANK")
    mentions = Extractor(roots_of("WELLS FARGO"), suffixes_of("BANK")).extract(d)
    kept = filter_by_role_keyword(mentions, d)
    assert [m.surface for m in kept] == ["WELLS FARGO BANK"]


def test_role_filter_drops_distant():
    filler = " ".join(["word"] * 12)
    d = doc(f"Issuer {filler} WELLS FARGO BANK")
    mentions = Extractor(roots_of("WELLS FARGO"), suffixes_of("BANK")).extract(d)
    assert filter_by_role_keyword(mentions, d, window=10) == []


def test_role_filter_window_zero_requires_immediate():
    cases = {
        "Sponsor ALPHA ONE": True,
        "Sponsor x ALPHA ONE": False,
    }
    for text, expected in cases.items():
        d = doc(text)
        mentions = Extractor(roots_of("ALPHA ONE"), suffixes_of()).extract(d)
        kept = filter_by_role_keyword(mentions, d, window=0)
        assert bool(kept) is expected, text


def test_role_filter_distances():
    roots = roots_of("ALPHA ONE")
    for distance, expected in [(0, True), (1, True), (11, False)]:
        filler = " ".join(["pad"] * distance)
        text = f"Trustee {filler} ALPHA ONE".replace("  ", " ")
        d = doc(text)
        mentions = Extractor(roots, suffixes_of()).extract(d)
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
    mentions = Extractor(roots_of("GRANITE HARBOR"), suffixes_of("BANK")).extract(d)
    assert [m.section for m in mentions] == ["HEADER", "SUMMARY", "BODY"]


def test_surface_collapses_internal_whitespace():
    d = doc("WELLS\n  FARGO BANK")
    mentions = Extractor(roots_of("WELLS FARGO"), suffixes_of("BANK")).extract(d)
    assert mentions[0].surface == "WELLS FARGO BANK"
    assert " ".join(d.raw_text[mentions[0].start : mentions[0].end].split()) == mentions[0].surface


def test_surface_turns_control_separators_into_spaces():
    # Control characters that are not whitespace still separate tokens; the
    # surface must not glue the words around them ("WELLSFARGO" to resolve).
    controls = [chr(c) for c in [*range(0x00, 0x09), *range(0x0E, 0x1C), 0x7F]]
    roots, suffixes = roots_of("WELLS FARGO"), suffixes_of("BANK")
    for ch in controls:
        d = doc(f"x Wells{ch}Fargo {ch}\n Bank, y")
        [mention] = Extractor(roots, suffixes).extract(d)
        assert mention.surface == "Wells Fargo Bank", repr(ch)
        assert name_tokens(mention.surface) == ("WELLS", "FARGO", "BANK")
