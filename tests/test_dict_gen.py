import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finames.dict_gen import (
    BUILTIN_SUFFIX_PATTERNS,
    FilterSet,
    SuffixPattern,
    apply_filters,
    extract_trailing_suffix,
    generate_dictionaries,
    load_root_dictionary,
    load_suffix_dictionary,
    root_variants,
    save_root_dictionary,
    save_suffix_dictionary,
    split_on_commas,
    split_on_special_token,
    trigram_roots,
)
from finames.ingest import name_list_from_strings, normalize_name
from finames.textutil import name_tokens

GOLDEN_NAMES = [
    "SOUTHEAST INVESTMENTS, N.C., INC.",
    "J.P. MORGAN ALTERNATIVE LOAN TRUST 2006-A1",
    "SAVINGS BANK OF THE FINGER LAKES FSB",
]


def toks(text):
    return name_tokens(text)


# ---------------------------------------------------------------------------
# split_on_commas


def test_split_on_commas_worked_example():
    roots, suffixes = split_on_commas(normalize_name("SOUTHEAST INVESTMENTS, N.C., INC."))
    assert toks("SOUTHEAST INVESTMENTS") in roots
    assert toks("SOUTHEAST INVESTMENTS, N.C.") in roots
    assert toks(", N.C.") in suffixes
    assert toks(",INC.") in suffixes


def test_split_on_commas_two_segments():
    roots, suffixes = split_on_commas(normalize_name("ACME CAPITAL, LLC"))
    assert toks("ACME CAPITAL") in roots
    assert toks(",LLC") in suffixes


def test_split_on_commas_requires_comma():
    with pytest.raises(ValueError):
        split_on_commas(normalize_name("NO COMMA HERE"))


def test_split_on_commas_matches_enumeration():
    # Independent enumeration over the segment structure.
    segments = [("ALPHA", "ONE"), ("BETAVALUE",), ("GC",), ("DELTA", "TWO"), ("END",)]
    text = ", ".join(" ".join(seg) for seg in segments)
    roots, suffixes = split_on_commas(normalize_name(text))

    expected_roots = set()
    for k in range(1, len(segments)):
        flat = []
        for i, seg in enumerate(segments[:k]):
            if i:
                flat.append(",")
            flat.extend(seg)
        expected_roots.add(tuple(flat))
    for seg in segments[1:-1]:
        if len(seg) >= 2 or len(" ".join(seg)) >= 8:
            expected_roots.add(tuple(seg))
    expected_suffixes = {(",",) + tuple(seg) for seg in segments[1:]}

    assert set(roots) == expected_roots  # "GC" is short and excluded
    assert set(suffixes) == expected_suffixes


# ---------------------------------------------------------------------------
# extract_trailing_suffix


def test_trailing_suffix_simple():
    assert extract_trailing_suffix(normalize_name("WELLS FARGO BANK")) == ("BANK",)


def test_trailing_suffix_blocked_by_of():
    assert extract_trailing_suffix(normalize_name("BANK OF AMERICA")) is None


def test_trailing_suffix_digit_heavy_takes_two():
    name = normalize_name("ALTERNATIVE LOAN TRUST 2006-A1")
    assert extract_trailing_suffix(name) == ("TRUST", "2006-A1")


def test_trailing_suffix_short_last_token_takes_two():
    assert extract_trailing_suffix(normalize_name("GRANITE HARBOR MBS")) == ("HARBOR", "MBS")


def test_trailing_suffix_rejects_commas():
    with pytest.raises(ValueError):
        extract_trailing_suffix(normalize_name("ACME, LLC"))


# ---------------------------------------------------------------------------
# root_variants


def test_root_variants_worked_example():
    name = normalize_name("J.P. MORGAN ALTERNATIVE LOAN TRUST 2006-A1")
    variants = set(root_variants(name, ("TRUST", "2006-A1")))
    assert toks("J.P. MORGAN ALTERNATIVE LOAN TRUST 2006-A1") in variants
    assert toks("J.P. MORGAN ALTERNATIVE LOAN") in variants
    assert toks("MORGAN ALTERNATIVE LOAN") in variants


def test_root_variants_single_token():
    assert root_variants(normalize_name("ACMECO")) == [("ACMECO",)]


def test_root_variants_two_tokens_no_suffix():
    variants = root_variants(normalize_name("ALPHA BETA"))
    assert set(variants) == {("ALPHA", "BETA"), ("BETA",)}


# ---------------------------------------------------------------------------
# split_on_special_token


def test_special_token_of_exception():
    result = split_on_special_token(normalize_name("SAVINGS BANK OF THE FINGER LAKES FSB"))
    assert result == (toks("OF THE FINGER LAKES FSB"), None)


def test_special_token_plain_split():
    result = split_on_special_token(normalize_name("WELLS FARGO BANK"))
    assert result == (toks("WELLS FARGO"), toks("BANK"))


def test_special_token_absent():
    assert split_on_special_token(normalize_name("ACME HOLDINGS")) is None


# ---------------------------------------------------------------------------
# trigram_roots


def test_trigrams_six_tokens():
    name = normalize_name("ONE TWO THREE FOUR FIVE SIX")
    assert len(trigram_roots(name)) == 4


def test_trigrams_exclude_stop_windows():
    name = normalize_name("MORTGAGE TRUST OF NEW YORK CITY")
    windows = trigram_roots(name)
    assert windows == {toks("NEW YORK CITY")}


def test_trigrams_short_name_empty():
    assert trigram_roots(normalize_name("ONE TWO THREE FOUR")) == set()


# ---------------------------------------------------------------------------
# apply_filters


def test_filters_drop_single_address_term():
    assert apply_filters({("STREET",)}, FilterSet()) == set()


def test_filters_keep_multi_token_entries():
    entry = toks("WALL STREET FUNDING")
    assert apply_filters({entry}, FilterSet()) == {entry}


def test_filters_empty_input():
    assert apply_filters(set(), FilterSet()) == set()


def test_filters_drop_stop_only_entries():
    assert apply_filters({("THE", "OF"), ("OF",), (",",)}, FilterSet()) == set()


@given(
    st.sets(
        st.tuples(st.sampled_from(["STREET", "THE", "GRANITE", "HARBOR", "CITY"])).map(tuple)
        | st.tuples(
            st.sampled_from(["STREET", "THE", "GRANITE", "HARBOR"]),
            st.sampled_from(["STREET", "THE", "GRANITE", "HARBOR"]),
        ),
        max_size=8,
    )
)
def test_filters_output_is_subset(entries):
    filtered = apply_filters(entries, FilterSet())
    assert filtered <= {tuple(e) for e in entries}


# ---------------------------------------------------------------------------
# SuffixPattern


def test_builtin_patterns_match_their_examples():
    for pattern in BUILTIN_SUFFIX_PATTERNS:
        for example in pattern.positive_examples:
            assert pattern.matches(name_tokens(example))


def test_pattern_rejects_bad_example():
    with pytest.raises(ValueError):
        SuffixPattern(r"TRUST \d{4}-[A-Z0-9]+", ("TRUST 20X6-1",))


def test_pattern_matching_shapes():
    pattern = SuffixPattern(r"SERIES \d{4}-[A-Z0-9]+")
    assert pattern.matches(("SERIES", "2005-HE3"))
    assert not pattern.matches(("SERIES", "205-HE3"))
    assert not pattern.matches(("SERIES", "2005-HE3", "EXTRA"))
    assert not pattern.matches(("TRUST", "2005-HE3"))


# ---------------------------------------------------------------------------
# generate_dictionaries


def test_generate_includes_every_worked_entry():
    lists = [name_list_from_strings(GOLDEN_NAMES, "golden")]
    roots, suffixes = generate_dictionaries(lists)
    for want in [
        "SOUTHEAST INVESTMENTS",
        "SOUTHEAST INVESTMENTS, N.C.",
        "J.P. MORGAN ALTERNATIVE LOAN TRUST 2006-A1",
        "J.P. MORGAN ALTERNATIVE LOAN",
        "MORGAN ALTERNATIVE LOAN",
        "OF THE FINGER LAKES FSB",
    ]:
        assert toks(want) in roots.entries, want
    for want in [", N.C.", ",INC.", "TRUST 2006-A1"]:
        assert suffixes.covers(toks(want)), want


def test_generate_empty_input():
    roots, suffixes = generate_dictionaries([name_list_from_strings([], "empty")])
    assert len(roots.entries) == 0
    assert suffixes.literal_entries == frozenset()
    assert suffixes.pattern_entries == BUILTIN_SUFFIX_PATTERNS


def test_generate_duplicate_lists_are_idempotent():
    one = [name_list_from_strings(GOLDEN_NAMES, "a")]
    two = one + [name_list_from_strings(GOLDEN_NAMES, "b")]
    assert generate_dictionaries(one) == generate_dictionaries(two)


def test_generate_applies_trailing_garbage_rule():
    lists = [name_list_from_strings(["GRANITE HARBOR GROUP /BD"], "noisy")]
    roots, _ = generate_dictionaries(lists)
    assert toks("GRANITE HARBOR GROUP") in roots.entries
    assert all("/BD" not in " ".join(entry) for entry in roots.entries)


def test_generate_monotone_under_added_names():
    base = ["GRANITE HARBOR BANK", "MERIDIAN CAPITAL TRUST 2004-B2"]
    roots_a, suffixes_a = generate_dictionaries([name_list_from_strings(base, "x")])
    roots_b, suffixes_b = generate_dictionaries(
        [name_list_from_strings(base + ["SOUTHEAST INVESTMENTS, N.C., INC."], "x")]
    )
    assert roots_a.entries <= roots_b.entries
    assert suffixes_a.literal_entries <= suffixes_b.literal_entries


def test_serialization_round_trip_and_determinism(tmp_path):
    lists = [name_list_from_strings(GOLDEN_NAMES, "golden")]
    roots, suffixes = generate_dictionaries(lists)
    root_path_a, root_path_b = tmp_path / "ra.dict", tmp_path / "rb.dict"
    suffix_path_a, suffix_path_b = tmp_path / "sa.dict", tmp_path / "sb.dict"
    save_root_dictionary(roots, root_path_a)
    save_suffix_dictionary(suffixes, suffix_path_a)
    roots2, suffixes2 = generate_dictionaries([name_list_from_strings(list(reversed(GOLDEN_NAMES)), "golden")])
    save_root_dictionary(roots2, root_path_b)
    save_suffix_dictionary(suffixes2, suffix_path_b)
    assert root_path_a.read_bytes() == root_path_b.read_bytes()
    assert suffix_path_a.read_bytes() == suffix_path_b.read_bytes()
    assert load_root_dictionary(root_path_a) == roots
    loaded = load_suffix_dictionary(suffix_path_a)
    assert loaded.literal_entries == suffixes.literal_entries
    assert [p.pattern_text for p in loaded.pattern_entries] == [p.pattern_text for p in suffixes.pattern_entries]


def test_hash_led_entries_dropped_so_round_trip_is_exact(tmp_path):
    # A saved entry whose first token starts with "#" would read back as a comment.
    names = ["FIRST #1 BANK", "ALPHA #7 TRUST COMPANY", "#9 GRANITE CAPITAL, N.A.", "BETA, #4 FUNDING"]
    roots, suffixes = generate_dictionaries([name_list_from_strings(names, "x")], patterns=())
    assert not any(entry[0].startswith("#") for entry in roots.entries | suffixes.literal_entries)
    assert ("FIRST", "#1") in roots.entries
    save_root_dictionary(roots, tmp_path / "root.dict")
    save_suffix_dictionary(suffixes, tmp_path / "suffix.dict")
    assert load_root_dictionary(tmp_path / "root.dict") == roots
    assert load_suffix_dictionary(tmp_path / "suffix.dict") == suffixes


def test_pattern_coverage_not_duplicated_as_literal():
    # Any literal a pattern already covers stays out of the literal set, so the
    # two entry kinds cover disjoint strings.
    lists = [name_list_from_strings(GOLDEN_NAMES + ["MERIDIAN CAPITAL TRUST 2004-B2"], "x")]
    _, suffixes = generate_dictionaries(lists)
    for entry in suffixes.literal_entries:
        assert not any(p.matches(entry) for p in suffixes.pattern_entries)


@settings(max_examples=25)
@given(
    st.lists(
        st.lists(st.sampled_from(["GRANITE", "HARBOR", "MERIDIAN", "CAPITAL", "BANK", "TRUST"]), min_size=2, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_generate_monotone_property(token_lists):
    names = [" ".join(ts) for ts in token_lists]
    for k in range(len(names)):
        smaller, _ = generate_dictionaries([name_list_from_strings(names[:k], "x")])
        bigger, _ = generate_dictionaries([name_list_from_strings(names, "x")])
        assert smaller.entries <= bigger.entries
