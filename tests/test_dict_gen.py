import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finames.dict_gen import (
    BUILTIN_SUFFIX_PATTERNS,
    SuffixPattern,
    apply_filters,
    extract_trailing_suffix,
    generate_dictionaries,
    load_root_dictionary,
    load_token_entries,
    load_suffix_dictionary,
    root_variants,
    save_root_dictionary,
    save_suffix_dictionary,
    split_on_commas,
    split_on_special_token,
    trigram_roots,
)
from finames.ingest import NameList, name_list_from_strings, normalize_name
from finames.textutil import name_tokens

from oracles import ob_pattern_matchers, ob_pattern_matches, ob_token_entries

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


@given(
    st.lists(
        st.lists(st.sampled_from(["ALPHA", "ONE", "BETAVALUE", "GC", "N.A.", "INC."]), max_size=3).map(tuple),
        min_size=2,
        max_size=6,
    )
)
@example([("ALPHA", "ONE"), ("BETAVALUE",), ("GC",), ("ALPHA", "GC"), ("ONE",)])
@example([(), ("ALPHA",), (), (), ("GC",), ()])  # leading, doubled and trailing commas
def test_split_on_commas_matches_enumeration(segments):
    # Independent enumeration over the segment structure: the name is the
    # segments joined by commas, and an empty segment leaves two commas
    # adjacent or one at an edge.
    roots, suffixes = split_on_commas(normalize_name(", ".join(" ".join(seg) for seg in segments)))

    expected_roots = set()
    for k in range(1, len(segments)):
        flat = list(segments[0])
        for seg in segments[1:k]:
            flat += [","] + list(seg)
        while flat and flat[0] == ",":
            flat.pop(0)
        while flat and flat[-1] == ",":
            flat.pop()
        if flat:
            expected_roots.add(tuple(flat))
    for seg in segments[1:-1]:
        if len(seg) >= 2 or len(" ".join(seg)) >= 8:
            expected_roots.add(seg)
    expected_suffixes = {(",",) + seg for seg in segments[1:] if seg}

    assert roots == expected_roots  # a short middle segment ("GC") is no root
    assert suffixes == expected_suffixes


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
    assert root_variants(name, ("TRUST", "2006-A1")) == {
        toks("J.P. MORGAN ALTERNATIVE LOAN TRUST 2006-A1"),
        toks("J.P. MORGAN ALTERNATIVE LOAN"),
        toks("MORGAN ALTERNATIVE LOAN TRUST 2006-A1"),
        toks("MORGAN ALTERNATIVE LOAN"),
    }


def test_root_variants_single_token():
    assert root_variants(normalize_name("ACMECO")) == {("ACMECO",)}


def test_root_variants_two_tokens_no_suffix():
    assert root_variants(normalize_name("ALPHA BETA")) == {("ALPHA", "BETA"), ("BETA",)}


def test_root_variants_strip_edge_commas_and_drop_empty_variants():
    # the suffix is the whole name but for its leading comma, so the name
    # without the suffix is only a comma
    assert root_variants(normalize_name(", ALPHA BETA,"), toks("ALPHA BETA,")) == {
        toks("ALPHA BETA"),
    }


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
    assert apply_filters({("STREET",)}) == set()


def test_filters_keep_multi_token_entries():
    entry = toks("WALL STREET FUNDING")
    assert apply_filters({entry}) == {entry}


def test_filters_empty_input():
    assert apply_filters(set()) == set()


def test_filters_drop_stop_only_entries():
    assert apply_filters({("THE", "OF"), ("OF",), (",",)}) == set()


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
    filtered = apply_filters(entries)
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


@pytest.mark.parametrize(
    "text, head",
    [
        (r"TRUST \d{4}-[A-Z0-9]+", "TRUST"),
        (r"T\d{0}RUST\d{0} X", "TRUST"),
        ("[", "["),
        (r"\d{٤}", r"\d{٤}"),
        (r"[A-Z0-9]+ TRUST", None),
        (r"TRUST[A-Z0-9]+", None),
        (r"\d{4}", None),
    ],
)
def test_pattern_head_is_the_literal_text_of_its_first_token(text, head):
    assert SuffixPattern(text).head == head
    if head is not None:  # the first token alone matches the head and nothing else
        first = SuffixPattern(text.split()[0])
        assert first.matches((head,)) and not first.matches((head + "X",)) and not first.matches((head[1:],))


def test_pattern_tokens_that_need_a_character_stay_valid():
    # Only a token that can match nothing but "" is rejected (test_cli covers
    # \d{0} alone); any other element needs a character.
    assert SuffixPattern(r"TRUST \d{0}-[A-Z0-9]+", ("TRUST -A1",)).matches(("TRUST", "-A1"))
    assert SuffixPattern("[").matches(("[",))


def test_pattern_count_in_non_ascii_digits_is_literal_text():
    # A count is ASCII digits; "\d{٤}" is five literal characters, not \d
    # followed by the literal text "{٤}".
    pattern = SuffixPattern(r"\d{٤}")
    assert not pattern.matches(("1{٤}",))
    assert pattern.matches((r"\d{٤}",))


def test_pattern_counts_of_thousands_of_digits_are_read_by_value():
    # int() refuses strings of more than 4300 digits; re cannot parse such
    # counts either, so the parity test below stops short of them.
    with pytest.raises(ValueError, match=r"'\\\\d\{9{5000}\}': count 9{5000} in token .* is above 4294967294"):
        SuffixPattern(r"\d{" + "9" * 5000 + "}")
    pattern = SuffixPattern(r"\d{" + "0" * 5000 + "1}")
    assert pattern.matches(("7",))
    assert not pattern.matches(("77",))
    assert SuffixPattern(r"\d{" + "0" * 5000 + "4294967294}").token_count == 1


def test_repeated_alphanumeric_runs_match_a_long_token():
    # Backtracking takes seconds on the failing token; the exact answers are
    # what is checked here.
    pattern = SuffixPattern("[A-Z0-9]+" * 6)
    assert not pattern.matches(("A" * 80 + "!",))
    assert pattern.matches(("A" * 80,))
    assert not pattern.matches(("A" * 5,))


@pytest.mark.parametrize(
    "text, valid",
    [(r"\d{4294967294}", True), (r"\d{4294967295}", False), (r"\d{99999999999}", False), (r"\d{0}", False),
     (r"TRUST \d{0}\d{00}", False), (r"A\d{0}", True), ("[", True), ("", False), (" ", False), (r"\d{٤}", True)],
)
def test_pattern_texts_accepted_as_by_the_re_translation(text, valid):
    assert (ob_pattern_matchers(text) is not None) is valid
    if valid:
        SuffixPattern(text)
    else:
        with pytest.raises(ValueError):
            SuffixPattern(text)


def test_pattern_matches_as_the_re_translation_on_every_short_token():
    # Every pattern token of up to three elements against every token of up
    # to five characters over a few. Here an element often starts from
    # offsets that lie apart, which random text seldom reaches.
    elements = ["[A-Z0-9]+", "9", "-", r"\d{1}", r"\d{2}"]
    texts = ["".join(p) for n in (1, 2, 3) for p in itertools.product(elements, repeat=n)]
    tokens = [("".join(p),) for n in range(6) for p in itertools.product("A90-", repeat=n)]
    for text in texts:
        pattern, matchers = SuffixPattern(text), ob_pattern_matchers(text)
        assert [pattern.matches(t) for t in tokens] == [ob_pattern_matches(matchers, t) for t in tokens], text


# Pieces of pattern text, each with a strategy for text that it (mostly) matches.
_PATTERN_PIECES = [
    ("[A-Z0-9]+", st.text("AZ09a-", min_size=1, max_size=3)),
    (r"\d{0}", st.just("")),
    (r"\d{1}", st.sampled_from(["0", "7", "٤", "a"])),
    (r"\d{02}", st.text("09٤", min_size=2, max_size=2)),
    (r"\d{٤}", st.just(r"\d{٤}")),
    (r"\d{", st.just(r"\d{")),
    *((ch, st.just(ch)) for ch in "A9-[]+{}\\d٤"),
]


@st.composite
def pattern_and_tokens(draw):
    """A pattern text and tokens: its pieces' sample texts, or random text."""
    pieces = st.lists(st.sampled_from(_PATTERN_PIECES), min_size=1, max_size=4)
    token_pieces = draw(st.lists(pieces, max_size=3))
    text = " ".join("".join(piece for piece, _ in token) for token in token_pieces)
    tokens = tuple("".join(draw(sample) for _, sample in token) for token in token_pieces)
    # Random text over a few characters hits the cases where offsets the
    # elements can end at lie apart.
    noise = st.lists(st.text("A90٤-", max_size=7), min_size=len(tokens), max_size=len(tokens)).map(tuple)
    other = st.lists(st.text("AZ09a-[]+{}\\d٤", max_size=6), max_size=3).map(tuple)
    return text, draw(st.one_of(st.just(tokens), noise, noise, other))


@settings(max_examples=500)
@given(case=pattern_and_tokens())
@example(case=(r"A\d{0}", ("A",)))
@example(case=("[", ("[",)))
@example(case=(r"[A-Z0-9]+\d{2}", ("A123",)))
@example(case=(r"[A-Z0-9]+9\d{02}", ("A9299",)))
def test_pattern_matches_as_the_re_translation(case):
    text, tokens = case
    matchers = ob_pattern_matchers(text)
    try:
        pattern = SuffixPattern(text)
    except ValueError:
        assert matchers is None
        return
    assert matchers is not None
    assert pattern.matches(tokens) is ob_pattern_matches(matchers, tokens)


def test_pattern_replace_compiles_and_checks_the_new_fields():
    pattern = SuffixPattern(r"TRUST \d{4}")._replace(pattern_text=r"SERIES \d{2}-[A-Z0-9]+")
    assert pattern == SuffixPattern(r"SERIES \d{2}-[A-Z0-9]+")
    assert pattern.matches(("SERIES", "05-HE3")) and not pattern.matches(("TRUST", "2005"))
    with pytest.raises(ValueError):
        pattern._replace(positive_examples=("TRUST 2005",))
    with pytest.raises(ValueError):
        pattern._replace(pattern_text=" ")


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


# Name words with commas, stop tokens, type keywords, address and location
# terms, a "#"-led token and trailing "/" garbage.
_NAME_WORDS = [
    "GRANITE", "HARBOR", "MERIDIAN", "CAPITAL", ",", "OF", "THE", "BANK", "TRUST", "2006-A1", "N.A.",
    "STREET", "BOSTON", "#4", "/BD", "/ ADV",
]


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(st.lists(st.sampled_from(_NAME_WORDS), min_size=1, max_size=7).map(" ".join), max_size=8),
    data=st.data(),
)
def test_generate_ignores_name_order_split_and_duplication(names, data):
    repeats = data.draw(st.lists(st.sampled_from(names), max_size=4)) if names else []
    shuffled = data.draw(st.permutations(names + repeats))
    cut = data.draw(st.integers(0, len(shuffled)))
    lists = [NameList("a", tuple(map(normalize_name, shuffled[:cut]))),
             NameList("b", tuple(map(normalize_name, shuffled[cut:])))]
    assert generate_dictionaries(lists) == generate_dictionaries([name_list_from_strings(names, "x")])


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


# Lines mixing separators (ASCII controls, DEL, NEL, no-break space, line
# separator), commas, comment and pattern marks, a byte-order mark inside a
# line, and letters whose uppercase differs or is longer.
_LINE_CHARS = st.sampled_from(
    [",", " ", "#", "re:", "RE:", "\t", "\x7f", "\x85", "\xa0", "\u2028", "\ufeff", "ß", "ﬁ", "a", "Z"]
)
# A lone surrogate cannot be written as UTF-8, so characters are drawn from
# those that can.
_LINE_CHARS |= st.sampled_from([chr(c) for c in range(32)]) | st.characters(codec="utf-8")


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(st.lists(_LINE_CHARS, max_size=8).map("".join), max_size=6),
    break_=st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\u2028"]),
    upper=st.booleans(),
    bom=st.booleans(),
)
@example(
    lines=["WELLS FARGO BANK, N.A.", "", "  # COMMENT", "#1 X", ", #2", "A\tB"], break_="\n", upper=False, bom=True
)
@example(lines=["STRASSE", "straße", "ﬁrst"], break_="\n", upper=True, bom=False)
@example(lines=["A\x00B", "C\x1fD"], break_="\n", upper=True, bom=False)
@example(lines=["ALPHA", "re:BANK"], break_="\r\n", upper=False, bom=False)
def test_token_entries_equal_the_per_line_oracle(tmp_path, lines, break_, upper, bom):
    # Uppercase files without non-space controls take the str.split path; every
    # other file is tokenized line by line, and a re: line names path:line.
    text = break_.join(lines)
    text = ("\ufeff" if bom else "") + (text.upper() if upper else text)
    path = tmp_path / "entries.dict"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = ob_token_entries(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_token_entries(path)
        assert str(got.value) == str(exc)
    else:
        assert load_token_entries(path) == want


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
