import logging
import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finames import er
from finames.er import (
    MAX_WEIGHT,
    Corpus,
    ErConfig,
    Query,
    _clean_token,
    best_candidate,
    best_match,
    build_corpus,
    decayed_gains,
    load_abbreviations,
    load_stop_words,
    load_weight_overrides,
    preprocess,
    rank,
    resolve,
    score_cap,
    score_idf,
    score_sb,
    score_sc,
    score_sq,
)
from finames.ingest import name_list_from_strings

from oracles import ob_best_match, ob_clean_token, ob_query_tokens, ob_resolve, ob_sb, ob_sc, ob_score, ob_sq

UNIT = lambda token: 1.0  # noqa: E731

PLAIN = ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={})


def corpus_of(*names, config=PLAIN):
    return build_corpus(name_list_from_strings(names, "corpus"), config)


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_expands_abbreviations():
    config = ErConfig(abbreviations={"WAMU": ("WASHINGTON", "MUTUAL")}, stop_words=frozenset())
    assert preprocess("WaMu Mortgage", config).tokens == ("WASHINGTON", "MUTUAL", "MORTGAGE")


def test_preprocess_stop_words_can_empty_a_query():
    config = ErConfig(stop_words=frozenset({"THE", "LLC"}), abbreviations={})
    assert preprocess("THE LLC", config).tokens == ()


def test_preprocess_strips_punctuation_keeps_residual_letters():
    assert preprocess("Wells Fargo Bank, N.A.", PLAIN).tokens == ("WELLS", "FARGO", "BANK", "NA")


def test_preprocess_keeps_digit_tokens():
    assert preprocess("SERIES 2005-HE3", PLAIN).tokens == ("SERIES", "2005HE3")


def test_query_is_cut_by_the_token_rule():
    # A control character and an unspaced comma separate tokens, as in corpus names.
    corpus = corpus_of("WELLS FARGO BANK", "WELLSFARGO TRUST", config=ErConfig())
    assert preprocess("Wells\x01Fargo Bank", ErConfig()).tokens == ("WELLS", "FARGO", "BANK")
    assert best_match("Wells\x01Fargo Bank", corpus, ErConfig()).entry_name == "WELLS FARGO BANK"
    assert preprocess("BANK,N.A.", PLAIN).tokens == ("BANK", "NA")


# Text the token rule and a whitespace split cut apart: control characters
# that are not whitespace, unspaced commas; besides them a no-break space, a
# line separator, "ß" (it uppercases to two letters), punctuation, stop
# words and abbreviations.
_QUERY_PIECES = st.sampled_from([
    ",", " ", "\x00", "\x01", "\x1b", "\x7f", "\x0b", "\xa0", "\u2028", "-", ".", "&", "ß",
    "the", "Co", "WaMu", "Wells", "Fargo", "Bank", "N.A.", "straße",
]) | st.text(max_size=3)
_QUERY_TEXTS = st.lists(_QUERY_PIECES, max_size=12).map("".join)
_QUERY_WORDS = st.sampled_from(["THE", "CO", "BANK", "NA", "STRASSE", "WASHINGTON", "A"])
_QUERY_CONFIGS = st.builds(
    lambda stop_words, abbreviations: ErConfig(stop_words=stop_words, abbreviations=abbreviations),
    stop_words=st.frozensets(_QUERY_WORDS, max_size=3),
    abbreviations=st.dictionaries(
        st.sampled_from(["WAMU", "WELLS", "NA", "THE"]), st.lists(_QUERY_WORDS, min_size=1, max_size=3).map(tuple),
        max_size=3),
)


@given(text=_QUERY_TEXTS, config=_QUERY_CONFIGS)
@example(text="Wells\x01Fargo BANK,N.A.", config=ErConfig())
@example(text="THE\xa0WaMu\x7fCo", config=ErConfig())
def test_preprocess_equals_token_loop_oracle(text, config):
    assert preprocess(text, config).tokens == ob_query_tokens(text, config.stop_words, config.abbreviations)


@given(text=_QUERY_TEXTS, config=_QUERY_CONFIGS)
def test_a_name_gets_the_same_tokens_in_the_corpus_as_in_a_query(text, config):
    # The appended word keeps the name in the list and its query non-empty.
    text += " Granite"
    names = name_list_from_strings([text], "corpus")
    assert build_corpus(names, config).tokens == (preprocess(text, config).tokens,)


# Punctuation, a combining mark, superscript and fraction digits, a Roman
# numeral and letters from other scripts.
_CLEAN_CHARS = ["-", ".", "&", "'", "\u0301", "²", "½", "Ⅻ", "ß", "é", "ж", "٣", "A", "7"]


@given(st.text(st.sampled_from(_CLEAN_CHARS) | st.characters()))
@example("")
@example("N.A.")
def test_clean_token_equals_character_loop_oracle(token):
    assert _clean_token(token) == ob_clean_token(token)


# ---------------------------------------------------------------------------
# build_corpus


def test_idf_values():
    corpus = corpus_of("WELLS FARGO", "ALPHA BANK", "BETA BANK", "GAMMA BANK")
    assert corpus.idf["WELLS"] == pytest.approx(math.log(4 / 1))
    assert corpus.idf["BANK"] == pytest.approx(math.log(4 / 3))


def test_idf_zero_for_token_in_every_entry():
    corpus = corpus_of("ALPHA BANK", "BETA BANK")
    assert corpus.idf["BANK"] == 0.0


def test_weight_override_replaces_idf():
    config = ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={}, weight_overrides={"STRUCTURED": 0.1})
    corpus = corpus_of("STRUCTURED FINANCE", "STRUCTURED CREDIT", config=config)
    assert corpus.weight("STRUCTURED") == 0.1
    assert corpus.weight("FINANCE") == pytest.approx(math.log(2))


def test_unknown_token_gets_max_rarity():
    corpus = corpus_of("ALPHA BANK", "BETA BANK")
    assert corpus.weight("UNSEEN") == pytest.approx(math.log(2))


def test_empty_entry_kept_with_raw_tokens(caplog):
    config = ErConfig(stop_words=frozenset({"THE", "LLC"}), abbreviations={})
    with caplog.at_level(logging.WARNING):
        corpus = corpus_of("THE LLC", "ALPHA BANK", config=config)
    assert ("LLC",) in corpus.tokens or ("THE", "LLC") in corpus.tokens
    assert any("empty after preprocessing" in r.message for r in caplog.records)


def test_stop_word_only_name_keeps_its_id_and_idf_share_but_no_query_matches_it(caplog):
    # THE CO and A & CO preprocess to nothing under the default stop words;
    # they keep their cleaned raw tokens, which no query holds.
    config = ErConfig()
    with caplog.at_level(logging.WARNING):
        corpus = corpus_of("THE CO", "A & CO", "ALPHA BANK", "BETA BANK", config=config)
    assert [corpus.name(i) for i in range(len(corpus))] == ["A & CO", "ALPHA BANK", "BETA BANK", "THE CO"]
    assert corpus.tokens[0] == ("A", "CO") and corpus.tokens[3] == ("THE", "CO")
    assert corpus.idf["BANK"] == pytest.approx(math.log(4 / 2))
    assert corpus.idf["CO"] == pytest.approx(math.log(4 / 2))
    assert sum("no query can match" in r.message for r in caplog.records) == 2
    assert best_match("The Co", corpus, config) is None
    assert best_match("A & Co", corpus, config) is None


def test_inverted_index_lists_entries_once():
    corpus = corpus_of("ALPHA ALPHA BANK", "ALPHA BANK")
    assert corpus.inverted_index["ALPHA"] == (0, 1)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_corpus(name_list_from_strings([], "corpus"), PLAIN)


# ---------------------------------------------------------------------------
# component scores (hand values computed from the definitions)


def test_sq_hand_value():
    assert score_sq(("WELLS", "FARGO", "BANK"), ("WELLS", "FARGO"), UNIT) == pytest.approx(1.5)


def test_sq_disjoint_is_zero():
    assert score_sq(("A", "B"), ("C", "D"), UNIT) == 0.0


def test_sq_single_token_is_weight():
    assert score_sq(("A",), ("A",), lambda t: 0.7) == pytest.approx(0.7)


def test_sq_order_sensitivity():
    # [A, B] against [A] keeps the full decayed sum; [B, A] only reaches the
    # second position because the leading miss caps the run.
    assert score_sq(("A", "B"), ("A",), UNIT) == pytest.approx(1.0)
    assert score_sq(("B", "A"), ("A",), UNIT) == pytest.approx(0.5)


def test_sc_hand_values():
    assert score_sc(("WELLS", "FARGO", "BANK"), ("WELLS", "FARGO")) == pytest.approx(1.0)
    assert score_sc(("A",), ("B", "C")) == 0.0
    assert score_sc(("A",), ("A", "B")) == pytest.approx((1.0) / 1.5)


def test_sb_hand_values():
    assert score_sb(("WELLS", "FARGO", "BANK"), ("WELLS", "FARGO")) == pytest.approx(6 / 7)
    assert score_sb(("A", "X", "B"), ("A", "B")) == 0.0
    assert score_sb(("A", "B"), ("A", "B")) == pytest.approx(1.0)


def test_components_match_oracle_spot_checks():
    cases = [
        (("WELLS", "FARGO", "BANK"), ("WELLS", "FARGO")),
        (("B", "A"), ("A",)),
        (("X", "Y", "Z"), ("Z",)),
        (("A", "A"), ("A",)),
        # first occurrence counts: X maps to 0, not 2, so the run ends after Y
        (("Y", "X"), ("X", "Y", "X")),
        (("X", "Y", "X"), ("Y", "X")),
        ((), ("A",)),
        (("A",), ()),
    ]
    for weight in (UNIT, lambda token: math.log(3 + len(token))):
        for q, p in cases:
            assert score_sq(q, p, weight) == ob_sq(q, p, weight), (q, p)
            assert score_sc(q, p) == ob_sc(q, p), (q, p)
            assert score_sb(q, p) == ob_sb(q, p), (q, p)
    assert score_sq(("Y", "X"), ("X", "Y", "X"), UNIT) == 1.0


SYMBOLS = ("A", "B", "C", "D")


@settings(max_examples=300)
@given(
    q=st.lists(st.sampled_from(SYMBOLS), max_size=8).map(tuple),
    p=st.lists(st.sampled_from(SYMBOLS), max_size=6).map(tuple),
    bases=st.lists(st.integers(min_value=2, max_value=10**6), min_size=len(SYMBOLS), max_size=len(SYMBOLS)),
)
def test_components_equal_oracles_exactly(q, p, bases):
    # Logarithms of integers are not dyadic, so a different summation order
    # (or compensated against plain addition) shows up in the last bits.
    weight = dict(zip(SYMBOLS, map(math.log, bases))).__getitem__
    assert score_sq(q, p, weight) == ob_sq(q, p, weight)
    assert score_sc(q, p) == ob_sc(q, p)
    assert score_sb(q, p) == ob_sb(q, p)
    assert score_sq(q, p, weight) * score_sc(q, p) + score_sb(q, p) == ob_score(q, p, weight)


CAP_SYMBOLS = ("A", "B", "C", "D", "E", "F", "G", "H")
# Zero, the smallest subnormal, tiny, unit, huge and the largest accepted weight.
CAP_WEIGHTS = st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, MAX_WEIGHT]) | st.floats(0.0, MAX_WEIGHT)


@settings(max_examples=300)
@given(
    q=st.lists(st.sampled_from(CAP_SYMBOLS), min_size=1, max_size=len(CAP_SYMBOLS), unique=True).map(tuple),
    weights=st.lists(CAP_WEIGHTS, min_size=len(CAP_SYMBOLS), max_size=len(CAP_SYMBOLS)),
)
def test_caps_equal_scores_where_the_runs_agree(q, weights):
    # Against a prefix of a query of distinct tokens, the cap's runs are the
    # scores' runs, so the cap must be the score itself, not a bound within
    # best_candidate's 1e-9 margin.
    weight = dict(zip(CAP_SYMBOLS, weights)).__getitem__
    caps = {
        "full": score_cap(q, weight),
        "sqsc": score_cap(q, weight, sb=False),
        "sq": score_cap(q, weight, sc=False, sb=False),
    }
    for k in range(1, len(q) + 1):
        p = q[:k]
        s_q, s_c, s_b = score_sq(q, p, weight), score_sc(q, p), score_sb(q, p)
        assert caps["full"](p) == s_q * s_c + s_b, k
        assert caps["sqsc"](p) == s_q * s_c, k
        assert caps["sq"](p) == s_q, k


# ---------------------------------------------------------------------------
# resolve


def uniform_config(*tokens, threshold=0.0):
    return ErConfig(
        threshold=threshold,
        stop_words=frozenset(),
        abbreviations={},
        weight_overrides={t: 1.0 for t in tokens},
    )


def test_resolve_hand_value():
    config = uniform_config("WELLS", "FARGO", "BANK")
    corpus = corpus_of("WELLS FARGO", config=config)
    result = resolve("WELLS FARGO BANK", corpus, config)
    assert result is not None
    assert result.s_q == pytest.approx(1.5)
    assert result.s_c == pytest.approx(1.0)
    assert result.s_b == pytest.approx(6 / 7)
    assert result.score == pytest.approx(1.5 + 6 / 7)
    assert result.score == pytest.approx(result.s_q * result.s_c + result.s_b, abs=1e-12)


def test_resolve_no_shared_tokens():
    corpus = corpus_of("WELLS FARGO")
    assert resolve("ORANGE GROVE", corpus, PLAIN) is None


def test_resolve_tie_breaks_to_lower_entry_id():
    corpus = corpus_of("SHARED ALPHA", "SHARED BETA", "OTHER NAME")
    result = resolve("SHARED", corpus, PLAIN)
    assert result is not None
    assert result.entry_name == "SHARED ALPHA"
    again = resolve("SHARED", corpus, PLAIN)
    assert (result.entry_id, result.score) == (again.entry_id, again.score)


def test_resolve_threshold_blocks_weak_matches():
    config = ErConfig(threshold=10.0, stop_words=frozenset(), abbreviations={})
    corpus = corpus_of("WELLS FARGO", config=config)
    assert resolve("WELLS FARGO", corpus, config) is None
    assert best_match("WELLS FARGO", corpus, config) is not None


def test_resolve_empty_query_is_no_match(caplog):
    config = ErConfig(stop_words=frozenset({"THE"}), abbreviations={})
    corpus = corpus_of("ALPHA BANK", config=config)
    with caplog.at_level(logging.WARNING):
        assert resolve("THE", corpus, config) is None
    assert any("empty after preprocessing" in r.message for r in caplog.records)


def test_negative_threshold_rejected():
    with pytest.raises(ValueError):
        ErConfig(threshold=-0.1)


def test_negative_weight_override_rejected():
    with pytest.raises(ValueError):
        ErConfig(weight_overrides={"A": -1.0})


def test_replace_validates_like_the_constructor():
    assert ErConfig()._replace(threshold=0.5) == ErConfig(threshold=0.5)
    with pytest.raises(ValueError):
        ErConfig()._replace(threshold=-0.1)
    with pytest.raises(ValueError):
        ErConfig()._replace(weight_overrides={"A": math.nan})


def test_default_mappings_are_read_only_and_shared():
    # A default is one object shared by every config, so no caller may change it.
    config = ErConfig()
    with pytest.raises(TypeError):
        config.abbreviations["BOA"] = ("BANK", "AMERICA")
    with pytest.raises(TypeError):
        config.weight_overrides["BANK"] = 0.0
    with pytest.raises(TypeError):
        er.DEFAULT_ABBREVIATIONS["BOA"] = ("BANK", "AMERICA")
    assert config.abbreviations is ErConfig().abbreviations is er.DEFAULT_ABBREVIATIONS
    assert config == ErConfig(abbreviations=dict(er.DEFAULT_ABBREVIATIONS)) == ErConfig(weight_overrides={})
    assert preprocess("WaMu Bank", config).tokens == ("WASHINGTON", "MUTUAL", "BANK")


@pytest.mark.parametrize("weight", [math.inf, 1e308, MAX_WEIGHT * 2])
def test_weight_override_above_limit_rejected(tmp_path, weight):
    with pytest.raises(ValueError):
        ErConfig(weight_overrides={"A": weight})
    path = tmp_path / "weights.tsv"
    path.write_text(f"A\t{weight!r}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "):
        load_weight_overrides(path)


def test_weight_override_limit_itself_accepted():
    corpus = corpus_of("ALPHA BANK", "BETA BANK", config=ErConfig(weight_overrides={"ALPHA": MAX_WEIGHT}))
    result = best_match("ALPHA BANK", corpus, PLAIN)
    assert result is not None and result.entry_name == "ALPHA BANK"
    assert math.isfinite(result.score)


def test_best_candidate_skips_candidates_that_cannot_win():
    # Fifty entries share BANK; only ALPHA BANK also holds ALPHA. Every other
    # candidate's bound is below ALPHA BANK's score, so none is scored.
    fillers = [a + b + "CO BANK" for a in "BCDFGHJ" for b in "KLMNPRS"][:49]
    corpus = corpus_of("ALPHA BANK", *fillers)
    q = ("ALPHA", "BANK")
    calls = []

    def counting(p_tokens):
        calls.append(p_tokens)
        return score_sq(q, p_tokens, corpus.weight), score_sc(q, p_tokens), score_sb(q, p_tokens)

    got = best_candidate(q, corpus, counting, decayed_gains(q, corpus.weight), score_cap(q, corpus.weight))
    assert len(corpus.candidate_ids(q)) == 50
    assert len(calls) < 50
    assert got[:2] == ob_best_match(q, corpus.tokens, corpus.weight)


def spy_candidate_ids(monkeypatch):
    """The lists ``Corpus.candidate_ids`` returns from now on, one per call."""
    returned = []
    original = Corpus.candidate_ids

    def spy(self, query_tokens):
        returned.append(original(self, query_tokens))
        return returned[-1]

    monkeypatch.setattr(Corpus, "candidate_ids", spy)
    return returned


def test_repeated_query_token_is_read_once_with_every_position(monkeypatch):
    # BANK holds positions 0 and 2: its postings are read once, and its gain
    # covers both, since the s_b block of ZETA BANK takes position 2.
    corpus = corpus_of("ALPHA BANK", "BANK ZETA", "ZETA BANK", "ZETA TRUST")
    returned = spy_candidate_ids(monkeypatch)
    result = best_match("BANK ZETA BANK", corpus, PLAIN)
    q = ("BANK", "ZETA", "BANK")
    assert (result.entry_id, result.score) == ob_best_match(q, corpus.tokens, corpus.weight)
    assert result.entry_name == "BANK ZETA"
    assert len(returned) == 1


def test_walk_stops_before_postings_that_cannot_win(monkeypatch):
    # BANK is in all 201 names, ZETA in one: once ZETA BANK is scored, BANK's
    # gain cannot lift any name not yet seen to its score.
    corpus = corpus_of(*(f"NAME{i:03d} BANK" for i in range(200)), "ZETA BANK")
    returned = spy_candidate_ids(monkeypatch)
    result = best_match("ZETA BANK", corpus, PLAIN)
    assert result.entry_name == "ZETA BANK"
    assert (result.entry_id, result.score) == ob_best_match(("ZETA", "BANK"), corpus.tokens, corpus.weight)
    assert len(returned) == 1 and len(returned[0]) <= 2


def test_tie_at_zero_costs_one_scorer_call(monkeypatch):
    # NUNANE and VETA are in no name, so every candidate holds neither of the
    # query's first two tokens and none lies inside the query: each one's cap
    # is 0, the first scores 0, and no later id can beat it.
    corpus = corpus_of(*(f"NAME{i:03d} BANK" for i in range(200)))
    calls = []
    original = er.best_candidate

    def spy(query_tokens, corpus, scorer, gains, cap):
        def counting(p):
            calls.append(p)
            return scorer(p)

        return original(query_tokens, corpus, counting, gains, cap)

    monkeypatch.setattr(er, "best_candidate", spy)
    result = best_match("NUNANE VETA BANK", corpus, PLAIN)
    assert (result.entry_id, result.score) == (0, 0.0)
    assert (result.entry_id, result.score) == ob_best_match(("NUNANE", "VETA", "BANK"), corpus.tokens, corpus.weight)
    assert len(calls) == 1


def test_winner_is_scored_once(monkeypatch):
    # The factors of the one candidate scored in the tie at zero above are the
    # result's: s_q is not computed a second time for it.
    corpus = corpus_of(*(f"NAME{i:03d} BANK" for i in range(200)))
    calls = []

    def counting(q, p, weight):
        calls.append(p)
        return score_sq(q, p, weight)

    monkeypatch.setattr(er, "score_sq", counting)
    result = best_match("NUNANE VETA BANK", corpus, PLAIN)
    q, p = result.query.tokens, corpus.tokens[0]
    assert (result.entry_id, result.score) == (0, 0.0)
    assert (result.s_q, result.s_c, result.s_b) == (ob_sq(q, p, corpus.weight), ob_sc(q, p), ob_sb(q, p))
    assert len(calls) == 1


def test_idf_sums_each_capped_candidate_once(monkeypatch):
    # For ``idf`` the cap is the score, so a candidate that is capped and then
    # scored is summed once. Every candidate of the tokens read is capped, and
    # the winner is scored.
    corpus = corpus_of(*(f"NAME{i:03d} BANK" for i in range(40)), "NAME007 TRUST BANK", "FIRST TRUST")
    sums = Counter()

    def counting(q, p, weight):
        sums[p] += 1
        return score_idf(q, p, weight)

    monkeypatch.setattr(er, "score_idf", counting)
    entry_id, total, _ = rank(("NAME007", "TRUST", "BANK"), corpus, "idf")
    assert corpus.name(entry_id) == "NAME007 TRUST BANK"
    assert total == corpus.weight("NAME007") + corpus.weight("TRUST") + corpus.weight("BANK")
    assert sums[corpus.tokens[entry_id]] == 1
    assert set(sums.values()) == {1}


# ---------------------------------------------------------------------------
# properties

# Alphabet of six symbols; every symbol is long enough that even a
# single-token corpus name survives the minimum-length rule.
TOKENS = ["ALPHA", "BRAVO", "CARGO", "DELTA", "EAGLE", "FOXES"]

entry_strategy = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4, unique=True).map(tuple)
query_strategy = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=5).map(tuple)


@settings(max_examples=150)
@given(q=query_strategy, p=entry_strategy)
def test_score_bounds(q, p):
    sq = score_sq(q, p, UNIT)
    sc = score_sc(q, p)
    sb = score_sb(q, p)
    assert 0.0 <= sc <= 1.0
    assert 0.0 <= sb <= 1.0
    assert 0.0 <= sq <= sum(0.5**i for i in range(len(q))) + 1e-12
    assert sq * sc + sb >= sb


@settings(max_examples=60)
@given(entries=st.lists(entry_strategy, min_size=1, max_size=6, unique=True))
def test_exact_match_dominance(entries):
    # Entries are generated without repeated tokens; with repeats a shorter
    # entry can outscore the exact one once weights exceed 1.
    names = [" ".join(e) for e in entries]
    corpus = corpus_of(*names)
    for name in names:
        result = best_match(name, corpus, PLAIN)
        assert result is not None
        assert result.entry_name == name.upper()


@settings(max_examples=60)
@given(
    entries=st.lists(entry_strategy, min_size=1, max_size=6, unique=True),
    q=query_strategy,
    threshold=st.floats(min_value=0.0, max_value=3.0),
)
def test_threshold_monotone_and_argmax_independent(entries, q, threshold):
    corpus = corpus_of(*[" ".join(e) for e in entries])
    query = Query(" ".join(q), q)
    unthresholded = best_match(query, corpus, PLAIN)
    low = resolve(query, corpus, ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={}))
    high = resolve(query, corpus, ErConfig(threshold=threshold, stop_words=frozenset(), abbreviations={}))
    if high is not None:
        assert low is not None
        assert (high.entry_id, high.score) == (low.entry_id, low.score)
        assert high.entry_id == unthresholded.entry_id
    if low is None:
        assert high is None


@settings(max_examples=80)
@given(entries=st.lists(entry_strategy, min_size=1, max_size=8), q=query_strategy)
def test_candidate_set_matches_naive_overlap(entries, q):
    corpus = corpus_of(*[" ".join(e) for e in entries])
    naive = sorted(
        i for i, toks in enumerate(corpus.tokens) if set(toks) & set(q)
    )
    assert corpus.candidate_ids(q) == naive


@settings(max_examples=80, deadline=None)
@given(entries=st.lists(entry_strategy, min_size=1, max_size=8), q=query_strategy)
def test_resolve_agrees_with_bruteforce(entries, q):
    corpus = corpus_of(*[" ".join(e) for e in entries])
    query = Query(" ".join(q), q)
    expected = ob_best_match(q, corpus.tokens, corpus.weight)
    got = best_match(query, corpus, PLAIN)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert (got.entry_id, got.score) == expected
    for threshold in (0.0, 0.085, 0.5):
        config = ErConfig(threshold=threshold, stop_words=frozenset(), abbreviations={})
        expected_match = ob_resolve(q, corpus.tokens, corpus.weight, threshold)
        got_match = resolve(query, corpus, config)
        assert (got_match is None) == (expected_match is None)


# ---------------------------------------------------------------------------
# config file loaders


def test_load_stop_words(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nthe\nLLC\nINC,\n", encoding="utf-8")
    assert load_stop_words(path) == frozenset({"THE", "LLC", "INC"})


def test_load_abbreviations(tmp_path):
    path = tmp_path / "abbrev.tsv"
    path.write_text("WaMu\tWashington Mutual\nWF\tWells,Fargo\x01Bank, N.A.\n", encoding="utf-8")
    assert load_abbreviations(path) == {"WAMU": ("WASHINGTON", "MUTUAL"), "WF": ("WELLS", "FARGO", "BANK", "NA")}


def test_load_abbreviations_rejects_malformed(tmp_path):
    path = tmp_path / "abbrev.tsv"
    path.write_text("WAMU Washington Mutual\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_abbreviations(path)


def test_load_weight_overrides(tmp_path):
    path = tmp_path / "weights.tsv"
    path.write_text("Structured\t0.1\n", encoding="utf-8")
    assert load_weight_overrides(path) == {"STRUCTURED": 0.1}


def test_load_weight_overrides_rejects_negative(tmp_path):
    path = tmp_path / "weights.tsv"
    path.write_text("TOKEN\t-2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_weight_overrides(path)
