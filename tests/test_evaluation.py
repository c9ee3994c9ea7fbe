import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sys

from finames.er import (
    MAX_WEIGHT,
    SCORE_VARIANTS,
    ErConfig,
    best_match,
    build_corpus,
    decayed_gains,
    preprocess,
    rank,
    score_cap,
)
from finames.evaluation import (
    CORRECT,
    PAR,
    WRO,
    EvalCounts,
    GoldMention,
    LabeledMention,
    count,
    format_metric,
    label_mentions,
    metrics,
    pr_curve,
    pseudo_recall,
    render_report,
    variant_best_match,
)
from finames.ingest import name_list_from_strings

from oracles import ob_best_match, ob_count, ob_label_mentions, ob_variant_score

PLAIN = ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={})


def make_counts_fixture(all_count, wro, par, mis):
    """Synthetic labeled/gold spans that tally to the requested counts."""
    labeled = []
    gold = []
    correct = all_count - wro - par
    pos = 0
    for _ in range(correct):
        labeled.append(LabeledMention("d", pos, pos + 10, CORRECT))
        gold.append(GoldMention("d", pos, pos + 10))
        pos += 100
    for _ in range(par):
        labeled.append(LabeledMention("d", pos + 5, pos + 15, PAR))
        gold.append(GoldMention("d", pos, pos + 10))
        pos += 100
    for _ in range(wro):
        labeled.append(LabeledMention("d", pos, pos + 10, WRO))
        pos += 100
    for _ in range(mis):
        gold.append(GoldMention("d", pos, pos + 10))
        pos += 100
    return labeled, gold


# ---------------------------------------------------------------------------
# count


def test_count_reproduces_headline_fixture():
    labeled, gold = make_counts_fixture(410, 0, 24, 16)
    assert count(labeled, gold) == EvalCounts(410, 0, 24, 16)


def test_count_empty():
    assert count([], []) == EvalCounts(0, 0, 0, 0)


def test_count_one_hit_one_miss():
    labeled = [LabeledMention("d", 0, 10, CORRECT)]
    gold = [GoldMention("d", 0, 10), GoldMention("d", 100, 110)]
    assert count(labeled, gold) == EvalCounts(1, 0, 0, 1)


def test_count_rejects_overlapping_gold():
    gold = [GoldMention("d", 0, 10), GoldMention("d", 5, 15)]
    with pytest.raises(ValueError):
        count([], gold)


def test_label_mentions_classifies():
    gold = [GoldMention("d", 0, 10), GoldMention("d", 100, 110)]
    labeled = label_mentions([("d", 0, 10), ("d", 105, 120), ("d", 300, 310)], gold)
    assert labeled == [LabeledMention("d", 0, 10, CORRECT), LabeledMention("d", 105, 120, PAR),
                       LabeledMention("d", 300, 310, WRO)]


# ---------------------------------------------------------------------------
# metrics


def approx_pct(value, pct):
    assert value is not None
    assert abs(100 * value - pct) < 0.01


DOCS = ("d0", "d1", "d2")


@st.composite
def gold_and_mentions(draw):
    gold = []
    for doc in DOCS:
        # sorted distinct cut points, paired up: disjoint spans per document
        cuts = sorted(draw(st.lists(st.integers(0, 30), max_size=8, unique=True)))
        gold += [GoldMention(doc, a, b) for a, b in zip(cuts[::2], cuts[1::2])]
    gold = draw(st.permutations(gold))
    # "d3" has no gold; long spans overlap several gold spans
    anywhere = st.builds(
        lambda doc, start, length: (doc, start, start + length),
        st.sampled_from(DOCS + ("d3",)), st.integers(0, 30), st.integers(1, 30),
    )
    picks = [anywhere]
    if gold:
        one = st.sampled_from(gold)
        exact = one.map(lambda g: (g.doc_id, g.start, g.end))
        # from one gold span to past another: overlaps both when they share a document
        bridge = st.builds(lambda a, b: (a.doc_id, min(a.start, b.start), max(a.end, b.end) + 1), one, one)
        picks += [exact, bridge]
    mentions = draw(st.lists(st.one_of(*picks), max_size=20))
    mentions += draw(st.lists(st.sampled_from(mentions), max_size=3)) if mentions else []
    return gold, mentions


@settings(max_examples=200)
@given(case=gold_and_mentions())
def test_labelling_and_counts_match_all_pairs_oracle(case):
    gold, mentions = case
    labeled = label_mentions(mentions, gold)
    assert labeled == [LabeledMention(*row) for row in ob_label_mentions(mentions, gold)]
    assert count(labeled, gold) == EvalCounts(*ob_count(labeled, gold))


def test_metrics_dict_based_both_row():
    report = metrics(EvalCounts(410, 0, 24, 16))
    approx_pct(report.pre, 94.15)
    approx_pct(report.par_pre, 100.0)
    approx_pct(report.rec, 96.02)
    approx_pct(report.par_rec, 96.24)
    assert abs(report.f1 - 0.9508) < 1e-4
    assert abs(report.par_f1 - 0.9808) < 1e-4


def test_metrics_unseen_both_row():
    report = metrics(EvalCounts(123, 7, 30, 9))
    approx_pct(report.pre, 69.92)
    approx_pct(report.par_pre, 94.31)
    approx_pct(report.rec, 90.53)
    approx_pct(report.par_rec, 92.80)


def test_metrics_perfect_extraction():
    report = metrics(EvalCounts(7, 0, 0, 0))
    assert report == metrics(EvalCounts(7, 0, 0, 0))
    for value in (report.pre, report.par_pre, report.rec, report.par_rec, report.f1, report.par_f1):
        assert value == pytest.approx(1.0)


def test_metrics_undefined_cases():
    report = metrics(EvalCounts(0, 0, 0, 0))
    assert report.pre is None and report.par_pre is None
    assert report.rec is None and report.f1 is None
    assert format_metric(report.pre) == "undef"


def test_metric_identity_par_pre_minus_pre():
    for counts in [EvalCounts(410, 0, 24, 16), EvalCounts(123, 7, 30, 9), EvalCounts(57, 0, 6, 7)]:
        report = metrics(counts)
        assert report.par_pre - report.pre == pytest.approx(counts.par / counts.all)
        assert report.par_rec >= report.rec


def test_render_report_shape():
    counts = EvalCounts(410, 0, 24, 16)
    text = render_report(counts, metrics(counts))
    assert "PRE\t94.15%" in text
    # exact F1 is 772/812 = 0.95074, one ulp of display below the published .9508
    assert "F1\t0.9507" in text


# ---------------------------------------------------------------------------
# pr_curve


def test_pr_curve_hand_example():
    points = pr_curve([(0.9, True), (0.8, True), (0.3, False), (0.1, True)])
    assert [(p.precision, p.recall) for p in points] == [
        (1.0, pytest.approx(1 / 3)),
        (1.0, pytest.approx(2 / 3)),
        (pytest.approx(2 / 3), pytest.approx(2 / 3)),
        (pytest.approx(3 / 4), 1.0),
    ]
    assert [p.threshold for p in points] == [0.9, 0.8, 0.3, 0.1]


def test_pr_curve_all_correct():
    points = pr_curve([(0.5, True), (0.4, True)])
    assert all(p.precision == 1.0 for p in points)
    assert points[-1].recall == 1.0


def test_pr_curve_no_correct_raises():
    with pytest.raises(ValueError):
        pr_curve([(0.5, False)])


def test_pr_curve_groups_tied_scores():
    points = pr_curve([(0.5, True), (0.5, False), (0.2, True)])
    assert len(points) == 2
    assert points[0].precision == pytest.approx(0.5)


def test_pr_curve_recall_non_decreasing():
    points = pr_curve([(0.9, False), (0.7, True), (0.5, True), (0.2, False), (0.1, True)])
    recalls = [p.recall for p in points]
    assert recalls == sorted(recalls)
    assert recalls[-1] == 1.0


# ---------------------------------------------------------------------------
# baselines


def test_full_variant_equals_resolver_score():
    corpus = build_corpus(name_list_from_strings(["WELLS FARGO", "ALPHA BANK"], "c"), PLAIN)
    result = best_match("WELLS FARGO BANK", corpus, PLAIN)
    value = ob_variant_score("full", result.query.tokens, corpus.tokens[result.entry_id], corpus.weight)
    assert value == pytest.approx(result.score)
    assert variant_best_match("full", "WELLS FARGO BANK", corpus, PLAIN) == (result.entry_id, result.score)


def test_idf_order_invariant_sq_not():
    weight_one = {"ALPHA": 1.0, "BRAVO": 1.0}
    corpus = build_corpus(
        name_list_from_strings(["ALPHA SOLO", "OTHER NAME"], "c"),
        ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={}, weight_overrides=weight_one),
    )
    assert variant_best_match("idf", "ALPHA BRAVO", corpus, PLAIN) == (0, pytest.approx(1.0))
    assert variant_best_match("idf", "BRAVO ALPHA", corpus, PLAIN) == (0, pytest.approx(1.0))
    assert variant_best_match("sq", "ALPHA BRAVO", corpus, PLAIN) == (0, pytest.approx(1.0))
    assert variant_best_match("sq", "BRAVO ALPHA", corpus, PLAIN) == (0, pytest.approx(0.5))


def test_disjoint_query_zero_for_all_variants():
    corpus = build_corpus(name_list_from_strings(["ALPHA BANK"], "c"), PLAIN)
    for variant in SCORE_VARIANTS:
        assert ob_variant_score(variant, ("OTHER",), ("ALPHA", "BANK"), corpus.weight) == 0.0
        assert variant_best_match(variant, "OTHER", corpus, PLAIN) is None


def test_unknown_variant_rejected():
    corpus = build_corpus(name_list_from_strings(["ALPHA BANK"], "c"), PLAIN)
    with pytest.raises(ValueError):
        rank(("ALPHA",), corpus, "tfidf")


@pytest.mark.parametrize("mention", ["zzzzz", ""])
def test_unknown_variant_rejected_before_ranking(mention):
    # ZZZZZ is in no name, so no candidate is ever scored; the variant is
    # still checked, for an empty query too.
    corpus = build_corpus(name_list_from_strings(["ALPHA BANK"], "c"), PLAIN)
    with pytest.raises(ValueError, match="unknown variant 'tfidf'"):
        variant_best_match("tfidf", mention, corpus, PLAIN)


@pytest.mark.parametrize(
    "mention, winner",
    [
        # Both names hold ALPHA, so they tie and the lower id wins.
        ("ALPHA ALPHA ALPHA ALPHA ALPHA", 0),
        ("ALPHA BRAVO CARGO DELTA EAGLE", 1),
    ],
)
def test_idf_saturates_at_the_largest_float(mention, winner):
    # Five positions at MAX_WEIGHT sum past the largest float, repeated or
    # distinct: the score stops there, and the winner is the one an unbounded
    # sum ranks first.
    overrides = dict.fromkeys(["ALPHA", "BRAVO", "CARGO", "DELTA", "EAGLE"], MAX_WEIGHT)
    config = ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={}, weight_overrides=overrides)
    corpus = build_corpus(name_list_from_strings(["ALPHA BANK", "ALPHA BRAVO CARGO DELTA EAGLE", "ZETA BANK"], "c"), config)
    q = preprocess(mention, config).tokens
    assert variant_best_match("idf", mention, corpus, config) == (winner, sys.float_info.max)
    assert ob_variant_score("idf", q, corpus.tokens[winner], corpus.weight) == sys.float_info.max


def test_variant_best_match_prefers_lower_id_on_tie():
    corpus = build_corpus(name_list_from_strings(["SHARED ALPHA", "SHARED BETA", "ZZZZZ"], "c"), PLAIN)
    best = variant_best_match("idf", "SHARED", corpus, PLAIN)
    assert best is not None
    assert corpus.name(best[0]) == "SHARED ALPHA"


RANK_WORDS = ["ALPHA", "BRAVO", "CAPITAL", "TRUST", "FUNDS"]


@settings(max_examples=150, deadline=None)
@given(
    names=st.lists(st.lists(st.sampled_from(RANK_WORDS), min_size=1, max_size=4), min_size=1, max_size=8),
    duplicates=st.lists(st.integers(min_value=0, max_value=7), max_size=4),
    query=st.lists(st.sampled_from(RANK_WORDS + ["OTHER"]), min_size=1, max_size=5),
)
def test_ranking_loop_is_brute_force_argmax(names, duplicates, query):
    raw = [" ".join(words) for words in names]
    # A trailing period makes a distinct corpus name with the same tokens: a forced tie.
    raw += [raw[i % len(raw)] + "." for i in duplicates]
    corpus = build_corpus(name_list_from_strings(raw, "c"), PLAIN)
    mention = " ".join(query)
    q = preprocess(mention, PLAIN).tokens
    shared = [i for i, p in enumerate(corpus.tokens) if set(p) & set(q)]
    got = {variant: variant_best_match(variant, mention, corpus, PLAIN) for variant in SCORE_VARIANTS}
    for variant in SCORE_VARIANTS:
        values = {i: ob_variant_score(variant, q, corpus.tokens[i], corpus.weight) for i in shared}
        want = None
        if values:
            top = max(values.values())
            want = (min(i for i, v in values.items() if v == top), top)
        assert got[variant] == want, variant
    full = best_match(mention, corpus, PLAIN)
    assert (None if full is None else (full.entry_id, full.score)) == got["full"]
    assert ob_best_match(q, corpus.tokens, corpus.weight) == got["full"]


PRUNE_WORDS = ["ALPHA", "BRAVO", "CAPITAL", "FUNDS", "SAVINGS"]
QUERY_WORDS = PRUNE_WORDS + ["TRUST", "OTHER"]
# Zero, the smallest subnormal, tiny, unit, huge and the largest accepted weight.
EDGE_WEIGHTS = [0.0, 5e-324, 1e-300, 1.0, 1e300, MAX_WEIGHT]
weight_strategy = st.sampled_from(EDGE_WEIGHTS) | st.floats(min_value=0.0, max_value=MAX_WEIGHT)


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(
        st.tuples(st.lists(st.sampled_from(PRUNE_WORDS), max_size=3), st.integers(0, 9)),
        min_size=1,
        max_size=24,
    ),
    duplicates=st.lists(st.integers(min_value=0, max_value=23), max_size=6),
    overrides=st.dictionaries(st.sampled_from(QUERY_WORDS), weight_strategy, max_size=6),
    picked=st.none() | st.integers(min_value=0, max_value=29),
    before=st.lists(st.sampled_from(QUERY_WORDS), max_size=3),
    after=st.lists(st.sampled_from(QUERY_WORDS), max_size=3),
)
# Both names weigh 0, so only s_b separates them: a bound without the s_b
# term would skip the winner, ALPHA ALPHA.
@example(
    names=[(["ALPHA"], 0), (["ALPHA", "ALPHA"], 0)], duplicates=[], overrides={}, picked=None, before=[],
    after=["ALPHA", "ALPHA"],
)
# ALPHA's gain is 1e300, TRUST's are tiny. Once ALPHA's postings are read,
# the unread gain is TRUST's alone; as 1e300 + tiny - 1e300 it would be 0 and
# stop the walk before TRUST, which holds the winner.
@example(
    names=[([], 0), ([], 0), (["ALPHA"], 1)], duplicates=[], overrides={"ALPHA": 1e300}, picked=26,
    before=["TRUST"], after=[],
)
# The query's first two words are in no name and no name lies inside it, so
# every candidate ties at 0 under all but ``idf`` (SAVINGS gives TRUST a
# positive weight); the lowest id must win.
@example(
    names=[(["ALPHA"], 1), (["CAPITAL"], 1), (["FUNDS"], 2), (["SAVINGS"], 0)], duplicates=[], overrides={},
    picked=None, before=["OTHER", "BRAVO"], after=["TRUST"],
)
# A one-word query, as a bare BANK is in a registry: every ``<word> TRUST``
# name ties at the same positive score.
@example(
    names=[(["ALPHA"], 1), (["CAPITAL"], 1), (["FUNDS"], 1), (["SAVINGS"], 0)], duplicates=[], overrides={},
    picked=None, before=["TRUST"], after=[],
)
def test_pruned_ranking_equals_brute_force_with_heavy_postings(names, duplicates, overrides, picked, before, after):
    # TRUST goes into nine names in ten (and into every name that would be
    # empty), so its postings cover most of the corpus, as BANK's do in a
    # registry; trailing periods force ties. The query is random words,
    # optionally around a corpus name, so the s_b block bonus often decides.
    raw = []
    for words, slot in names:
        if slot or not words:
            words = words[: slot % (len(words) + 1)] + ["TRUST"] + words[slot % (len(words) + 1) :]
        raw.append(" ".join(words))
    raw += [raw[i % len(raw)] + "." for i in duplicates]
    query = before + ([] if picked is None else raw[picked % len(raw)].split()) + after
    config = ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={}, weight_overrides=overrides)
    corpus = build_corpus(name_list_from_strings(raw, "c"), config)
    mention = " ".join(query)
    q = preprocess(mention, config).tokens
    shared = [i for i, p in enumerate(corpus.tokens) if set(p) & set(q)]
    got = {variant: variant_best_match(variant, mention, corpus, config) for variant in SCORE_VARIANTS}
    for variant in SCORE_VARIANTS:
        want = None
        for i in shared:
            value = ob_variant_score(variant, q, corpus.tokens[i], corpus.weight)
            if want is None or value > want[1]:
                want = (i, value)
        assert got[variant] == want, variant
    full = best_match(mention, corpus, config)
    assert (None if full is None else (full.entry_id, full.score)) == got["full"]
    assert ob_best_match(q, corpus.tokens, corpus.weight) == got["full"]


CAP_WORDS = ["ALPHA", "BRAVO", "CAPITAL", "DELTA"]


@settings(max_examples=500, deadline=None)
@given(
    # ECHO is only ever in the query and OTHER only in the candidate.
    q=st.lists(st.sampled_from(CAP_WORDS + ["ECHO"]), min_size=1, max_size=6),
    p=st.lists(st.sampled_from(CAP_WORDS + ["OTHER"]), min_size=1, max_size=5),
    weights=st.lists(st.sampled_from(EDGE_WEIGHTS), min_size=len(CAP_WORDS) + 2, max_size=len(CAP_WORDS) + 2),
)
def test_variant_caps_bound_their_scores_and_vanish_where_no_run_starts(q, p, weights):
    overrides = dict(zip(CAP_WORDS + ["ECHO", "OTHER"], weights))
    config = ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={}, weight_overrides=overrides)
    corpus = build_corpus(name_list_from_strings(["ALPHA BRAVO"], "c"), config)
    held = set(q) & set(p)
    no_query_lead = not held & set(q[:2])  # p holds neither q[0] nor q[1]
    no_candidate_lead = not held & set(p[:2])  # q holds neither p[0] nor p[1]
    inside = set(p) <= set(q)
    zero = {
        "sq": no_query_lead,
        "sqsc": no_query_lead or no_candidate_lead,
        "full": no_candidate_lead or no_query_lead and not inside,
    }
    weight = corpus.weight
    held_gain = sum(gain for token, gain in zip(q, decayed_gains(q, weight)) if token in p)
    caps = {
        "sq": score_cap(q, weight, sc=False, sb=False),
        "sqsc": score_cap(q, weight, sb=False),
        "full": score_cap(q, weight),
    }
    for variant, cap in caps.items():
        value = cap(p)
        assert value * (1 + 1e-9) >= ob_variant_score(variant, q, p, weight), variant
        if zero[variant]:
            assert value == 0.0, variant
        assert value <= held_gain * (1 + 1e-9), variant


# ---------------------------------------------------------------------------
# pseudo recall


def test_pseudo_recall_hand_example():
    assert pseudo_recall([0.2, 0.09, 0.01], 0.085) == pytest.approx(2 / 3)


def test_pseudo_recall_threshold_zero():
    assert pseudo_recall([0.2, 0.0], 0.0) == 1.0


def test_pseudo_recall_above_max():
    assert pseudo_recall([0.2, 0.3], 0.5) == 0.0


def test_pseudo_recall_empty_undefined():
    assert pseudo_recall([], 0.1) is None
