import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finames.er import ErConfig, Query, best_match, build_corpus, preprocess
from finames.evaluation import (
    CORRECT,
    PAR,
    WRO,
    EvalCounts,
    GoldMention,
    LabeledMention,
    baseline_score,
    count,
    format_metric,
    label_mentions,
    metrics,
    pr_curve,
    SCORE_VARIANTS,
    pseudo_recall,
    render_report,
    variant_best_match,
)
from finames.ingest import name_list_from_strings

from oracles import ob_best_match

PLAIN = ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={})


def make_counts_fixture(all_count, wro, par, mis):
    """Synthetic labeled/gold spans that tally to the requested counts."""
    labeled = []
    gold = []
    correct = all_count - wro - par
    pos = 0
    for _ in range(correct):
        labeled.append(LabeledMention("d", pos, pos + 10, CORRECT, pos, pos + 10))
        gold.append(GoldMention("d", pos, pos + 10))
        pos += 100
    for _ in range(par):
        labeled.append(LabeledMention("d", pos + 5, pos + 15, PAR, pos, pos + 10))
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
    labeled = [LabeledMention("d", 0, 10, CORRECT, 0, 10)]
    gold = [GoldMention("d", 0, 10), GoldMention("d", 100, 110)]
    assert count(labeled, gold) == EvalCounts(1, 0, 0, 1)


def test_count_rejects_overlapping_gold():
    gold = [GoldMention("d", 0, 10), GoldMention("d", 5, 15)]
    with pytest.raises(ValueError):
        count([], gold)


def test_label_mentions_classifies():
    gold = [GoldMention("d", 0, 10), GoldMention("d", 100, 110)]
    labeled = label_mentions([("d", 0, 10), ("d", 105, 120), ("d", 300, 310)], gold)
    assert [m.label for m in labeled] == [CORRECT, PAR, WRO]
    assert labeled[1].gold_start == 100


# ---------------------------------------------------------------------------
# metrics


def approx_pct(value, pct):
    assert value is not None
    assert abs(100 * value - pct) < 0.01


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
    value = baseline_score("full", result.query, corpus.tokens[result.entry_id], corpus)
    assert value == pytest.approx(result.score)


def test_idf_order_invariant_sq_not():
    corpus = build_corpus(name_list_from_strings(["ALPHA SOLO", "OTHER NAME"], "c"), PLAIN)
    weight_one = {"ALPHA": 1.0, "BRAVO": 1.0}
    corpus = build_corpus(
        name_list_from_strings(["ALPHA SOLO", "OTHER NAME"], "c"),
        ErConfig(threshold=0.0, stop_words=frozenset(), abbreviations={}, weight_overrides=weight_one),
    )
    p = ("ALPHA",)
    q_forward = Query("q", ("ALPHA", "BRAVO"))
    q_backward = Query("q", ("BRAVO", "ALPHA"))
    assert baseline_score("idf", q_forward, p, corpus) == pytest.approx(1.0)
    assert baseline_score("idf", q_backward, p, corpus) == pytest.approx(1.0)
    assert baseline_score("sq", q_forward, p, corpus) == pytest.approx(1.0)
    assert baseline_score("sq", q_backward, p, corpus) == pytest.approx(0.5)


def test_disjoint_query_zero_for_all_variants():
    corpus = build_corpus(name_list_from_strings(["ALPHA BANK"], "c"), PLAIN)
    for variant in ("idf", "sq", "sqsc", "full"):
        assert baseline_score(variant, ("OTHER",), ("ALPHA", "BANK"), corpus) == 0.0


def test_unknown_variant_rejected():
    corpus = build_corpus(name_list_from_strings(["ALPHA BANK"], "c"), PLAIN)
    with pytest.raises(ValueError):
        baseline_score("tfidf", ("ALPHA",), ("ALPHA",), corpus)


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
        values = {i: baseline_score(variant, q, corpus.tokens[i], corpus) for i in shared}
        want = None
        if values:
            top = max(values.values())
            want = (min(i for i, v in values.items() if v == top), top)
        assert got[variant] == want, variant
    full = best_match(mention, corpus, PLAIN)
    assert (None if full is None else (full.entry_id, full.score)) == got["full"]
    assert ob_best_match(q, corpus.tokens, corpus.weight) == got["full"]


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
