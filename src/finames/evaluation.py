"""Extraction and resolution measurement.

Bookkeeping counts every extracted mention (ALL) and classifies it as wholly
wrong (WRO), partially overlapping a gold mention (PAR) or correct; gold
mentions nobody touched are missing (MIS). The metric formulas and the
precision-recall sweep over the match-score threshold live here, with
``variant_best_match``, which ranks a mention under one of ``er.rank``'s
scoring variants.
"""
from __future__ import annotations

from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

from .er import Corpus, ErConfig, MatchResult, preprocess, rank

CORRECT = "CORRECT"
WRO = "WRO"
PAR = "PAR"

UNDEF = "undef"


class GoldMention(NamedTuple):
    doc_id: str
    start: int
    end: int
    surface: str = ""


class LabeledMention(NamedTuple):
    doc_id: str
    start: int
    end: int
    label: str


class EvalCounts(NamedTuple):
    all: int
    wro: int
    par: int
    mis: int


class MetricReport(NamedTuple):
    """Metric values in [0, 1]; None marks an undefined (0/0) metric."""

    pre: float | None
    par_pre: float | None
    rec: float | None
    par_rec: float | None
    f1: float | None
    par_f1: float | None


class PrPoint(NamedTuple):
    threshold: float
    precision: float
    recall: float


def _overlaps(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    return a_start < b_end and b_start < a_end


def _gold_by_doc(gold: Sequence[GoldMention]) -> dict[str, list[GoldMention]]:
    """Gold spans grouped by document, each group in input order; overlapping
    spans within a document raise."""
    by_doc: dict[str, list[GoldMention]] = {}
    for g in gold:
        by_doc.setdefault(g.doc_id, []).append(g)
    for doc_id, spans in by_doc.items():
        ordered = sorted(spans, key=lambda g: g.start)
        for first, second in zip(ordered, ordered[1:]):
            if _overlaps(first.start, first.end, second.start, second.end):
                raise ValueError(f"overlapping gold spans in {doc_id}: {first} / {second}")
    return by_doc


def label_mentions(
    mentions: Iterable[tuple[str, int, int]], gold: Sequence[GoldMention]
) -> list[LabeledMention]:
    """Classify extracted spans against gold: exact span match is correct, any
    overlap is partial, no overlap is wrong."""
    gold_by_doc = _gold_by_doc(gold)
    labeled = []
    for doc_id, start, end in mentions:
        label = WRO
        for g in gold_by_doc.get(doc_id, ()):
            if g.start == start and g.end == end:
                label = CORRECT
                break
            if _overlaps(start, end, g.start, g.end):
                label = PAR
        labeled.append(LabeledMention(doc_id, start, end, label))
    return labeled


def count(labeled: Sequence[LabeledMention], gold: Sequence[GoldMention]) -> EvalCounts:
    """Tally ALL/WRO/PAR from labels and MIS from untouched gold mentions."""
    _gold_by_doc(gold)
    wro = sum(1 for m in labeled if m.label == WRO)
    par = sum(1 for m in labeled if m.label == PAR)
    spans_by_doc: dict[str, list[tuple[int, int]]] = {}
    for m in labeled:
        spans_by_doc.setdefault(m.doc_id, []).append((m.start, m.end))
    mis = sum(
        1
        for g in gold
        if not any(_overlaps(start, end, g.start, g.end) for start, end in spans_by_doc.get(g.doc_id, ()))
    )
    return EvalCounts(all=len(labeled), wro=wro, par=par, mis=mis)


def _ratio(numerator: int, denominator: int) -> float | None:
    if denominator == 0:
        return None
    return numerator / denominator


def _harmonic(p: float | None, r: float | None) -> float | None:
    if p is None or r is None or p + r == 0:
        return None
    return 2 * p * r / (p + r)


def metrics(c: EvalCounts) -> MetricReport:
    """Precision/recall in strict and partial-tolerant form, plus F1."""
    strict_hits = c.all - c.wro - c.par
    loose_hits = c.all - c.wro
    pre = _ratio(strict_hits, c.all)
    par_pre = _ratio(loose_hits, c.all)
    rec = _ratio(strict_hits, strict_hits + c.mis)
    par_rec = _ratio(loose_hits, loose_hits + c.mis)
    return MetricReport(
        pre=pre,
        par_pre=par_pre,
        rec=rec,
        par_rec=par_rec,
        f1=_harmonic(pre, rec),
        par_f1=_harmonic(par_pre, par_rec),
    )


def format_metric(value: float | None, percent: bool = True) -> str:
    if value is None:
        return UNDEF
    if percent:
        return f"{100 * value:.2f}%"
    return f"{value:.4f}"


def render_report(c: EvalCounts, report: MetricReport) -> str:
    lines = [
        f"ALL {c.all}\tWRO {c.wro}\tPAR {c.par}\tMIS {c.mis}",
        f"PRE\t{format_metric(report.pre)}",
        f"PAR_PRE\t{format_metric(report.par_pre)}",
        f"REC\t{format_metric(report.rec)}",
        f"PAR_REC\t{format_metric(report.par_rec)}",
        f"F1\t{format_metric(report.f1, percent=False)}",
        f"PAR_F1\t{format_metric(report.par_f1, percent=False)}",
    ]
    return "\n".join(lines)


def pr_curve(labeled_scores: Iterable[tuple[float, bool]]) -> list[PrPoint]:
    """One point per distinct score, sweeping the threshold downwards.

    At threshold t, precision is correct-at-or-above-t over all-at-or-above-t
    and recall is correct-at-or-above-t over total correct.
    """
    items = sorted(labeled_scores, key=lambda pair: -pair[0])
    total_correct = sum(1 for _, ok in items if ok)
    if not items:
        raise ValueError("no scored results")
    if total_correct == 0:
        raise ValueError("no correct results; recall is undefined")
    points: list[PrPoint] = []
    seen = 0
    correct = 0
    for threshold, group in groupby(items, key=lambda pair: pair[0]):
        batch = list(group)
        seen += len(batch)
        correct += sum(1 for _, ok in batch if ok)
        points.append(PrPoint(threshold, correct / seen, correct / total_correct))
    return points


def variant_best_match(
    variant: str, mention: str, corpus: Corpus, config: ErConfig
) -> tuple[int, float] | None:
    """Best candidate under a scoring variant of ``er.rank``: (entry id, score),
    lowest id on ties."""
    best = rank(preprocess(mention, config).tokens, corpus, variant)
    return None if best is None else best[:2]


def pseudo_recall(results: Iterable[MatchResult | float], threshold: float) -> float | None:
    """Fraction of best-match scores at or above the threshold; None when empty."""
    scores = [getattr(r, "score", r) for r in results]
    if not scores:
        return None
    return sum(1 for s in scores if s >= threshold) / len(scores)
