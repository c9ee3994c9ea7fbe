"""Extraction and resolution of financial-institution names in filing text.

The pipeline: load name lists, generate root/suffix dictionaries, extract
mentions from documents by root matching plus suffix extension, resolve the
mentions against a normalized corpus with a ranked scoring function, and
measure the results.
"""
from .dict_gen import RootDictionary, SuffixDictionary, SuffixPattern, apply_filters, generate_dictionaries
from .er import Corpus, ErConfig, MatchResult, Query, best_match, build_corpus, preprocess, resolve
from .evaluation import EvalCounts, GoldMention, LabeledMention, MetricReport, PrPoint, count, metrics, pr_curve
from .ingest import (
    Document,
    NameList,
    NormalizedName,
    SectionConfig,
    load_document,
    load_name_list,
    normalize_name,
    strip_trailing_garbage,
)
from .ner import Extractor, Mention, filter_by_role_keyword, tokenize

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "Document",
    "ErConfig",
    "EvalCounts",
    "Extractor",
    "GoldMention",
    "LabeledMention",
    "MatchResult",
    "Mention",
    "MetricReport",
    "NameList",
    "NormalizedName",
    "PrPoint",
    "Query",
    "RootDictionary",
    "SectionConfig",
    "SuffixDictionary",
    "SuffixPattern",
    "apply_filters",
    "best_match",
    "build_corpus",
    "count",
    "filter_by_role_keyword",
    "generate_dictionaries",
    "load_document",
    "load_name_list",
    "metrics",
    "normalize_name",
    "pr_curve",
    "preprocess",
    "resolve",
    "strip_trailing_garbage",
    "tokenize",
]
