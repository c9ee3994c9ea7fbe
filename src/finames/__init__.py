"""Extraction and resolution of financial-institution names in filing text.

The pipeline: load name lists, generate root/suffix dictionaries, extract
mentions from documents by root matching plus suffix extension, resolve the
mentions against a normalized corpus with a ranked scoring function, and
measure the results.

The names below are imported from their modules on first use (PEP 562), so
importing the package, or one of its modules, loads no other module.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "dict_gen": ("RootDictionary", "SuffixDictionary", "SuffixPattern", "generate_dictionaries"),
    "er": ("Corpus", "ErConfig", "MatchResult", "Query", "best_match", "build_corpus", "preprocess", "resolve"),
    "evaluation": ("EvalCounts", "GoldMention", "LabeledMention", "MetricReport", "PrPoint", "count", "metrics",
                   "pr_curve"),
    "ingest": ("Document", "NameList", "NormalizedName", "SectionConfig", "load_document", "load_name_list",
               "normalize_name", "strip_trailing_garbage"),
    "ner": ("Extractor", "Mention", "filter_by_role_keyword", "tokenize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
