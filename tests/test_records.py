"""Behaviour every public record type keeps: repr, equality and hash, read-only
fields, state that equality ignores, and the containers' entry counts."""
import pytest

from finames.cli import PipelineConfig
from finames.dict_gen import RootDictionary, SuffixDictionary, SuffixPattern
from finames.er import Corpus, ErConfig, MatchResult, Query, build_corpus
from finames.evaluation import EvalCounts, GoldMention, LabeledMention, MetricReport, PrPoint
from finames.ingest import (
    Document, NameList, NormalizedName, Section, SectionConfig, name_list_from_strings, segment_text,
)
from finames.ner import Mention

QUERY = Query("Wamu Bank", ("WASHINGTON", "MUTUAL", "BANK"))

# Record type, its field values in field order, and another value for one
# field. Every value has a deterministic repr, so each record's repr is fixed.
RECORDS = [
    (NormalizedName, {"text": "WELLS FARGO BANK, N.A.", "tokens": ("WELLS", "FARGO", "BANK", ",", "N.A.")},
     ("text", "WELLS FARGO BANK,N.A.")),
    (Section, {"label": "SUMMARY", "start": 3, "end": 40}, ("end", 41)),
    (Document, {"doc_id": "d1.txt", "raw_text": "Issuer: Alpha Bank", "sections": (Section("BODY", 0, 18),)},
     ("sections", ())),
    (SectionConfig, {"header_markers": ("SUMMARY",), "summary_end_markers": ("TABLE OF CONTENTS", "INDEX")},
     ("header_markers", ())),
    (Mention, {"doc_id": "d1.txt", "start": 8, "end": 18, "surface": "Alpha Bank", "root_end": 13,
               "suffix_spans": ((14, 18),), "section": "BODY"}, ("root_end", 18)),
    (Query, {"original": "Wamu Bank", "tokens": ("WASHINGTON", "MUTUAL", "BANK")}, ("original", "WAMU BANK")),
    (MatchResult, {"query": QUERY, "entry_id": 2, "entry_name": "WASHINGTON MUTUAL BANK", "score": 1.25,
                   "s_q": 1.5, "s_c": 0.5, "s_b": 0.5}, ("s_b", 0.0)),
    (GoldMention, {"doc_id": "d1.txt", "start": 8, "end": 18, "surface": "Alpha Bank"}, ("surface", "")),
    (LabeledMention, {"doc_id": "d1.txt", "start": 8, "end": 13, "label": "PAR"}, ("label", "WRO")),
    (EvalCounts, {"all": 10, "wro": 2, "par": 1, "mis": 3}, ("mis", 4)),
    (MetricReport, {"pre": 0.7, "par_pre": 0.8, "rec": 0.5, "par_rec": None, "f1": 0.25, "par_f1": None},
     ("par_f1", 0.0)),
    (PrPoint, {"threshold": 0.085, "precision": 0.75, "recall": 0.5}, ("threshold", 0.08)),
    (SuffixPattern, {"pattern_text": r"TRUST \d{4}-[A-Z0-9]+", "positive_examples": ("TRUST 2006-A1",)},
     ("positive_examples", ())),
    (ErConfig, {"threshold": 0.5, "stop_words": frozenset({"THE"}), "abbreviations": {"WAMU": ("WASHINGTON",)},
                "weight_overrides": {"BANK": 0.25}}, ("weight_overrides", {"BANK": 0.5})),
    (PipelineConfig, {"name_lists": ("a.txt",), "root_dict": "r.dict", "suffix_dict": "s.dict", "patterns": None,
                      "custom_roots": None, "custom_suffixes": None, "invalid_elements": "bad.txt",
                      "corpus": "corpus.txt", "stop_words": None, "abbreviations": None, "weight_overrides": None,
                      "header_markers": ("SUMMARY",), "summary_end_markers": ("END",), "threshold": 0.5,
                      "role_keywords": ("SERVICER",), "window": 4}, ("window", 5)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
# Records whose fields may hold a dict, and the mutable configuration.
UNHASHABLE_OR_MUTABLE = (ErConfig, PipelineConfig)


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(cls, fields, change):
    listed = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({listed})"
    assert repr(cls(*fields.values())) == repr(cls(**fields))


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, fields, change):
    first, second = cls(**fields), cls(**fields)
    assert first == second and not first != second
    if cls not in UNHASHABLE_OR_MUTABLE:
        assert hash(first) == hash(second)
    changed = cls(**dict(fields, **dict([change])))
    assert changed != first and not changed == first


@pytest.mark.parametrize("cls, fields, change", [r for r in RECORDS if r[0] is not PipelineConfig],
                         ids=[i for i in IDS if i != "PipelineConfig"])
def test_fields_are_read_only(cls, fields, change):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) == value


def test_normalized_names_order_by_text():
    names = [NormalizedName("BETA BANK", ("BETA", "BANK")), NormalizedName("ALPHA", ("ALPHA",)),
             NormalizedName("ALPHA BANK", ("ALPHA", "BANK"))]
    assert [n.text for n in sorted(names)] == ["ALPHA", "ALPHA BANK", "BETA BANK"]


def test_document_equality_and_hash_ignore_the_token_cut():
    cut = Document("d1.txt", "Issuer: Alpha Bank", ())
    assert cut.tokens == ("ISSUER:", "ALPHA", "BANK")
    assert cut.token_bounds[-1] == len(cut.raw_text)
    fresh = Document("d1.txt", "Issuer: Alpha Bank", ())
    assert cut == fresh and hash(cut) == hash(fresh)
    assert cut != Document("d2.txt", "Issuer: Alpha Bank", ())


def test_section_config_equality_and_hash_ignore_the_compiled_markers():
    used = SectionConfig(("SUMMARY",), ("END",))
    assert segment_text("x summary", used) == (Section("HEADER", 0, 2), Section("SUMMARY", 2, 9))
    fresh = SectionConfig(("SUMMARY",), ("END",))
    assert used == fresh and hash(used) == hash(fresh)


def test_suffix_pattern_equality_ignores_the_parsed_elements():
    first = SuffixPattern(r"SERIES \d{4}")
    second = SuffixPattern(r"SERIES \d{4}")
    assert first._elements is not second._elements
    assert first == second and hash(first) == hash(second)
    assert first.matches(("SERIES", "2005")) and second.token_count == 2
    assert first != SuffixPattern(r"SERIES \d{4}", ("SERIES 2005",))


def test_name_list_counts_and_iterates_its_names():
    names = name_list_from_strings(["BETA BANK", "ALPHA BANK", "alpha  bank"], "x")
    assert isinstance(names, NameList)
    assert len(names) == 2 and (names.dropped_short, names.dropped_duplicates) == (0, 1)
    assert [n.text for n in names] == ["ALPHA BANK", "BETA BANK"]
    assert names.names[1] in names
    assert NormalizedName("GAMMA BANK", ("GAMMA", "BANK")) not in names


def test_root_dictionary_counts_and_holds_its_entries():
    entries = frozenset({("ALPHA",), ("BETA", "TRUST")})
    roots = RootDictionary(entries)
    assert len(roots) == 2
    assert ("BETA", "TRUST") in roots and ("BETA",) not in roots
    assert roots == RootDictionary(frozenset(entries)) and hash(roots) == hash(RootDictionary(frozenset(entries)))
    assert roots != RootDictionary(frozenset({("ALPHA",)}))


def test_suffix_dictionary_counts_literals_and_patterns():
    pattern = SuffixPattern(r"SERIES \d{4}")
    suffixes = SuffixDictionary(frozenset({("BANK",), (",", "N.A.")}), (pattern,))
    assert len(suffixes) == 3 and len(SuffixDictionary(frozenset())) == 0
    assert suffixes.covers(("SERIES", "2005")) and suffixes.covers(("BANK",))
    twin = SuffixDictionary(frozenset({("BANK",), (",", "N.A.")}), (SuffixPattern(r"SERIES \d{4}"),))
    assert suffixes == twin and hash(suffixes) == hash(twin)
    assert suffixes != SuffixDictionary(suffixes.literal_entries)


def test_corpus_counts_its_entries():
    corpus = build_corpus(name_list_from_strings(["ALPHA BANK", "BETA TRUST", "GAMMA"], "c"), ErConfig())
    assert isinstance(corpus, Corpus)
    assert len(corpus) == 3 == len(corpus.entries) == len(corpus.tokens)
    assert [corpus.name(i) for i in range(len(corpus))] == ["ALPHA BANK", "BETA TRUST", "GAMMA"]
