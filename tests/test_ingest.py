import pytest
from hypothesis import given
from hypothesis import strategies as st

from finames.ingest import (
    BODY,
    HEADER,
    SUMMARY,
    document_from_text,
    load_document,
    load_name_list,
    name_list_from_strings,
    normalize_name,
    segment_text,
    strip_trailing_garbage,
)
from finames.cli import PipelineConfig
from finames.textutil import entry_lines, join_tokens, name_tokens


def test_load_name_list_case_fold_dedup(tmp_path):
    path = tmp_path / "names.txt"
    path.write_text("Wells Fargo Bank, N.A.\nwells fargo bank, n.a.\n", encoding="utf-8")
    result = load_name_list(path, "sec")
    assert [n.text for n in result.names] == ["WELLS FARGO BANK, N.A."]
    assert result.dropped_duplicates == 1


def test_load_name_list_drops_short_names(tmp_path):
    path = tmp_path / "names.txt"
    path.write_text("O\n", encoding="utf-8")
    result = load_name_list(path, "sec")
    assert len(result) == 0
    assert result.dropped_short == 1


def test_load_name_list_three_distinct(tmp_path):
    names = ["GRANITE HARBOR BANK", "MERIDIAN TRUST", "SOUTHEAST INVESTMENTS"]
    path = tmp_path / "names.txt"
    path.write_text("".join(n + "\n" for n in names), encoding="utf-8")
    result = load_name_list(path, "sec")
    assert {n.text for n in result.names} == set(names)


def test_load_name_list_order_insensitive(tmp_path):
    names = ["GRANITE HARBOR BANK", "MERIDIAN TRUST", "SOUTHEAST INVESTMENTS"]
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("".join(n + "\n" for n in names), encoding="utf-8")
    b.write_text("".join(n + "\n" for n in reversed(names)), encoding="utf-8")
    assert load_name_list(a, "s").names == load_name_list(b, "s").names


def test_load_name_list_comments_and_blanks(tmp_path):
    path = tmp_path / "names.txt"
    path.write_text("# a comment\n\nGRANITE HARBOR BANK\n", encoding="utf-8")
    result = load_name_list(path, "sec")
    assert [n.text for n in result.names] == ["GRANITE HARBOR BANK"]
    assert result.dropped_short == 0


def test_entry_lines_skip_blank_and_comment_lines(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("# comment\n\n  \t\n   # indented comment\n ALPHA #1\nBETA\n", encoding="utf-8")
    assert list(entry_lines(path)) == [(5, "ALPHA #1"), (6, "BETA")]


def test_entry_lines_reject_undecodable_bytes(tmp_path):
    path = tmp_path / "list.txt"
    path.write_bytes(b"ALPHA\n\xff\xfe\n")
    with pytest.raises(ValueError, match="list.txt: not UTF-8"):
        list(entry_lines(path))


def test_load_name_list_empty_file(tmp_path):
    path = tmp_path / "names.txt"
    path.write_text("", encoding="utf-8")
    assert len(load_name_list(path, "sec")) == 0


def test_load_name_list_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_name_list(tmp_path / "nope.txt", "sec")


def test_normalize_collapses_whitespace_and_commas():
    name = normalize_name("  Acme\tCapital ,LLC ")
    assert name.text == "ACME CAPITAL, LLC"
    assert name.tokens == ("ACME", "CAPITAL", ",", "LLC")


def test_normalized_tokens_round_trip():
    for raw in ["WELLS FARGO BANK, N.A.", ",INC.", "A,B,C", "ONE  TWO , THREE"]:
        name = normalize_name(raw)
        assert join_tokens(name.tokens) == name.text
        assert name_tokens(name.text) == name.tokens


@given(st.text(max_size=60))
def test_normalize_idempotent(raw):
    once = normalize_name(raw)
    twice = normalize_name(once.text)
    assert once == twice
    assert once.tokens == twice.tokens


def test_strip_trailing_garbage_slash_fragment():
    assert strip_trailing_garbage("B HANAUER & CO /BD") == "B HANAUER & CO"


def test_strip_trailing_garbage_no_delimiter():
    assert strip_trailing_garbage("WELLS FARGO") == "WELLS FARGO"


def test_strip_trailing_garbage_hash():
    assert strip_trailing_garbage("ACME #A1") == "ACME"


def test_strip_trailing_garbage_keeps_long_tails():
    assert strip_trailing_garbage("AB/CD EF") == "AB/CD EF"
    assert strip_trailing_garbage("I/B/E/S FUNDING") == "I/B/E/S FUNDING"


@given(st.text(alphabet="ABC #/\\.&12", max_size=30))
def test_strip_trailing_garbage_idempotent_and_shrinking(raw):
    stripped = strip_trailing_garbage(raw)
    assert len(stripped) <= len(raw)
    assert strip_trailing_garbage(stripped) == stripped


def test_segment_marker_splits_header_and_summary():
    text = "FRONT PAGE\nSUMMARY\nthe deal"
    k = text.index("SUMMARY")
    doc = document_from_text("d", text)
    assert [(s.label, s.start, s.end) for s in doc.sections] == [
        (HEADER, 0, k),
        (SUMMARY, k, len(text)),
    ]


def test_segment_with_end_marker():
    text = "HEAD\nPROSPECTUS SUPPLEMENT words\nTABLE OF CONTENTS\nbody text"
    k = text.index("PROSPECTUS")
    e = text.index("TABLE OF CONTENTS")
    sections = segment_text(text)
    assert [(s.label, s.start, s.end) for s in sections] == [
        (HEADER, 0, k),
        (SUMMARY, k, e),
        (BODY, e, len(text)),
    ]


def test_segment_empty_text():
    assert segment_text("") == ()


def test_segment_no_markers_is_body():
    sections = segment_text("just some text")
    assert [(s.label, s.start, s.end) for s in sections] == [(BODY, 0, 14)]


def test_section_config_from_file(tmp_path):
    path = tmp_path / "sections.conf"
    path.write_text("header_markers=OVERVIEW,DIGEST\nsummary_end_markers=INDEX\n", encoding="utf-8")
    config = PipelineConfig.from_file(path).section_config()
    assert config.header_markers == ("OVERVIEW", "DIGEST")
    assert config.summary_end_markers == ("INDEX",)
    sections = segment_text("top DIGEST middle INDEX rest", config)
    assert [s.label for s in sections] == [HEADER, SUMMARY, BODY]


def test_load_document(tmp_path):
    path = tmp_path / "doc.txt"
    path.write_text("line one\nSUMMARY\nline two", encoding="utf-8")
    doc = load_document(path)
    assert doc.doc_id == "doc.txt"
    assert doc.section_at(0) == HEADER
    assert doc.section_at(len(doc.raw_text) - 1) == SUMMARY


def test_name_list_from_strings_counts():
    result = name_list_from_strings(["ACME", "GRANITE HARBOR", "granite  harbor"], "x")
    # "ACME" is four characters and is dropped
    assert result.dropped_short == 1
    assert result.dropped_duplicates == 1
    assert [n.text for n in result.names] == ["GRANITE HARBOR"]
