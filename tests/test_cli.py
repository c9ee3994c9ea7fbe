import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finames
from finames import cli
from finames.cli import CliError, PipelineConfig, main

NAMES = [
    "GRANITE HARBOR BANK, N.A.",
    "MERIDIAN CAPITAL TRUST 2004-B2",
    "SOUTHEAST INVESTMENTS, N.C., INC.",
]

DOC_TEXT = (
    "Issuer: GRANITE HARBOR BANK, N.A.\n"
    "SUMMARY\n"
    "Servicers: MERIDIAN CAPITAL TRUST 2004-B2 and others\n"
    "TABLE OF CONTENTS\n"
    "body mentions GRANITE HARBOR BANK, N.A. again\n"
)


@pytest.fixture
def workspace(tmp_path):
    names = tmp_path / "names.txt"
    names.write_text("".join(n + "\n" for n in NAMES), encoding="utf-8")
    doc = tmp_path / "doc1.txt"
    doc.write_text(DOC_TEXT, encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("GRANITE HARBOR BANK\nMERIDIAN CAPITAL\n", encoding="utf-8")
    config = tmp_path / "pipeline.conf"
    config.write_text(
        "# pipeline fixture\n"
        f"name_lists={names}\n"
        f"root_dict={tmp_path}/root.dict\n"
        f"suffix_dict={tmp_path}/suffix.dict\n"
        f"corpus={corpus}\n"
        "threshold=0.085\n",
        encoding="utf-8",
    )
    return tmp_path, config, doc


def run_build(config):
    return main(["build-dicts", "--config", str(config)])


def test_build_dicts_writes_golden_entries(tmp_path, capsys):
    names = tmp_path / "names.txt"
    names.write_text(
        "SOUTHEAST INVESTMENTS, N.C., INC.\n"
        "J.P. MORGAN ALTERNATIVE LOAN TRUST 2006-A1\n"
        "SAVINGS BANK OF THE FINGER LAKES FSB\n",
        encoding="utf-8",
    )
    code = main(
        [
            "build-dicts",
            "--name-lists",
            str(names),
            "--root-dict",
            "root.dict",
            "--suffix-dict",
            "suffix.dict",
            "--output",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "root entries:" in out
    roots = (tmp_path / "root.dict").read_text(encoding="utf-8").splitlines()
    suffixes = (tmp_path / "suffix.dict").read_text(encoding="utf-8").splitlines()
    for want in ["SOUTHEAST INVESTMENTS", "SOUTHEAST INVESTMENTS, N.C.", "OF THE FINGER LAKES FSB"]:
        assert want in roots
    assert ", N.C." in suffixes
    assert ", INC." in suffixes
    assert any(line.startswith("re:") for line in suffixes)


def test_build_dicts_empty_list_is_ok(tmp_path):
    names = tmp_path / "names.txt"
    names.write_text("", encoding="utf-8")
    code = main(
        ["build-dicts", "--name-lists", str(names), "--output", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "root.dict").read_text(encoding="utf-8") == ""
    suffix_lines = (tmp_path / "suffix.dict").read_text(encoding="utf-8").splitlines()
    assert suffix_lines and all(line.startswith("re:") for line in suffix_lines)


def test_build_dicts_missing_input_exits_2(tmp_path, capsys):
    code = main(["build-dicts", "--name-lists", str(tmp_path / "absent.txt")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_build_dicts_requires_name_lists(capsys):
    assert main(["build-dicts"]) == 2


def test_extract_all_sections(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    capsys.readouterr()
    out_path = tmp_path / "mentions.tsv"
    code = main(["extract", "--config", str(config), "--output", str(out_path), str(doc)])
    assert code == 0
    rows = [line.split("\t") for line in out_path.read_text(encoding="utf-8").splitlines()]
    sections = [r[3] for r in rows]
    assert "HEADER" in sections and "SUMMARY" in sections and "BODY" in sections
    assert all(r[0] == "doc1.txt" for r in rows)


def test_extract_section_filter(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    capsys.readouterr()
    out_path = tmp_path / "mentions.tsv"
    code = main(
        ["extract", "--config", str(config), "--sections", "header,summary", "--output", str(out_path), str(doc)]
    )
    assert code == 0
    sections = {line.split("\t")[3] for line in out_path.read_text(encoding="utf-8").splitlines()}
    assert sections <= {"HEADER", "SUMMARY"}
    assert sections


def test_extract_role_filter(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    capsys.readouterr()
    out_path = tmp_path / "mentions.tsv"
    code = main(
        ["extract", "--config", str(config), "--role-filter", "--window", "2", "--output", str(out_path), str(doc)]
    )
    assert code == 0
    surfaces = [line.split("\t")[4] for line in out_path.read_text(encoding="utf-8").splitlines()]
    # the body occurrence has no role keyword in front of it
    assert surfaces == ["GRANITE HARBOR BANK, N.A.", "MERIDIAN CAPITAL TRUST 2004-B2"]


def test_extract_missing_document_partial_exit(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    capsys.readouterr()
    out_path = tmp_path / "mentions.tsv"
    code = main(
        ["extract", "--config", str(config), "--output", str(out_path), str(doc), str(tmp_path / "gone.txt")]
    )
    assert code == 1
    assert "skipped" in capsys.readouterr().err
    assert out_path.read_text(encoding="utf-8")


def test_extract_undecodable_document_skipped(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    good = extract_to(tmp_path, config, doc, "good.tsv")
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    out_path = tmp_path / "mentions.tsv"
    code = main(["extract", "--config", str(config), "--output", str(out_path), str(doc), str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"skipped {bad}: " in err
    assert err.count(str(bad)) == 1
    assert out_path.read_text(encoding="utf-8") == good.read_text(encoding="utf-8")


@pytest.mark.parametrize("sections", [",", ""])
def test_extract_no_sections_selected_exits_2(workspace, capsys, sections):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    capsys.readouterr()
    assert main(["extract", "--config", str(config), "--sections", sections, str(doc)]) == 2
    assert "no sections selected" in capsys.readouterr().err


def test_extract_no_documents(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    capsys.readouterr()
    out_path = tmp_path / "mentions.tsv"
    assert main(["extract", "--config", str(config), "--output", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8") == ""


def extract_to(tmp_path, config, doc, name="mentions.tsv"):
    out_path = tmp_path / name
    assert main(["extract", "--config", str(config), "--output", str(out_path), str(doc)]) == 0
    return out_path


def test_resolve_end_to_end(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    mentions = extract_to(tmp_path, config, doc)
    out_path = tmp_path / "resolved.tsv"
    code = main(["resolve", "--config", str(config), "--output", str(out_path), str(mentions)])
    assert code == 0
    rows = [line.split("\t") for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert rows, "no resolution output"
    by_surface = {}
    for surface, name, score, matched in rows:
        by_surface.setdefault(surface, []).append((name, score, matched))
    # duplicated surfaces resolve identically
    for entries in by_surface.values():
        assert len(set(entries)) == 1
    granite = by_surface["GRANITE HARBOR BANK, N.A."][0]
    assert granite[0] == "GRANITE HARBOR BANK"
    assert granite[2] == "1"


def test_resolve_below_threshold_prints_dash(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    mentions = tmp_path / "m.tsv"
    mentions.write_text("doc1.txt\t0\t5\tBODY\tUNRELATED WORDS\n", encoding="utf-8")
    out_path = tmp_path / "resolved.tsv"
    assert main(["resolve", "--config", str(config), "--output", str(out_path), str(mentions)]) == 0
    surface, name, score, matched = out_path.read_text(encoding="utf-8").strip().split("\t")
    assert (name, matched) == ("-", "0")


def test_resolve_malformed_tsv_reports_line(workspace, capsys):
    tmp_path, config, doc = workspace
    mentions = tmp_path / "bad.tsv"
    mentions.write_text("doc1.txt\t0\t5\n", encoding="utf-8")
    code = main(["resolve", "--config", str(config), str(mentions)])
    assert code == 2
    assert ":1:" in capsys.readouterr().err


def test_resolve_requires_corpus(tmp_path, capsys):
    mentions = tmp_path / "m.tsv"
    mentions.write_text("d\t0\t5\tBODY\tX Y\n", encoding="utf-8")
    assert main(["resolve", str(mentions)]) == 2


def test_eval_reports_metrics(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    mentions = extract_to(tmp_path, config, doc)
    rows = [line.split("\t") for line in mentions.read_text(encoding="utf-8").splitlines()]
    gold_lines = [f"{r[0]}\t{r[1]}\t{r[2]}\t{r[4]}" for r in rows[:2]]
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join(line + "\n" for line in gold_lines), encoding="utf-8")
    capsys.readouterr()
    report_path = tmp_path / "report.tsv"
    code = main(["eval", "--output", str(report_path), str(mentions), str(gold)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PRE" in out and "PAR_REC" in out
    header, row = report_path.read_text(encoding="utf-8").splitlines()
    assert header.split("\t")[0] == "all"
    assert row.split("\t")[0] == str(len(rows))


def test_eval_empty_gold_exits_2(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    mentions = extract_to(tmp_path, config, doc)
    gold = tmp_path / "gold.tsv"
    gold.write_text("", encoding="utf-8")
    assert main(["eval", str(mentions), str(gold)]) == 2


def test_eval_overlapping_gold_exits_2(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    mentions = extract_to(tmp_path, config, doc)
    gold = tmp_path / "gold.tsv"
    gold.write_text("doc1.txt\t0\t10\tX\ndoc1.txt\t5\t15\tY\n", encoding="utf-8")
    assert main(["eval", str(mentions), str(gold)]) == 2


@pytest.mark.parametrize("config_text", [None, "garbage line\n"])
def test_eval_bad_config_exits_2(tmp_path, capsys, config_text):
    # eval takes no setting, but reads --config like every other subcommand
    mentions, gold = tmp_path / "m.tsv", tmp_path / "g.tsv"
    mentions.write_text("doc1.txt\t0\t10\tBODY\tX\n", encoding="utf-8")
    gold.write_text("doc1.txt\t0\t10\tX\n", encoding="utf-8")
    config = tmp_path / "eval.conf"
    if config_text is not None:
        config.write_text(config_text, encoding="utf-8")
    assert main(["eval", str(mentions), str(gold), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:1: " if config_text else f"error: config file not found: {config}")


@pytest.mark.parametrize("start, end", [(30, 5), (-5, -1), (7, 7)])
@pytest.mark.parametrize("bad_file", ["mentions", "gold"])
def test_eval_bad_span_exits_2(workspace, capsys, bad_file, start, end):
    tmp_path, config, doc = workspace
    mentions = tmp_path / "m.tsv"
    gold = tmp_path / "gold.tsv"
    mention_rows = ["doc1.txt\t0\t10\tBODY\tX"]
    gold_rows = ["doc1.txt\t0\t10\tX"]
    if bad_file == "mentions":
        mention_rows.append(f"doc1.txt\t{start}\t{end}\tBODY\tY")
    else:
        gold_rows.append(f"doc1.txt\t{start}\t{end}\tY")
    mentions.write_text("".join(row + "\n" for row in mention_rows), encoding="utf-8")
    gold.write_text("".join(row + "\n" for row in gold_rows), encoding="utf-8")
    assert main(["eval", str(mentions), str(gold)]) == 2
    bad = mentions if bad_file == "mentions" else gold
    assert f"error: {bad}:2: bad span" in capsys.readouterr().err


def test_pr_curve_variants(workspace, capsys):
    tmp_path, config, doc = workspace
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text(
        "GRANITE HARBOR BANK, N.A.\tGRANITE HARBOR BANK\n"
        "MERIDIAN CAPITAL TRUST 2004-B2\tMERIDIAN CAPITAL\n"
        "RANDOM HARBOR WORDS\t-\n",
        encoding="utf-8",
    )
    full_csv = tmp_path / "full.csv"
    idf_csv = tmp_path / "idf.csv"
    assert main(["pr-curve", "--config", str(config), "--variant", "full", "--output", str(full_csv), str(labeled)]) == 0
    assert main(["pr-curve", "--config", str(config), "--variant", "idf", "--output", str(idf_csv), str(labeled)]) == 0
    for path in (full_csv, idf_csv):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "threshold,precision,recall"
        assert len(lines) > 1
    assert full_csv.read_bytes() != idf_csv.read_bytes()


def test_pr_curve_no_correct_exits_2(workspace, capsys):
    tmp_path, config, doc = workspace
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("GRANITE HARBOR BANK\t-\n", encoding="utf-8")
    assert main(["pr-curve", "--config", str(config), str(labeled)]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("no_such_key=1\n", encoding="utf-8")
    assert main(["build-dicts", "--config", str(config)]) == 2


@pytest.mark.parametrize("line", ["threshold = abc", "window = 1.5"])
def test_bad_config_value_names_file_and_line(tmp_path, capsys, line):
    config = tmp_path / "bad.conf"
    config.write_text("# numbers\n" + line + "\n", encoding="utf-8")
    assert main(["extract", "--config", str(config)]) == 2
    key = line.split("=")[0].strip()
    assert f"error: {config}:2: bad {key} " in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config", "weight_overrides"])
def test_nan_threshold_or_weight_exits_2(workspace, capsys, source):
    # NaN fails every comparison: it used to pass the >= 0 checks, and then
    # mark every mention unmatched or lose every ranking comparison.
    tmp_path, config, doc = workspace
    mentions = tmp_path / "m.tsv"
    mentions.write_text("doc1.txt\t0\t16\tBODY\tGranite Harbor Bank\n", encoding="utf-8")
    args = ["resolve", "--config", str(config), str(mentions)]
    weights = tmp_path / "weights.tsv"
    weights.write_text("BANK\tnan\n", encoding="utf-8")
    if source == "flag":
        args += ["--threshold", "nan"]
    elif source == "config":
        config.write_text(config.read_text(encoding="utf-8") + "threshold = nan\n", encoding="utf-8")
    else:
        config.write_text(config.read_text(encoding="utf-8") + f"weight_overrides = {weights}\n", encoding="utf-8")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "must be >= 0" in err
    if source == "weight_overrides":
        assert f"{weights}:1:" in err


@pytest.mark.parametrize("value", ["inf", "1e308"])
def test_weight_override_above_limit_exits_2(workspace, capsys, value):
    # An infinite weight made nan scores, and huge ones made sums that
    # overflow; the limit keeps every score and ranking bound finite.
    tmp_path, config, doc = workspace
    mentions = tmp_path / "m.tsv"
    mentions.write_text("doc1.txt\t0\t16\tBODY\tGranite Harbor Bank\n", encoding="utf-8")
    weights = tmp_path / "weights.tsv"
    weights.write_text(f"GRANITE\t1.0\nBANK\t{value}\n", encoding="utf-8")
    out_path = tmp_path / "resolved.tsv"
    args = ["resolve", "--config", str(config), "--weight-overrides", str(weights), "--output", str(out_path)]
    assert main(args + [str(mentions)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {weights}:2: weight must be >= 0 and <= ")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--stop-words", "THE\nOF THE\n"),
        ("--stop-words", "THE\n-\n"),
        ("--weight-overrides", "BANK\t1.0\nWELLS FARGO\t2.0\n"),
        ("--weight-overrides", "BANK\t1.0\n&\t3\n"),
        ("--abbreviations", "WaMu\tWashington Mutual\nWELLS FARGO\tWF\n"),
        ("--abbreviations", "WaMu\tWashington Mutual\n&\tAND CO\n"),
    ],
)
def test_token_no_query_can_hold_exits_2(workspace, capsys, flag, text):
    # Stored as OFTHE, dropped, stored as WELLSFARGO and as '', then an
    # abbreviation key stored as WELLSFARGO and one dropped: no query token
    # is any of these, and preprocessing looks abbreviations up one token
    # at a time.
    tmp_path, config, doc = workspace
    mentions = tmp_path / "m.tsv"
    mentions.write_text("doc1.txt\t0\t16\tBODY\tGranite Harbor Bank\n", encoding="utf-8")
    path = tmp_path / "tokens.txt"
    path.write_text(text, encoding="utf-8")
    out_path = tmp_path / "resolved.tsv"
    args = ["resolve", "--config", str(config), flag, str(path), "--output", str(out_path), str(mentions)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: expected one token with a letter or digit")
    assert not out_path.exists()


def test_abbreviation_expanding_to_no_token_exits_2(workspace, capsys):
    # WAMU<TAB>& used to be dropped without a word: its expansion keeps no token.
    tmp_path, config, doc = workspace
    mentions = tmp_path / "m.tsv"
    mentions.write_text("doc1.txt\t0\t16\tBODY\tGranite Harbor Bank\n", encoding="utf-8")
    path = tmp_path / "abbreviations.tsv"
    path.write_text("WaMu\tWashington Mutual\nWAMU\t&\n", encoding="utf-8")
    out_path = tmp_path / "resolved.tsv"
    args = ["resolve", "--config", str(config), "--abbreviations", str(path), "--output", str(out_path)]
    assert main(args + [str(mentions)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: expansion has no token with a letter or digit")
    assert not out_path.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_role_window_exits_2(workspace, capsys, source):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    out_path = tmp_path / "mentions.tsv"
    args = ["extract", "--config", str(config), "--role-filter", "--output", str(out_path), str(doc)]
    if source == "flag":
        args += ["--window", "-1"]
    else:
        config.write_text(config.read_text(encoding="utf-8") + "window = -2\n", encoding="utf-8")
    assert main(args) == 2
    assert "role window must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("bom_file", ["name_list", "config"])
def test_leading_bom_of_line_file_ignored(workspace, capsys, bom_file):
    # Read as data, the mark used to glue itself to the first root
    # ("\ufeffGRANITE HARBOR") or make the first config line malformed.
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    plain = extract_to(tmp_path, config, doc, "plain.tsv").read_text(encoding="utf-8")
    path = tmp_path / "names.txt" if bom_file == "name_list" else config
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run_build(config) == 0
    assert extract_to(tmp_path, config, doc, "bom.tsv").read_text(encoding="utf-8") == plain


def test_leading_bom_of_document_ignored(workspace, capsys):
    # Read as data, the mark glued itself to the first token ("\ufeffGRANITE"),
    # so the name at offset 0 was not found.
    tmp_path, config, _ = workspace
    assert run_build(config) == 0
    text = "GRANITE HARBOR BANK, N.A. issues the notes\n"
    plain, bom = tmp_path / "plain" / "doc.txt", tmp_path / "bom" / "doc.txt"
    for path, data in ((plain, b""), (bom, b"\xef\xbb\xbf")):
        path.parent.mkdir()
        path.write_bytes(data + text.encode("utf-8"))
    want = extract_to(tmp_path, config, plain, "plain.tsv").read_text(encoding="utf-8")
    assert want.startswith("doc.txt\t0\t25\t")
    assert extract_to(tmp_path, config, bom, "bom.tsv").read_text(encoding="utf-8") == want


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_offsets_count_a_line_ending_as_one_character(tmp_path, capsys, newline):
    # Documents are read with universal newlines: "\r\n" and "\r" are one
    # "\n", so ALPHA stands at 42 in the text read, at 43 in the CRLF file.
    names = tmp_path / "names.txt"
    names.write_text("WELLS FARGO BANK\nALPHA BANK, N.A.\n", encoding="utf-8")
    dicts = ["--root-dict", str(tmp_path / "root.dict"), "--suffix-dict", str(tmp_path / "suffix.dict")]
    assert main(["build-dicts", "--name-lists", str(names), *dicts]) == 0
    doc = tmp_path / "doc.txt"
    doc.write_bytes(f"Servicer: WELLS FARGO BANK{newline}the Trustee is ALPHA BANK, N.A.{newline}".encode())
    capsys.readouterr()
    assert main(["extract", *dicts, str(doc)]) == 0
    assert capsys.readouterr().out == (
        "doc.txt\t10\t26\tBODY\tWELLS FARGO BANK\n"
        "doc.txt\t42\t58\tBODY\tALPHA BANK, N.A.\n"
    )


def test_end_to_end_determinism(workspace, capsys):
    tmp_path, config, doc = workspace
    outputs = []
    for run_dir_name in ("run_a", "run_b"):
        run_dir = tmp_path / run_dir_name
        run_dir.mkdir()
        assert main(["build-dicts", "--config", str(config), "--output", str(run_dir)]) == 0
        mentions = run_dir / "mentions.tsv"
        args = [
            "extract",
            "--config",
            str(config),
            "--root-dict",
            str(run_dir / "root.dict"),
            "--suffix-dict",
            str(run_dir / "suffix.dict"),
            "--output",
            str(mentions),
            str(doc),
        ]
        assert main(args) == 0
        resolved = run_dir / "resolved.tsv"
        assert main(["resolve", "--config", str(config), "--output", str(resolved), str(mentions)]) == 0
        outputs.append(
            tuple(
                (run_dir / name).read_bytes()
                for name in ("root.dict", "suffix.dict", "mentions.tsv", "resolved.tsv")
            )
        )
    assert outputs[0] == outputs[1]


def test_extract_with_customization_files(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    custom_doc = tmp_path / "custom.txt"
    custom_doc.write_text("Issuer: ZEPHYR POINT FUNDING 2007-C1 and GRANITE HARBOR BANK, N.A.\n", encoding="utf-8")
    custom_roots = tmp_path / "custom_roots.txt"
    custom_roots.write_text("ZEPHYR POINT\n", encoding="utf-8")
    custom_suffixes = tmp_path / "custom_suffixes.txt"
    custom_suffixes.write_text("re:FUNDING \\d{4}-[A-Z0-9]+\n", encoding="utf-8")
    invalid = tmp_path / "invalid.txt"
    invalid.write_text("GRANITE HARBOR BANK, N.A.\n", encoding="utf-8")
    out_path = tmp_path / "mentions.tsv"
    code = main(
        [
            "extract",
            "--config",
            str(config),
            "--custom-roots",
            str(custom_roots),
            "--custom-suffixes",
            str(custom_suffixes),
            "--invalid-elements",
            str(invalid),
            "--output",
            str(out_path),
            str(custom_doc),
        ]
    )
    assert code == 0
    surfaces = [line.split("\t")[4] for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert surfaces == ["ZEPHYR POINT FUNDING 2007-C1"]


def test_extract_keeps_one_suffix_pattern_per_text_with_custom_suffixes(workspace, monkeypatch):
    # A custom pattern that repeats a dictionary pattern is matched once.
    from finames import ner

    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    custom_suffixes = tmp_path / "custom_suffixes.txt"
    custom_suffixes.write_text("re:TRUST \\d{4}-[A-Z0-9]+\n", encoding="utf-8")
    seen = []
    extractor = ner.Extractor

    def spy(roots, suffixes, *rest):
        seen.append([p.pattern_text for p in suffixes.pattern_entries])
        return extractor(roots, suffixes, *rest)

    monkeypatch.setattr(ner, "Extractor", spy)
    outputs = []
    for custom in ([], ["--custom-suffixes", str(custom_suffixes)]):
        out_path = tmp_path / f"mentions{len(custom)}.tsv"
        assert main(["extract", "--config", str(config), *custom, "--output", str(out_path), str(doc)]) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"MERIDIAN CAPITAL TRUST 2004-B2" in outputs[0]
    assert seen == [[r"SERIES \d{4}-[A-Z0-9]+", r"TRUST \d{4}-[A-Z0-9]+"]] * 2


@pytest.mark.parametrize(
    "flag, entry",
    [("--custom-roots", "ZEPHYR POINT"), ("--custom-suffixes", ", N.A.")],
    ids=["custom-roots", "custom-suffixes"],
)
def test_extract_invalid_elements_overlapping_customization_exits_2(workspace, capsys, flag, entry):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    custom = tmp_path / "custom.txt"
    custom.write_text(f"OTHER WORDS\n{entry}\n", encoding="utf-8")
    invalid = tmp_path / "invalid.txt"
    invalid.write_text(entry.lower() + "\n", encoding="utf-8")
    args = ["extract", "--config", str(config), flag, str(custom), "--invalid-elements", str(invalid), str(doc)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid elements overlap custom dictionaries: [")
    assert repr(tuple(entry.replace(",", " , ").split())) in err


def test_pattern_entry_in_custom_roots_names_file_and_line(workspace, capsys):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    capsys.readouterr()
    custom = tmp_path / "custom_roots.txt"
    custom.write_text("ZEPHYR POINT\nre:BANK\n", encoding="utf-8")
    assert main(["extract", "--config", str(config), "--custom-roots", str(custom), str(doc)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {custom}:2: pattern entry not allowed here: 're:BANK'\n"


@pytest.mark.parametrize(
    "pattern",
    [r"re:\d{99999999999}", "re:", r"re:\d{0}", r"re:TRUST \d{0}\d{00}"],
    ids=["overflow", "empty", "empty-token", "empty-second-token"],
)
@pytest.mark.parametrize("kind", ["suffix_dict", "patterns"])
def test_bad_pattern_names_file_and_line_exits_2(workspace, capsys, kind, pattern):
    tmp_path, config, doc = workspace
    assert run_build(config) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text(f"# comment\nBANK\n{pattern}\n", encoding="utf-8")
    if kind == "suffix_dict":
        args = ["extract", "--config", str(config), "--suffix-dict", str(bad), str(doc)]
    else:
        args = ["build-dicts", "--config", str(config), "--patterns", str(bad), "--output", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:3: bad pattern")
    assert err.count("\n") == 1


def test_repeated_alphanumeric_runs_extract_in_linear_time(tmp_path, capsys):
    # A custom suffix pattern of six [A-Z0-9]+ runs against an 81-character
    # token that it cannot match: backtracking took seconds here; the exact
    # output is what is checked.
    (tmp_path / "root.dict").write_text("WELLS FARGO\n", encoding="utf-8")
    (tmp_path / "suffix.dict").write_text("BANK\n", encoding="utf-8")
    custom = tmp_path / "custom.txt"
    custom.write_text("re:" + "[A-Z0-9]+" * 6 + "\n", encoding="utf-8")
    long_token = "A" * 80 + "!"
    doc = tmp_path / "doc.txt"
    doc.write_text(f"Trustee: Wells Fargo {long_token} will act. Servicer: Wells Fargo {long_token} and others.\n",
                   encoding="utf-8")
    args = ["extract", "--root-dict", str(tmp_path / "root.dict"), "--suffix-dict", str(tmp_path / "suffix.dict"),
            "--custom-suffixes", str(custom), str(doc)]
    assert main(args) == 0
    assert capsys.readouterr().out == "doc.txt\t9\t20\tBODY\tWells Fargo\ndoc.txt\t123\t134\tBODY\tWells Fargo\n"


def test_build_dicts_with_pattern_file(tmp_path, capsys):
    names = tmp_path / "names.txt"
    names.write_text("MERIDIAN NOTES\n", encoding="utf-8")
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("NOTES \\d{4}-[A-Z0-9]+\tNOTES 2007-A1\n", encoding="utf-8")
    code = main(
        [
            "build-dicts",
            "--name-lists",
            str(names),
            "--patterns",
            str(patterns),
            "--output",
            str(tmp_path),
        ]
    )
    assert code == 0
    suffix_lines = (tmp_path / "suffix.dict").read_text(encoding="utf-8").splitlines()
    assert "re:NOTES \\d{4}-[A-Z0-9]+" in suffix_lines


def test_build_dicts_pattern_repeating_a_builtin_is_written_once(tmp_path, capsys):
    # The file's pattern has no examples, so it differs from the built-in one
    # as a value; the dictionary still keeps one pattern per pattern text.
    names = tmp_path / "names.txt"
    names.write_text("MERIDIAN NOTES\n", encoding="utf-8")
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("SERIES \\d{4}-[A-Z0-9]+\n", encoding="utf-8")
    args = ["build-dicts", "--name-lists", str(names), "--patterns", str(patterns), "--output", str(tmp_path)]
    assert main(args) == 0
    assert "patterns: 2 ->" in capsys.readouterr().out
    suffix_lines = (tmp_path / "suffix.dict").read_text(encoding="utf-8").splitlines()
    assert suffix_lines.count("re:SERIES \\d{4}-[A-Z0-9]+") == 1
    assert len(cli.dict_gen.load_suffix_dictionary(tmp_path / "suffix.dict").pattern_entries) == 2


def test_unset_settings_keep_er_config_defaults(workspace):
    from finames import er
    tmp_path, _, _ = workspace
    _, er_config = cli._build_corpus(PipelineConfig(corpus=str(tmp_path / "corpus.txt")))
    assert PipelineConfig().threshold is None
    assert er_config == er.ErConfig()


_IMPORT_PROBE = """
import json, sys
from finames.cli import main

config, doc, labeled = sys.argv[1:]
codes = [main(["build-dicts", "--config", config]), main(["extract", "--config", config, doc])]
loaded = sorted(name for name in ("finames.er", "finames.evaluation", "logging") if name in sys.modules)
import finames
unresolved = [name for name in finames.__all__ if getattr(finames, name, None) is None]
try:
    codes.append(main(["pr-curve", "--config", config, "--variant", "bogus", labeled]))
except SystemExit as exc:
    codes.append(exc.code)
print(json.dumps({"codes": codes, "loaded": loaded, "unresolved": unresolved}))
"""


def test_build_dicts_and_extract_load_no_resolver(workspace):
    # One fresh interpreter: build-dicts and extract import neither er nor
    # evaluation, nor logging; the package's names still resolve on first
    # use, and an unknown variant is still a usage error.
    tmp_path, config, doc = workspace
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("GRANITE HARBOR BANK\tGRANITE HARBOR BANK\n", encoding="utf-8")
    src = str(Path(finames.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(config), str(doc), str(labeled)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 2], "loaded": [], "unresolved": []}
    assert "'bogus'" in proc.stderr


_STDLIB_PROBE = """
import json, sys
from finames.cli import main

config, doc, mentions, gold, labeled, out = sys.argv[1:]
codes = [
    main(["build-dicts", "--config", config]),
    main(["resolve", "--config", config, "--output", out + "/resolved.tsv", mentions]),
    main(["eval", mentions, gold, "--output", out + "/report.tsv"]),
    main(["pr-curve", "--config", config, "--output", out + "/pr.csv", labeled]),
]
matcher = "finames.ner" in sys.modules
codes.append(main(["extract", "--config", config, "--output", out + "/extracted.tsv", doc]))
print(json.dumps({"codes": codes, "matcher": matcher,
                  "loaded": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)}))
"""


def test_no_command_loads_dataclasses_or_inspect(workspace):
    # One fresh interpreter runs every subcommand: none of them pays for
    # importing dataclasses (and the inspect module it loads) at start-up,
    # and only extract loads the matcher.
    tmp_path, config, doc = workspace
    start = DOC_TEXT.index("GRANITE HARBOR BANK, N.A.")
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text(f"doc1.txt\t{start}\t{start + 25}\tHEADER\tGRANITE HARBOR BANK, N.A.\n", encoding="utf-8")
    gold = tmp_path / "gold.tsv"
    gold.write_text(f"doc1.txt\t{start}\t{start + 25}\tGRANITE HARBOR BANK, N.A.\n", encoding="utf-8")
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("GRANITE HARBOR BANK\tGRANITE HARBOR BANK\n", encoding="utf-8")
    src = str(Path(finames.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_PROBE, str(config), str(doc), str(mentions), str(gold), str(labeled),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0, 0, 0], "matcher": False, "loaded": []}
    assert all((tmp_path / name).is_file() for name in ("extracted.tsv", "resolved.tsv", "report.tsv", "pr.csv"))


@pytest.mark.parametrize(
    "root, suffix, output",
    [("x.dict", "x.dict", None), ("x.dict", "./x.dict", None), ("x.dict", "d/../x.dict", None),
     ("a/r.dict", "b/r.dict", "out")],
)
def test_build_dicts_same_root_and_suffix_file_exits_2(tmp_path, monkeypatch, capsys, root, suffix, output):
    # The suffix dictionary used to overwrite the root dictionary, exit 0.
    monkeypatch.chdir(tmp_path)
    Path("names.txt").write_text("".join(n + "\n" for n in NAMES), encoding="utf-8")
    args = ["build-dicts", "--name-lists", "names.txt", "--root-dict", root, "--suffix-dict", suffix]
    assert main(args + (["--output", output] if output else [])) == 2
    assert "root and suffix dictionaries are the same file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["names.txt"]


# Option strings of each subcommand's --help, in order.
HELP_OPTIONS = {
    "build-dicts": ["-h", "--config", "--output", "--name-lists", "--root-dict", "--suffix-dict", "--patterns"],
    "extract": [
        "-h", "--config", "--output", "--sections", "--role-filter", "--role-keywords", "--window", "--root-dict",
        "--suffix-dict", "--custom-roots", "--custom-suffixes", "--invalid-elements", "--header-markers",
        "--summary-end-markers",
    ],
    "resolve": ["-h", "--config", "--output", "--corpus", "--stop-words", "--abbreviations", "--weight-overrides",
                "--threshold"],
    "eval": ["-h", "--config", "--output"],
    "pr-curve": ["-h", "--config", "--output", "--variant", "--corpus", "--stop-words", "--abbreviations",
                 "--weight-overrides", "--threshold"],
}


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_help_lists_each_subcommands_options(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    found = re.findall(r"(?<![\w-])(-h|--[a-z][a-z-]*)", capsys.readouterr().out)
    # the usage line names every option; "-h, --help" follows it
    assert list(dict.fromkeys(found)) == HELP_OPTIONS[command] + ["--help"]


# A subcommand that takes each setting as a flag, with its positional arguments.
SETTING_COMMAND = {
    "name_lists": ["build-dicts"], "root_dict": ["build-dicts"], "suffix_dict": ["build-dicts"],
    "patterns": ["build-dicts"], "custom_roots": ["extract"], "custom_suffixes": ["extract"],
    "invalid_elements": ["extract"], "header_markers": ["extract"], "summary_end_markers": ["extract"],
    "role_keywords": ["extract"], "window": ["extract"], "corpus": ["resolve", "m.tsv"],
    "stop_words": ["resolve", "m.tsv"], "abbreviations": ["resolve", "m.tsv"],
    "weight_overrides": ["resolve", "m.tsv"], "threshold": ["pr-curve", "l.tsv"],
}
# Text and parsed value of a setting; any other setting takes the text as is.
SETTING_TEXT = {
    "name_lists": ("a.txt,b.txt", ("a.txt", "b.txt")), "header_markers": ("TOP, HEAD", ("TOP", "HEAD")),
    "summary_end_markers": ("END", ("END",)), "role_keywords": ("AGENT,,SERVICER", ("AGENT", "SERVICER")),
    "threshold": ("0.25", 0.25), "window": ("4", 4),
}


@pytest.mark.parametrize("key", PipelineConfig._fields)
def test_config_key_and_flag_give_equal_configs(tmp_path, key):
    assert set(SETTING_COMMAND) == set(PipelineConfig._fields)
    text, value = SETTING_TEXT.get(key, ("some/file.txt", "some/file.txt"))
    config = tmp_path / "pipeline.conf"
    config.write_text(f"{key} = {text}\n", encoding="utf-8")
    parser = cli.build_parser()
    from_file = cli._load_config(parser.parse_args([*SETTING_COMMAND[key], "--config", str(config)]))
    from_flag = cli._load_config(parser.parse_args([*SETTING_COMMAND[key], "--" + key.replace("_", "-"), text]))
    assert from_file == from_flag == PipelineConfig()._replace(**{key: value}) != PipelineConfig()


def _fuzz_workspace(tmp_path, monkeypatch, capsys):
    """A directory holding tiny dictionaries, made the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "root.dict").write_text("GRANITE HARBOR\n", encoding="utf-8")
    (tmp_path / "suffix.dict").write_text("BANK\n", encoding="utf-8")
    capsys.readouterr()
    return tmp_path / "fuzz.conf"


def _extract_with(config, capsys):
    """Exit code and standard error of ``extract --config`` on no documents."""
    code = main(["extract", "--config", str(config)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1
    return code, err


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=120))
def test_fuzz_config_bytes_through_cli(tmp_path, monkeypatch, capsys, data):
    config = _fuzz_workspace(tmp_path, monkeypatch, capsys)
    config.write_bytes(data)
    code, err = _extract_with(config, capsys)
    try:
        PipelineConfig.from_file(config)
    except CliError as exc:
        assert re.match(rf"{re.escape(str(config))}:\d+: ", str(exc))
        assert (code, err) == (2, f"error: {exc}\n")
    except ValueError as exc:  # undecodable
        assert (code, err) == (2, f"error: {exc}\n")
        assert str(exc).startswith(f"{config}: not UTF-8")


_PATH_VALUES = ("root.dict", "suffix.dict", "missing.txt", "", "A, B", "a=b", "#x")
_GOOD_VALUES = {"threshold": ("0.5", "1e3", "nan", "-inf", "2"), "window": ("3", "-1", "+4", "0")}
_BAD_VALUES = {"threshold": ("abc", "", "0.5.1", "1,5"), "window": ("1.5", "x", "", "3e1")}
_UNKNOWN_KEYS = ("windows", "Threshold", "root-dict", "_LIST_KEYS", "config", "output", "sections", "", "x y")
_SPACE = st.sampled_from(["", " ", "\t"])
_KEYS = list(PipelineConfig._fields)


@st.composite
def _config_line(draw):
    """(line, whether the reader must reject it)."""
    kind = draw(st.sampled_from(["good", "good", "bad_value", "unknown_key", "no_equals", "skipped"]))
    if kind == "skipped":
        return draw(st.sampled_from(["", "   ", "# window = x", "  # threshold=abc"])), False
    if kind == "no_equals":
        return draw(st.sampled_from(_KEYS + ["threshold 0.5", "root_dict: x"])), True
    if kind == "unknown_key":
        key, value, bad = draw(st.sampled_from(_UNKNOWN_KEYS)), draw(st.sampled_from(_PATH_VALUES)), True
    elif kind == "bad_value":
        key = draw(st.sampled_from(sorted(_BAD_VALUES)))
        value, bad = draw(st.sampled_from(_BAD_VALUES[key])), True
    else:
        key = draw(st.sampled_from(_KEYS))
        value, bad = draw(st.sampled_from(_GOOD_VALUES.get(key, _PATH_VALUES))), False
    return f"{draw(_SPACE)}{key}{draw(_SPACE)}={draw(_SPACE)}{value}{draw(_SPACE)}", bad


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_config_line(), max_size=6), newline=st.sampled_from(["\n", "\r\n"]))
def test_fuzz_near_valid_config_through_cli(tmp_path, monkeypatch, capsys, lines, newline):
    config = _fuzz_workspace(tmp_path, monkeypatch, capsys)
    config.write_text("".join(line + newline for line, _ in lines), encoding="utf-8")
    code, err = _extract_with(config, capsys)
    bad = [number for number, (_, is_bad) in enumerate(lines, start=1) if is_bad]
    if bad:
        assert code == 2
        assert err.startswith(f"error: {config}:{bad[0]}: ")
    else:
        # the reader accepts the file; a named dictionary may still be missing
        assert code == 0 or (code == 2 and f"{config}:" not in err)


# ---------------------------------------------------------------------------
# Every file input, fuzzed through all five subcommands

# Tokens that a pattern of several [A-Z0-9]+ runs fails on only after trying
# every split, if it backtracks.
_LONG_TOKENS = ("A" * 80 + "!", "1" * 80 + "-", "AB12" * 20 + ".")
_WORDS = ("Wells", "Fargo", "BANK", "TRUST", "2006-A1", "SERIES", ",", "N.A.", "of", "the", "Servicer:",
          "SUMMARY", "TABLE", "CONTENTS", "#", "re:", "ß", "ﬁ", "\x00", "\x0b", "\ufeff", "WF") + _LONG_TOKENS
_PATTERN_PIECE = st.sampled_from(["[A-Z0-9]+", "[A-Z0-9]+", "[A-Z0-9]+", r"\d{2}", r"\d{0}", r"\d{4}",
                                  r"\d{99999999999}", r"\d{٤}", "-", "A", "1", "[", "{"])
_PATTERN = st.lists(st.lists(_PATTERN_PIECE, min_size=1, max_size=6).map("".join), max_size=2).map(" ".join)
_NUMBER = st.sampled_from(["0", "1", "-3", "0.5", "nan", "inf", "1e400", "x", "", "99999999999999999999"])
_PHRASE = st.lists(st.sampled_from(_WORDS), max_size=5).map(" ".join)
_TSV_FIELD = st.one_of(_NUMBER, _PHRASE, st.sampled_from(["doc1.txt", "doc2.txt", "-"]))


def _lines(line):
    return st.lists(line, max_size=5).map(lambda lines: "".join(text + "\n" for text in lines))


def _tsv(columns):
    return _lines(st.lists(_TSV_FIELD, min_size=columns - 1, max_size=columns + 1).map("\t".join))


# Each file input: its valid text, and near-valid lines for it.
_FUZZ_INPUTS = {
    "doc1.txt": ("Servicer: Wells Fargo BANK, N.A. and Wells Fargo TRUST 2006-A1.\n",
                 st.lists(st.sampled_from(_WORDS + ("\n", ".")), max_size=30).map(" ".join)),
    "doc2.txt": ("SUMMARY\nTrustee: Wells Fargo " + _LONG_TOKENS[0] + "\nTABLE OF CONTENTS\n", _lines(_PHRASE)),
    "names.txt": ("WELLS FARGO BANK, N.A.\nWELLS FARGO TRUST 2006-A1\n", _lines(_PHRASE)),
    "corpus.txt": ("WELLS FARGO BANK\nWELLS FARGO TRUST\n", _lines(_PHRASE)),
    "root.dict": ("WELLS FARGO\n", _lines(st.one_of(_PHRASE, _PATTERN.map("re:".__add__)))),
    "suffix.dict": ("BANK\n, N.A.\nre:TRUST \\d{4}-[A-Z0-9]+\n", _lines(st.one_of(_PHRASE, _PATTERN.map("re:".__add__)))),
    "patterns.txt": ("SERIES \\d{4}-[A-Z0-9]+\tSERIES 2005-HE3\n",
                     _lines(st.tuples(_PATTERN, _PHRASE).map(lambda p: f"{p[0]}\t{p[1]}" if p[1] else p[0]))),
    "custom_roots.txt": ("FARGO\n", _lines(_PHRASE)),
    "custom_suffixes.txt": ("re:" + "[A-Z0-9]+" * 6 + "\n", _lines(st.one_of(_PHRASE, _PATTERN.map("re:".__add__)))),
    "invalid.txt": ("THE BANK\n", _lines(_PHRASE)),
    "stop_words.txt": ("THE\nOF\n", _lines(_PHRASE)),
    "abbreviations.txt": ("WF\tWELLS FARGO\n", _lines(st.tuples(_PHRASE, _PHRASE).map("\t".join))),
    "weights.txt": ("BANK\t0.5\n", _lines(st.tuples(_PHRASE, _NUMBER).map("\t".join))),
    "mentions.tsv": ("doc1.txt\t10\t35\tBODY\tWells Fargo BANK, N.A.\n", _tsv(5)),
    "gold.tsv": ("doc1.txt\t10\t35\tWells Fargo BANK, N.A.\n", _tsv(4)),
    "labeled.tsv": ("Wells Fargo BANK\tWELLS FARGO BANK\n", _tsv(2)),
    "pipeline.conf": ("window=5\n", _lines(st.tuples(st.sampled_from(_KEYS), st.one_of(
        _NUMBER, st.sampled_from(["names.txt", "corpus.txt", "root.dict", "missing.txt", "SERVICER,TRUSTEE"]))
    ).map("=".join))),
}


@st.composite
def _fuzzed_files(draw):
    """The bytes of every file input: most valid, some near-valid or random."""
    files = {}
    for name, (valid, near_valid) in _FUZZ_INPUTS.items():
        kind = draw(st.sampled_from(["valid", "valid", "near_valid", "bytes"]))
        if kind == "bytes":
            files[name] = draw(st.binary(max_size=40))
        else:
            files[name] = (valid if kind == "valid" else draw(near_valid)).encode("utf-8")
    return files


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=_fuzzed_files(), role_filter=st.booleans())
def test_fuzz_every_file_input_through_cli(tmp_path, monkeypatch, capsys, files, role_filter):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        Path(name).write_bytes(data)
    config = ["--config", "pipeline.conf"]
    resolver = ["--corpus", "corpus.txt", "--stop-words", "stop_words.txt", "--abbreviations",
                "abbreviations.txt", "--weight-overrides", "weights.txt"]
    runs = [
        ["build-dicts", *config, "--name-lists", "names.txt", "--patterns", "patterns.txt", "--output", "built"],
        ["extract", *config, "--root-dict", "root.dict", "--suffix-dict", "suffix.dict", "--custom-roots",
         "custom_roots.txt", "--custom-suffixes", "custom_suffixes.txt", "--invalid-elements", "invalid.txt",
         *(["--role-filter"] if role_filter else []), "--output", "extracted.tsv", "doc1.txt", "doc2.txt"],
        ["resolve", *config, *resolver, "--output", "resolved.tsv", "mentions.tsv"],
        ["eval", *config, "mentions.tsv", "gold.tsv", "--output", "report.tsv"],
        ["pr-curve", *config, *resolver, "--output", "pr.csv", "labeled.tsv"],
    ]
    for argv in runs:
        assert main(argv) in (0, 1, 2), argv
    capsys.readouterr()
