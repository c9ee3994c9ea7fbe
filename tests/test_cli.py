import pytest

from finames.cli import main

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
    assert f"skipped {bad}: " in capsys.readouterr().err
    assert out_path.read_text(encoding="utf-8") == good.read_text(encoding="utf-8")


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
