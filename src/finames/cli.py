"""Command-line front end wiring the pipeline together.

Subcommands: build-dicts, extract, resolve, eval, pr-curve. Every setting can
come from a key=value config file (--config) and be overridden by a flag of
the same name. Exit codes: 0 success, 1 partial success (some inputs were
skipped), 2 usage or validation error.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

# ``ner``, ``er`` and ``evaluation`` are imported by the commands that use
# them, so build-dicts and extract load no resolver and only extract the matcher.
from . import dict_gen
from .dict_gen import BUILTIN_SUFFIX_PATTERNS, RootDictionary, SuffixDictionary, generate_dictionaries
from .ingest import (
    BODY,
    DEFAULT_HEADER_MARKERS,
    DEFAULT_SUMMARY_END_MARKERS,
    HEADER,
    SUMMARY,
    SectionConfig,
    load_document,
    load_name_list,
    normalize_name,
)
from .textutil import entry_lines, read_utf8

if TYPE_CHECKING:
    from . import er
SECTION_LABELS = (HEADER, SUMMARY, BODY)


class CliError(Exception):
    """Validation or usage problem; maps to exit code 2."""


def _csv(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip())


# How a setting's text, from a config file or a flag, becomes its value; any
# setting not listed is a plain string.
_PARSERS = {
    "name_lists": _csv,
    "header_markers": _csv,
    "summary_end_markers": _csv,
    "role_keywords": _csv,
    "threshold": float,
    "window": int,
}


class PipelineConfig(NamedTuple):
    name_lists: tuple[str, ...] = ()
    root_dict: str = "root.dict"
    suffix_dict: str = "suffix.dict"
    patterns: str | None = None
    custom_roots: str | None = None
    custom_suffixes: str | None = None
    invalid_elements: str | None = None
    corpus: str | None = None
    stop_words: str | None = None
    abbreviations: str | None = None
    weight_overrides: str | None = None
    header_markers: tuple[str, ...] = DEFAULT_HEADER_MARKERS
    summary_end_markers: tuple[str, ...] = DEFAULT_SUMMARY_END_MARKERS
    threshold: float | None = None  # None: er.ErConfig's default
    role_keywords: tuple[str, ...] | None = None  # None: ner's default
    window: int | None = None  # None: ner's default

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        values: dict[str, object] = {}
        for number, line in entry_lines(path):
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in cls._fields:
                raise CliError(f"{path}:{number}: unknown or malformed config entry {line!r}")
            try:
                values[key] = _PARSERS.get(key, str)(value)
            except ValueError:
                raise CliError(f"{path}:{number}: bad {key} {value!r}") from None
        return cls(**values)  # type: ignore[arg-type]

    def section_config(self) -> SectionConfig:
        return SectionConfig(tuple(self.header_markers), tuple(self.summary_end_markers))


def _existing(path: str | Path, role: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{role} file not found: {p}")
    return p


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """The --config file's settings (or the defaults), each one given as a flag replaced."""
    config = PipelineConfig.from_file(_existing(args.config, "config")) if args.config else PipelineConfig()
    return config._replace(**{name: v for name in config._fields if (v := getattr(args, name, None)) is not None})


def cmd_build_dicts(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if not config.name_lists:
        raise CliError("build-dicts requires at least one name list (name_lists)")
    root_path, suffix_path = Path(config.root_dict), Path(config.suffix_dict)
    if args.output:
        # --output names the directory; configured paths contribute the file names
        root_path, suffix_path = args.output / root_path.name, args.output / suffix_path.name
    if root_path.resolve() == suffix_path.resolve():
        raise CliError(f"root and suffix dictionaries are the same file: {root_path}")
    lists = []
    for path in config.name_lists:
        source = Path(path)
        lists.append(load_name_list(_existing(source, "name list"), source.name))
    patterns = list(BUILTIN_SUFFIX_PATTERNS)
    if config.patterns:
        patterns.extend(dict_gen.load_suffix_patterns(_existing(config.patterns, "patterns")))
    roots, suffixes = generate_dictionaries(lists, patterns=tuple(patterns))
    if args.output:
        args.output.mkdir(parents=True, exist_ok=True)
    # Each dictionary is written to a temporary sibling; both are moved into
    # place only once both are written, so a failed write leaves the old pair.
    temporary = {path: path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in (root_path, suffix_path)}
    try:
        for save, dictionary, path in ((dict_gen.save_root_dictionary, roots, root_path),
                                       (dict_gen.save_suffix_dictionary, suffixes, suffix_path)):
            try:
                save(dictionary, temporary[path])
            except OSError as exc:  # named by the file it was to become
                raise OSError(exc.errno, exc.strerror, str(path)) from None
        for path, written in temporary.items():
            os.replace(written, path)
    finally:
        for written in temporary.values():
            written.unlink(missing_ok=True)
    for name_list in lists:
        print(
            f"{name_list.source_id}: {len(name_list)} names"
            f" ({name_list.dropped_short} short, {name_list.dropped_duplicates} duplicates dropped)"
        )
    print(f"root entries: {len(roots)} -> {root_path}")
    print(f"suffix literals: {len(suffixes.literals)}, patterns: {len(suffixes.pattern_entries)} -> {suffix_path}")
    return 0


def _parse_sections(value: str) -> set[str]:
    if value.strip().lower() == "all":
        return set(SECTION_LABELS)
    wanted = {part.upper() for part in _csv(value)}
    unknown = wanted - set(SECTION_LABELS)
    if unknown:
        raise CliError(f"unknown sections: {sorted(unknown)}")
    if not wanted:
        raise CliError(f"no sections selected: {value!r}")
    return wanted


def cmd_extract(args: argparse.Namespace) -> int:
    from . import ner
    config = _load_config(args)
    keywords, window = ner._role_settings(config.role_keywords, config.window)  # checked with or without --role-filter
    roots = dict_gen.load_root_dictionary(_existing(config.root_dict, "root dictionary"))
    suffixes = dict_gen.load_suffix_dictionary(_existing(config.suffix_dict, "suffix dictionary"))
    # Customizations are more entries for the same dictionaries.
    custom_roots = invalid = RootDictionary(())
    custom_suffixes = SuffixDictionary(RootDictionary(()))
    if config.custom_roots:
        custom_roots = dict_gen.load_root_dictionary(_existing(config.custom_roots, "custom roots"))
    if config.custom_suffixes:
        custom_suffixes = dict_gen.load_suffix_dictionary(_existing(config.custom_suffixes, "custom suffixes"))
    if config.invalid_elements:
        invalid = dict_gen.load_root_dictionary(_existing(config.invalid_elements, "invalid elements"))
    overlap = invalid.entries & (custom_roots.entries | custom_suffixes.literal_entries)
    if overlap:
        raise CliError(f"invalid elements overlap custom dictionaries: {sorted(overlap)}")
    extractor = ner.Extractor(roots | custom_roots, suffixes | custom_suffixes, invalid)
    section_config = config.section_config()
    wanted_sections = _parse_sections(args.sections)

    skipped: list[str] = []
    mentions: list[ner.Mention] = []
    read_from: dict[str, str] = {}  # document id -> the path it was read from
    for path in args.documents:
        try:
            doc = load_document(path, section_config)
        except OSError as exc:
            skipped.append(f"{path}: {exc}")
            continue
        except ValueError as exc:  # undecodable; the message names the file
            skipped.append(str(exc))
            continue
        if "\t" in doc.doc_id or doc.doc_id.splitlines() != [doc.doc_id]:  # mentions.tsv could not be read back
            skipped.append(f"{path}: document id {doc.doc_id!r} holds a tab or a line break")
            continue
        if doc.doc_id in read_from:  # its mentions' offsets would index two texts
            skipped.append(f"{path}: document id {doc.doc_id} already read from {read_from[doc.doc_id]}")
            continue
        read_from[doc.doc_id] = path
        found = extractor.extract(doc)
        if args.role_filter:
            found = ner.filter_by_role_keyword(found, doc, keywords, window)
        mentions.extend(m for m in found if m.section in wanted_sections)
    mentions.sort(key=lambda m: (m.doc_id, m.start, m.end))
    lines = [f"{m.doc_id}\t{m.start}\t{m.end}\t{m.section}\t{m.surface}" for m in mentions]
    _emit("".join(line + "\n" for line in lines), args.output)
    for problem in skipped:
        print(f"skipped {problem}", file=sys.stderr)
    return 1 if skipped else 0


def _read_tsv(path: Path, columns: int, expected: str, spans: bool = True) -> list[list]:
    """Non-blank rows of a tab-separated file with at least ``columns`` columns;
    with ``spans``, columns 2 and 3 are parsed as offsets with 0 <= start < end."""
    rows = []
    for number, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts: list = line.split("\t")
        if len(parts) < columns:
            raise CliError(f"{path}:{number}: expected {expected}")
        if spans:
            try:
                parts[1], parts[2] = int(parts[1]), int(parts[2])
            except ValueError:
                raise CliError(f"{path}:{number}: start/end are not integers")
            if not 0 <= parts[1] < parts[2]:
                raise CliError(f"{path}:{number}: bad span")
        rows.append(parts)
    return rows


def _build_corpus(config: PipelineConfig) -> tuple[er.Corpus, er.ErConfig]:
    from . import er
    if not config.corpus:
        raise CliError("a corpus file is required (corpus)")
    # ErConfig's other fields come from er.load_<field> of the file a setting
    # names; a setting left unset keeps ErConfig's default.
    loaded = {
        name: getattr(er, f"load_{name}")(_existing(path, name))
        for name in er.ErConfig._fields
        if name != "threshold" and (path := getattr(config, name))
    }
    if config.threshold is not None:
        loaded["threshold"] = config.threshold
    er_config = er.ErConfig(**loaded)
    names = load_name_list(_existing(config.corpus, "corpus"), "corpus")
    if not names.names:
        raise CliError(f"corpus is empty: {config.corpus}")
    return er.build_corpus(names, er_config), er_config


def cmd_resolve(args: argparse.Namespace) -> int:
    from . import er
    config = _load_config(args)
    corpus, er_config = _build_corpus(config)
    rows = _read_tsv(_existing(args.mentions, "mentions"), 5, "5 tab-separated columns")
    # each distinct surface is resolved once
    by_surface = {s: er.best_match(s, corpus, er_config) for s in dict.fromkeys(row[4] for row in rows)}
    lines = []
    for row in rows:
        surface = row[4]
        result = by_surface[surface]
        if result is None:
            lines.append(f"{surface}\t-\t{0.0:.6f}\t0")
        elif result.score >= er_config.threshold:
            lines.append(f"{surface}\t{result.entry_name}\t{result.score:.6f}\t1")
        else:
            lines.append(f"{surface}\t-\t{result.score:.6f}\t0")
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluation
    _load_config(args)  # eval takes no setting, but a bad --config is still an error
    rows = _read_tsv(_existing(args.mentions, "mentions"), 5, "5 tab-separated columns")
    gold_rows = _read_tsv(_existing(args.gold, "gold"), 4, "4 tab-separated columns")
    gold = [evaluation.GoldMention(*row[:4]) for row in gold_rows]
    if not gold:
        raise CliError("gold file is empty")
    try:
        labeled = evaluation.label_mentions([(r[0], r[1], r[2]) for r in rows], gold)
        counts = evaluation.count(labeled, gold)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = evaluation.metrics(counts)
    print(evaluation.render_report(counts, report))
    if args.output:
        names, values = zip(*evaluation._report_columns(counts, report))
        _emit("\t".join(names) + "\n" + "\t".join(values) + "\n", args.output)
    return 0


def cmd_pr_curve(args: argparse.Namespace) -> int:
    from . import er, evaluation
    if args.variant not in er.SCORE_VARIANTS:
        raise CliError(f"unknown variant {args.variant!r}; expected one of {', '.join(er.SCORE_VARIANTS)}")
    config = _load_config(args)
    corpus, er_config = _build_corpus(config)
    pairs: list[tuple[float, bool]] = []
    rows = _read_tsv(_existing(args.labeled, "labeled results"), 2, "MENTION<TAB>EXPECTED_NAME", spans=False)
    for mention, expected, *_ in rows:
        best = evaluation.variant_best_match(args.variant, mention, corpus, er_config)
        if best is None:
            pairs.append((0.0, False))
        else:
            entry_id, score = best
            pairs.append((score, expected != "-" and corpus.name(entry_id) == normalize_name(expected).text))
    try:
        points = evaluation.pr_curve(pairs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    lines = ["threshold,precision,recall"]
    lines += [f"{p.threshold:.6f},{p.precision:.6f},{p.recall:.6f}" for p in points]
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


def _add_settings(parser: argparse.ArgumentParser, *names: str) -> None:
    """A flag per setting: ``--a-b`` for setting ``a_b``, parsed as in a config file."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=_PARSERS.get(name, str),
                            help="comma-separated name list paths" if name == "name_lists" else None)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key=value config file")
    common.add_argument("--output", type=Path, help="output file (or directory for build-dicts)")
    resolver = ("corpus", "stop_words", "abbreviations", "weight_overrides")

    parser = argparse.ArgumentParser(prog="finames", description="Extract and resolve financial-institution names.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dicts", parents=[common], help="generate root/suffix dictionaries from name lists")
    _add_settings(p, "name_lists", "root_dict", "suffix_dict", "patterns")
    p.set_defaults(func=cmd_build_dicts)

    p = sub.add_parser("extract", parents=[common], help="extract mentions from documents to TSV")
    p.add_argument("documents", nargs="*")
    p.add_argument("--sections", default="all", help="'all' or comma-separated labels (header,summary)")
    p.add_argument("--role-filter", action="store_true", help="keep only mentions near a role keyword")
    _add_settings(p, "role_keywords", "window", "root_dict", "suffix_dict", "custom_roots", "custom_suffixes",
                  "invalid_elements", "header_markers", "summary_end_markers")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("resolve", parents=[common], help="resolve a mentions TSV against the corpus")
    p.add_argument("mentions", type=Path)
    _add_settings(p, *resolver, "threshold")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("eval", parents=[common], help="score a mentions TSV against gold annotations")
    p.add_argument("mentions", type=Path)
    p.add_argument("gold", type=Path)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pr-curve", parents=[common], help="precision-recall curve for a scoring variant")
    p.add_argument("labeled", type=Path)
    p.add_argument("--variant", default="full", help="scoring variant: idf, sq, sqsc or full (default: full)")
    _add_settings(p, *resolver)
    p.set_defaults(func=cmd_pr_curve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
