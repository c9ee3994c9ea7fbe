"""Output checks run outside the timed region.

Every check returns ``(attempted, failed, problems)``; each failed check is one
failed operation in the run's result. The fast paths are compared with the
brute-force definitions in ``tests/oracles.py`` of the same checkout.
"""
from __future__ import annotations

import importlib.util
import random
import re
from pathlib import Path

# The package's token rule for the plain-ASCII text the generator writes:
# runs of non-separator characters, with commas split off.
_TOKEN = re.compile(r"[^\s,\x00-\x1f\x7f]+|,")

Result = tuple[int, int, list[str]]
WINDOW_TOKENS = 24


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_tsv(path: Path) -> list[list[str]]:
    """Tab-separated rows; none when the file is missing (a failed command
    is counted where its exit code is seen)."""
    if not path.is_file():
        return []
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def best_match_sample(root: Path, corpus_path: Path, queries: list[str], seed: int, size: int) -> Result:
    """``er.best_match`` against ``ob_best_match``: same entry id, same score."""
    from finames import er, ingest

    oracles = load_oracles(root)
    config = er.ErConfig()
    corpus = er.build_corpus(ingest.load_name_list(corpus_path, "corpus"), config)
    sample = random.Random(seed).sample(queries, min(size, len(queries)))
    problems = []
    for surface in sample:
        got = er.best_match(surface, corpus, config)
        want = oracles.ob_best_match(er.preprocess(surface, config).tokens, corpus.tokens, corpus.weight)
        got_pair = None if got is None else (got.entry_id, got.score)
        if got_pair != want:
            problems.append(f"best_match({surface!r}) = {got_pair}, oracle {want}")
    return len(sample), len(problems), problems


def extract_windows(root: Path, dict_dir: Path, docs: list[Path], gold: list[list[str]],
                    seed: int, size: int) -> Result:
    """``Extractor.extract`` against ``ob_extract_spans`` on short token
    windows, half starting just before a gold name and half anywhere."""
    from finames import dict_gen, ingest, ner

    oracles = load_oracles(root)
    roots = dict_gen.load_root_dictionary(dict_dir / "root.dict")
    suffixes = dict_gen.load_suffix_dictionary(dict_dir / "suffix.dict")
    extractor = ner.Extractor(roots, suffixes)
    by_name = {path.name: path for path in docs}
    rng = random.Random(seed)
    problems = []
    for i in range(size):
        if i % 2 == 0 and gold:
            doc_id, start = rng.choice(gold)[:2]
            text = by_name[doc_id].read_text(encoding="utf-8")
            tokens = list(_TOKEN.finditer(text))
            first = max(0, next(k for k, m in enumerate(tokens) if m.start() >= int(start)) - rng.randint(0, 4))
        else:
            text = rng.choice(docs).read_text(encoding="utf-8")
            tokens = list(_TOKEN.finditer(text))
            first = rng.randrange(max(1, len(tokens) - WINDOW_TOKENS))
        window = tokens[first : first + WINDOW_TOKENS]
        if not window:
            continue
        base = window[0].start()
        piece = text[base : window[-1].end()]
        starts = {m.start() - base: k for k, m in enumerate(window)}
        ends = {m.end() - base: k + 1 for k, m in enumerate(window)}
        mentions = extractor.extract(ingest.document_from_text("window", piece))
        try:
            got = [(starts[m.start], ends[m.root_end], ends[m.end]) for m in mentions]
        except KeyError:
            problems.append(f"extract window {piece[:60]!r}: a mention ends off a token boundary")
            continue
        want = oracles.ob_extract_spans(
            [m.group().upper() for m in window], set(roots.entries), set(suffixes.literal_entries),
            suffixes.pattern_entries,
        )
        if got != [tuple(span) for span in want]:
            problems.append(f"extract window {piece[:60]!r}: {got} != oracle {want}")
    return size, len(problems), problems
