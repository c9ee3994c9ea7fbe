"""Spans around the public functions of each layer, recorded from outside.

``Tracer.install`` wraps module attributes of the ``finames`` package (the
functions the CLI calls into, plus the per-query steps of ``er``), so a
pipeline driven through ``finames.cli.main`` in this process records one span
per call: name, start, end, parent span and run id. Spans stay in memory and
are written out by ``Tracer.dump`` when the run ends. Nothing inside the
package changes; ``Tracer.restore`` puts the original functions back.

A span's layer is the part of its name before the first dot; the layers are
the package modules ``ingest``, ``dict_gen``, ``ner``, ``er``, ``evaluation``
and ``cli``.
"""
from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

LAYERS = ("ingest", "dict_gen", "ner", "er", "evaluation", "cli")

Hook = Callable[["Tracer", tuple, Any, "Span"], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    run: str = ""
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        span = Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str, hook: Hook | None = None, skip_under: str | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper. Calls made directly
        inside a span named ``skip_under`` run untraced. A missing attribute
        raises, and so does a failing hook: a span or counter that is gone
        must fail the run, not read 0."""
        original = getattr(owner, attr, None)
        if original is None:
            raise RuntimeError(f"cannot trace {name}: {getattr(owner, '__name__', owner)}.{attr} is missing")
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if skip_under and tracer._stack and tracer.spans[tracer._stack[-1]].name == skip_under:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            result = tracer.span(name, original, *args, **kwargs)
            if hook is not None:
                try:
                    hook(tracer, args, result, tracer.spans[index])
                except Exception as exc:
                    raise RuntimeError(f"counter of {name} failed: {exc!r}") from exc
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                      "parent": span.parent, "run": span.run}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the CLI crosses, with their counters."""
    from finames import cli, dict_gen, er, evaluation, ner

    threshold = er.ErConfig().threshold

    def doc_loaded(t: Tracer, args: tuple, result: Any, span: Span) -> None:
        t.counts["ingest.docs"] += 1
        t.counts["ingest.bytes"] += os.path.getsize(args[0])

    def extracted(t: Tracer, args: tuple, result: Any, span: Span) -> None:
        t.counts["ner.mentions"] += len(result)

    def role_filtered(t: Tracer, args: tuple, result: Any, span: Span) -> None:
        t.counts["ner.role_in"] += len(args[0])
        t.counts["ner.role_kept"] += len(result)

    def dicts_built(t: Tracer, args: tuple, result: Any, span: Span) -> None:
        t.counts["dict_gen.root_entries"] = len(result[0])

    def corpus_built(t: Tracer, args: tuple, result: Any, span: Span) -> None:
        t.counts["er.corpus_builds"] += 1
        t.counts["er.postings"] += sum(len(ids) for ids in result.inverted_index.values())

    def candidates(t: Tracer, args: tuple, result: Any, span: Span) -> None:
        t.counts["er.candidate_calls"] += 1
        t.counts["er.candidates"] += len(result)

    def matched(t: Tracer, args: tuple, result: Any, span: Span) -> None:
        t.samples["er.best_match"].append(span.duration)
        t.counts["er.queries"] += 1
        t.counts["er.matched"] += result is not None and result.score >= threshold

    def labelled(t: Tracer, args: tuple, result: Any, span: Span) -> None:
        t.counts["evaluation.mention_gold_pairs"] += len(args[0]) * len(args[1])

    # Functions the CLI imported by name are wrapped where it looks them up.
    tracer.wrap(cli, "load_name_list", "ingest.load_name_list")
    tracer.wrap(cli, "load_document", "ingest.load_document", doc_loaded)
    tracer.wrap(cli, "generate_dictionaries", "dict_gen.generate_dictionaries", dicts_built)
    tracer.wrap(dict_gen, "save_root_dictionary", "dict_gen.save")
    tracer.wrap(dict_gen, "save_suffix_dictionary", "dict_gen.save")
    tracer.wrap(dict_gen, "load_root_dictionary", "dict_gen.load")
    tracer.wrap(dict_gen, "load_suffix_dictionary", "dict_gen.load")
    tracer.wrap(ner.Extractor, "__init__", "ner.extractor_init")
    tracer.wrap(ner.Extractor, "extract", "ner.extract", extracted)
    tracer.wrap(ner, "filter_by_role_keyword", "ner.filter_by_role_keyword", role_filtered)
    tracer.wrap(er, "build_corpus", "er.build_corpus", corpus_built)
    # preprocess runs once per corpus name inside build_corpus; only the
    # per-query calls are traced.
    tracer.wrap(er, "preprocess", "er.preprocess", skip_under="er.build_corpus")
    tracer.wrap(evaluation, "preprocess", "er.preprocess")
    tracer.wrap(er.Corpus, "candidate_ids", "er.candidate_ids", candidates)
    tracer.wrap(er, "best_match", "er.best_match", matched)
    tracer.wrap(evaluation, "label_mentions", "evaluation.label_mentions", labelled)
    tracer.wrap(evaluation, "count", "evaluation.count")
    tracer.wrap(evaluation, "metrics", "evaluation.metrics")
    tracer.wrap(evaluation, "variant_best_match", "evaluation.variant_best_match")
    tracer.wrap(evaluation, "pr_curve", "evaluation.pr_curve")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, else the
    maximum: (percentile, value, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 0
    for pct in (99.9, 99.0, 90.0):
        if n * (100 - pct) / 100 >= 10:
            return pct, ordered[min(n - 1, int(n * pct / 100))], n
    return 100.0, ordered[-1], n


# Spans whose self time is reported as ``<name>.s``.
TIMED = (
    "ingest.load_document", "ner.tokenize", "ner.extract", "ner.filter_by_role_keyword",
    "dict_gen.generate_dictionaries", "dict_gen.load", "ner.extractor_init", "er.build_corpus",
    "er.preprocess", "er.candidate_ids", "er.best_match",
    "evaluation.label_mentions", "evaluation.count", "evaluation.variant_best_match", "evaluation.pr_curve",
)


def pass_metrics(tracer: Tracer, pass_runs: set[str], tokenize_runs: set[str], expected: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline pass.

    ``pass_runs`` are the run ids of the pass's CLI commands; ``tokenize_runs``
    the run ids of the benchmark's own extra tokenize calls. Raises when a span
    named in ``expected`` was never recorded, so that a function the pipeline
    no longer calls fails the run instead of reporting 0 s.
    """
    own = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    seen: set[str] = set()
    total = 0.0
    for span, self_time in zip(tracer.spans, own):
        if span.run in pass_runs:
            by_name[span.name] += self_time
            by_layer[span.name.split(".", 1)[0]] += self_time
            if span.parent < 0:
                total += span.duration
        elif span.run in tokenize_runs:
            by_name[span.name] += self_time
        else:
            continue
        seen.add(span.name)
    lost = sorted(expected - seen)
    if lost:
        raise RuntimeError(f"traced pass recorded no span named {', '.join(lost)}")
    metrics = {f"{name}.s": by_name[name] for name in TIMED}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = by_layer[layer] / total if total else 0.0
    metrics["trace.pass_s"] = total
    return metrics


def count_metrics(counts: dict[str, float], samples: dict[str, list[float]], passes: int) -> dict[str, float]:
    """Counters per pass and the useful-to-attempted ratios."""
    def per(key: str) -> float:
        return counts.get(key, 0.0) / passes

    def ratio(num: str, den: str, empty: float) -> float:
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else empty

    best = [s * 1000 for s in samples.get("er.best_match", [])]
    pct, tail_ms, n = tail(best)
    return {
        "ingest.docs": per("ingest.docs"),
        "ingest.mb": per("ingest.bytes") / 1e6,
        "ner.tokens": per("ner.tokens"),
        "ner.mentions": per("ner.mentions"),
        # 1 when the workload runs no role filter: nothing is dropped.
        "ner.role_keep_ratio": ratio("ner.role_kept", "ner.role_in", 1.0),
        "dict_gen.root_entries": counts.get("dict_gen.root_entries", 0.0),
        "er.postings": ratio("er.postings", "er.corpus_builds", 0.0),
        "er.candidates_per_query": ratio("er.candidates", "er.candidate_calls", 0.0),
        "er.best_match.p50_ms": statistics.median(best) if best else 0.0,
        "er.best_match.tail_ms": tail_ms,
        "er.best_match.tail_pct": pct,
        "er.best_match.samples": float(n),
        "er.matched_ratio": ratio("er.matched", "er.queries", 0.0),
        "evaluation.mention_gold_pairs": per("evaluation.mention_gold_pairs"),
    }
