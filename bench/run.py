"""Benchmark of the finames pipeline, run from the repository root:

    python3 bench/run.py --workload filings --seed 1 --seconds 40 --trace 0

It generates the workload's inputs from the seed, then repeats passes of the
pipeline for about ``--seconds`` seconds. With ``--trace 0`` every command is
a separate ``python -m finames.cli`` process (``PYTHONPATH=src``), started
one at a time, and the result holds the end-to-end metrics as medians over
the passes. With ``--trace 1`` the same commands run through
``finames.cli.main`` inside this process, alternating untraced passes with
passes traced by ``tracing.py``, and the result holds the per-layer metrics.
Both modes check the outputs (``checks.py``) outside the timed region.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Metric names and units come from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 150
ORACLE_QUERIES = 8
ORACLE_WINDOWS = 16

SETUP = ("build-dicts", "extract-empty", "resolve-empty")
PIPELINE = ("build-dicts", "extract", "resolve", "eval", "pr-curve")
OUTPUTS = ("dicts/root.dict", "dicts/suffix.dict", "mentions.tsv", "resolved.tsv", "report.tsv", "pr.csv")


@dataclass
class Inputs:
    workload: str
    dir: Path
    spec: gen.Spec
    docs: list[Path]
    doc_mb: float
    labeled: int

    def commands(self, out: Path) -> dict[str, list[str]]:
        """CLI arguments of every command, writing into ``out``; paths are
        relative to the repository root, the commands' working directory."""
        def rel(path: Path) -> str:
            return os.path.relpath(path, ROOT)

        i, d = self.dir, out / "dicts"
        dicts = ["--root-dict", rel(d / "root.dict"), "--suffix-dict", rel(d / "suffix.dict")]
        corpus = ["--corpus", rel(i / "corpus.txt")]
        role = ["--role-filter"] if self.spec.role_filter else []
        return {
            "build-dicts": ["build-dicts", "--name-lists", f"{rel(i / 'list_a.txt')},{rel(i / 'list_b.txt')}",
                            "--output", rel(d)],
            "extract-empty": ["extract", *dicts, "--output", rel(out / "empty_mentions.tsv")],
            "resolve-empty": ["resolve", *corpus, "--output", rel(out / "empty_resolved.tsv"), rel(i / "empty.tsv")],
            "extract": ["extract", *dicts, *role, "--output", rel(out / "mentions.tsv"), *map(rel, self.docs)],
            "resolve": ["resolve", *corpus, "--output", rel(out / "resolved.tsv"), rel(out / "mentions.tsv")],
            "eval": ["eval", rel(out / "mentions.tsv"), rel(i / "gold.tsv"), "--output", rel(out / "report.tsv")],
            "pr-curve": ["pr-curve", rel(i / "labeled.tsv"), *corpus, "--variant", "full",
                         "--output", rel(out / "pr.csv")],
        }


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def prepare(workload: str, seed: int, work: Path, spec: gen.Spec | None) -> Inputs:
    spec = gen.generate(workload, seed, work / "in", spec)
    (work / "in" / "empty.tsv").write_text("", encoding="utf-8")
    docs = sorted((work / "in" / "docs").iterdir())
    labeled = len(checks.read_tsv(work / "in" / "labeled.tsv"))
    return Inputs(workload, work / "in", spec, docs, sum(p.stat().st_size for p in docs) / 1e6, labeled)


def run_cli(argv: list[str], log: Path) -> tuple[float, int, str]:
    """One ``python -m finames.cli`` process: (wall seconds, exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "finames.cli", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        # A blocking wait returns as soon as the child exits; wait(timeout=...)
        # polls with sleeps of up to 50 ms, which would quantize every timing.
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    return seconds, code, log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")


def pass_failures(name: str, code: int, stderr: str, inputs: Inputs, queries: int) -> tuple[int, str] | None:
    """Failed operations of one command: a non-zero exit or a skipped input."""
    skipped = sum(1 for line in stderr.splitlines() if line.startswith("skipped"))
    if code == 0 and not skipped:
        return None
    weight = {"extract": len(inputs.docs), "resolve": queries, "pr-curve": inputs.labeled}.get(name, 1)
    return (weight if code else skipped), f"{name}: exit {code}, {skipped} skipped: {stderr.strip()[-300:]}"


def compare_outputs(first: Path, other: Path, tally: Tally, label: str) -> None:
    for name in OUTPUTS:
        a, b = first / name, other / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            tally.fail(1, f"{label}: {name} differs from {first.name}")


def distinct_surfaces(mentions: Path) -> list[str]:
    return list(dict.fromkeys(row[4] for row in checks.read_tsv(mentions) if len(row) > 4))


def quality(inputs: Inputs, out: Path, tally: Tally) -> dict[str, float]:
    """strict/partial F1 from ``eval`` and resolution accuracy on exact spans."""
    values = {"strict_f1": 0.0, "partial_f1": 0.0, "resolve_accuracy": 0.0}
    try:
        header, row = checks.read_tsv(out / "report.tsv")[:2]
        report = dict(zip(header, row))
        values["strict_f1"], values["partial_f1"] = float(report["f1"]), float(report["par_f1"])
    except (OSError, ValueError, KeyError) as exc:
        tally.fail(1, f"eval report unreadable: {exc}")
    mentions = checks.read_tsv(out / "mentions.tsv")
    resolved = checks.read_tsv(out / "resolved.tsv")
    if len(mentions) != len(resolved):
        tally.fail(1, f"resolve wrote {len(resolved)} rows for {len(mentions)} mentions")
    names = {tuple(m[:3]): r[1] for m, r in zip(mentions, resolved) if len(r) > 1}
    hits = [names[(d, s, e)] == want for d, s, e, want in checks.read_tsv(inputs.dir / "expected.tsv")
            if (d, s, e) in names]
    values["resolve_accuracy"] = sum(hits) / len(hits) if hits else 0.0
    return values


def oracle_checks(inputs: Inputs, out: Path, seed: int, tally: Tally) -> None:
    gold = checks.read_tsv(inputs.dir / "gold.tsv")
    queries = distinct_surfaces(out / "mentions.tsv")
    tally.add(*checks.best_match_sample(ROOT, inputs.dir / "corpus.txt", queries, seed, ORACLE_QUERIES))
    tally.add(*checks.extract_windows(ROOT, out / "dicts", inputs.docs, gold, seed, ORACLE_WINDOWS))


def end_to_end(inputs: Inputs, work: Path, seconds: float, seed: int, tally: Tally) -> dict[str, float]:
    """Untraced CLI passes for about ``seconds``; medians of the pass metrics."""
    # Compile the package once, so that no pass pays for writing bytecode.
    run_cli(["--help"], work / "warmup")
    samples: dict[str, list[float]] = {}
    durations: list[float] = []
    first = work / "pass0"
    queries = 0
    start = time.perf_counter()
    while len(durations) < MIN_PASSES or time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        out = work / f"pass{len(durations)}"
        out.mkdir()
        steps = {}
        for name, argv in inputs.commands(out).items():
            steps[name], code, stderr = run_cli(argv, out / name)
            if name == "extract" and not queries:
                queries = len(distinct_surfaces(out / "mentions.tsv"))
            failure = pass_failures(name, code, stderr, inputs, queries)
            if failure:
                tally.fail(*failure)
        tally.attempted += len(inputs.docs) + queries + inputs.labeled
        durations.append(time.perf_counter() - began)
        metrics = {
            "pipeline_s": sum(steps[name] for name in PIPELINE),
            "setup_s": sum(steps[name] for name in SETUP),
            "extract_mb_s": inputs.doc_mb / steps["extract"],
            "resolve_qps": queries / steps["resolve"],
            "eval_s": steps["eval"],
            "pr_curve_qps": inputs.labeled / steps["pr-curve"],
        }
        for key, value in metrics.items():
            samples.setdefault(key, []).append(value)
        if out != first:
            compare_outputs(first, out, tally, out.name)
            shutil.rmtree(out)
    result = {key: statistics.median(values) for key, values in samples.items()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result.update(quality(inputs, first, tally))
    oracle_checks(inputs, first, seed, tally)
    result["ok_rate"] = 1 - tally.failed / max(1, tally.attempted)
    return result


def in_process_pass(inputs: Inputs, out: Path, tally: Tally, tracer: tracing.Tracer | None, label: str) -> float:
    """One pipeline pass through ``finames.cli.main`` in this process; its wall time."""
    from finames import cli

    def call(argv: list[str]) -> None:
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        failure = pass_failures(argv[0], code, stderr.getvalue(), inputs, 1)
        if failure:
            tally.fail(*failure)

    out.mkdir()
    commands = inputs.commands(out)
    total = 0.0
    for name in PIPELINE:
        began = time.perf_counter()
        if tracer is None:
            call(commands[name])
        else:
            tracer.run = f"{label}:{name}"
            tracer.span(f"cli.{name}", call, commands[name])
        total += time.perf_counter() - began
    return total


def per_layer(inputs: Inputs, work: Path, seconds: float, seed: int, tally: Tally) -> dict[str, float]:
    """Alternating untraced and traced in-process passes for about ``seconds``."""
    from finames import ingest, ner

    start = time.perf_counter()
    reference = work / "reference"
    reference.mkdir()
    commands = inputs.commands(reference)
    for name in PIPELINE:
        _, code, stderr = run_cli(commands[name], reference / name)
        failure = pass_failures(name, code, stderr, inputs, 1)
        if failure:
            tally.fail(*failure)
    quality(inputs, reference, tally)
    oracle_checks(inputs, reference, seed, tally)
    queries = len(distinct_surfaces(reference / "mentions.tsv"))

    tracer = tracing.Tracer()
    # Every timed span must occur in every traced pass; the role filter runs
    # only where the workload asks for it.
    expected = set(tracing.TIMED) - (set() if inputs.spec.role_filter else {"ner.filter_by_role_keyword"})
    plain: list[float] = []
    traced: list[dict[str, float]] = []
    pair = 0.0
    while not traced or time.perf_counter() - start + pair <= seconds:
        began = time.perf_counter()
        k = len(traced)
        # Keep the benchmark's own objects out of the collector's way, as they
        # would be in a fresh CLI process.
        gc.collect()
        gc.freeze()
        plain.append(in_process_pass(inputs, work / f"plain{k}", tally, None, str(k)))
        tracing.install(tracer)
        try:
            in_process_pass(inputs, work / f"traced{k}", tally, tracer, str(k))
        finally:
            tracer.restore()
        # The CLI never calls tokenize itself; time one extra pass of it.
        tracer.run = f"{k}:tokenize"
        for path in inputs.docs:
            stream = tracer.span("ner.tokenize", ner.tokenize, ingest.load_document(path))
            tracer.counts["ner.tokens"] += len(stream)
        runs = {f"{k}:{name}" for name in PIPELINE}
        traced.append(tracing.pass_metrics(tracer, runs, {f"{k}:tokenize"}, expected))
        for label in (f"plain{k}", f"traced{k}"):
            compare_outputs(reference, work / label, tally, f"{label} (in-process) vs CLI")
            shutil.rmtree(work / label)
        tally.attempted += len(inputs.docs) + queries + inputs.labeled
        pair = time.perf_counter() - began

    result = {key: statistics.median(m[key] for m in traced) for key in traced[0]}
    result["trace.overhead_ratio"] = result.pop("trace.pass_s") / statistics.median(plain)
    result.update(tracing.count_metrics(tracer.counts, tracer.samples, len(traced)))
    tracer.dump(WORK / "traces" / f"{inputs.workload}-seed{seed}.jsonl")
    return result


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool, spec: gen.Spec | None = None) -> dict:
    """One benchmark run; returns the result record."""
    if not (ROOT / "src" / "finames" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        raise FileNotFoundError(f"{ROOT} holds no finames checkout (src/finames, tests/oracles.py)")
    units = declared_metrics(trace)
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = prepare(workload, seed, work, spec)
        tally = Tally()
        measure = per_layer if trace else end_to_end
        values = measure(inputs, work, seconds, seed, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
