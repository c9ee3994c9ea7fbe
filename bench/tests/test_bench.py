"""Tests of the benchmark itself: generator determinism, the result record,
tiny smoke runs of every workload, and the refusal to run without a checkout."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import steady
import tracing

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.02


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    spec = gen.scaled(gen.WORKLOADS[workload], TINY)
    gen.generate(workload, 7, tmp_path / "a", spec)
    gen.generate(workload, 7, tmp_path / "b", spec)
    gen.generate(workload, 8, tmp_path / "c", spec)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert {"list_a.txt", "list_b.txt", "corpus.txt", "gold.tsv", "expected.tsv", "labeled.tsv"} <= set(a)
    assert a == b
    assert a != c


def test_gold_spans_hold_the_planted_surface(tmp_path):
    gen.generate("batch", 3, tmp_path, gen.scaled(gen.WORKLOADS["batch"], TINY))
    rows = [line.split("\t") for line in (tmp_path / "gold.tsv").read_text(encoding="utf-8").splitlines()]
    assert rows
    for doc_id, start, end, surface in rows:
        text = (tmp_path / "docs" / doc_id).read_text(encoding="utf-8")
        assert " ".join(text[int(start) : int(end)].split()) == surface


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in CONFIG["workloads"]] == list(gen.WORKLOADS)
    for w in CONFIG["workloads"]:
        assert w["why"] == gen.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    spec = gen.scaled(gen.WORKLOADS[workload], TINY)
    record = run.run(workload, 5, 0, bool(trace), spec)
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in record["metrics"].items()}
    values = [v["value"] for v in record["metrics"].values()]
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in values)
    if not trace:
        assert record["metrics"]["ok_rate"]["value"] == 1.0
        assert all(record["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("cli.extract", 0.0, 10.0, -1, "0:extract"),
        tracing.Span("ner.extract", 1.0, 7.0, 0, "0:extract"),
        tracing.Span("ner.tokenize", 2.0, 5.0, 1, "0:extract"),
    ]
    assert tracing.self_times(spans) == [4.0, 3.0, 3.0]


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert tracing.tail([1.0] * 50 + [9.0]) == (100.0, 9.0, 51)
    pct, _, n = tracing.tail([float(i) for i in range(1000)])
    assert (pct, n) == (99.0, 1000)


def test_compare_flags_a_worse_second_set(tmp_path, capsys):
    def write(path: Path, factor: float) -> None:
        lines = []
        for seed in range(5):
            metrics = {m["name"]: {"value": (1.0 + seed * 0.001) * factor, "unit": m["unit"]}
                       for m in CONFIG["end_to_end"]}
            lines.append(json.dumps({"workload": "batch", "seed": seed, "result": {"metrics": metrics}}))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    write(tmp_path / "a.jsonl", 1.0)
    write(tmp_path / "b.jsonl", 1.0)
    write(tmp_path / "c.jsonl", 2.0)
    assert steady.compare(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == 0
    assert steady.compare(tmp_path / "a.jsonl", tmp_path / "c.jsonl") == 1
    assert "worse by" in capsys.readouterr().out


def test_a_lost_span_or_counter_fails_the_trace():
    class Owner:
        @staticmethod
        def f(x):
            return x

    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="missing"):
        tracer.wrap(Owner, "gone", "er.gone")

    def broken(t, args, result, span):
        raise AttributeError("renamed")

    tracer.run = "0:resolve"
    tracer.wrap(Owner, "f", "er.f", broken)
    try:
        with pytest.raises(RuntimeError, match="counter of er.f"):
            Owner.f(1)
    finally:
        tracer.restore()
    with pytest.raises(RuntimeError, match="er.best_match"):
        tracing.pass_metrics(tracer, {"0:resolve"}, set(), {"er.f", "er.best_match"})


def test_compare_checks_the_setup_spread(tmp_path, capsys):
    lines = []
    for seed in range(5):
        metrics = {m["name"]: {"value": 1.0 + (seed if m["name"] == "setup_s" else 0), "unit": m["unit"]}
                   for m in CONFIG["end_to_end"]}
        lines.append(json.dumps({"workload": "batch", "seed": seed, "result": {"metrics": metrics}}))
    (tmp_path / "a.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert steady.compare(tmp_path / "a.jsonl", None) == 1
    assert "spread>bound" in capsys.readouterr().out
