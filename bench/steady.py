"""Steadiness of the benchmark: repeat runs, then compare two result sets.

    python3 bench/steady.py collect --out a.jsonl --seeds 1-10 [--workloads filings,batch]
    python3 bench/steady.py compare a.jsonl [b.jsonl]

``collect`` runs ``bench/run.py`` once per workload and seed, one run at a
time, with ``run_seconds`` from ``BENCHMARK.json``, and appends one JSON line
per run. ``compare`` reports, per workload and end-to-end metric, the median
and quartiles of each set and the spread (quartile distance over median). A
set is steady when every spread is within the metric's bound; two sets agree
when, in addition, the second median is not worse than the first by more than
the bound. It exits 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def collect(out: Path, workloads: list[str], seeds: list[int]) -> int:
    seconds = load_config()["run_seconds"]
    status = 0
    for workload in workloads:
        for seed in seeds:
            argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            record = {"workload": workload, "seed": seed, "result": json.loads(lines[-1])}
            with open(out, "a", encoding="utf-8") as sink:
                sink.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: correct={record['result']['correct']}", flush=True)
    return status


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(path: Path) -> dict[tuple[str, str], tuple[float, float, float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        for name, metric in record["result"]["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return {key: quartiles(vals) for key, vals in values.items()}


def spread(q: tuple[float, float, float]) -> float:
    q1, median, q3 = q
    if median:
        return (q3 - q1) / abs(median)
    return 0.0 if q3 == q1 else float("inf")


def compare(first: Path, second: Path | None) -> int:
    metrics = {m["name"]: m for m in load_config()["end_to_end"]}
    sets = [summarize(first)] + ([summarize(second)] if second else [])
    ok = True
    print(f"{'workload':10} {'metric':18} {'bound':>6} " + "  ".join(
        f"{'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}" for _ in sets) + "  verdict")
    for workload, name in sorted(k for k in sets[0] if k[1] in metrics):
        bound = metrics[name]["bound"]
        verdicts = []
        cells = []
        for summary in sets:
            q = summary.get((workload, name))
            if q is None:
                verdicts.append("missing")
                cells.append(" " * 43)
                continue
            cells.append(f"{q[1]:11.5g} {q[0]:11.5g} {q[2]:11.5g} {spread(q):7.3f}")
            if spread(q) > bound:
                verdicts.append("spread>bound")
            elif spread(q) > bound / 3:
                verdicts.append("spread>bound/3")
        if len(sets) == 2 and (workload, name) in sets[1]:
            before, after = sets[0][(workload, name)][1], sets[1][(workload, name)][1]
            worse = (after - before) / abs(before) if before else 0.0
            if metrics[name]["better"] == "higher":
                worse = -worse
            if worse > bound:
                verdicts.append(f"worse by {worse:.3f}")
        ok = ok and not any(v != "spread>bound/3" for v in verdicts)
        print(f"{workload:10} {name:18} {bound:6.3f} " + "  ".join(cells) + "  " + (", ".join(verdicts) or "ok"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark over seeds and append results")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in load_config()["workloads"]))
    p = sub.add_parser("compare", help="median, quartiles and agreement of one or two result sets")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path, nargs="?")
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args.out, args.workloads.split(","), parse_seeds(args.seeds))
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
