"""Run the benchmark on two checkouts in alternating pairs and summarize them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B
        [--out RUNS.json]

For each seed from A to B (inclusive) it runs each checkout's own, unmodified
`perfbench/run.py --workload W --seed S --seconds N` once, untraced, one run
at a time, where N is `run_seconds` from CHANGE_DIR/BENCHMARK.json.  Even
pairs run the parent first, odd pairs the change first, so a drift in machine
speed does not favour one side.  Each run's last stdout line is its JSON
result.

For every metric it prints the median and quartiles of each side, the change
against the parent's median, the pairs the change won, and whether the medians
differ by more than the parent's interquartile range.  Directions ("better":
"lower" or "higher") come from the same BENCHMARK.json; a metric without one
counts the pairs where the change reads lower.  Failed and attempted
operations are totalled per side.  `--out` writes the raw results as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric present in every run of both sides.

    `parent[i]` and `change[i]` map metric names to values for pair i.  A pair
    is won when the change is strictly better in the metric's direction.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of runs on each side")
    names = sorted(set.intersection(*(set(run) for run in parent + change)))
    rows = []
    for name in names:
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        direction = better.get(name, "lower")
        sign = 1.0 if direction == "higher" else -1.0
        a_q1, a_med, a_q3 = quartiles(a)
        b_q1, b_med, b_q3 = quartiles(b)
        rows.append({
            "metric": name,
            "better": direction,
            "parent": (a_q1, a_med, a_q3),
            "change": (b_q1, b_med, b_q3),
            "ratio": b_med / a_med if a_med else float("nan"),
            "won": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            "pairs": len(a),
            "beyond_parent_iqr": abs(b_med - a_med) > a_q3 - a_q1,
        })
    return rows


def format_summary(rows: list[dict]) -> str:
    lines = ["metric (better)  parent median [q1, q3] -> change median [q1, q3]  "
             "ratio  pairs won  |diff| > parent IQR"]
    for row in rows:
        (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = row["parent"], row["change"]
        lines.append(
            f"{row['metric']} ({row['better']})  {a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}] -> "
            f"{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]  {row['ratio']:.4f}  "
            f"{row['won']}/{row['pairs']}  {'yes' if row['beyond_parent_iqr'] else 'no'}"
        )
    return "\n".join(lines) + "\n"


def directions(benchmark: dict) -> dict[str, str]:
    metrics = benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])
    return {m["name"]: m["better"] for m in metrics}


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    first, sep, last = text.partition("-")
    seeds = list(range(int(first), int(last) + 1)) if sep else [int(first)]
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B, inclusive, one pair per seed")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_one(sides[side], args.workload, seed, benchmark["run_seconds"])
            result["seed"] = seed
            results[side].append(result)
            work = result["metrics"].get("work_per_s", {}).get("value")
            print(f"pair {i} seed {seed} {side}: work_per_s {work}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)

    metrics = {side: [{k: m["value"] for k, m in r["metrics"].items()} for r in runs]
               for side, runs in results.items()}
    print(format_summary(summarize(metrics["parent"], metrics["change"],
                                   directions(benchmark))), end="")
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{side}: {failed} of {attempted} operations failed")
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
