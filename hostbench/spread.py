"""Run the benchmark once per seed and report each end-to-end metric's
median and spread (interquartile distance over the median).

    python3 hostbench/spread.py --workload NAME --seeds 1-10 [--trace 0]

Runs one process at a time from the repository root, with the
``run_seconds`` of ``BENCHMARK.json``, and fails if any run fails or
reports incorrect results.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric.get("bound") for metric in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {lines[-1]}")
            return 1
        row = {name: entry["value"] for name, entry in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for name, series in values.items():
        if len(series) < 2 or any(value is None for value in series):
            continue
        spread = relative_spread(series)
        bound = bounds.get(name)
        limit = f" bound {bound:g} ({spread / bound:.2f} of it)" if bound else ""
        print(f"{name:<34} median {statistics.median(series):<12.6g} spread {spread:.4f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
