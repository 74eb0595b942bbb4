"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ends --seeds 1-10 [--seconds 30]
        [--out FILE]

For every end-to-end metric this prints the median of the runs, their
first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread, (q3 - q1) / median, which BENCHMARK.json's bounds are judged
against.  `--out` also writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        ), flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        summary[name] = {
            "unit": first["unit"],
            **summarize([run["metrics"][name]["value"] for run in runs]),
        }
        s = summary[name]
        print(f"{name:12s} median {s['median']:.6g} {s['unit']}"
              f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "summary": summary, "runs": runs}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
