"""Benchmark of the stallings package: one workload, one seed, one run.

    python3 perfbench/run.py --workload {rewrite,ends,pipeline} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is loaded from ../src relative to this file.
Every measurement happens in a fresh child process (child.py), and every
time is rescaled to a nominal machine speed (speed.py); the raw times are
in the report:

* --trace 0 times `import stallings` plus set-up in fresh processes before
  and after the workload, runs the workload's rounds for S seconds in one
  more, and reports the end-to-end metrics.
* --trace 1 runs round 0 once plain and once with every layer wrapped, in
  two fresh processes, and reports the per-layer metrics and the tracing
  overhead.

A run whose answers fail a gate posts no metrics and exits 1.  Without the
package beside it, the benchmark exits 2 and prints nothing on stdout.
The last stdout line is the result object; the lines before it are a
human-readable report with the machine block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 10  # before the workload, and as many again after it
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def machine_block() -> dict[str, object]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu_model,
        "src_lines": sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted(SRC.rglob("*.py"))
        ),
    }


def child(args: list[str], deadline: float) -> dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args} ran out of time") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child {args} exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"child {args} printed no result") from None


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def setup_probes(workload: str, deadline: float) -> list[dict[str, float]]:
    return [child(["setup", workload], deadline) for _ in range(SETUP_PROBES)]


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    child(["setup", args.workload], deadline)  # writes the bytecode caches
    # probes on both sides of the workload, so one slow spell of a shared
    # machine does not set the median
    setups = setup_probes(args.workload, deadline)
    res = child(
        ["run", args.workload, str(args.seed), str(args.seconds), "0"], deadline
    )
    setups += setup_probes(args.workload, deadline)
    res["setup_samples_s"] = [probe["setup_s"] for probe in setups]
    res["raw_setup_s"] = statistics.median(probe["raw_setup_s"] for probe in setups)
    metrics = {
        "setup_s": metric(statistics.median(res["setup_samples_s"]), "s"),
        "wall_s": metric(res["wall_s"], "s"),
        "items_per_s": metric(res["items_per_s"], "items/s"),
        "item_p50_ms": metric(res["item_p50_ms"], "ms"),
        "item_p99_ms": metric(res["item_p99_ms"], "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    return res, metrics


def traced(args, deadline: float) -> tuple[dict, dict]:
    plain = child(["run", args.workload, str(args.seed), "0", "0"], deadline)
    res = child(["run", args.workload, str(args.seed), "0", "1"], deadline)
    res["plain_wall_s"] = plain["wall_s"]
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["errors"] = plain["errors"] + res["errors"]
    metrics = dict(res.pop("layers"))
    metrics["trace.overhead_s"] = metric(res["wall_s"] - plain["wall_s"], "s")
    return res, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stallings" / "__init__.py").is_file():
        print(f"no stallings package under {SRC}", file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    machine = machine_block()
    machine["loadavg_start"] = os.getloadavg()
    try:
        res, metrics = (traced if args.trace else end_to_end)(args, deadline)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        res, metrics = {"attempted": 1, "failed": 1, "errors": [str(exc)]}, {}
    machine["loadavg_end"] = os.getloadavg()

    correct = res["failed"] == 0 and not res["errors"]
    if not correct:
        metrics = {}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "failed_ratio": res["failed"] / max(res["attempted"], 1),
        **res,
    }
    print(json.dumps(report, indent=2))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(res["attempted"], 1),
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
