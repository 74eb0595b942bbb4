"""Re-measure the ROADMAP's re-anchor figures with the benchmark's clock.

    python3 perfbench/reanchor.py

The re-anchor quoted single runs on inputs the workloads do not use:
the rewrite suite at `transversal_bases()[7]` with words up to length 6
(74,797 rewrites in 19.8 s), and the ends probe at r = 3, R = 5 on
`gamma_k` (5.8 s) and `gamma_h` (9.1 s).  This script times exactly those
calls once each, checks their answers, and prints one JSON object with the
raw and the nominal-speed seconds (see speed.py) and the ratio of the raw
ones to the quoted figures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import stallings  # noqa: E402
from speed import SpeedClock  # noqa: E402

QUOTED_S = {"rewrite_base7": 19.8, "ends_gamma_k_r3": 5.8, "ends_gamma_h_r3": 9.1}


def main() -> int:
    base = stallings.transversal_bases()[7]
    calls = {
        "rewrite_base7": lambda: stallings.run_rewrite_suite((base,), max_len=6, m=2),
        "ends_gamma_k_r3": lambda: stallings.run_ends_experiment(
            r_values=(3,), names=("gamma_k",), gap=2
        ),
        "ends_gamma_h_r3": lambda: stallings.run_ends_experiment(
            r_values=(3,), names=("gamma_h",), gap=2
        ),
    }
    spans, out = {}, {}
    with SpeedClock(0.05) as clock:
        for key, call in calls.items():
            t0 = perf_counter()
            out[key] = call()
            spans[key] = (t0, perf_counter())
    raw = {key: b - a for key, (a, b) in spans.items()}
    rows = {key: out[key]["rows"][0] for key in ("ends_gamma_k_r3", "ends_gamma_h_r3")}
    ok = (
        out["rewrite_base7"]["all_verified"]
        and out["rewrite_base7"]["runs"] == 74_797
        and rows["ends_gamma_k_r3"]["ball_size"] == 103_041
        and rows["ends_gamma_h_r3"]["ball_size"] == 131_371
        and all(row["essential_components"] == 1 for row in rows.values())
    )
    print(
        json.dumps(
            {
                "correct": ok,
                "python": sys.version.split()[0],
                "raw_s": raw,
                "nominal_s": {key: clock.nominal(*span) for key, span in spans.items()},
                "quoted_s": QUOTED_S,
                "raw_ratio_to_quoted": {k: raw[k] / QUOTED_S[k] for k in raw},
            },
            indent=2,
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
