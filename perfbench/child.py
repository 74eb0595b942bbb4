"""One fresh process of the benchmark; started by run.py, never by hand.

    child.py setup WORKLOAD
        time `import stallings` plus the workload's program-side setup and
        print the seconds it took.
    child.py run WORKLOAD SEED SECONDS TRACE
        set up, then run rounds of the workload until SECONDS would be
        exceeded (at least one); SECONDS <= 0 runs exactly round 0.  With
        TRACE 1 the layers are wrapped before set-up and exactly round 0
        runs.  Prints one JSON object.

Times are measured under a `SpeedClock` and reported both raw and at
nominal machine speed (see speed.py); the metrics use the nominal ones.
`stallings` is imported only after the clock starts, so nothing of the
program is loaded before a setup measurement.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

from layers import Tracer, layer_metrics, percentile
from speed import SpeedClock
from workloads import WORKLOADS

MAX_ERRORS = 5
SPAN_ROWS = 30
RUN_SAMPLE_S = 0.05
SETUP_SAMPLE_S = 0.005
# an item is rescaled by the speed seen within this many seconds of it,
# so that short items follow changes of speed inside a round
ITEM_WINDOW_S = 0.1


def measure_setup(workload) -> dict[str, float]:
    with SpeedClock(SETUP_SAMPLE_S) as clock:
        t0 = perf_counter()
        import stallings

        workload.setup(stallings)
        t1 = perf_counter()
    return {"setup_s": clock.nominal(t0, t1), "raw_setup_s": t1 - t0}


def drive(workload, ctx, seed: int, seconds: float) -> dict[str, object]:
    """Run rounds until the next one would overrun `seconds`."""
    rounds = []
    errors: list[str] = []
    digests: list[str] = []
    with SpeedClock(RUN_SAMPLE_S) as clock:
        start = perf_counter()
        index = 0
        while True:
            items = workload.inputs(ctx, seed, index)
            t0 = perf_counter()
            try:
                outcome = workload.run_round(ctx, items, seed, index)
            except Exception as exc:  # a round that raises fails as a whole
                traceback.print_exc(file=sys.stderr)
                outcome = workload.failed_round(items)
                outcome.errors.append(f"round {index}: {exc!r}")
            t1 = perf_counter()
            rounds.append((t0, t1, outcome))
            errors.extend(outcome.errors)
            if outcome.digest:
                digests.append(outcome.digest)
            index += 1
            if outcome.failed or seconds <= 0:
                break
            raw = [b - a for a, b, _ in rounds]
            if t1 - start + statistics.median(raw) > seconds:
                break

    nominal, raw, latencies = [], [], []
    for t0, t1, outcome in rounds:
        factor = clock.factor(t0, t1)
        nominal.append(clock.nominal(t0, t1, factor))
        raw.append(t1 - t0)
        latencies.extend(
            clock.nominal(a, b, clock.factor(a - ITEM_WINDOW_S, b + ITEM_WINDOW_S))
            for a, b in outcome.items
        )
    units = sum(outcome.units for _, _, outcome in rounds)
    return {
        "rounds": len(rounds),
        "round_s": nominal,
        "raw_round_s": raw,
        "wall_s": statistics.median(nominal),
        "raw_wall_s": statistics.median(raw),
        "items_per_s": statistics.median(
            outcome.units / t for t, (_, _, outcome) in zip(nominal, rounds)
        ),
        "items_unit": workload.unit,
        "item_p50_ms": 1e3 * percentile(latencies, 50),
        "item_p99_ms": 1e3 * percentile(latencies, 99),
        "item_samples": len(latencies),
        "speed_samples": len(clock.samples),
        "attempted": sum(outcome.attempted for _, _, outcome in rounds),
        "failed": sum(outcome.failed for _, _, outcome in rounds),
        "units": units,
        "errors": errors[:MAX_ERRORS],
        "round0_sha256": digests[0] if digests else None,
        "speed_factor": statistics.median(
            clock.factor(t0, t1) for t0, t1, _ in rounds
        ),
    }


def rescale(metrics: dict, factor: float) -> None:
    """Put traced times at nominal speed, as the end-to-end ones are."""
    for entry in metrics.values():
        if entry["unit"] in ("s", "us"):
            entry["value"] *= factor
        elif entry["unit"] == "1/s":
            entry["value"] /= factor


def run(workload, seed: int, seconds: float, traced: bool) -> dict[str, object]:
    import stallings

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
        seconds = 0
    try:
        ctx = workload.setup(stallings)
        result = drive(workload, ctx, seed, seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"], result["absent"] = layer_metrics(tracer)
        rescale(result["layers"], result["speed_factor"])
        result["missing_targets"] = tracer.missing
        result["spans"] = tracer.span_table()[:SPAN_ROWS]
    return result


def main(argv: list[str]) -> int:
    mode, name, *rest = argv
    workload = WORKLOADS[name]
    if mode == "setup":
        print(json.dumps(measure_setup(workload)))
        return 0
    seed, seconds, traced = int(rest[0]), float(rest[1]), rest[2] == "1"
    print(json.dumps(run(workload, seed, seconds, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
