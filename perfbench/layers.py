"""Per-layer tracing by wrapping the program's functions from outside.

`Tracer.install` replaces chosen functions and methods of the `stallings`
modules with timing wrappers, in every module namespace that imported
them, and `uninstall` puts the originals back; the program's sources are
never touched.  Each wrapped call pushes a frame so that self time (span
time minus the time of wrapped calls inside it) can be computed.

Memory stays bounded because nothing is recorded per call: every call is
folded into a table keyed by (function, caller span).  Hot leaves such as
`step` and `reduce_mul` do not open a span of their own, so their callees
are charged to the same caller span they are.  Only
`rewrite_to_kernel_path` keeps one duration per call, for its percentiles.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

ROOT_SPAN = "<root>"

# (qualified name, is a hot leaf).  Qualified names are module.function or
# module.Class.method, relative to the `stallings` package.
TARGETS = (
    ("words.reduce_mul", True),
    ("words.g_from_word", True),
    ("elements.step", True),
    ("elements.s_multiply", True),
    ("complexes.neighborhood", False),
    ("complexes.sphere_complement_components", False),
    ("complexes.find_generator_path", False),
    ("complexes.ForbiddenRegion.__init__", False),
    ("complexes.ForbiddenRegion.__contains__", True),
    ("homotopy.verify_certificate", False),
    ("homotopy.certificate_to_json", False),
    ("homotopy.certificate_from_json", False),
    ("homotopy.PathEditor.__init__", True),
    ("homotopy.PathEditor.vertex", True),
    ("homotopy.PathEditor.insert_backtrack", True),
    ("homotopy.PathEditor.delete_backtrack", True),
    ("homotopy.PathEditor.apply_cell", True),
    ("homotopy.PathEditor.replace", True),
    ("homotopy.PathEditor.insert_round_trip", True),
    ("homotopy.PathEditor.certificate", True),
    ("rewrite.rewrite_to_kernel_path", False),
    ("rewrite.run_rewrite_suite", False),
    ("diagrams.build_diagram", False),
    ("diagrams.extract_bands", False),
    ("pipeline.run_main_pipeline", False),
    ("pipeline.run_reduce_demo", False),
    ("pipeline.run_ends_experiment", False),
    ("pipeline.emit", False),
)

PATH_EDITOR_METHODS = tuple(
    name for name, _ in TARGETS if name.startswith("homotopy.PathEditor.")
)

# distinct-input ratios are estimated on the calls whose input hash falls
# in one sixteenth of the hash space, which keeps the sets small on `ends`
SAMPLE_MASK = 15
SAMPLE_SCALE = SAMPLE_MASK + 1

STABLE_ID = 5


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list] = {}
        self.step_kinds = {"letter": 0, "stable": 0, "egen": 0}
        self.samples: dict[str, set[int]] = {
            "elements.step": set(),
            "elements.s_multiply": set(),
        }
        self.counters = {
            "neighborhood_vertices": 0,
            "verify_moves": 0,
            "verify_rejects": 0,
            "editor_moves": 0,
            "pipeline_levels": 0,
        }
        self.rewrite_durations: list[float] = []
        self.missing: list[str] = []
        self._stack: list[list] = [[0.0, ROOT_SPAN]]
        self._patched: list[tuple[object, str, object]] = []

    # -- hooks run after a call returns -------------------------------------

    def _hooks(self):
        kinds = self.step_kinds
        counters = self.counters
        step_sample = self.samples["elements.step"]
        mult_sample = self.samples["elements.s_multiply"]

        def on_step(args, result, dur):
            gen = abs(args[1])
            if gen == STABLE_ID:
                kinds["stable"] += 1
            elif gen < STABLE_ID:
                kinds["letter"] += 1
            else:
                kinds["egen"] += 1
            h = hash(args)
            if not h & SAMPLE_MASK:
                step_sample.add(h)

        def on_multiply(args, result, dur):
            h = hash(args)
            if not h & SAMPLE_MASK:
                mult_sample.add(h)

        def on_neighborhood(args, result, dur):
            counters["neighborhood_vertices"] += len(result)

        def on_verify(args, result, dur):
            counters["verify_moves"] += result.moves_checked
            counters["verify_rejects"] += not result.ok

        def on_certificate(args, result, dur):
            counters["editor_moves"] += len(result.moves)

        def on_rewrite(args, result, dur):
            self.rewrite_durations.append(dur)

        def on_main(args, result, dur):
            counters["pipeline_levels"] += result.summary["levels_tried"]

        return {
            "elements.step": on_step,
            "elements.s_multiply": on_multiply,
            "complexes.neighborhood": on_neighborhood,
            "homotopy.verify_certificate": on_verify,
            "homotopy.PathEditor.certificate": on_certificate,
            "rewrite.rewrite_to_kernel_path": on_rewrite,
            "pipeline.run_main_pipeline": on_main,
        }

    def _wrap(self, name: str, fn, leaf: bool, on_return):
        stats = self.stats
        stack = self._stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            caller = stack[-1][1]
            frame = [0.0, caller if leaf else name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                entry = stats.get((name, caller))
                if entry is None:
                    entry = stats[(name, caller)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
            if on_return is not None:
                on_return(args, result, dur)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        modules = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None
            and (mod_name == "stallings" or mod_name.startswith("stallings."))
        ]
        for name, leaf in TARGETS:
            mod_name, *attrs = name.split(".")
            owner = sys.modules.get(f"stallings.{mod_name}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, attrs[-1], None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, leaf, hooks.get(name))
            if isinstance(owner, type):
                self._patch(owner, attrs[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading the table ----------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) summed over callers."""
        calls, total, own = 0, 0.0, 0.0
        for (fn, _), (c, t, s) in self.stats.items():
            if fn == name:
                calls += c
                total += t
                own += s
        return calls, total, own

    def calls_from(self, name: str, caller: str) -> int:
        entry = self.stats.get((name, caller))
        return entry[0] if entry else 0

    def span_table(self) -> list[dict[str, object]]:
        rows = [
            {"function": fn, "caller": caller, "calls": c, "total_s": t, "self_s": s}
            for (fn, caller), (c, t, s) in self.stats.items()
        ]
        return sorted(rows, key=lambda row: -row["self_s"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, dict[str, str]]:
    """Every per-layer metric, and why any of them is absent.

    A metric whose function never ran on this workload reads 0 and is
    listed in the second result with the reason.
    """
    t = tracer.totals
    c = tracer.counters
    reduce_mul = t("words.reduce_mul")
    g_from_word = t("words.g_from_word")
    step = t("elements.step")
    mult = t("elements.s_multiply")
    nbhd = t("complexes.neighborhood")
    spheres = t("complexes.sphere_complement_components")
    paths = t("complexes.find_generator_path")
    region_init = t("complexes.ForbiddenRegion.__init__")
    region_in = t("complexes.ForbiddenRegion.__contains__")
    verify = t("homotopy.verify_certificate")
    to_json = t("homotopy.certificate_to_json")
    from_json = t("homotopy.certificate_from_json")
    editor = [t(name) for name in PATH_EDITOR_METHODS]
    rewrite = t("rewrite.rewrite_to_kernel_path")
    build = t("diagrams.build_diagram")
    bands = t("diagrams.extract_bands")
    main = t("pipeline.run_main_pipeline")
    reduce_demo = t("pipeline.run_reduce_demo")
    emit = t("pipeline.emit")
    durations = tracer.rewrite_durations

    # name -> (unit, value, source whose zero calls make it absent)
    table = {
        "words.reduce_mul.calls": ("count", reduce_mul[0], "words.reduce_mul"),
        "words.reduce_mul.self_s": ("s", reduce_mul[2], "words.reduce_mul"),
        "words.g_from_word.calls": ("count", g_from_word[0], "words.g_from_word"),
        "elements.step.calls": ("count", step[0], "elements.step"),
        "elements.step.self_s": ("s", step[2], "elements.step"),
        "elements.step.per_s": ("1/s", _ratio(step[0], step[1]), "elements.step"),
        "elements.step.letter_calls": ("count", tracer.step_kinds["letter"], "elements.step"),
        "elements.step.stable_calls": ("count", tracer.step_kinds["stable"], "elements.step"),
        "elements.step.egen_calls": ("count", tracer.step_kinds["egen"], "elements.step"),
        "elements.step.distinct_ratio": (
            "ratio",
            _ratio(SAMPLE_SCALE * len(tracer.samples["elements.step"]), step[0]),
            "elements.step",
        ),
        "elements.s_multiply.calls": ("count", mult[0], "elements.s_multiply"),
        "elements.s_multiply.self_s": ("s", mult[2], "elements.s_multiply"),
        "elements.s_multiply.distinct_ratio": (
            "ratio",
            _ratio(SAMPLE_SCALE * len(tracer.samples["elements.s_multiply"]), mult[0]),
            "elements.s_multiply",
        ),
        "complexes.neighborhood.vertices": (
            "count", c["neighborhood_vertices"], "complexes.neighborhood"
        ),
        "complexes.neighborhood.self_s": ("s", nbhd[2], "complexes.neighborhood"),
        "complexes.neighborhood.vertices_per_s": (
            "1/s", _ratio(c["neighborhood_vertices"], nbhd[1]), "complexes.neighborhood"
        ),
        "complexes.sphere_complement_components.self_s": (
            "s", spheres[2], "complexes.sphere_complement_components"
        ),
        "complexes.sphere_complement_components.reexpand_calls": (
            "count",
            tracer.calls_from(
                "elements.s_multiply", "complexes.sphere_complement_components"
            ),
            "complexes.sphere_complement_components",
        ),
        "complexes.find_generator_path.calls": (
            "count", paths[0], "complexes.find_generator_path"
        ),
        "complexes.find_generator_path.step_calls": (
            "count",
            tracer.calls_from("elements.step", "complexes.find_generator_path"),
            "complexes.find_generator_path",
        ),
        "complexes.find_generator_path.self_s": (
            "s", paths[2], "complexes.find_generator_path"
        ),
        "complexes.ForbiddenRegion.build_s": (
            "s", region_init[1], "complexes.ForbiddenRegion.__init__"
        ),
        "complexes.ForbiddenRegion.lookups": (
            "count", region_in[0], "complexes.ForbiddenRegion.__contains__"
        ),
        "homotopy.verify_certificate.calls": (
            "count", verify[0], "homotopy.verify_certificate"
        ),
        "homotopy.verify_certificate.moves": (
            "count", c["verify_moves"], "homotopy.verify_certificate"
        ),
        "homotopy.verify_certificate.moves_per_s": (
            "1/s", _ratio(c["verify_moves"], verify[1]), "homotopy.verify_certificate"
        ),
        "homotopy.verify_certificate.self_s": (
            "s", verify[2], "homotopy.verify_certificate"
        ),
        "homotopy.verify_certificate.rejects": (
            "ratio", _ratio(c["verify_rejects"], verify[0]), "homotopy.verify_certificate"
        ),
        "homotopy.PathEditor.moves": (
            "count", c["editor_moves"], "homotopy.PathEditor.__init__"
        ),
        "homotopy.PathEditor.self_s": (
            "s", sum(e[2] for e in editor), "homotopy.PathEditor.__init__"
        ),
        "homotopy.certificate_json.self_s": (
            "s", to_json[2] + from_json[2], "homotopy.certificate_to_json"
        ),
        "rewrite.rewrite_to_kernel_path.calls": (
            "count", rewrite[0], "rewrite.rewrite_to_kernel_path"
        ),
        "rewrite.rewrite_to_kernel_path.self_s": (
            "s", rewrite[2], "rewrite.rewrite_to_kernel_path"
        ),
        "rewrite.rewrite_to_kernel_path.p50_us": (
            "us", 1e6 * percentile(durations, 50), "rewrite.rewrite_to_kernel_path"
        ),
        "rewrite.rewrite_to_kernel_path.p99_us": (
            "us", 1e6 * percentile(durations, 99), "rewrite.rewrite_to_kernel_path"
        ),
        "diagrams.build_diagram.self_s": ("s", build[2], "diagrams.build_diagram"),
        "diagrams.extract_bands.self_s": ("s", bands[2], "diagrams.extract_bands"),
        "pipeline.run_main_pipeline.self_s": (
            "s", main[2], "pipeline.run_main_pipeline"
        ),
        "pipeline.run_main_pipeline.levels_per_run": (
            "ratio", _ratio(c["pipeline_levels"], main[0]), "pipeline.run_main_pipeline"
        ),
        "pipeline.run_reduce_demo.self_s": (
            "s", reduce_demo[2], "pipeline.run_reduce_demo"
        ),
        "pipeline.emit.self_s": ("s", emit[2], "pipeline.emit"),
    }
    metrics = {}
    absent = {}
    for name, (unit, value, source) in table.items():
        metrics[name] = {"value": value, "unit": unit}
        if source in tracer.missing:
            absent[name] = f"{source} does not exist in this version of the program"
        elif t(source)[0] == 0:
            absent[name] = f"{source} is not called on this workload"
    rewrite_samples = len(durations)
    if rewrite_samples and rewrite_samples < 1000:
        absent["rewrite.rewrite_to_kernel_path.p99_us"] = (
            f"only {rewrite_samples} calls, fewer than 10 beyond the 99th percentile;"
            " the value is the nearest-rank estimate"
        )
    return metrics, absent
