"""Desk-scale drivers for the connectivity-at-infinity experiments.

Three entry points, each returning a report whose claims are backed by a
replayable certificate:

* `run_ends_experiment` tabulates essential components of sphere
  complements in the kernel graph, the base-group complex, the
  stable-kernel subgroup graph, and a free-group control.

* `run_main_pipeline` takes a trivial letter loop far from a forbidden
  ball, rewrites it into kernel-generator form, and contracts it after
  conjugating up by a power of the stable letter; the least power whose
  composed certificate verifies against the ball is reported, along with
  how far the whole homotopy strayed from the loop.

* `run_reduce_demo` builds a disk diagram for a product of conjugated
  relators and eliminates its stable-letter bands innermost first,
  rerouting each band interior through a kernel-generator detour found
  by breadth-first search outside a dilation of the forbidden ball.

Forbidden sets are balls in a named complex rather than arbitrary finite
complexes; that is the desk-scale substitute throughout.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Sequence

from .complexes import (
    DEFAULT_BUDGET,
    ForbiddenRegion,
    find_generator_path,
    get_complex,
    sphere_complement_components,
)
from .diagrams import ConjugateFactor, band_invariants, build_diagram, random_expression
from .elements import (
    S_IDENTITY,
    SElement,
    check_base_group,
    distance_to_identity,
    gen_to_token,
    in_base_group,
    s_invert,
    s_multiply,
    s_to_json,
    scan,
    walk,
)
from .homotopy import (
    Certificate,
    CertificateError,
    PathEditor,
    certificate_to_json,
    commute_block,
    contract_kernel_generator_loop,
    convert_letter_pairs,
    inverse_path,
    stack_stable_conjugations,
    verify_certificate,
)
from .rewrite import Rewriter
from .words import AB_GENS, CD_GENS, S_ID, reduce_mul

X_COMPLEX = get_complex("x")
GAMMA_K = get_complex("gamma_k")
# the radius-1 ball around the identity in `x`; nothing changes a region, so all share it
DEFAULT_REGION = ForbiddenRegion(X_COMPLEX, (S_IDENTITY,), 1)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class PipelineReport(NamedTuple):
    """Composed outcome of one run, with its stage certificates.

    `verified` is true only when the composed certificate replays cleanly
    against the declared forbidden region.
    """

    kind: str
    verified: bool
    summary: dict[str, object]
    stages: tuple[tuple[str, Certificate], ...]
    certificate: Certificate
    timing_seconds: float | None

    def to_json(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "verified": self.verified,
            "summary": self.summary,
            "timing_seconds": self.timing_seconds,
            "stages": [
                {"stage": name, "certificate": certificate_to_json(cert)}
                for name, cert in self.stages
            ],
            "certificate": certificate_to_json(self.certificate),
        }


def emit(report) -> str:
    """Serialize a report deterministically.

    A string is a DOT drawing from a graph exporter and passes through with
    a final newline.  A dict or a pipeline report becomes the text of
    `json.dumps(data, sort_keys=True, indent=2)` plus a newline, ASCII-escaped.
    `json` runs its pure-Python encoder for `indent`, so `_encode` writes
    plain lists and str-keyed dicts itself, flat lists and lists of flat rows
    through json's C encoder, and leaves any other shape to json.
    """
    if isinstance(report, str):
        return report if report.endswith("\n") else report + "\n"
    data = report.to_json() if isinstance(report, PipelineReport) else report
    return _encode(data, "\n") + "\n"


# json's text for each scalar type; a float goes through json for NaN and Infinity
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
# json's text for an empty exact list or dict, the commonest shapes left over
_EMPTY_TEXT = {list: "[]", dict: "{}"}


_FLAT_ITEMS = {str, int}
# one item a line, in C when json has it; an ASCII-escaped string holds no raw newline
_encode_flat = json.JSONEncoder(separators=(",\n", ": ")).encode


def _encode(o, newline: str) -> str:
    """`o` as `emit` writes it, `newline` being the line break and indent of its level.

    A non-empty flat list of `_FLAT_ITEMS` (a certificate's path, result or
    one move), or a non-empty list of such non-empty rows (its moves), is
    one call of json's encoder, its newlines then indented.  Inside a row a
    separator sits between scalars, which never end in `]` nor start with
    `[`, so `],` newline `[` occurs only between rows.  Other lists, and
    dicts whose keys are all exact `str`, are written item by item; any
    other shape is json's text, indented, since ASCII-escaped json has raw
    newlines only between items, and json raises its own `TypeError`s.
    """
    encode = _SCALAR_TEXT.get(type(o))
    if encode is not None:
        return encode(o)
    if type(o) in _EMPTY_TEXT and not o:
        return _EMPTY_TEXT[type(o)]
    inner = newline + "  "
    if type(o) is list:
        kinds = set(map(type, o))
        if kinds <= _FLAT_ITEMS:
            return "[" + inner + _encode_flat(o)[1:-1].replace("\n", inner) + newline + "]"
        if kinds == {list} and all(o) and set(map(type, chain.from_iterable(o))) <= _FLAT_ITEMS:
            deeper = inner + "  "
            rows = _encode_flat(o)[2:-2].replace("\n", deeper)
            rows = rows.replace("]," + deeper + "[", inner + "]," + inner + "[" + deeper)
            return "[" + inner + "[" + deeper + rows + inner + "]" + newline + "]"
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in o]) + newline + "]"
    if type(o) is dict and all(type(k) is str for k in o):
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(o, sort_keys=True, indent=2).replace("\n", newline)


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def far_basepoint(distance: int) -> SElement:
    """A fixed base-group vertex at the given distance from the identity."""
    return scan(tuple(AB_GENS[i % 2] for i in range(distance)))


def base_exclusion_radius(region: ForbiddenRegion) -> int:
    """Largest distance to the identity over base-group vertices of the region.

    A base-group loop staying strictly outside this radius cannot touch
    the region's trace in the base-group complex.
    """
    return max((distance_to_identity(v) for v in region if in_base_group(v)), default=0)


def combing_radius(swept: Iterable[SElement], loop_verts: Sequence[SElement]) -> int:
    """Farthest any swept vertex strays from the input loop's vertex set.

    The exact max over swept vertices of the min over loop vertices, pruned:
    a vertex's scan stops at the first loop vertex no farther than the
    running max, since that vertex cannot raise it.  Swept vertices on the
    loop are skipped without a product: their min is 0, which never exceeds
    the running max (it starts at 0), so the value is the same.  When w and
    v are both in the base group, so is w^-1 v, and its distance |p_ab| +
    |cd| is read from two free products, without a product in S.  Off the
    base group `distance_to_identity` is a word-length bound, so the value
    is a bound there.
    """
    anchors = {v: in_base_group(v) for v in loop_verts}
    radius = 0
    for w_inv in map(s_invert, (w for w in swept if w not in anchors)):
        w_ab, w_cd, _ = w_inv
        on_base = in_base_group(w_inv)
        nearest = []
        for v, v_on_base in anchors.items():
            if on_base and v_on_base:
                d = len(reduce_mul(w_ab, v.p_ab)) + len(reduce_mul(w_cd, v.cd))
            else:
                d = distance_to_identity(s_multiply(w_inv, v))
            if d <= radius:
                break
            nearest.append(d)
        else:
            radius = min(nearest)
    return radius


def compose_certificates(stages: Sequence[tuple[str, Certificate]]) -> Certificate:
    """Concatenate chained stage certificates over the complex `x`."""
    certs = [cert for _, cert in stages]
    for prev, nxt in zip(certs, certs[1:]):
        if prev.result != nxt.path or prev.start != nxt.start:
            raise CertificateError("stage certificates do not chain")
    return Certificate(
        complex_name=X_COMPLEX.name,
        start=certs[0].start,
        path=certs[0].path,
        moves=tuple(m for c in certs for m in c.moves),
        result=certs[-1].result,
        description="; ".join(c.description for c in certs if c.description),
    )


def _report(kind, summary, stages, certificate, res, loop_verts, t0, with_timing):
    """Add the verification fields to a driver's summary and wrap it as a report."""
    summary.update(
        verified=res.ok,
        move_count=len(certificate.moves),
        swept_vertices=len(res.swept) if res.ok else None,
        combing_radius=combing_radius(res.swept, loop_verts) if res.ok else None,
        failure_reason=res.reason,
    )
    timing = round(time.monotonic() - t0, 3) if with_timing else None
    return PipelineReport(kind, res.ok, summary, stages, certificate, timing)


# ---------------------------------------------------------------------------
# mixed-segment surgery
# ---------------------------------------------------------------------------

def _innermost_stable_pair(editor: PathEditor) -> tuple[int, int] | None:
    """An inverse pair of stable letters whose stable-free interior pinches.

    Adjacent sign changes in the stable subsequence are the candidates;
    among those only pairs whose interior spells a kernel element can be
    cancelled, and a trivial loop always contains one.
    """
    labels = editor.labels
    prev = None
    seen_candidate = False
    for j, gen in enumerate(labels):
        if abs(gen) == S_ID:
            if prev is not None and labels[prev] == -gen:
                # the tail is the image in S/K, so the interior lies in K iff the tails agree
                if editor.vertex(prev + 1).tail == editor.vertex(j).tail:
                    return prev, j
                seen_candidate = True
            prev = j
    if seen_candidate:
        raise CertificateError("no adjacent stable pair pinches over the kernel")
    return None


# ---------------------------------------------------------------------------
# main pipeline
# ---------------------------------------------------------------------------

def run_main_pipeline(
    start: SElement,
    labels: Sequence[int],
    region: ForbiddenRegion = DEFAULT_REGION,
    max_level: int = 8,
    with_timing: bool = False,
) -> PipelineReport:
    """Contract a far base-group loop while avoiding a forbidden ball.

    Stage 1 rewrites the letter loop into kernel-pair form, stage 2
    converts the pairs to kernel-generator edges through triangles, and
    stage 3 conjugates the resulting loop up by s^p and contracts it at
    that level before cancelling the pillar.  p runs upward from 0, with the
    composed certificate's replay, the run's one check, as the oracle, so
    the reported level is minimal for this contraction scheme.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be nonnegative, got {max_level}")
    t0 = time.monotonic()
    labels = tuple(labels)
    verts = walk(start, labels)
    if verts[-1] != start:
        raise ValueError("path is not a loop")
    check_base_group(start)
    k = base_exclusion_radius(region)
    min_dist = min(map(distance_to_identity, verts))
    if min_dist <= k:
        raise ValueError(
            f"loop reaches distance {min_dist} from the identity; the region"
            f" requires staying outside radius {k}"
        )

    rewriter = Rewriter(start, labels)
    stage1 = rewriter.run()
    editor = PathEditor(X_COMPLEX, start, stage1.result)
    produced = convert_letter_pairs(editor, 0, len(stage1.result) // 2)
    stage2 = editor.certificate("convert letter pairs to kernel generators")
    kernel_loop = stage2.result

    for p in range(max_level + 1):
        contractor = PathEditor(X_COMPLEX, start, kernel_loop)
        stack_stable_conjugations(contractor, 0, produced, p)
        contract_kernel_generator_loop(contractor, p, produced)
        for i in range(p - 1, -1, -1):
            contractor.delete_backtrack(i)
        stage3 = contractor.certificate(f"contract at stable level {p}")
        if stage3.result:
            raise CertificateError(f"contraction at stable level {p} left a path")
        stages = (("rewrite", stage1), ("convert", stage2), ("contract", stage3))
        composed = compose_certificates(stages)
        res = verify_certificate(composed, region)
        if res.ok or not produced:
            break

    summary = {
        "base": s_to_json(start),
        "loop": "".join(gen_to_token(g) for g in labels),
        "loop_length": len(labels),
        "min_loop_distance": min_dist,
        "region_radius": region.radius,
        "region_size": len(region),
        "base_exclusion_radius": k,
        "kernel_path_length": len(stage1.result),
        "kernel_generator_count": produced,
        "rewrite_cases": dict(sorted(rewriter.cases.items())),
        "fallback_partner_used": rewriter.fallback,
        "stable_level": p if res.ok else None,
        "levels_tried": p + 1,
    }
    return _report("main", summary, stages, composed, res, verts, t0, with_timing)


# ---------------------------------------------------------------------------
# band-elimination demonstration
# ---------------------------------------------------------------------------

def run_reduce_demo(
    factors: Sequence[ConjugateFactor],
    start: SElement | None = None,
    region: ForbiddenRegion = DEFAULT_REGION,
    budget: int = DEFAULT_BUDGET,
    with_timing: bool = False,
) -> PipelineReport:
    """Null-homotope an expression-built loop by eliminating its bands.

    The expression guarantees a disk diagram; its boundary word realized
    at `start` is the loop.  Each round takes an innermost inverse pair
    of stable letters, reroutes the enclosed interior through a
    kernel-generator detour found outside the once-dilated region,
    slides the stable letter across the detour through commuting
    squares, and cancels the pair; the detour is what remains.  The
    final stable-free residue contracts inside the base-group complex.
    """
    t0 = time.monotonic()
    diagram = build_diagram(factors)
    invariants = band_invariants(diagram)
    boundary = diagram.boundary_word()
    if start is None:
        start = far_basepoint(len(boundary) // 2 + region.radius + 2)
    check_base_group(start)
    dilated = region.dilated

    editor = PathEditor(X_COMPLEX, start, boundary)
    detour_lengths: list[int] = []
    while True:
        pair = _innermost_stable_pair(editor)
        if pair is None:
            break
        i, j = pair
        if j == i + 1:
            editor.delete_backtrack(i)
            detour_lengths.append(0)
            continue
        x = editor.vertex(i + 1)
        y = editor.vertex(j)
        if x in dilated or y in dilated:
            raise CertificateError("a band endpoint lies inside the dilated region")
        delta = find_generator_path(GAMMA_K, x, y, forbidden=dilated, budget=budget)
        if delta is None:
            raise CertificateError("the dilated region separates the band endpoints")
        editor.insert_round_trip(i + 1, delta)
        contract_kernel_generator_loop(editor, i + 1 + len(delta), len(delta) + (j - i - 1))
        commute_block(editor, i, 1, len(delta))
        editor.delete_backtrack(i + len(delta))
        detour_lengths.append(len(delta))
    contract_kernel_generator_loop(editor, 0, len(editor))

    cert = editor.certificate("eliminate bands, then contract the residue")
    if cert.result:
        raise CertificateError("band elimination left a path")
    if len(detour_lengths) != invariants["bands"]:
        raise CertificateError("band eliminations do not match the diagram's bands")
    res = verify_certificate(cert, region)
    summary = {
        "expression": [
            {
                "conjugator": "".join(gen_to_token(g) for g in f.conjugator),
                "relator": f.relator_id,
                "sign": f.sign,
            }
            for f in factors
        ],
        "base": s_to_json(start),
        "boundary": "".join(gen_to_token(g) for g in boundary),
        "boundary_length": len(boundary),
        "bands": invariants["bands"],
        "self_paired_bands": invariants["self_paired"],
        "band_depths": invariants["depths"],
        "detour_lengths": detour_lengths,
        "basepoint_distance": distance_to_identity(start),
        "region_radius": region.radius,
    }
    return _report(
        "reduce", summary, (("bands", cert),), cert, res, walk(start, boundary), t0, with_timing
    )


# ---------------------------------------------------------------------------
# ends experiment
# ---------------------------------------------------------------------------

def run_ends_experiment(
    r_values: Sequence[int] = (1, 2, 3),
    names: Sequence[str] = ("gamma_k", "gamma_1", "gamma_h", "free_ab"),
    gap: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> dict[str, object]:
    """Essential sphere-complement component counts per complex and radius.

    Each complex keeps one count per radius, in the order of `r_values`, so
    a repeated name or radius is refused.
    """
    for what, items in (("complex name", names), ("radius", r_values)):
        if len(set(items)) < len(items):
            raise ValueError(f"repeated {what} in {list(items)}")
    rows = []
    essential: dict[str, list[int]] = {}
    for name in names:
        spec = get_complex(name)
        for r in r_values:
            row = sphere_complement_components(spec, r, r + gap, budget=budget)
            rows.append(row)
            essential.setdefault(name, []).append(row["essential_components"])
    return {
        "gap": gap,
        "r_values": list(r_values),
        "rows": rows,
        "essential_components": essential,
        "one_ended_evidence": sorted(
            name for name, counts in essential.items() if all(c == 1 for c in counts)
        ),
    }


# ---------------------------------------------------------------------------
# batch harnesses
# ---------------------------------------------------------------------------

def _random_free_word(
    rng: random.Random, bases: tuple[int, int], length: int
) -> tuple[int, ...]:
    word: list[int] = []
    for _ in range(length):
        choices = [g for b in bases for g in (b, -b) if not word or g != -word[-1]]
        word.append(rng.choice(choices))
    return tuple(word)


def random_far_loop(
    rng: random.Random, min_distance: int = 3
) -> tuple[SElement, tuple[int, ...]]:
    """A short trivial letter loop all of whose vertices stay far out.

    Commutators of cross-factor words of length 1-2, or out-and-back words
    of length 4, based at a random reduced vertex; resamples, up to 200
    times, until every vertex clears the distance floor.
    """
    for _ in range(200):
        extra = rng.randint(1, 3)
        n = min_distance + extra
        split = rng.randint(0, n)
        base = scan(
            _random_free_word(rng, AB_GENS, split)
            + _random_free_word(rng, CD_GENS, n - split)
        )
        if rng.random() < 0.25:
            out = _random_free_word(rng, rng.choice((AB_GENS, CD_GENS)), 4)
            labels = out + inverse_path(out)
        else:
            u = _random_free_word(rng, AB_GENS, rng.randint(1, 2))
            v = _random_free_word(rng, CD_GENS, rng.randint(1, 2))
            labels = u + v + inverse_path(u) + inverse_path(v)
        verts = walk(base, labels)
        if min(map(distance_to_identity, verts)) >= min_distance:
            return base, labels
    raise RuntimeError("could not sample a loop clearing the distance floor")


def _run_batch(kind, count, seed, region, run_one, row_keys) -> dict[str, object]:
    """Call `run_one(rng)` count times; each row keeps `row_keys` of a summary."""
    rng = random.Random(seed)
    runs = []
    for index in range(count):
        summary = run_one(rng).summary
        runs.append({"index": index, **{key: summary[key] for key in row_keys}})
    verified = sum(run["verified"] for run in runs)
    return {
        "kind": kind,
        "count": count,
        "seed": seed,
        "region_radius": region.radius,
        "verified": verified,
        "all_verified": verified == count,
        "runs": runs,
    }


def run_pipeline_batch(
    count: int,
    seed: int = 0,
    region: ForbiddenRegion = DEFAULT_REGION,
    min_distance: int | None = None,
) -> dict[str, object]:
    """Run the main pipeline on random far loops; merge summaries by index.

    Loop vertices keep `min_distance` from the identity; it defaults to, and
    may not go below, one past the region's `base_exclusion_radius`.
    """
    floor = base_exclusion_radius(region) + 1
    if min_distance is None:
        min_distance = floor
    elif min_distance < floor:
        raise ValueError(f"min_distance must be at least {floor}, got {min_distance}")

    def run_one(rng: random.Random) -> PipelineReport:
        start, labels = random_far_loop(rng, min_distance=min_distance)
        return run_main_pipeline(start, labels, region=region)

    batch = _run_batch(
        "pipeline-batch", count, seed, region, run_one,
        ("loop", "base", "stable_level", "combing_radius", "verified"),
    )
    levels = Counter(str(run["stable_level"]) for run in batch["runs"])
    batch["levels"] = dict(sorted(levels.items()))
    batch["max_combing_radius"] = max(
        (run["combing_radius"] for run in batch["runs"] if run["verified"]), default=0
    )
    return batch


def run_reduce_batch(
    count: int,
    seed: int = 0,
    region: ForbiddenRegion = DEFAULT_REGION,
    max_factors: int = 4,
) -> dict[str, object]:
    """Run the band-elimination demo on random expressions; merge by index."""

    def run_one(rng: random.Random) -> PipelineReport:
        return run_reduce_demo(random_expression(rng, max_factors=max_factors), region=region)

    batch = _run_batch(
        "reduce-batch", count, seed, region, run_one,
        ("expression", "bands", "detour_lengths", "verified"),
    )
    batch["total_bands"] = sum(run["bands"] for run in batch["runs"])
    return batch
