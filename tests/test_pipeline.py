import hashlib
import json
import random
from collections import Counter
from typing import NamedTuple

import pytest

from oracles import replay_certificate
from stallings.complexes import (
    SQUARE_REL_IDS,
    ForbiddenRegion,
    find_generator_path,
    get_complex,
    neighborhood,
)
from stallings.diagrams import ConjugateFactor, random_expression
from stallings.elements import (
    S_IDENTITY,
    distance_to_identity,
    parse_gens,
    s_from_word,
    s_invert,
    s_multiply,
    scan,
    walk,
)
from stallings.homotopy import Certificate, CertificateError, verify_certificate
from stallings.pipeline import (
    DEFAULT_REGION,
    PipelineReport,
    base_exclusion_radius,
    combing_radius,
    compose_certificates,
    emit,
    far_basepoint,
    random_far_loop,
    run_ends_experiment,
    run_main_pipeline,
    run_pipeline_batch,
    run_reduce_batch,
    run_reduce_demo,
)

X = get_complex("x")
GAMMA_K = get_complex("gamma_k")


def commutator(u, v):
    return u + v + tuple(-g for g in reversed(u)) + tuple(-g for g in reversed(v))


def test_component_distance_and_basepoint():
    x = scan((1, 3))
    assert distance_to_identity(s_multiply(s_invert(x), x)) == 0
    assert distance_to_identity(x) == 2
    assert distance_to_identity(scan((5, 5))) == 2
    assert far_basepoint(0) == S_IDENTITY
    assert distance_to_identity(far_basepoint(5)) == 5


def test_base_exclusion_radius():
    region = ForbiddenRegion(X, (S_IDENTITY,), 1)
    # kernel-generator neighbors are two letters out in the base graph
    assert base_exclusion_radius(region) == 2
    letters_only = ForbiddenRegion(get_complex("gamma_1"), (S_IDENTITY,), 1)
    assert base_exclusion_radius(letters_only) == 1


def test_find_generator_path_detours():
    # the only distance-1 midpoint between the identity and e6^2 is e6
    blocked = scan((6,))
    goal = scan((6, 6))
    direct = find_generator_path(GAMMA_K, S_IDENTITY, goal)
    assert direct is not None and len(direct) == 2
    detour = find_generator_path(GAMMA_K, S_IDENTITY, goal, forbidden={blocked})
    assert detour is not None and len(detour) > 2
    v = S_IDENTITY
    for gen in detour:
        v = scan((gen,), start=v)
        assert v != blocked
    assert v == goal
    assert find_generator_path(GAMMA_K, goal, goal) == ()
    # endpoints inside the region are unreachable by definition
    region = ForbiddenRegion(GAMMA_K, (S_IDENTITY,), 1)
    assert find_generator_path(GAMMA_K, goal, S_IDENTITY, forbidden=region) is None


def test_main_pipeline_commutator_far():
    report = run_main_pipeline(scan((1, 1, 1)), (1, 3, -1, -3))
    assert report.verified
    s = report.summary
    assert s["stable_level"] == 0
    assert s["min_loop_distance"] == 3
    assert s["base_exclusion_radius"] == 2
    assert s["kernel_path_length"] == 16
    assert s["kernel_generator_count"] == 8
    assert report.certificate.result == ()
    assert report.certificate.start == scan((1, 1, 1))
    assert [name for name, _ in report.stages] == ["rewrite", "convert", "contract"]


def test_main_pipeline_deep_loop_needs_translation():
    # the loop's contraction grid passes through the identity, so the
    # level-0 contraction enters the forbidden ball and level 1 clears it
    base = scan((1, 2, 1, 3, 4, 3))
    loop = commutator((-1, -2, -1, 2, 1, 2), (-3, -4, -3, 4, 3, 4))
    report = run_main_pipeline(base, loop)
    assert report.verified
    assert report.summary["stable_level"] == 1
    assert report.summary["levels_tried"] == 2


def test_main_pipeline_backtrack_loop_produces_no_kernel_generator():
    # every pair of the kernel path is a backtrack, so conversion deletes it and
    # produces nothing; the level-0 contraction then makes no move and verifies
    report = run_main_pipeline(s_from_word("aaaa"), (1, -1))
    assert report.verified
    assert report.summary["stable_level"] == 0
    assert report.summary["kernel_generator_count"] == 0
    assert report.stages[2][1].moves == ()
    text = emit(report)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "05ea2a6d90b39f12ad2c0f95eea360c0f8181253d6f832d1c3de09ce6f5f108c"
    )


def test_main_pipeline_independent_replay():
    report = run_main_pipeline(scan((2, 2, 4)), (2, 4, -2, -4))
    ok, reason, swept = replay_certificate(report.certificate)
    assert ok, reason
    region = ForbiddenRegion(X, (S_IDENTITY,), 1)
    assert not any(v in region for v in swept)


def test_main_pipeline_preconditions():
    with pytest.raises(ValueError, match="outside radius"):
        run_main_pipeline(scan((1, 3)), (1, 3, -1, -3))
    with pytest.raises(ValueError, match="not a loop"):
        run_main_pipeline(scan((1, 1, 1)), (1, 3))
    loop = parse_gens("ABAbabCDCdcdBABabaDCDcdc")
    with pytest.raises(ValueError, match="max_level must be nonnegative, got -1"):
        run_main_pipeline(s_from_word("abacdc"), loop, max_level=-1)


def test_main_pipeline_report_json():
    report = run_main_pipeline(scan((1, 1, 1)), (1, 3, -1, -3))
    data = report.to_json()
    assert data["verified"] is True
    assert {entry["stage"] for entry in data["stages"]} == {
        "rewrite",
        "convert",
        "contract",
    }
    text = emit(report)
    assert json.loads(text)["summary"]["stable_level"] == 0


class _Pair(NamedTuple):
    left: int
    right: str


class _Str(str):
    pass


class _Int(int):
    def __repr__(self):
        return "not the int text"


def test_emit_matches_json_dumps():
    def same(data):
        assert emit(data) == json.dumps(data, sort_keys=True, indent=2) + "\n"

    for seed in (0, 7919):
        rng = random.Random(seed)
        for _ in range(6):
            same(run_main_pipeline(*random_far_loop(rng)).to_json())
        for _ in range(3):
            same(run_reduce_demo(random_expression(rng)).to_json())
        same(run_pipeline_batch(3, seed=seed))
        same(run_reduce_batch(2, seed=seed))
    same(run_ends_experiment(r_values=(1,), names=("gamma_k", "free_ab")))
    # json sorts on the original keys, so keys of unlike types sit in
    # dicts of their own
    same({
        "counter": Counter("abracadabra"),
        "named": _Pair(-3, "x"),
        "empty": [{}, [], (), {"inner": {}}, [[]]],
        "numeric keys": {
            3: "int", True: "bool", 2.5: "float", float("inf"): "inf", _Int(7): "sub",
        },
        "none key": {None: None},
        "text": "\u00fcn\u00efcode \x00\x1f\t\n\"\\ \U0001f600",
        _Str("str subclass"): _Str("value"),
        "ints": [_Int(5), -7, 0, 10**30],
        "floats": [0.1, 1e-07, float("nan"), float("inf"), -float("inf"), -0.0],
        "literals": [True, False, None],
    })
    same([])
    same({})
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        emit({"vertices": {1, 2}})
    with pytest.raises(TypeError, match="keys must be"):
        emit({(1, 2): "tuple key"})


def test_compose_certificates_rejects_broken_chain():
    a = Certificate("x", S_IDENTITY, (1, -1), (), (1, -1))
    b = Certificate("x", S_IDENTITY, (2, -2), (), (2, -2))
    with pytest.raises(CertificateError):
        compose_certificates((("a", a), ("b", b)))


def test_reduce_demo_single_square():
    report = run_reduce_demo([ConjugateFactor((), SQUARE_REL_IDS[0], 1)])
    assert report.verified
    s = report.summary
    assert s["boundary"] == "se1SE1"
    assert s["bands"] == 1
    assert s["detour_lengths"] == [1]
    assert report.certificate.result == ()
    ok, reason, _ = replay_certificate(report.certificate)
    assert ok, reason


def test_reduce_demo_nested_bands():
    factors = [ConjugateFactor((5, 11), SQUARE_REL_IDS[0], 1),
               ConjugateFactor((), SQUARE_REL_IDS[5], 1)]
    report = run_reduce_demo(factors)
    assert report.verified
    assert report.summary["bands"] == 2
    assert report.summary["band_depths"] == [0, 1]
    assert len(report.summary["detour_lengths"]) == 2


def test_reduce_demo_self_paired_band():
    report = run_reduce_demo([ConjugateFactor((5,), 0, 1)])
    assert report.verified
    assert report.summary["bands"] == 1
    assert report.summary["self_paired_bands"] == 1
    # the interior spells the identity, so no detour edges are needed
    assert report.summary["detour_lengths"] == [0]


def test_reduce_demo_mirror_pair_collapses():
    factors = [ConjugateFactor((1, 3), 4, 1), ConjugateFactor((1, 3), 4, -1)]
    report = run_reduce_demo(factors)
    assert report.verified
    assert report.summary["boundary_length"] == 0
    assert report.summary["bands"] == 0
    assert report.summary["detour_lengths"] == []


def test_reduce_demo_cancels_adjacent_stable_pair():
    # once the inner band of ssacACSS is gone, the outer pair is adjacent and
    # cancels as a backtrack, with no detour search
    factors = [ConjugateFactor((5, 5), 0, 1)]
    report = run_reduce_demo(factors)
    assert report.verified
    assert report.summary["detour_lengths"] == [0, 0]
    assert replay_certificate(report.certificate)[0]
    # next to the region the pair still cancels, though its endpoints lie in
    # the dilated region, and the verifier reports the crossing
    near = run_reduce_demo(factors, start=s_from_word("a"))
    assert not near.verified
    assert near.summary["detour_lengths"] == [0, 0]
    assert near.summary["failure_reason"] == "initial path enters forbidden region"


def test_reduce_demo_respects_given_region():
    region = ForbiddenRegion(X, (S_IDENTITY,), 2)
    report = run_reduce_demo(
        [ConjugateFactor((), SQUARE_REL_IDS[0], 1)], start=far_basepoint(8), region=region
    )
    assert report.verified
    ok, _, swept = replay_certificate(report.certificate)
    assert ok
    assert not any(v in region for v in swept)


def test_reduce_demo_builds_the_dilated_region_once(monkeypatch):
    import stallings.complexes as complexes

    region = ForbiddenRegion(X, (S_IDENTITY,), 1)
    radii = []

    def counting(spec, centers, radius, *args):
        radii.append(radius)
        return neighborhood(spec, centers, radius, *args)

    monkeypatch.setattr(complexes, "neighborhood", counting)
    factors = [ConjugateFactor((), SQUARE_REL_IDS[0], 1)]
    first = run_reduce_demo(factors, region=region)
    second = run_reduce_demo(factors, region=region)
    assert first.verified and second.verified
    assert region.dilated.radius == 2
    assert radii == [2]


def _combing_radius_brute(swept, anchors):
    return max(
        min(distance_to_identity(s_multiply(s_invert(w), v)) for v in anchors)
        for w in swept
    )


def test_combing_radius_is_the_exact_max_min():
    rng = random.Random(41)
    reports = [run_main_pipeline(*random_far_loop(rng, 4)) for _ in range(12)]
    reports += [run_reduce_demo(random_expression(rng)) for _ in range(6)]
    for report in reports:
        cert = report.certificate
        res = verify_certificate(cert, DEFAULT_REGION)
        assert res.ok
        verts = walk(cert.start, cert.path)
        value = combing_radius(res.swept, verts)
        assert value == _combing_radius_brute(res.swept, verts)
        assert value == report.summary["combing_radius"]

    # the max is reached only at the last swept vertex, and each vertex's
    # first anchor is the far one
    far = far_basepoint(6)
    swept = [S_IDENTITY, scan((3,)), scan((3, 3)), scan((3, 3, 3))]
    anchors = [far, S_IDENTITY]
    assert combing_radius(swept, anchors) == _combing_radius_brute(swept, anchors) == 3
    # the first swept vertex sets the max, and the first anchor prunes every
    # later vertex
    swept = [scan((3, 3, 3)), S_IDENTITY, scan((1,)), scan((1, 3)), scan((2, 2, 4))]
    anchors = [S_IDENTITY, far]
    assert combing_radius(swept, anchors) == _combing_radius_brute(swept, anchors) == 3


def test_combing_radius_skips_loop_vertices(monkeypatch):
    import stallings.pipeline as pipeline

    products = []

    def counting(x, y):
        products.append(x)
        return s_multiply(x, y)

    monkeypatch.setattr(pipeline, "s_multiply", counting)
    loop = walk(far_basepoint(4), (3, 3, -3, -3))
    anchors = list(dict.fromkeys(loop))
    assert combing_radius(anchors, loop) == 0
    assert products == []
    off_loop = [scan((3, 3, 3)), S_IDENTITY, scan((1, 3, 2))]
    swept = [anchors[1], off_loop[0], anchors[0], off_loop[1], anchors[2], off_loop[2]]
    value = combing_radius(swept, loop)
    # each product is taken from a swept vertex's inverse, and every vertex
    # scanned makes at least the one with the first anchor
    assert set(products) == {s_invert(w) for w in off_loop}
    monkeypatch.undo()
    assert value == _combing_radius_brute(swept, loop)


def test_random_far_loop_properties():
    rng = random.Random(17)
    for _ in range(50):
        base, labels = random_far_loop(rng)
        assert 0 < len(labels) <= 8
        v = base
        low = distance_to_identity(base)
        for gen in labels:
            v = scan((gen,), start=v)
            low = min(low, distance_to_identity(v))
        assert v == base
        assert low >= 3


def test_pipeline_batch_merges_by_index():
    report = run_pipeline_batch(10, seed=3)
    assert report["all_verified"]
    assert [run["index"] for run in report["runs"]] == list(range(10))
    assert sum(report["levels"].values()) == 10
    again = run_pipeline_batch(10, seed=3)
    assert emit(report) == emit(again)


def test_pipeline_batch_floor_follows_the_region():
    # a radius-2 ball reaches base-group distance 4, so loops start at 5
    region = ForbiddenRegion(X, (S_IDENTITY,), 2)
    assert base_exclusion_radius(region) == 4
    report = run_pipeline_batch(5, seed=1, region=region)
    assert report["all_verified"]
    with pytest.raises(ValueError, match="min_distance must be at least 5"):
        run_pipeline_batch(5, region=region, min_distance=4)


def test_reduce_batch_verifies():
    report = run_reduce_batch(8, seed=5)
    assert report["all_verified"]
    assert len(report["runs"]) == 8
    assert report["total_bands"] == sum(run["bands"] for run in report["runs"])


def test_ends_experiment_counts():
    report = run_ends_experiment(r_values=(1,), budget=500_000)
    essential = report["essential_components"]
    assert essential["gamma_k"] == [1]
    assert essential["gamma_1"] == [1]
    assert essential["gamma_h"] == [1]
    assert essential["free_ab"] == [12]
    assert report["one_ended_evidence"] == ["gamma_1", "gamma_h", "gamma_k"]


def test_mutation_flips_verification():
    report = run_main_pipeline(scan((1, 1, 1)), (1, 3, -1, -3))
    res = verify_certificate(report.certificate)
    assert res.ok
    for vertex in sorted(res.swept, key=str)[:3]:
        poisoned = verify_certificate(report.certificate, forbidden={vertex})
        assert not poisoned.ok
