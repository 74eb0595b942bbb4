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
from stallings.homotopy import Certificate, CertificateError, PathEditor, verify_certificate
from stallings.pipeline import (
    DEFAULT_REGION,
    PipelineReport,
    _innermost_stable_pair,
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
from stallings.words import AB_GENS, S_ID, TOKEN_GENS

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


def test_base_exclusion_radius_skips_vertices_off_the_base_group():
    # of the ball around s only the identity is in the base group; its
    # off-base vertices reach distance 4
    region = ForbiddenRegion(X, (s_from_word("s"),), 1)
    assert S_IDENTITY in region
    assert base_exclusion_radius(region) == 0
    assert max(distance_to_identity(v) for v in region) == 4


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


def test_main_pipeline_replays_once_per_level_tried(monkeypatch):
    """The composed replay is the run's one check: stage 1 is built, not
    replayed on its own through the rewrite module."""
    import stallings.pipeline as pipeline
    import stallings.rewrite as rewrite

    replayed = []

    def counting(cert, forbidden=frozenset()):
        replayed.append(cert)
        return verify_certificate(cert, forbidden)

    def refused(cert, forbidden=frozenset()):
        raise AssertionError("stage 1 replayed on its own")

    monkeypatch.setattr(pipeline, "verify_certificate", counting)
    monkeypatch.setattr(rewrite, "verify_certificate", refused)
    deep = commutator((-1, -2, -1, 2, 1, 2), (-3, -4, -3, 4, 3, 4))
    for base, loop, levels in ((scan((1, 1, 1)), (1, 3, -1, -3), 1),
                               (scan((1, 2, 1, 3, 4, 3)), deep, 2)):
        replayed.clear()
        report = run_main_pipeline(base, loop)
        assert report.verified
        assert report.summary["levels_tried"] == levels == len(replayed)
        assert replayed[-1] is report.certificate


def test_stage_1_is_checked_by_the_composed_replay(monkeypatch):
    """A rewriting turned toward the identity, as in
    `test_rewrite_that_sweeps_toward_the_identity_is_not_verified`, sweeps
    into the region during stage 1, and the composed replay refuses every
    level."""
    import stallings.rewrite as rewrite

    start, loop = s_from_word("BCdc"), parse_gens("bbcdBBDC")
    assert run_main_pipeline(start, loop).verified
    away = rewrite._away_letter

    def toward(v, factor, sign):
        # the base the projection ends in, so repeated appends can cancel
        proj = v.p_ab if factor is AB_GENS else v.cd
        return (sign * abs(TOKEN_GENS[proj[-1]]), False) if proj else away(v, factor, sign)

    monkeypatch.setattr(rewrite, "_away_letter", toward)
    report = run_main_pipeline(start, loop)
    summary = report.summary
    assert not report.verified
    assert summary["failure_reason"] == "move 2 sweeps into forbidden region"
    assert len(report.stages[0][1].moves) > 2  # move 2 is a rewrite move
    assert summary["stable_level"] is None
    assert summary["levels_tried"] == 9


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
    # json's own text for the shapes `_encode` leaves to it, indented at depth
    same([{"deep": [{"deeper": [Counter("abca"), _Pair(2, "y"), {2: "two", 1: "one"}, ()]}]}])
    same([])
    same({})
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        emit({"vertices": {1, 2}})
    with pytest.raises(TypeError, match="keys must be"):
        emit({(1, 2): "tuple key"})


# strings that could look like the flat paths' separators or break their escapes
_TRICKY = ["\n", "],\n[", "[", "]", "\\", '"', "\u00e9", "\u2028", "\x00\x07\x1f\t\r", "", "a\n[b"]


def _random_value(rng, depth=0):
    """A seeded JSON-like value, biased toward flat lists and lists of rows;
    never a bare string at the top, which `emit` passes through as DOT text."""
    scalars = (
        lambda: rng.choice(_TRICKY) + rng.choice("ab\"\\]\n[") * rng.randint(0, 3),
        lambda: rng.randint(-10**20, 10**20) if rng.random() < 0.2 else rng.randint(-3, 60),
        lambda: rng.choice((True, False, None, 1.5, -0.0, 2)),
    )
    roll = rng.random()
    if depth >= 3 or depth and roll < 0.3:
        return rng.choice(scalars)()
    size = rng.randint(0, 4)
    if roll < 0.5:  # flat, mostly of str and int
        return [rng.choice(scalars[:2] if rng.random() < 0.9 else scalars)() for _ in range(size)]
    if roll < 0.7:  # rows, now and then an empty or unflat one
        return [_random_value(rng, 2) if rng.random() < 0.1 else
                [rng.choice(scalars[:2])() for _ in range(rng.randint(1, 4))]
                for _ in range(size)]
    if roll < 0.8:
        return tuple(_random_value(rng, depth + 1) for _ in range(size))
    if roll < 0.9:
        return [_random_value(rng, depth + 1) for _ in range(size)]
    return {f"k{i}{rng.choice(_TRICKY)}": _random_value(rng, depth + 1) for i in range(size)}


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "pure-python"])
def test_emit_flat_lists_and_rows_match_json_dumps(monkeypatch, c_encoder):
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)

    def same(data):
        assert emit(data) == json.dumps(data, sort_keys=True, indent=2) + "\n"

    same(_TRICKY)
    same([_TRICKY, [1, "x", -7], _TRICKY[::-1]])
    same({"rows": [["ins", 3, "],\n["], ["cell", 1, 2, 3, 4, 5]], "path": ["a", "E1"]})
    for row in (["a", 1, -2], ["a", True], [None, 1], [1.5, "x"], [-10**30, "y"], [False]):
        same(row)
        same([row, ["z", 0]])
        same([["z", 0], row])
    for data in ([[]], [[], [1]], [[1], []], [[1, "a"]], [[[1, 2], ["a"]], [[3]]],
                 [(1, "a"), [2]], ((1, 2), (3,)), [s_from_word("ab"), s_from_word("cd")],
                 [Counter("abca")], {"c": Counter("xyz"), "v": [s_from_word("as")]}):
        same(data)
    rng = random.Random(2000)
    for _ in range(2000):
        same(_random_value(rng))


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


def test_reduce_demo_checks_its_eliminations_against_the_bands(monkeypatch):
    import stallings.pipeline as pipeline

    invariants = pipeline.band_invariants

    def one_band_more(diagram):
        counts = invariants(diagram)
        return {**counts, "bands": counts["bands"] + 1}

    factors = random_expression(random.Random(3))
    assert run_reduce_demo(factors).verified
    monkeypatch.setattr(pipeline, "band_invariants", one_band_more)
    with pytest.raises(CertificateError, match="eliminations do not match the diagram's bands"):
        run_reduce_demo(factors)


def test_band_endpoint_inside_the_dilated_region_is_refused():
    # a square at the identity: its band endpoints lie within the dilated ball
    with pytest.raises(CertificateError, match="a band endpoint lies inside the dilated region"):
        run_reduce_demo([ConjugateFactor((), 41, 1)], start=S_IDENTITY)


def test_stable_pair_whose_interior_leaves_the_kernel_is_refused():
    # s a S: the only stable pair's interior, a, is not in the kernel
    editor = PathEditor(X, S_IDENTITY, (S_ID, 1, -S_ID))
    with pytest.raises(CertificateError, match="no adjacent stable pair pinches over the kernel"):
        _innermost_stable_pair(editor)


def test_main_pipeline_contraction_that_leaves_a_path_is_refused(monkeypatch):
    import stallings.pipeline as pipeline

    monkeypatch.setattr(pipeline, "contract_kernel_generator_loop", lambda *args: None)
    with pytest.raises(CertificateError, match="contraction at stable level 0 left a path"):
        run_main_pipeline(s_from_word("aaa"), (1, 3, -1, -3))


def test_band_elimination_that_leaves_a_path_is_refused(monkeypatch):
    import stallings.pipeline as pipeline

    monkeypatch.setattr(pipeline, "contract_kernel_generator_loop", lambda *args: None)
    with pytest.raises(CertificateError, match="band elimination left a path"):
        run_reduce_demo([ConjugateFactor((), 0, 1)])


def test_band_elimination_without_a_detour_is_refused(monkeypatch):
    import stallings.pipeline as pipeline

    monkeypatch.setattr(pipeline, "find_generator_path", lambda *args, **kwargs: None)
    with pytest.raises(CertificateError, match="the dilated region separates the band endpoints"):
        run_reduce_demo([ConjugateFactor((3,), 28, 1)])


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
    # swept vertices conjugated by s leave the base group, so their distances
    # to base anchors come from products in S, and the rest from projections
    loop = walk(far_basepoint(4), (3, 3, -3, -3))
    for words in (("sAS", "sabS", "saaS", "sacS"), ("saS", "sacdS"), ("sAAS", "sbbS")):
        swept = [s_from_word(w) for w in words] + [scan((3, 3, 3)), S_IDENTITY, scan((1, 3, 2))]
        assert combing_radius(swept, loop) == _combing_radius_brute(swept, loop) >= 15
        assert combing_radius(swept[::-1], loop) == _combing_radius_brute(swept, loop)


def test_combing_radius_skips_loop_vertices(monkeypatch):
    import stallings.pipeline as pipeline

    # the left factor of each product, in S or in a free factor, that
    # combing_radius takes to read one pair's distance
    factors = []

    def counting(multiply):
        def wrapped(x, y):
            factors.append(x)
            return multiply(x, y)
        return wrapped

    monkeypatch.setattr(pipeline, "s_multiply", counting(s_multiply))
    monkeypatch.setattr(pipeline, "reduce_mul", counting(pipeline.reduce_mul))
    loop = walk(far_basepoint(4), (3, 3, -3, -3))
    anchors = list(dict.fromkeys(loop))
    assert combing_radius(anchors, loop) == 0
    assert factors == []
    off_loop = [scan((3, 3, 3)), S_IDENTITY, scan((1, 3, 2))]
    swept = [anchors[1], off_loop[0], anchors[0], off_loop[1], anchors[2], off_loop[2]]
    value = combing_radius(swept, loop)
    # every vertex here is in the base group, so each pair's distance is one
    # product in F(a,b) and one in F(c,d), of the swept vertex's inverse's
    # projections; every vertex scanned makes at least the pair with the
    # first anchor
    assert all(type(x) is str for x in factors) and len(factors) % 2 == 0
    pairs = set(zip(factors[::2], factors[1::2]))
    assert pairs == {(s_invert(w).p_ab, s_invert(w).cd) for w in off_loop}
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
