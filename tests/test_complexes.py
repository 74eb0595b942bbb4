import copy
import pickle
import random

import pytest
from oracles import (
    VERTEX_TESTS,
    Published,
    reference_generator_path,
    reference_shell_components,
)

from stallings.complexes import (
    COMMUTATOR_REL_IDS,
    COMPLEXES,
    DEFAULT_BUDGET,
    REL_WORDS,
    SQUARE_REL_IDS,
    TRIANGLE_REL_IDS,
    ForbiddenRegion,
    SearchBudgetExceeded,
    ball,
    ball_to_dot,
    find_generator_path,
    get_complex,
    neighborhood,
    sphere_complement_components,
    sphere_sizes,
)
from stallings.elements import (
    S_IDENTITY,
    distance_to_identity,
    in_base_group,
    s_from_word,
    s_invert,
    s_multiply,
    s_parts,
    scan,
    step,
)
from stallings.pipeline import DEFAULT_REGION
from stallings.words import reduce_mul


def test_relator_table_shape():
    assert len(REL_WORDS) == 52
    assert COMMUTATOR_REL_IDS == (0, 1, 2, 3)
    assert len(TRIANGLE_REL_IDS) == 24
    assert len(SQUARE_REL_IDS) == 24
    assert REL_WORDS[0] == (1, 3, -1, -3)
    assert REL_WORDS[3] == (2, 4, -2, -4)
    assert REL_WORDS[TRIANGLE_REL_IDS[0]] == (-6, 1, -2)  # e1 = a b^-1
    assert REL_WORDS[SQUARE_REL_IDS[23]] == (5, 29, -5, -29)


def test_all_relators_evaluate_to_identity():
    for rel in REL_WORDS:
        assert scan(rel) == S_IDENTITY


def test_registry_and_generator_counts():
    assert set(COMPLEXES) == {
        "gamma_k", "gamma_1", "gamma_2", "gamma_h", "gamma_h_bar", "x", "free_ab",
    }
    assert len(signed_labels(get_complex("gamma_1"))) == 8
    assert len(signed_labels(get_complex("gamma_k"))) == 48
    assert len(signed_labels(get_complex("x"))) == 58
    # distinct stepping values are fewer: cross-factor generator words collide
    assert len(get_complex("gamma_1").steps) == 8
    assert len(get_complex("gamma_k").steps) == 16
    assert len(get_complex("gamma_2").steps) == 24
    assert len(get_complex("gamma_h").steps) == 18
    assert len(get_complex("x").steps) == 26
    assert len(get_complex("free_ab").steps) == 4
    with pytest.raises(ValueError):
        get_complex("nope")


def signed_labels(spec):
    """Every signed generator of a complex: gen, then -gen, in `gens` order."""
    return [g for gen in spec.gens for g in (gen, -gen)]


def test_neighbor_slots():
    # one edge slot per signed generator; the slots reach exactly the
    # vertices that BFS reaches through the distinct stepping values, and
    # each value steps as the first signed generator that has it
    v = s_from_word("aB")
    for name, slots in (("gamma_1", 8), ("gamma_k", 48), ("x", 58)):
        spec = get_complex(name)
        assert len(signed_labels(spec)) == slots
        reached = {}
        for gen in signed_labels(spec):
            reached.setdefault(step(v, gen), gen)
        assert reached == {s_multiply(v, value): gen for value, gen in spec.steps.items()}
        assert list(reached) == [s_multiply(v, value) for value in spec.steps]


def test_ball_sphere_sizes():
    assert sphere_sizes(ball(get_complex("gamma_1"), 6)) == [
        1, 8, 40, 168, 648, 2376, 8424,
    ]
    assert sphere_sizes(ball(get_complex("gamma_k"), 3)) == [1, 16, 152, 1312]
    assert sphere_sizes(ball(get_complex("free_ab"), 3)) == [1, 4, 12, 36]
    assert sphere_sizes(ball(get_complex("gamma_h"), 2)) == [1, 18, 186]
    assert sphere_sizes(ball(get_complex("gamma_2"), 2)) == [1, 24, 280]
    assert sphere_sizes(ball(get_complex("x"), 2)) == [1, 26, 346]


def test_ball_vertices_satisfy_membership():
    for name in COMPLEXES:
        spec = get_complex(name)
        for v in ball(spec, 2):
            assert spec.member(v), (name, v)


def test_oracle_vertex_tests_match_membership():
    # the oracle's rule on the published form is the library's member test
    for v in ball(get_complex("x"), 2):
        published = Published(*s_parts(v))
        for name, spec in COMPLEXES.items():
            assert VERTEX_TESTS[name](published) == spec.member(v), (name, v)


def test_ball_around_coset_representative():
    start = s_from_word("s")
    dist = ball(get_complex("gamma_k"), 2, start=start)
    assert dist[start] == 0
    assert all(v.tail == "s" for v in dist)
    assert sphere_sizes(dist) == [1, 16, 152]


def test_budget_is_enforced():
    with pytest.raises(SearchBudgetExceeded):
        ball(get_complex("gamma_1"), 4, budget=100)


def test_base_group_distance_matches_bfs():
    spec = get_complex("gamma_1")
    dist = ball(spec, 4)
    for v, d in dist.items():
        assert distance_to_identity(v) == d
    # distances from a shifted basepoint agree with a fresh search
    base = s_from_word("abC")
    shifted = ball(spec, 3, start=base)
    for v, d in shifted.items():
        assert distance_to_identity(s_multiply(s_invert(base), v)) == d
    # off the base group the distance is the published-form word length
    off_base = 0
    for v in ball(get_complex("x"), 2):
        ab, cd, tail = s_parts(v)
        assert distance_to_identity(v) == len(reduce_mul(ab, tail)) + len(cd)
        off_base += not in_base_group(v)
    assert off_base > 0


def test_neighborhood_multisource():
    spec = get_complex("gamma_1")
    sources = [S_IDENTITY, s_from_word("a")]
    dist = neighborhood(spec, sources, 1)
    assert dist[S_IDENTITY] == 0
    assert dist[s_from_word("a")] == 0
    assert dist[s_from_word("aa")] == 1
    assert all(d <= 1 for d in dist.values())


def test_forbidden_region():
    spec = get_complex("x")
    region = ForbiddenRegion(spec, [S_IDENTITY], 1)
    assert isinstance(region, dict)
    assert region == neighborhood(spec, [S_IDENTITY], 1)
    assert region[S_IDENTITY] == 0
    assert region[s_from_word("s")] == 1
    assert len(region) == 27  # identity plus 26 distinct neighbor values
    assert S_IDENTITY in region
    assert s_from_word("s") in region
    assert s_from_word("ss") not in region


def test_dilated_region_is_built_once():
    spec = get_complex("x")
    region = ForbiddenRegion(spec, [S_IDENTITY, s_from_word("a"), S_IDENTITY], 1)
    items, size = dict(region), len(region)
    dilated = region.dilated
    assert region.dilated is dilated
    fresh = ForbiddenRegion(spec, [S_IDENTITY, s_from_word("a")], 2)
    assert dilated == fresh
    assert dilated.spec is spec
    assert dilated.centers == region.centers == fresh.centers
    assert dilated.radius == region.radius + 1 == 2
    # reading it leaves the region's own items as they were
    assert len(region) == size
    assert dict(region) == items
    assert region == ForbiddenRegion(spec, [S_IDENTITY, s_from_word("a")], 1)
    assert region != dilated


def test_forbidden_region_refuses_mutation():
    spec = get_complex("x")
    for region in (ForbiddenRegion(spec, [S_IDENTITY], 1), DEFAULT_REGION):
        items = dict(region)
        vertex = next(iter(region))
        for method, args in (
            ("__setitem__", (s_from_word("ss"), 2)),
            ("__delitem__", (vertex,)),
            ("clear", ()),
            ("pop", (vertex,)),
            ("popitem", ()),
            ("setdefault", (s_from_word("ss"), 2)),
            ("update", ({s_from_word("ss"): 2},)),
            ("__ior__", ({s_from_word("ss"): 2},)),
        ):
            with pytest.raises(TypeError, match="cannot be changed"):
                getattr(region, method)(*args)
        with pytest.raises(TypeError, match="cannot be changed"):
            region |= {}
        with pytest.raises(TypeError, match="cannot be changed"):
            region[vertex] = 5
        assert dict(region) == items
        assert region.dilated == ForbiddenRegion(spec, region.centers, region.radius + 1)


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_forbidden_region_copies_are_built_again(duplicate):
    spec = get_complex("x")
    for region in (ForbiddenRegion(spec, [S_IDENTITY, s_from_word("a")], 1), DEFAULT_REGION):
        copied = duplicate(region)
        assert type(copied) is ForbiddenRegion and copied is not region
        assert copied == region
        assert (copied.spec, copied.centers, copied.radius) == (
            region.spec, region.centers, region.radius)
        with pytest.raises(TypeError, match="cannot be changed"):
            copied.clear()


def _path_or_overrun(search, *args):
    try:
        return search(*args)
    except SearchBudgetExceeded:
        return "over budget"


@pytest.mark.parametrize("name", ["gamma_k", "x"])
def test_find_generator_path_matches_label_stepping(name):
    # stepping by each distinct value finds the path, the None and the
    # budget overrun that stepping by every signed label finds
    spec = get_complex(name)
    labels = signed_labels(spec)
    rng = random.Random(15)
    region = ForbiddenRegion(spec, (S_IDENTITY,), 1)
    for _ in range(6):
        start = scan(rng.choices(labels, k=3))
        goal = scan(rng.choices(labels, k=2), start=start)
        for forbidden in (frozenset(), region):
            expected = reference_generator_path(spec, start, goal, forbidden)
            assert find_generator_path(spec, start, goal, forbidden) == expected
    # the sphere of radius 2 cuts the identity off from a vertex at distance 3
    sphere = {v for v, d in ball(spec, 2).items() if d == 2}
    goal, _ = ball(spec, 3).popitem()
    for search in (reference_generator_path, find_generator_path):
        assert search(spec, S_IDENTITY, goal, sphere) is None
    # on a detour past the region, the reference overruns budget lo and finds
    # the path within budget hi = lo + 1; so does the library
    start, goal = scan(labels[:1] * 2), scan(labels[2:3] * 2)
    lo, hi = 1, 1 << 15
    while hi - lo > 1:
        mid = (lo + hi) // 2
        overrun = _path_or_overrun(reference_generator_path, spec, start, goal, region, mid)
        lo, hi = (mid, hi) if overrun == "over budget" else (lo, mid)
    for budget in (lo, hi):
        args = (spec, start, goal, region, budget)
        expected = _path_or_overrun(reference_generator_path, *args)
        assert _path_or_overrun(find_generator_path, *args) == expected
    assert expected != "over budget" and len(expected) > 2


def test_ends_counts():
    rep = sphere_complement_components(get_complex("gamma_k"), 1, 3)
    assert rep["essential_components"] == 1
    assert rep["components"] == 1
    for r, expected in ((1, 12), (2, 36), (3, 108)):
        rep = sphere_complement_components(get_complex("free_ab"), r, r + 2)
        assert rep["essential_components"] == expected
    # brute force on the free group: each of the 12 radius-2 vertices
    # heads its own branch of 1 + 3 vertices
    rep = sphere_complement_components(get_complex("free_ab"), 1, 3)
    assert rep["component_sizes"] == [4] * 12
    assert rep["shell_size"] == 48
    rep = sphere_complement_components(get_complex("gamma_1"), 2, 4)
    assert rep["essential_components"] == 1
    with pytest.raises(ValueError):
        sphere_complement_components(get_complex("gamma_1"), 3, 3)


# every gap of 1 to 3 with R <= 3, and R = 4 where the ball stays small.  Gap 1
# expands outer vertices (gamma_2 stops early there); free_ab keeps many roots.
# At (1, 4) labels pass from layer 2 through two grown layers
SHELLS = [(r, R) for R in (1, 2, 3) for r in range(R)]
SMALL_SHELLS = [(r, 4) for r in (1, 2, 3)]
EXTRA_SHELLS = {
    "gamma_1": SMALL_SHELLS,
    "free_ab": SMALL_SHELLS,
    "gamma_k": [(1, 4)],
    "gamma_h": [(1, 4)],
    "gamma_h_bar": [(1, 4)],
}
REFERENCE_FIELDS = (
    "ball_size", "shell_size", "components", "essential_components", "component_sizes"
)


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_shell_components_agree_with_oracle(name):
    spec = get_complex(name)
    for r, R in SHELLS + EXTRA_SHELLS.get(name, []):
        rep = sphere_complement_components(spec, r, R)
        assert {k: rep[k] for k in ("complex", "r", "R")} == {"complex": name, "r": r, "R": R}
        assert {k: rep[k] for k in REFERENCE_FIELDS} == reference_shell_components(spec, r, R)


def test_one_ended_shell_expands_no_outer_vertex(monkeypatch):
    # the inner layers of gamma_k already leave one component, so the only
    # products are the one pass's (each vertex below R once), and none of an
    # outer vertex
    import stallings.complexes as complexes

    spec = get_complex("gamma_k")
    sizes = sphere_sizes(ball(spec, 3))
    calls = []
    monkeypatch.setattr(complexes, "s_multiply", lambda x, y: calls.append(1) or s_multiply(x, y))
    rep = sphere_complement_components(spec, 1, 3)
    assert rep["components"] == 1
    assert len(calls) == sum(sizes[:3]) * len(spec.steps)


def test_searches_do_not_call_step():
    # searches and the DOT export multiply by generator values, so they never
    # fill the bounded memo in elements.step, which is for walks
    import stallings.complexes as complexes
    from stallings import elements

    assert not hasattr(complexes, "step")
    spec = get_complex("gamma_k")
    goal = scan((6, 7, -6))
    size = len(elements._step_memo)
    dist = neighborhood(spec, (S_IDENTITY,), 2)
    assert len(dist) > len(spec.steps)
    assert sphere_complement_components(spec, 1, 3)["components"] == 1
    path = find_generator_path(spec, S_IDENTITY, goal)
    assert ball_to_dot(spec, dist).count(" -- ") > len(dist)
    assert len(elements._step_memo) == size
    assert path is not None and scan(path) == goal


def _overruns(search, *args, budget):
    try:
        search(*args, budget=budget)
    except SearchBudgetExceeded:
        return True
    return False


def test_ends_budget_trips_where_the_ball_does():
    # the pass inserts vertices in the order ball(R) does, so it runs out at
    # exactly the budgets at which ball(R) does, inside the (r+1)-ball or not
    spec = get_complex("gamma_h")
    lo, hi = 0, DEFAULT_BUDGET  # ball(R) overruns at lo and not at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _overruns(ball, spec, 3, budget=mid) else (lo, mid)
    inner = len(ball(spec, 2))
    for budget in (1, inner - 1, inner, lo, hi):
        assert _overruns(sphere_complement_components, spec, 1, 3, budget=budget) == (
            budget <= lo
        ), budget


def test_ball_to_dot():
    spec = get_complex("free_ab")
    text = ball_to_dot(spec, ball(spec, 1))
    assert text.startswith("graph {")
    assert '"1|1|1"' in text
    assert "--" in text
    assert 'label="a"' in text
