import hashlib
import json
import random

import pytest

from stallings.complexes import REL_WORDS, SQUARE_REL_IDS, TRIANGLE_REL_IDS
from stallings.diagrams import (
    Band,
    ConjugateFactor,
    Diagram,
    DiagramError,
    band_invariants,
    build_diagram,
    expression_word,
    extract_bands,
    random_expression,
)
from stallings.elements import s_from_word, scan


def test_two_square_corridor():
    factors = [
        ConjugateFactor((), SQUARE_REL_IDS[0], 1),
        ConjugateFactor((6,), SQUARE_REL_IDS[5], 1),
    ]
    dia = build_diagram(factors)
    assert dia.boundary_word() == (5, 6, 11, -5, -11, -6)
    decomposition = extract_bands(dia)
    assert decomposition.bands == [Band(0, 3, (0, 1), (6, 11))]
    assert decomposition.depths == [0]
    inv = band_invariants(dia)
    assert inv["bands"] == 1
    assert inv["squares"] == 2
    assert inv["self_paired"] == 0


def test_nested_bands():
    factors = [
        ConjugateFactor((5, 11), SQUARE_REL_IDS[0], 1),
        ConjugateFactor((), SQUARE_REL_IDS[5], 1),
    ]
    dia = build_diagram(factors)
    assert dia.boundary_word() == (5, 11, 5, 6, -5, -6, -5, -11)
    decomposition = extract_bands(dia)
    assert [(b.entry, b.exit) for b in decomposition.bands] == [(0, 6), (2, 4)]
    assert decomposition.bands[0].side == (11,)
    assert decomposition.bands[1].side == (6,)
    assert decomposition.depths == [0, 1]


def test_mirror_pair_collapses():
    factors = [
        ConjugateFactor((1, 3), TRIANGLE_REL_IDS[3], 1),
        ConjugateFactor((1, 3), TRIANGLE_REL_IDS[3], -1),
    ]
    dia = build_diagram(factors)
    assert dia.boundary_word() == ()
    assert len(dia.vertices()) == 1
    assert dia.edge_count() == 0
    assert not dia.faces


def test_self_paired_stable_edge():
    dia = build_diagram([ConjugateFactor((5,), 0, 1)])
    assert dia.boundary_word() == (5, 1, 3, -1, -3, -5)
    decomposition = extract_bands(dia)
    assert decomposition.bands == [Band(0, 5, (), ())]
    assert band_invariants(dia)["self_paired"] == 1


def test_stable_free_diagram_has_no_bands():
    dia = build_diagram(
        [ConjugateFactor((1,), 0, 1), ConjugateFactor((), 3, -1)]
    )
    assert not extract_bands(dia).bands
    assert band_invariants(dia)["bands"] == 0


def test_depth_counts_enclosing_bands():
    # the quadratic definition: the number of bands strictly enclosing b
    rng = random.Random(23)
    nested = 0
    for _ in range(500):
        decomposition = extract_bands(build_diagram(random_expression(rng)))
        bands = decomposition.bands
        expected = [
            sum(1 for c in bands if c.entry < b.entry and b.exit < c.exit) for b in bands
        ]
        assert decomposition.depths == expected
        nested += any(expected)
    assert nested > 10


def test_boundary_is_reduced_expression():
    rng = random.Random(5)
    for _ in range(200):
        factors = random_expression(rng)
        dia = build_diagram(factors)
        word = list(expression_word(factors))
        out = []
        for g in word:
            if out and out[-1] == -g:
                out.pop()
            else:
                out.append(g)
        assert dia.boundary_word() == tuple(out)
        inv = band_invariants(dia)
        assert inv["squares"] == sum(inv["band_lengths"])
        dia.validate()


def test_boundary_word_is_a_loop():
    factors = [
        ConjugateFactor((5, 11), SQUARE_REL_IDS[0], 1),
        ConjugateFactor((), SQUARE_REL_IDS[5], 1),
    ]
    dia = build_diagram(factors)
    base = s_from_word("abS")
    assert scan(dia.boundary_word(), start=base) == base


def test_validate_rejects_tampered_labels():
    dia = build_diagram([ConjugateFactor((), SQUARE_REL_IDS[0], 1)])
    dart = dia.boundary[0]
    dia.label[dart] += 1
    with pytest.raises(DiagramError):
        dia.validate()


def test_validate_rejects_tampering():
    dia = build_diagram([ConjugateFactor((), 0, 1)])
    fid = next(iter(dia.faces))
    dia.face_rid[fid] = 5
    with pytest.raises(DiagramError):
        dia.validate()


def _drop_a_dart(dia):
    next(iter(dia.faces.values())).pop()


def _move_the_basepoint(dia):
    dia.basepoint = dia.head(dia.boundary[0])


def _swap_two_darts(dia):
    cyc = next(iter(dia.faces.values()))
    cyc[0], cyc[1] = cyc[1], cyc[0]


def _merge_two_vertices(dia):
    # a consistent renaming keeps every face chained but loses a vertex
    dia._merge_vertex(dia.head(dia.boundary[0]), dia.basepoint)


def _add_a_torus(dia):
    # one commutator square with opposite sides glued, on a vertex of its own:
    # V - E + F is 0 for it, so the Euler count still reads a sphere
    x, y, _, _ = REL_WORDS[0]
    w = dia.new_vertex()
    dx, dy = dia.new_edge(w, w, x), dia.new_edge(w, w, y)
    fid = max(dia.faces) + 1
    dia.faces[fid] = [dx, dy, dx ^ 1, dy ^ 1]
    dia.face_rid[fid] = 0


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_drop_a_dart, "darts are not partitioned by the faces"),
        (_move_the_basepoint, "boundary does not start at the basepoint"),
        (_swap_two_darts, "face darts do not chain"),
        (_merge_two_vertices, "diagram is not spherical"),
        (_add_a_torus, "diagram is not connected"),
    ],
    ids=["dropped-dart", "moved-basepoint", "swapped-darts", "merged-vertices", "torus"],
)
def test_validate_names_each_tampering(tamper, message):
    dia = build_diagram([
        ConjugateFactor((), SQUARE_REL_IDS[0], 1),
        ConjugateFactor((6,), SQUARE_REL_IDS[5], 1),
    ])
    tamper(dia)
    with pytest.raises(DiagramError, match=f"^{message}$"):
        dia.validate()


def _flip(dia, d):
    dia.label[d], dia.label[d ^ 1] = dia.label[d ^ 1], dia.label[d]


def _retag_a_square(dia):
    dia.face_rid[0] = TRIANGLE_REL_IDS[0]


def _point_the_second_band_at_the_first_square(dia):
    dia.face_of[dia.boundary[4] ^ 1] = 0


def _give_a_square_five_darts(dia):
    dia.faces[0].append(dia.faces[0][0])


def _flip_a_side_edge(dia):
    _flip(dia, dia.boundary[1])  # e1, whose twin is a side of the first square


def _repeat_the_entry_in_its_square(dia):
    # the chain leaves the square by the dart it entered by, so the band
    # ends where it starts
    cyc = dia.faces[0]
    t = dia.boundary[0] ^ 1
    cyc[(cyc.index(t) + 2) % 4] = t


def _flip_a_stable_boundary_edge(dia):
    _flip(dia, dia.boundary[0])


def _cross_the_bands(dia):
    dia.boundary[2], dia.boundary[4] = dia.boundary[4], dia.boundary[2]


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_retag_a_square, "stable edge borders a non-square face"),
        (_point_the_second_band_at_the_first_square, "square shared between bands"),
        (_give_a_square_five_darts, "square face is malformed"),
        (_flip_a_side_edge, "band sides disagree"),
        (_repeat_the_entry_in_its_square, "inconsistent band pairing"),
        (_flip_a_stable_boundary_edge, "band endpoints have equal orientation"),
        (_cross_the_bands, "bands cross"),
    ],
    ids=["triangle", "shared-square", "five-darts", "flipped-side", "repeated-entry",
         "flipped-endpoint", "crossed"],
)
def test_extract_bands_names_each_tampering(tamper, message):
    # two squares side by side, s e1 S E1 s e6 S E6: two bands of one square
    # each, at boundary positions (0, 2) and (4, 6)
    dia = build_diagram([
        ConjugateFactor((), SQUARE_REL_IDS[0], 1),
        ConjugateFactor((), SQUARE_REL_IDS[5], 1),
    ])
    assert [(b.entry, b.exit, b.faces) for b in extract_bands(dia).bands] == [
        (0, 2, (0,)), (4, 6, (1,))
    ]
    tamper(dia)
    with pytest.raises(DiagramError, match=f"^{message}$"):
        extract_bands(dia)


def test_fold_refuses_a_spur_whose_tip_is_not_a_leaf():
    # folding a built diagram never leaves an edge at a spur's tip (a sphere
    # is swept at the fold that closes it), so the state is built by hand: a
    # boundary that turns back along a stem whose tip holds a second edge
    dia = Diagram()
    tip = dia.new_vertex()
    stem = dia.new_edge(dia.basepoint, tip, 1)
    dia.new_edge(tip, dia.new_vertex(), 3)
    dia.boundary = [stem, stem ^ 1]
    with pytest.raises(DiagramError, match="^spur tip is not a leaf$"):
        dia._fold_boundary()


def test_sweep_refuses_a_sphere_that_shares_an_edge_with_the_disk():
    # twin darts make face adjacency symmetric, so a swept face's twins are
    # swept too unless edges are missing: here the first square's edges are
    # deleted, which cuts it off from the outer face while its twins stay out
    dia = build_diagram([
        ConjugateFactor((), SQUARE_REL_IDS[0], 1),
        ConjugateFactor((), SQUARE_REL_IDS[5], 1),
    ])
    for d in dia.faces[0]:
        dia._delete_edge(d)
    with pytest.raises(DiagramError, match="^sphere shares an edge with the disk$"):
        dia._sweep_spheres()


def test_unfolded_boundary_does_not_spell_the_reduced_expression(monkeypatch):
    # a factor times its mirror folds to a point; left unfolded, the wedge of
    # two lollipops is a valid diagram whose boundary is the unreduced word
    factor = ConjugateFactor((6,), SQUARE_REL_IDS[0], 1)
    assert build_diagram([factor, factor._replace(sign=-1)]).boundary == []
    monkeypatch.setattr(Diagram, "_fold_boundary", lambda self: None)
    with pytest.raises(DiagramError, match="^boundary does not spell the reduced expression$"):
        build_diagram([factor, factor._replace(sign=-1)])


def test_bad_factors_rejected():
    with pytest.raises(DiagramError):
        build_diagram([ConjugateFactor((), 99, 1)])
    with pytest.raises(DiagramError):
        build_diagram([ConjugateFactor((), 0, 2)])


def test_exports():
    dia = build_diagram([ConjugateFactor((6,), SQUARE_REL_IDS[0], 1)])
    data = dia.to_json()
    assert json.loads(json.dumps(data)) == data
    assert data["basepoint"] == 0
    assert len(data["faces"]) == 1
    assert data["boundary"][0] == "e1"
    dot = dia.to_dot()
    assert "digraph" in dot and "e1" in dot


def test_expression_word_of_negative_factor():
    f = ConjugateFactor((1,), SQUARE_REL_IDS[0], -1)
    assert f.word() == (1, 6, 5, -6, -5, -1)


def _mixed_expressions(count, seed=0):
    """Seeded expressions that fold spheres away: every other one is
    `random_expression` with 2 to 8 factors, the rest share a conjugator
    prefix over all 29 generator ids; 30% get a factor's mirror inserted
    next to it and 20% are shuffled."""
    rng = random.Random(seed)

    def signed_ids(most):
        return tuple(rng.choice((1, -1)) * rng.randint(1, 29) for _ in range(rng.randint(0, most)))

    for i in range(count):
        if i % 2:
            factors = random_expression(rng, max_factors=2 + i % 7)
        else:
            prefix = signed_ids(3)
            factors = [
                ConjugateFactor(prefix + signed_ids(2), rng.randrange(len(REL_WORDS)),
                                rng.choice((1, -1)))
                for _ in range(rng.randint(1, 5))
            ]
        if rng.random() < 0.3:
            j = rng.randrange(len(factors))
            f = factors[j]
            factors.insert(j + 1, ConjugateFactor(f.conjugator, f.relator_id, -f.sign))
        if rng.random() < 0.2:
            rng.shuffle(factors)
        yield factors


def test_mixed_expressions_build_as_pinned():
    """One sha256 over each diagram's JSON and band invariants (or its
    DiagramError), pinned when the builder still swept after every spur and
    after the last fold: sweeping only at the bigon fold builds the same."""
    digest = hashlib.sha256()
    for factors in _mixed_expressions(2000):
        try:
            dia = build_diagram(factors)
            out = [dia.to_json(), band_invariants(dia)]
        except DiagramError as exc:
            out = str(exc)
        digest.update(json.dumps(out, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "6e8050b488c23ba9037ee538921a173030a857dfae2cc22fc4f55d41e6a4acad"
    )


def test_every_sphere_sweep_removes_a_face(monkeypatch):
    """The builder sweeps only at the fold that zips a bigon shut, and that
    fold always pinches off a sphere, so no sweep is wasted."""
    sweep = Diagram._sweep_spheres
    removed = []

    def counted(self):
        before = len(self.faces)
        sweep(self)
        removed.append(before - len(self.faces))

    monkeypatch.setattr(Diagram, "_sweep_spheres", counted)
    for factors in _mixed_expressions(2000):
        try:
            build_diagram(factors)
        except DiagramError:
            pass
    assert len(removed) > 500 and min(removed) >= 1
