import json
import random

import pytest

from stallings.complexes import SQUARE_REL_IDS, TRIANGLE_REL_IDS
from stallings.diagrams import (
    Band,
    ConjugateFactor,
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
