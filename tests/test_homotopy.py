import random

import pytest

from oracles import cell_form, replay_certificate
from stallings import homotopy
from stallings.complexes import REL_WORDS, ForbiddenRegion, get_complex
from stallings.diagrams import random_expression
from stallings.elements import (
    S_IDENTITY,
    SElement,
    parse_gens,
    s_from_word,
    scan,
)
from stallings.homotopy import (
    CELL_FORMS,
    CELL_SPLITS,
    Certificate,
    CertificateError,
    PathEditor,
    RELATOR_FORMS,
    certificate_from_json,
    certificate_to_json,
    commute_block,
    contract_kernel_generator_loop,
    contract_product_loop,
    convert_letter_pairs,
    expand_kernel_generators,
    find_cell_move,
    interleave_blocks,
    inverse_path,
    stack_stable_conjugations,
    swap_adjacent,
    verify_certificate,
)
from stallings.pipeline import random_far_loop, run_main_pipeline, run_reduce_demo
from stallings.rewrite import rewrite_to_kernel_path, zero_sum_words
from stallings.words import LETTERS_EGEN, egen_id

GAMMA1 = get_complex("gamma_1")
GAMMA2 = get_complex("gamma_2")
X = get_complex("x")


def test_relator_forms_are_all_trivial():
    assert len(RELATOR_FORMS) > 300
    for word, hits in RELATOR_FORMS.items():
        assert scan(word) == S_IDENTITY
        assert len(hits) == 1  # no two cells share a boundary reading


def test_cell_forms_hold_each_canonical_encoding():
    # the oracle's own inversion and rotation give every entry, and
    # RELATOR_FORMS reads the table backwards: each word lists exactly the
    # encodings that read it, in table order
    encodings = [
        (rid, inv, rot)
        for rid, rel in enumerate(REL_WORDS)
        for inv in (0, 1)
        for rot in range(len(rel))
    ]
    assert list(CELL_FORMS) == encodings and len(encodings) == 4 * 8 + 24 * 6 + 24 * 8
    assert all(CELL_FORMS[cell] == cell_form(*cell) for cell in encodings)
    readings = {}
    for cell in encodings:
        readings.setdefault(cell_form(*cell), []).append(cell)
    assert {word: list(cells) for word, cells in RELATOR_FORMS.items()} == readings


def test_cell_splits_read_each_form():
    # every split of every form, side then the inverse of the replacement,
    # against the oracle's form and a reversal of its own
    assert list(CELL_SPLITS) == list(CELL_FORMS)
    for cell, form in CELL_FORMS.items():
        assert len(CELL_SPLITS[cell]) == len(form) + 1
        oracle = cell_form(*cell)
        for split, (side, replacement) in enumerate(CELL_SPLITS[cell]):
            assert (side, replacement) == (
                oracle[:split], tuple(-g for g in oracle[split:][::-1])
            )
            assert side + inverse_path(replacement) == form


def test_insert_delete_roundtrip():
    ed = PathEditor(GAMMA1, S_IDENTITY, parse_gens("ab"))
    ed.insert_backtrack(1, 3)
    assert ed.labels == (1, 3, -3, 2)
    ed.delete_backtrack(1)
    assert ed.labels == (1, 2)
    cert = ed.certificate()
    assert cert.result == cert.path
    assert verify_certificate(cert).ok


def test_commutator_cell_swap():
    ed = PathEditor(GAMMA1, S_IDENTITY, parse_gens("ac"))
    swap_adjacent(ed, 0)
    assert ed.labels == (3, 1)
    cert = ed.certificate()
    res = verify_certificate(cert)
    assert res.ok
    assert res.end == s_from_word("ac")
    assert res.swept == frozenset(
        {S_IDENTITY, s_from_word("a"), s_from_word("c"), s_from_word("ac")}
    )


def test_all_sign_combinations_swap():
    for x in (1, -1, 2, -2):
        for y in (3, -3, 4, -4):
            ed = PathEditor(GAMMA1, S_IDENTITY, (x, y))
            swap_adjacent(ed, 0)
            assert ed.labels == (y, x)
            assert verify_certificate(ed.certificate()).ok


def test_find_cell_move_needs_a_relator():
    free = get_complex("free_ab")
    with pytest.raises(CertificateError):
        find_cell_move(free, 0, (1, 2), (2, 1))
    with pytest.raises(CertificateError):
        find_cell_move(GAMMA1, 0, (1, 2), (2, 1))  # a and b do not commute


def test_verify_rejects_malformed_certificates():
    base = PathEditor(GAMMA1, S_IDENTITY, parse_gens("ac"))
    swap_adjacent(base, 0)
    good = base.certificate()

    bad_del = Certificate("gamma_1", S_IDENTITY, (1, 3), (("del", 0),), (1, 3))
    assert not verify_certificate(bad_del).ok
    assert "backtrack" in verify_certificate(bad_del).reason

    bad_cell = Certificate(
        "gamma_1", S_IDENTITY, (1, 2), good.moves, (2, 1)
    )
    assert not verify_certificate(bad_cell).ok

    bad_result = Certificate(
        good.complex_name, good.start, good.path, good.moves, (1, 3)
    )
    assert not verify_certificate(bad_result).ok
    assert "final path" in verify_certificate(bad_result).reason

    bad_label = Certificate("gamma_1", S_IDENTITY, (6,), (), (6,))
    assert not verify_certificate(bad_label).ok

    # path and result labels are exact ints: a token, True or 1.0 is none,
    # although True and 1.0 hash and compare like the id 1
    for path, result, reason in (
        (("a",), ("a",), "path label 0 is not a generator"),
        ((True, -1), (True, -1), "path label 0 is not a generator"),
        ((1, -1), (1.0, -1.0), "moves do not produce the claimed final path"),
    ):
        bad = Certificate("gamma_1", S_IDENTITY, path, (), result)
        res = verify_certificate(bad)
        assert (res.ok, res.reason) == (False, reason)
        assert not replay_certificate(bad)[0]

    foreign_cell = Certificate(
        "gamma_k", S_IDENTITY, good.path, good.moves, good.result
    )
    assert not verify_certificate(foreign_cell).ok

    # a cell field that hashes like an int (0.0, False) or cannot be hashed
    # makes a malformed move, before its encoding is looked up
    _, pos, rid, inv, rot, split = good.moves[0]
    for move in (("cell", pos, float(rid), inv, rot, split),
                 ("cell", pos, rid, bool(inv), rot, split),
                 ("cell", pos, rid, [inv], rot, split),
                 ("cell", pos, rid, inv, float(rot), split)):
        res = verify_certificate(good._replace(moves=(move,)))
        assert not res.ok and res.reason == f"move 0: malformed move {move!r}"

    # a move of the wrong arity, or with a field that compares like an int but
    # is none, fails its check; with int fields each certificate would verify
    for path, move, result in (
        ((1, -1), ("del", 0.0), ()),
        ((3, 1, -1), ("del", True), (3,)),
        ((), ("ins", 0.0, 1), (1, -1)),
        ((), ("ins", 0, 1.0), (1, -1)),
        ((), ("ins", 0, True), (1, -1)),
        ((1, 3), ("cell", 0, 0, 0, 0, 2.0), (3, 1)),
        ((1, -1), ("del",), ()),
        ((), None, ()),
    ):
        bad = Certificate("gamma_1", S_IDENTITY, path, (move,), result)
        res = verify_certificate(bad)
        assert (res.ok, res.moves_checked) == (False, 0)
        assert res.reason == f"move 0: malformed move {move!r}"
        assert not replay_certificate(bad)[0]

    # an inserted generator outside the complex, or a split outside the
    # relator, is rejected; unchecked, the first would sweep a vertex with
    # tail s and the second would insert a whole relator
    for path, moves, result, reason in (
        ((1, 3), (("ins", 0, 5), ("del", 0)), (1, 3), "generator 5 is not in gamma_1"),
        ((1, 3, -1, -3), (("cell", 4, 0, 0, 0, -4),), (1, 3, -1, -3, 3, 1, -3, -1),
         "split -4 out of range for 2-cell 0"),
        ((1, 3, -1, -3, 1, -1), (("cell", 0, 0, 0, 0, len(CELL_FORMS[0, 0, 0]) + 1),),
         (1, 3, -1, -3, 1, -1), "split 5 out of range for 2-cell 0"),
    ):
        bad = Certificate("gamma_1", S_IDENTITY, path, moves, result)
        res = verify_certificate(bad)
        assert (res.ok, res.reason, res.moves_checked) == (False, f"move 0: {reason}", 0)
        assert not replay_certificate(bad)[0]

    # so does a start that is not a vertex made of three strings
    # (tuple.__new__ makes an SElement of another length, as the package's
    # own constructor of already-reduced vertices does)
    for start in (None, ("", "", ""), SElement(1, 2, 3), SElement(["a"], "", ""),
                  SElement("", "", 3), SElement("", b"", ""), tuple.__new__(SElement, ("", ""))):
        res = verify_certificate(Certificate("gamma_1", start, (), (), ()))
        assert (res.ok, res.reason, res.moves_checked) == (
            False, "start is not a vertex of gamma_1", 0)


@pytest.mark.parametrize("field, shift", [(4, 4), (4, -4), (3, 2)])
def test_non_canonical_cell_moves_are_rejected(field, shift):
    # a wrapped rot or an inv of 2 reads the same relator form as a
    # canonical move, but only the canonical encoding is accepted
    ed = PathEditor(GAMMA1, S_IDENTITY, parse_gens("ac"))
    swap_adjacent(ed, 0)
    good = ed.certificate()
    assert verify_certificate(good).ok and replay_certificate(good)[0]
    move = list(good.moves[0])
    move[field] += shift
    bad = Certificate(good.complex_name, good.start, good.path, (tuple(move),), good.result)
    res = verify_certificate(bad)
    assert not res.ok and "no form" in res.reason
    assert not replay_certificate(bad)[0]


def test_cell_that_does_not_close_is_rejected(monkeypatch):
    # a relator form whose far side ends elsewhere must be reported, not asserted
    ed = PathEditor(GAMMA1, S_IDENTITY, parse_gens("ac"))
    swap_adjacent(ed, 0)
    cert = ed.certificate()
    cell, split = cert.moves[0][2:5], cert.moves[0][5]
    sides = list(CELL_SPLITS[cell])
    side, replacement = sides[split]
    sides[split] = (side, replacement[:-1] + (2,))
    monkeypatch.setitem(homotopy.CELL_SPLITS, cell, tuple(sides))
    res = verify_certificate(cert)
    assert not res.ok
    assert "does not close" in res.reason


def test_delete_needs_inverse_labels():
    # e1 and E4 have one value, so e1 e4 is a closed path, but not a backtrack:
    # a delete reads the labels, not only the vertices
    path = parse_gens("e1 e4")
    assert scan(path) == S_IDENTITY
    cert = Certificate("x", S_IDENTITY, path, (("del", 0),), ())
    res = verify_certificate(cert)
    assert (res.ok, res.reason) == (False, "move 0: labels at 0 are not a backtrack")
    assert not replay_certificate(cert)[0]


def test_every_swept_vertex_is_guarded():
    ed = PathEditor(GAMMA1, S_IDENTITY, parse_gens("ac"))
    swap_adjacent(ed, 0)
    cert = ed.certificate()
    swept = verify_certificate(cert).swept
    for v in swept:
        assert not verify_certificate(cert, forbidden={v}).ok


def test_inserted_vertex_is_swept_and_guarded():
    # (a) with the backtrack c C inserted at its end: the move creates ac
    cert = Certificate("gamma_1", S_IDENTITY, parse_gens("a"), (("ins", 1, 3),),
                       parse_gens("acC"))
    res = verify_certificate(cert)
    assert res.ok and res.swept == {S_IDENTITY, s_from_word("a"), s_from_word("ac")}
    res = verify_certificate(cert, forbidden={s_from_word("ac")})
    assert (res.ok, res.reason, res.moves_checked) == (
        False, "move 0 sweeps into forbidden region", 0)


def test_commute_block_grid():
    ed = PathEditor(GAMMA1, S_IDENTITY, parse_gens("aacd"))
    commute_block(ed, 0, 2, 2)
    assert ed.labels == (3, 4, 1, 1)
    cert = ed.certificate()
    assert len(cert.moves) == 4
    res = verify_certificate(cert)
    assert res.ok
    # swept vertices are exactly the prefix grid
    grid = set()
    for i in range(3):
        for j in range(3):
            grid.add(s_from_word("cd"[:j] + "aa"[:i]))
    assert res.swept == grid


def test_interleave_blocks():
    ed = PathEditor(GAMMA1, s_from_word("d"), parse_gens("abaCDC"))
    interleave_blocks(ed, 0, 3)
    assert ed.labels == (1, -3, 2, -4, 1, -3)
    cert = ed.certificate()
    assert len(cert.moves) == 3
    assert verify_certificate(cert).ok


def test_convert_letter_pairs():
    ed = PathEditor(GAMMA2, S_IDENTITY, parse_gens("aBcCAb"))
    produced = convert_letter_pairs(ed, 0, 3)
    assert produced == 2
    assert ed.labels == (egen_id(1), egen_id(13))
    assert verify_certificate(ed.certificate()).ok


def test_expand_kernel_generators():
    ed = PathEditor(GAMMA2, S_IDENTITY, (egen_id(1), -egen_id(5)))
    produced = expand_kernel_generators(ed, 0, 2)
    assert produced == 4
    assert ed.labels == tuple(parse_gens("aB") + parse_gens("cB"))
    assert verify_certificate(ed.certificate()).ok


def test_expand_kernel_generators_skips_letters():
    ed = PathEditor(GAMMA2, S_IDENTITY, (1, egen_id(1), -3))
    produced = expand_kernel_generators(ed, 0, 3)
    assert produced == 4
    assert ed.labels == (1,) + tuple(parse_gens("aB")) + (-3,)
    assert verify_certificate(ed.certificate()).ok


def test_expand_then_convert_is_identity():
    rng = random.Random(5)
    for _ in range(50):
        gens = tuple(
            rng.choice((1, -1)) * egen_id(rng.randrange(1, 25))
            for _ in range(rng.randrange(1, 5))
        )
        ed = PathEditor(GAMMA2, S_IDENTITY, gens)
        expand_kernel_generators(ed, 0, len(gens))
        convert_letter_pairs(ed, 0, len(gens))
        # conversion picks the table name for each two-letter window, which
        # recovers the original label up to the cross-factor collision
        assert scan(ed.labels) == scan(gens)
        assert verify_certificate(ed.certificate()).ok


def test_conjugate_by_stable():
    ed = PathEditor(X, S_IDENTITY, (egen_id(1), egen_id(2)))
    stack_stable_conjugations(ed, 0, 2, 1)
    assert ed.labels == (5, egen_id(1), egen_id(2), -5)
    cert = ed.certificate()
    assert len(cert.moves) == 3
    res = verify_certificate(cert)
    assert res.ok
    assert res.end == scan((egen_id(1), egen_id(2)))


def test_stack_stable_conjugations():
    ed = PathEditor(X, S_IDENTITY, (egen_id(4),))
    stack_stable_conjugations(ed, 0, 1, 3)
    assert ed.labels == (5, 5, 5, egen_id(4), -5, -5, -5)
    res = verify_certificate(ed.certificate())
    assert res.ok
    assert s_from_word("sssbASSS") == res.end
    # the inner copy of the loop runs at stable level 3
    assert any(v.tail == "sss" for v in res.swept)


def test_contract_product_loop_small_example():
    ed = PathEditor(GAMMA1, S_IDENTITY, parse_gens("acAC"))
    contract_product_loop(ed, 0, 4)
    assert ed.labels == ()
    cert = ed.certificate()
    assert len(cert.moves) == 3  # one swap, two deletions
    assert verify_certificate(cert).ok


def _random_product_loop(rng, half):
    ab = [rng.choice((1, -1, 2, -2)) for _ in range(half)]
    cd = [rng.choice((3, -3, 4, -4)) for _ in range(half)]
    seq_ab = ab + list(inverse_path(ab))
    seq_cd = cd + list(inverse_path(cd))
    out = []
    while seq_ab or seq_cd:
        take_ab = seq_ab and (not seq_cd or rng.random() < 0.5)
        out.append((seq_ab if take_ab else seq_cd).pop(0))
    return tuple(out)


def test_contract_random_product_loops():
    rng = random.Random(97)
    for _ in range(60):
        loop = _random_product_loop(rng, rng.randrange(1, 5))
        start = s_from_word("badc"[: rng.randrange(0, 5)])
        ed = PathEditor(GAMMA1, start, loop)
        assert ed.vertex(len(ed)) == start
        contract_product_loop(ed, 0, len(loop))
        assert ed.labels == ()
        cert = ed.certificate()
        assert len(cert.moves) <= max(1, len(loop)) ** 2
        ok, reason, swept = replay_certificate(cert)
        assert ok, reason
        assert verify_certificate(cert).swept == swept


def test_contract_rejects_open_paths():
    ed = PathEditor(GAMMA1, S_IDENTITY, parse_gens("ac"))
    with pytest.raises(CertificateError, match="segment is not a closed loop"):
        contract_product_loop(ed, 0, 2)


def test_contract_kernel_generator_loop():
    # commutator of two kernel generators lying in opposite factors
    loop = (egen_id(4), egen_id(12), -egen_id(4), -egen_id(12))
    ed = PathEditor(GAMMA2, S_IDENTITY, loop)
    assert ed.vertex(len(ed)) == S_IDENTITY
    contract_kernel_generator_loop(ed, 0, 4)
    assert ed.labels == ()
    assert verify_certificate(ed.certificate()).ok


def test_contract_mixed_letter_and_kernel_loop():
    # (b a^-1) a b^-1 is a closed loop mixing a kernel label with letters
    loop = (LETTERS_EGEN[(2, -1)], 1, -2)
    ed = PathEditor(GAMMA2, s_from_word("cd"), loop)
    contract_kernel_generator_loop(ed, 0, 3)
    assert ed.labels == ()
    assert verify_certificate(ed.certificate()).ok


def _random_editor(rng):
    """Random certificate built from the block constructors in gamma_2."""
    k = rng.randrange(1, 4)
    ab = [rng.choice((1, -1, 2, -2)) for _ in range(k)]
    cd = [-abs(rng.choice((3, 4))) if g > 0 else abs(rng.choice((3, 4)))
          for g in ab]
    ed = PathEditor(GAMMA2, s_from_word("ab"[: rng.randrange(0, 3)]), tuple(ab + cd))
    interleave_blocks(ed, 0, k)
    convert_letter_pairs(ed, 0, k)
    if rng.random() < 0.5:
        produced = expand_kernel_generators(ed, 0, len(ed.labels))
        assert produced == 2 * k
    return ed


def test_oracle_agreement_on_random_certificates():
    rng = random.Random(11)
    for _ in range(40):
        cert = _random_editor(rng).certificate()
        res = verify_certificate(cert)
        ok, reason, swept = replay_certificate(cert)
        assert res.ok and ok
        assert res.swept == swept
        # and agreement on a mutated, failing variant
        victim = rng.choice(sorted(swept))
        res_bad = verify_certificate(cert, forbidden={victim})
        ok_bad, _, _ = replay_certificate(cert, forbidden={victim})
        assert not res_bad.ok and not ok_bad


def _swap_from_s():
    # a c -> c a by one commutator cell, walked in the coset s G
    ed = PathEditor(GAMMA1, s_from_word("s"), parse_gens("ac"))
    swap_adjacent(ed, 0)
    return ed.certificate()


@pytest.mark.parametrize(
    "make_cert",
    [
        pytest.param(_swap_from_s, id="gamma_1-from-s"),
        pytest.param(lambda: Certificate("gamma_k", s_from_word("a"), parse_gens("e1 E1"),
                                         (("del", 0),), ()), id="gamma_k-from-a"),
        # a start that is no normal form: the walk never reduces to the
        # identity, so a forbidden identity is never matched
        pytest.param(lambda: Certificate("gamma_1", SElement("aA", "", ""), (3, -3),
                                         (("del", 0),), ()), id="gamma_1-from-unreduced"),
        # p_ab unreduced, though its published parts (a, C, A) are a normal form
        pytest.param(lambda: Certificate("gamma_1", SElement("aA", "C", "A"), (3, -3),
                                         (("del", 0),), ()), id="gamma_1-from-unstored"),
    ],
)
def test_certificate_outside_its_complex_is_rejected(make_cert):
    # the moves are sound, but the start is no vertex of the complex
    cert = make_cert()
    reason = f"start is not a vertex of {cert.complex_name}"
    res = verify_certificate(cert)
    assert (res.ok, res.reason, res.moves_checked) == (False, reason, 0)
    assert not verify_certificate(cert, frozenset({S_IDENTITY})).ok
    assert replay_certificate(cert) == (False, reason, frozenset())
    # the same moves from the identity verify, and the oracle agrees
    moved = cert._replace(start=S_IDENTITY)
    res = verify_certificate(moved)
    assert res.ok and replay_certificate(moved) == (True, None, res.swept)


def test_certificate_json_roundtrip():
    ed = _random_editor(random.Random(3))
    cert = ed.certificate("roundtrip example")
    data = certificate_to_json(cert)
    assert data["schema"] == "homotopy-certificate/1"
    assert certificate_from_json(data) == cert
    with pytest.raises(ValueError):
        certificate_from_json({**data, "schema": "bogus/9"})


@pytest.mark.parametrize(
    "patch",
    [
        {"path": 5},
        {"path": [5]},
        {"result": None},
        {"moves": 3},
        {"moves": [["ins", 0]]},
        {"moves": [["ins", "0", "a"]]},
        {"moves": [["del"]]},
        {"moves": [["cell", 0, 1, 0, 0]]},
        {"moves": [["cell", 0, "x", 0, 0, 1]]},
        {"moves": [["bogus", 0]]},
        {"moves": [[]]},
        {"start": {"k": 3, "tail": ""}},
        {"start": None},
        {"complex": ["x"]},
        {"description": 5},
        {"description": None},
    ],
)
def test_certificate_from_json_rejects_malformed_shapes(patch):
    data = certificate_to_json(PathEditor(GAMMA1, S_IDENTITY, parse_gens("ac")).certificate())
    with pytest.raises(ValueError):
        certificate_from_json({**data, **patch})


class _Id(int):
    pass


@pytest.mark.parametrize("bad", [True, 1.0, "1", [1], _Id(1)],
                         ids=["true", "float", "string", "list", "int-subclass"])
def test_certificate_from_json_wants_exact_ints_in_move_fields(bad):
    data = certificate_to_json(PathEditor(GAMMA1, S_IDENTITY, parse_gens("ac")).certificate())
    # each move's integer fields, and the move as it parses
    moves = {
        ("ins", 0, "a"): (("ins", 0, 1), 1),
        ("del", 0): (("del", 0), 1),
        ("cell", 0, 0, 0, 0, 2): (("cell", 0, 0, 0, 0, 2), 5),
    }
    for move, (parsed, fields) in moves.items():
        assert certificate_from_json({**data, "moves": [list(move)]}).moves == (parsed,)
        for field in range(1, 1 + fields):
            with pytest.raises(ValueError, match="malformed move"):
                certificate_from_json({**data, "moves": [[*move[:field], bad, *move[field + 1:]]]})


def test_certificate_from_json_rejects_non_objects():
    with pytest.raises(ValueError):
        certificate_from_json([1, 2])


def _fuzz_corpus(rng):
    """Certificates like criterion 8's: rewrites, main-pipeline and band runs.

    Each comes with the forbidden set it was built against.  Long pipeline
    certificates are left out so that the slow oracle can replay 10^4
    mutants within the test's time.
    """
    region = ForbiddenRegion(X, (S_IDENTITY,), 1)
    words = [w for w in zero_sum_words(6) if w]
    bases = [scan((1, 2) * 2), scan((3, 4, 3)), scan((-1, -2, -1, 4))]
    corpus = []
    while len(corpus) < 30:
        cert = rewrite_to_kernel_path(rng.choice(bases), rng.choice(words)).certificate
        if cert.moves:
            corpus.append((cert, frozenset()))
    while len(corpus) < 40:
        cert = run_main_pipeline(*random_far_loop(rng), region=region).certificate
        if len(cert.moves) <= 40:
            corpus.append((cert, region))
    while len(corpus) < 50:
        factors = random_expression(rng, max_factors=3)
        cert = run_reduce_demo(factors, region=region).certificate
        if len(cert.moves) <= 40:
            corpus.append((cert, region))
    return corpus


def _mutate(rng, cert):
    """One single-field mutation of a certificate, or None if it has no target."""
    moves = list(cert.moves)
    i = rng.randrange(len(moves)) if moves else None
    what = rng.choice(("pos", "sign", "cell", "drop", "dup", "swap", "path", "result"))
    if what in ("pos", "drop", "dup", "swap") and i is None:
        return None
    if what == "pos":
        moves[i] = (moves[i][0], moves[i][1] + rng.choice((-1, 1)), *moves[i][2:])
    elif what == "sign":
        ins = [j for j, m in enumerate(moves) if m[0] == "ins"]
        if not ins:
            return None
        j = rng.choice(ins)
        moves[j] = ("ins", moves[j][1], -moves[j][2])
    elif what == "cell":
        cells = [j for j, m in enumerate(moves) if m[0] == "cell"]
        if not cells:
            return None
        j = rng.choice(cells)
        field = rng.randrange(2, 6)  # rid, inv, rot, split
        move = list(moves[j])
        move[field] = 1 - move[field] if field == 3 else move[field] + rng.choice((-1, 1))
        moves[j] = tuple(move)
    elif what == "drop":
        del moves[i]
    elif what == "dup":
        moves.insert(i, moves[i])
    elif what == "swap":
        if len(moves) < 2:
            return None
        i = min(i, len(moves) - 2)
        moves[i], moves[i + 1] = moves[i + 1], moves[i]
    else:
        labels = list(getattr(cert, what))
        op = rng.choice(("edit", "delete", "insert")) if labels else "insert"
        k = rng.randrange(len(labels) + (op == "insert"))
        gen = rng.choice((1, -1)) * rng.randint(1, 29)
        if op == "edit":
            labels[k] = gen if gen != labels[k] else -gen
        elif op == "delete":
            del labels[k]
        else:
            labels.insert(k, gen)
        return cert._replace(**{what: tuple(labels)})
    return cert._replace(moves=tuple(moves))


def test_mutation_fuzz_agrees_with_oracle():
    rng = random.Random(4242)
    corpus = _fuzz_corpus(rng)
    mutants = accepted = 0
    while mutants < 10_000:
        cert, forbidden = rng.choice(corpus)
        mutant = _mutate(rng, cert)
        if mutant is None:
            continue
        mutants += 1
        res = verify_certificate(mutant, forbidden)
        ok, reason, swept = replay_certificate(mutant, forbidden)
        assert res.ok == ok, (mutant, res.reason, reason)
        if ok:
            accepted += 1
            assert res.swept == swept, mutant
    # most single-field edits break a certificate, and a few still verify
    assert 0 < accepted < mutants // 10
