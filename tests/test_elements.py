import random
import re

import pytest

from oracles import Published, generator_value, reference_multiply, reference_step
from stallings import elements
from stallings.elements import (
    GEN_VALUES,
    SElement,
    S_IDENTITY,
    a_exponent,
    a_power,
    g_to_s,
    gen_to_token,
    in_base_group,
    in_kernel_subgroup,
    parse_gens,
    s_from_json,
    s_from_word,
    s_invert,
    s_multiply,
    s_parts,
    s_to_g,
    s_to_json,
    scan,
    step,
    token_to_gen,
    validate_s,
)
from stallings.words import (
    EGEN_LETTERS,
    EGEN_WORDS,
    GEN_TOKENS,
    GElement,
    ID_LETTERS,
    LETTERS_EGEN,
    egen_id,
    exponent_sum,
    g_from_word,
    invert_word,
    reduce_word,
)


def _random_word(rng, length, letters="abcdABCDsS"):
    return "".join(rng.choice(letters) for _ in range(length))


def test_normal_form_examples():
    assert s_from_word("") == S_IDENTITY
    assert s_parts(s_from_word("a")) == ("", "", "a")
    assert s_parts(s_from_word("b")) == ("bA", "", "a")
    assert s_parts(s_from_word("c")) == ("A", "c", "a")
    assert s_parts(s_from_word("abs")) == ("abAA", "", "aas")
    assert s_parts(s_from_word("bA")) == ("bA", "", "")
    assert s_parts(s_from_word("aC")) == ("a", "C", "")


def test_stable_letter_centralizes_kernel():
    for word in EGEN_WORDS:
        assert s_from_word("S" + word + "s") == s_from_word(word)
        assert s_from_word("s" + word + "S") == s_from_word(word)


def test_stable_letter_does_not_commute_with_letters():
    assert s_from_word("saS") != s_from_word("a")
    assert s_from_word("sa") != s_from_word("as")
    # but s b a^-1 = b a^-1 s, since b a^-1 is in the kernel
    assert s_from_word("sbA") == s_from_word("bAs")
    assert s_parts(s_from_word("sbA")) == ("bA", "", "s")


def test_factor_commutators_collapse():
    for left in "ab":
        for right in "cd":
            comm = left + right + left.upper() + right.upper()
            assert s_from_word(comm) == S_IDENTITY


def test_scan_matches_group_multiplication():
    rng = random.Random(19)
    for _ in range(300):
        w1 = _random_word(rng, rng.randrange(0, 10))
        w2 = _random_word(rng, rng.randrange(0, 10))
        x1, x2 = s_from_word(w1), s_from_word(w2)
        assert s_from_word(w1 + w2) == s_multiply(x1, x2)
        assert validate_s(*s_parts(x1)) == x1


def test_inverse_and_identity():
    rng = random.Random(23)
    for _ in range(300):
        w = _random_word(rng, rng.randrange(0, 12))
        x = s_from_word(w)
        assert s_multiply(x, s_invert(x)) == S_IDENTITY
        assert s_multiply(s_invert(x), x) == S_IDENTITY
        assert s_from_word(w + invert_word(w)) == S_IDENTITY


def test_associativity_probes():
    rng = random.Random(29)
    for _ in range(200):
        x, y, z = (s_from_word(_random_word(rng, rng.randrange(0, 8))) for _ in range(3))
        assert s_multiply(s_multiply(x, y), z) == s_multiply(x, s_multiply(y, z))


def test_step_by_kernel_generators():
    for index, word in enumerate(EGEN_WORDS, start=1):
        assert scan((egen_id(index),)) == s_from_word(word)
        assert scan((-egen_id(index),)) == s_from_word(invert_word(word))
    # conjugation through a nontrivial tail
    x = s_from_word("a")
    y = step(x, token_to_gen("e5"))  # e5 = bC
    assert s_parts(y) == ("abA", "C", "a")
    z = step(s_from_word("s"), token_to_gen("e5"))
    assert s_parts(z) == ("b", "C", "s")


def test_step_agrees_with_word_scan():
    rng = random.Random(31)
    gens = [g for g in range(-5, 6) if g]
    for _ in range(200):
        seq = [rng.choice(gens) for _ in range(rng.randrange(0, 12))]
        word = "".join(gen_to_token(g) for g in seq)
        assert scan(seq) == s_from_word(word)


def test_step_against_group_arithmetic():
    """`step` is a table lookup plus `s_multiply`; check it independently.

    Every signed generator is undone by its negation, and on base-group
    vertices a letter step agrees with multiplication in the direct
    product, evaluated by `g_from_word` on the concatenated word.
    """
    rng = random.Random(43)
    signed = [g for gen in range(1, 30) for g in (gen, -gen)]
    assert sorted(GEN_VALUES) == sorted(signed)
    for _ in range(100):
        x = s_from_word(_random_word(rng, rng.randrange(0, 10)))
        base_word = _random_word(rng, rng.randrange(0, 10), letters="abcdABCD")
        base_x = s_from_word(base_word)
        for gen in signed:
            assert step(step(x, gen), -gen) == x
            if abs(gen) < 5:
                letter = ID_LETTERS[abs(gen)]
                letter = letter if gen > 0 else letter.upper()
                assert s_to_g(step(base_x, gen)) == g_from_word(base_word + letter)
    for bad in (0, 30, -30):
        with pytest.raises(ValueError):
            step(S_IDENTITY, bad)


def test_step_memo_agrees_with_oracle_across_a_clear(monkeypatch):
    """Distinct inputs drive `step` past its memo's cap; every result, stored,
    read back or recomputed after the clear, is the oracle's product."""
    cap = elements._STEP_MEMO_CAP
    rng = random.Random(53)
    signed = sorted(GEN_VALUES)
    inputs = {}
    while len(inputs) < cap + cap // 2:
        x = scan(rng.choice(signed) for _ in range(rng.randrange(9)))
        inputs[x, rng.choice(signed)] = None
    memo = {}
    monkeypatch.setattr(elements, "_step_memo", memo)
    sizes = []
    for x, gen in inputs:
        y = step(x, gen)
        sizes.append(len(memo))
        assert s_parts(y) == reference_step(Published(*s_parts(x)), gen)
        assert step(x, gen) is y
    assert max(sizes) == cap
    assert sizes[cap - 1] == cap and sizes[cap] == 1  # cleared at the cap
    for x, gen in list(inputs)[:200]:  # stored before the clear, gone since
        assert s_parts(step(x, gen)) == reference_step(Published(*s_parts(x)), gen)
    assert len(memo) <= cap


def test_unknown_generator_is_not_stored(monkeypatch):
    x = s_from_word("abs")
    memo = {}
    monkeypatch.setattr(elements, "_step_memo", memo)
    for _ in range(2):  # the second time, x has entries for valid generators
        size = len(memo)
        for bad in (0, 30):
            with pytest.raises(ValueError, match=f"^unknown generator id: {bad}$"):
                step(x, bad)
            assert len(memo) == size
        for gen in (1, -5, 6):
            step(x, gen)
    assert set(memo) == {(x, 1), (x, -5), (x, 6)}


def _random_part(rng, letters, max_len=8):
    return reduce_word("".join(rng.choice(letters) for _ in range(rng.randrange(max_len + 1))))


def _random_element(rng):
    """A vertex whose published parts are each often empty; ab is often an a-power."""
    ab = rng.choice(["", a_power(rng.randrange(-3, 4)), _random_part(rng, "abAB")])
    cd = rng.choice(["", _random_part(rng, "cdCD")])
    balance = exponent_sum(ab) + exponent_sum(cd)
    cd = reduce_word(cd + ("C" * balance if balance > 0 else "c" * -balance))
    tail = rng.choice(["", _random_part(rng, "asAS")])
    return validate_s(ab, cd, tail)


def test_s_multiply_matches_reference_product():
    """`s_multiply` against the explicit formula in the published form."""
    rng = random.Random(47)
    xs = [_random_element(rng) for _ in range(150)]
    parts = {x: s_parts(x) for x in xs}
    assert any(ab and not ab.strip("aA") for ab, _, _ in parts.values())
    assert any(tail and not ab for ab, _, tail in parts.values())
    for x in xs:
        assert s_from_json(s_to_json(x)) == x
    for gen, value in GEN_VALUES.items():
        assert s_parts(value) == generator_value(gen)
        for x in xs[:40]:
            product = s_multiply(x, value)
            assert type(product) is SElement
            assert s_parts(product) == reference_multiply(parts[x], s_parts(value))
    for x in xs:
        for y in rng.sample(xs, 20):
            product = s_multiply(x, y)
            assert type(product) is SElement
            assert s_parts(product) == reference_multiply(parts[x], parts[y])


def test_projection_to_base_group():
    rng = random.Random(37)
    for _ in range(200):
        w = _random_word(rng, rng.randrange(0, 10), letters="abcdABCD")
        g = g_from_word(w)
        x = g_to_s(g)
        assert in_base_group(x)
        assert s_to_g(x) == g
        assert s_from_word(w) == x
        assert in_kernel_subgroup(x) == (exponent_sum(w) == 0)
    assert not in_base_group(s_from_word("s"))
    with pytest.raises(ValueError):
        s_to_g(s_from_word("s"))
    # the message names the published parts
    with pytest.raises(ValueError, match=re.escape("SElement(ab='', cd='', tail='sa')")):
        s_to_g(s_from_word("sa"))


def test_kernel_subgroup_detection():
    assert in_kernel_subgroup(s_from_word("aB"))
    assert in_kernel_subgroup(s_from_word("acAC"))
    assert not in_kernel_subgroup(s_from_word("a"))
    assert not in_kernel_subgroup(s_from_word("sa"))


def test_a_exponent_and_conjugation():
    assert a_exponent("aasSA") == 1
    assert a_exponent("ss") == 0
    # the product conjugates a kernel part by the a-exponent of the tail before it
    assert s_parts(s_multiply(s_from_word("a"), s_from_word("bA"))) == ("abAA", "", "a")
    assert s_parts(s_multiply(s_from_word("A"), s_from_word("bA"))) == ("Ab", "", "A")
    assert s_parts(s_from_word("aaaaa")) == ("", "", "aaaaa")


def test_tokens_roundtrip():
    tokens = ["a", "A", "b", "s", "S", "e1", "E24", "e13"]
    gens = parse_gens(tokens)
    assert [gen_to_token(g) for g in gens] == tokens
    assert parse_gens("a b s") == (1, 2, 5)
    assert parse_gens("abS") == (1, 2, -5)
    assert parse_gens("e7") == (token_to_gen("e7"),)
    # all 58 signed ids round-trip through their tokens, singly and as a list
    assert sorted(GEN_TOKENS) == sorted(g for gen in range(1, 30) for g in (gen, -gen))
    for gen, token in GEN_TOKENS.items():
        assert token_to_gen(token) == gen
        assert gen_to_token(gen) == token
    assert parse_gens(" ".join(GEN_TOKENS.values())) == tuple(GEN_TOKENS)
    # each signed kernel generator's letter pair is a path to its value
    assert len(EGEN_LETTERS) == 48
    for gen, letters in EGEN_LETTERS.items():
        assert scan(letters) == scan((gen,))
    # stage 1 pairs letters of opposite signs; every such pair of distinct
    # letters names a positive kernel generator spelled by that pair
    assert set(LETTERS_EGEN) == {
        (sign * x, -sign * y) for x in range(1, 5) for y in range(1, 5) if x != y
        for sign in (1, -1)
    }
    for letters, gen in LETTERS_EGEN.items():
        assert gen > 0 and EGEN_LETTERS[gen] == letters
    # only canonical tokens parse
    for bad in ("x", "e25", "e01", "e0", "e007", "e\u0661", "E", "ab", ""):
        with pytest.raises(ValueError):
            token_to_gen(bad)
    for bad in (0, 30, -30):
        with pytest.raises(ValueError):
            gen_to_token(bad)


def test_json_roundtrip():
    rng = random.Random(41)
    for _ in range(100):
        x = s_from_word(_random_word(rng, rng.randrange(0, 10)))
        assert s_from_json(s_to_json(x)) == x
    with pytest.raises(ValueError):
        s_from_json({"k": {"ab": "a", "cd": ""}, "tail": ""})


def test_validate_s_rejects_bad_forms():
    with pytest.raises(ValueError):
        validate_s("aA", "", "")
    with pytest.raises(ValueError):
        validate_s("c", "", "")
    with pytest.raises(ValueError):
        validate_s("a", "", "")
    with pytest.raises(ValueError):
        validate_s("", "", "b")
    # stored, these parts would be the valid vertex ("ba", "C", "a")
    with pytest.raises(ValueError, match="bad ab part"):
        validate_s("baA", "C", "a")
