import operator
import random

import pytest

from stallings import words
from stallings.complexes import get_complex
from stallings.words import (
    AB_GENS,
    AB_LETTERS,
    CD_GENS,
    CD_LETTERS,
    EGEN_COUNT,
    EGEN_VALUES,
    EGEN_WORDS,
    GElement,
    LETTER_GENS,
    TOKEN_GENS,
    _identity_failures,
    egen_id,
    egen_index,
    exponent_sum,
    free_reduce,
    g_from_word,
    in_kernel,
    invert_word,
    is_reduced,
    kernel_identity_report,
    one_ended_reduction_report,
    reduce_mul,
    reduce_word,
)


def _naive_reduce(word):
    # quadratic reference reducer
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] != word[i + 1] and word[i].lower() == word[i + 1].lower():
                word = word[:i] + word[i + 2 :]
                changed = True
                break
    return word


def test_reduce_word_basic():
    assert reduce_word("") == ""
    assert reduce_word("abBA") == ""
    assert reduce_word("aBbA") == ""
    assert reduce_word("abAB") == "abAB"
    assert reduce_word("aabBcCdA") == "aadA"
    # the same reducer on generator ids, where negation is inversion
    assert free_reduce((1, 6, -6, -1, 3), operator.neg) == [3]
    assert free_reduce((), operator.neg) == []
    assert free_reduce((5, 1, -1, -5, 2, -3), operator.neg) == [2, -3]


def test_reduce_word_matches_naive_reducer():
    rng = random.Random(2024)
    letters = "abcdABCD"
    for _ in range(500):
        w = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 14)))
        got = reduce_word(w)
        assert got == _naive_reduce(w)
        assert is_reduced(got)


def test_reduce_mul_matches_full_reduction():
    rng = random.Random(7)
    letters = "abAB"
    for _ in range(300):
        x = reduce_word("".join(rng.choice(letters) for _ in range(rng.randrange(0, 10))))
        y = reduce_word("".join(rng.choice(letters) for _ in range(rng.randrange(0, 10))))
        assert reduce_mul(x, y) == reduce_word(x + y)
    cases = {
        ("", ""): "", ("", "aB"): "aB", ("aB", ""): "aB",  # empty operands
        ("ab", "Ba"): "aa", ("abA", "aab"): "abab",  # one letter cancels
        ("a", "A"): "", ("aB", "bA"): "", ("abAB", "baBA"): "",  # all cancels
        ("ab", "Ab"): "abAb", ("aB", "Bab"): "aBBab",  # the seam does not cancel
    }
    for (x, y), product in cases.items():
        assert reduce_mul(x, y) == reduce_word(x + y) == product


def test_invert_word():
    assert invert_word("aB") == "bA"
    assert invert_word("Ab") == "Ba"
    assert reduce_word("aBc" + invert_word("aBc")) == ""


def test_g_from_word_splits_factors():
    g = g_from_word("acbd")
    assert g == GElement("ab", "cd")
    # the two factors commute, so interleavings collapse
    assert g_from_word("acAC") == GElement("", "")
    assert g_from_word("cabd") == g_from_word("abcd")


def test_factor_letters_agree_with_the_token_table():
    assert [TOKEN_GENS[c] for c in "ab"] == list(AB_GENS)
    assert [TOKEN_GENS[c] for c in "cd"] == list(CD_GENS)
    assert LETTER_GENS == get_complex("gamma_1").gens
    assert AB_LETTERS == "ab" + "ab".upper()
    assert CD_LETTERS == "cd" + "cd".upper()


def test_g_multiplication_and_inverse():
    """A product of words is the value of their concatenation; the identity
    tables and the generator table rely on this."""
    rng = random.Random(11)
    letters = "abcdABCD"
    for _ in range(200):
        w1 = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 8)))
        w2 = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 8)))
        g1, g2 = g_from_word(w1), g_from_word(w2)
        product = GElement(reduce_mul(g1.ab, g2.ab), reduce_mul(g1.cd, g2.cd))
        assert g_from_word(w1 + w2) == product
        assert g_from_word(w1 + invert_word(w1)) == GElement("", "")


def test_exponent_sum_and_kernel():
    assert exponent_sum("aB") == 0
    assert exponent_sum("ab") == 2
    assert exponent_sum("ABC") == -3
    assert in_kernel(g_from_word("aB"))
    assert in_kernel(g_from_word("aC"))
    assert not in_kernel(g_from_word("ab"))
    assert not in_kernel(g_from_word("a"))


def test_egen_table_is_the_published_one():
    assert EGEN_COUNT == 24
    assert EGEN_WORDS == (
        "aB", "aC", "aD", "bA", "bC", "bD",
        "cA", "cB", "cD", "dA", "dB", "dC",
        "Ab", "Ac", "Ad", "Ba", "Bc", "Bd",
        "Ca", "Cb", "Cd", "Da", "Db", "Dc",
    )
    for word, value in zip(EGEN_WORDS, EGEN_VALUES):
        assert value == g_from_word(word)
        assert in_kernel(value)


def test_egen_values_collapse_across_factors():
    # u v^-1 = v^-1 u when u, v lie in different factors, so the 24 words
    # realize only 16 distinct group elements, and that set is inverse-closed
    values = set(EGEN_VALUES)
    assert len(values) == 16
    assert {g_from_word(invert_word(w)) for w in EGEN_WORDS} == values
    assert g_from_word("aC") == g_from_word("Ca")
    assert g_from_word("aB") != g_from_word("Ba")


def test_commutation_generator_subset():
    # the classical six-element generating set of the kernel is in the table
    assert {"bA", "cA", "dA", "cB", "dB", "dC"} <= set(EGEN_WORDS)


def test_egen_id_roundtrip():
    for index in range(1, EGEN_COUNT + 1):
        assert egen_index(egen_id(index)) == index
    assert egen_id(1) == 6
    assert egen_id(24) == 29
    with pytest.raises(ValueError):
        egen_id(0)
    with pytest.raises(ValueError):
        egen_index(5)


def test_kernel_identity_report():
    report = kernel_identity_report()
    assert report["ok"], report["failures"]
    assert report["conjugate_checks"] == 24 * 8


def test_kernel_identity_report_names_each_conjugate_that_leaves_the_kernel(monkeypatch):
    monkeypatch.setattr(words, "in_kernel", lambda g: False)
    report = kernel_identity_report()
    assert not report["ok"]
    assert len(report["failures"]) == report["conjugate_checks"] == 24 * 8
    assert report["failures"][:2] == [
        "conjugate a.aB.A left the kernel",
        "conjugate b.aB.B left the kernel",
    ]


def test_identity_failures_compare_the_products_of_the_sides():
    table = (
        ("ab = ba", "a b", "b a"),  # a and b do not commute
        ("ac = ca", "a c", "c a"),  # letters of different factors do
    )
    assert _identity_failures(table) == [
        "ab = ba: GElement(ab='ab', cd='') != GElement(ab='ba', cd='')"
    ]


def test_one_ended_reduction_report():
    report = one_ended_reduction_report()
    assert report["ok"], report["failures"]
    assert report["reduction_chain"][-1] == ["bA", "dC", "dA"]
