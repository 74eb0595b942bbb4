"""Free words over {a,b,c,d}, elements of F(a,b) x F(c,d), and the kernel generators.

Words are strings of signed letters: lowercase is a positive letter, uppercase
its inverse ("aB" is a*b^-1).  A word is *reduced* when no letter is adjacent
to its own inverse.  Group elements of the direct product are pairs of reduced
words, one over {a,b}, one over {c,d}.

Generators also have integer ids so that paths and relators can be stored
compactly: a=1, b=2, c=3, d=4, s=5 and the twenty-four two-letter kernel
generators are 6..29; negation is inversion.  The split of the letters into
the two free factors (`AB_GENS`/`CD_GENS`, `AB_LETTERS`/`CD_LETTERS`) and the
free reducer `free_reduce`, for words and id sequences alike, live only here.
"""

from __future__ import annotations

from operator import ne
from typing import Callable, Iterable, NamedTuple

GROUP_LETTERS = "abcdABCD"
S_WORD_LETTERS = GROUP_LETTERS + "sS"

FLIP = {c: c.swapcase() for c in S_WORD_LETTERS}

# integer ids for generators of the big presentation
S_ID = 5
ID_LETTERS = dict(enumerate("abcds", start=1))
AB_GENS = (1, 2)
CD_GENS = (3, 4)
LETTER_GENS = AB_GENS + CD_GENS
AB_LETTERS = "abAB"
CD_LETTERS = "cdCD"
EGEN_FIRST_ID = 6


def invert_word(word: str) -> str:
    """Inverse of a word: reverse it and flip every letter's case."""
    return word[::-1].swapcase()


def is_reduced(word: str) -> bool:
    return all(map(ne, word, word[1:].swapcase()))


def free_reduce(items: Iterable, inverse: Callable) -> list:
    """Freely reduce a sequence by cancelling each item next to its `inverse`."""
    out = []
    for x in items:
        if out and out[-1] == inverse(x):
            out.pop()
        else:
            out.append(x)
    return out


def reduce_word(word: str) -> str:
    """Freely reduce a word by cancelling adjacent inverse pairs."""
    return "".join(free_reduce(word, FLIP.__getitem__))


def reduce_mul(left: str, right: str) -> str:
    """Product of two already-reduced words, cancelling across the seam only.

    Most products do not cancel at all, so the seam is tested once and the
    words are concatenated; the cancellation loop runs only past a seam that
    does cancel.
    """
    if not (left and right and left[-1] == FLIP[right[0]]):
        return left + right
    i = 1
    nl, nr = len(left), len(right)
    while i < nl and i < nr and left[nl - 1 - i] == FLIP[right[i]]:
        i += 1
    return left[: nl - i] + right[i:]


def exponent_sum(word: str) -> int:
    """Sum of letter signs (lowercase +1, uppercase -1)."""
    return 2 * sum(map(str.islower, word)) - len(word)


def word_is_over(word: str, alphabet: str) -> bool:
    return not word.strip(alphabet)


class GElement(NamedTuple):
    """Element of F(a,b) x F(c,d) as a pair of reduced words."""

    ab: str
    cd: str


def g_from_word(word: str) -> GElement:
    """Evaluate a word over {a,b,c,d}+- in the direct product, each factor on its own."""
    ab = "".join(ch for ch in word if ch in AB_LETTERS)
    cd = "".join(ch for ch in word if ch not in AB_LETTERS)
    return GElement(reduce_word(ab), reduce_word(cd))


def in_kernel(g: GElement) -> bool:
    """Membership in the kernel of the exponent-sum map onto Z."""
    return exponent_sum(g.ab + g.cd) == 0


# ---------------------------------------------------------------------------
# the 24 two-letter kernel generators
# ---------------------------------------------------------------------------

def _build_egen_words() -> tuple[str, ...]:
    bases = "abcd"
    pairs = [(u, v) for u in bases for v in bases if u != v]
    words = [u + v.upper() for (u, v) in pairs]  # u * v^-1
    words += [u.upper() + v for (u, v) in pairs]  # u^-1 * v
    return tuple(words)


# EGEN_WORDS[i] is the defining two-letter word of generator i+1 (ids 6..29).
EGEN_WORDS: tuple[str, ...] = _build_egen_words()
EGEN_COUNT = len(EGEN_WORDS)
EGEN_VALUES: tuple[GElement, ...] = tuple(g_from_word(w) for w in EGEN_WORDS)


def egen_id(index: int) -> int:
    """Generator id (for paths/relators) of table entry `index` (1-based)."""
    if not 1 <= index <= EGEN_COUNT:
        raise ValueError(f"generator index out of range: {index}")
    return EGEN_FIRST_ID - 1 + index


def egen_index(gen_id: int) -> int:
    """Inverse of egen_id."""
    index = abs(gen_id) - EGEN_FIRST_ID + 1
    if not 1 <= index <= EGEN_COUNT:
        raise ValueError(f"not a kernel-generator id: {gen_id}")
    return index


EGEN_IDS = tuple(egen_id(i) for i in range(1, EGEN_COUNT + 1))

# The generator table, the one place ids meet tokens and letter pairs: each
# of the 58 signed ids to its token and back (so only canonical tokens
# parse), each of the 48 signed kernel generators to its two-letter word as
# letter ids, and each opposite-sign pair of distinct letters to the
# positive kernel generator it spells.
_EGEN_TOKENS = {gen: f"e{i}" for i, gen in enumerate(EGEN_IDS, start=1)}
GEN_TOKENS: dict[int, str] = {
    sign * gen: token if sign > 0 else token.upper()
    for gen, token in {**ID_LETTERS, **_EGEN_TOKENS}.items()
    for sign in (1, -1)
}
TOKEN_GENS: dict[str, int] = {token: gen for gen, token in GEN_TOKENS.items()}
EGEN_LETTERS: dict[int, tuple[int, ...]] = {
    sign * gen: tuple(TOKEN_GENS[ch] for ch in (word if sign > 0 else invert_word(word)))
    for gen, word in zip(EGEN_IDS, EGEN_WORDS)
    for sign in (1, -1)
}
LETTERS_EGEN: dict[tuple[int, ...], int] = {v: g for g, v in EGEN_LETTERS.items() if g > 0}


def egen_table() -> list[dict[str, str | int]]:
    """The published table: index, two-letter word, normal form of its value."""
    rows: list[dict[str, str | int]] = []
    for i, word in enumerate(EGEN_WORDS, start=1):
        value = EGEN_VALUES[i - 1]
        rows.append({"index": i, "word": word, "ab": value.ab, "cd": value.cd})
    return rows


# ---------------------------------------------------------------------------
# identity reports backing the kernel lemmas
# ---------------------------------------------------------------------------

# rows (name, left, right); a side is the product of its space-separated words
KERNEL_IDENTITIES = (
    ("b^-1 a = (b^-1 c)(c^-1 a)", "Ba", "Bc Ca"),
    ("a(ba^-1)a^-1 = aba^-2", "a bA A", "abAA"),
    ("aba^-2 = (ac^-1)(bc^-1)(ca^-1)(ca^-1)", "abAA", "aC bC cA cA"),
    ("a^-1(ba^-1)a = a^-1 b", "A bA a", "Ab"),
    ("b^-1(ba^-1)b = a^-1 b", "B bA b", "Ab"),
    ("b(ba^-1)b^-1 = b^2 a^-1 b^-1", "b bA B", "bbAB"),
    ("b^2 a^-1 b^-1 = (bc^-1)(bc^-1)(ca^-1)(cb^-1)", "bbAB", "bC bC cA cB"),
    ("a(ca^-1)a^-1 = ca^-1", "a cA A", "cA"),
    ("b(ac^-1)b^-1 = (bc^-1)(ab^-1)", "b aC B", "bC aB"),
)

ONE_ENDED_IDENTITIES = (
    ("(cb^-1)(ba^-1) = ca^-1", "cB bA", "cA"),
    ("(dc^-1)^-1(db^-1) = cb^-1", "cD dB", "cB"),
    ("(da^-1)(ba^-1)^-1 = db^-1", "dA aB", "dB"),
    ("[ba^-1, dc^-1] = 1", "bA dC aB cD", ""),
    ("ca^-1 = (dc^-1)^-1(db^-1)(ba^-1)", "cA", "cD dB bA"),
)


def _identity_failures(table) -> list[str]:
    """One message per row whose two sides differ in the direct product."""
    failures: list[str] = []
    for name, left, right in table:
        lhs, rhs = (g_from_word(side.replace(" ", "")) for side in (left, right))
        if lhs != rhs:
            failures.append(f"{name}: {lhs} != {rhs}")
    return failures


def kernel_identity_report() -> dict[str, object]:
    """Exact checks behind the normal-form lemma for the kernel.

    Verifies the listed rewriting identities and, exhaustively, that every
    single-letter conjugate of every table generator stays in the kernel.
    """
    failures = _identity_failures(KERNEL_IDENTITIES)
    conjugate_checks = 0
    for word in EGEN_WORDS:
        for letter in GROUP_LETTERS:
            conj = g_from_word(letter + word + FLIP[letter])
            conjugate_checks += 1
            if not in_kernel(conj):
                failures.append(f"conjugate {letter}.{word}.{FLIP[letter]} left the kernel")

    return {
        "identities_checked": len(KERNEL_IDENTITIES),
        "conjugate_checks": conjugate_checks,
        "failures": failures,
        "ok": not failures,
    }


def one_ended_reduction_report() -> dict[str, object]:
    """Exact checks behind the one-endedness reduction chain.

    The six-generator set reduces to {ba^-1, da^-1, db^-1, dc^-1} and then to
    {ba^-1, dc^-1, da^-1}; the dropped generators are recovered as products.
    """
    failures = _identity_failures(ONE_ENDED_IDENTITIES)
    return {
        "identities_checked": len(ONE_ENDED_IDENTITIES),
        "reduction_chain": [
            ["bA", "cA", "dA", "cB", "dB", "dC"],
            ["bA", "dA", "dB", "dC"],
            ["bA", "dC", "dA"],
        ],
        "failures": failures,
        "ok": not failures,
    }
