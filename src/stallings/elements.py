"""Normal forms in Stallings' group S, generated by a, b, c, d and s.

S splits as K x| F(a,s), where s centralizes the kernel K.  The published
normal form is the pair (k, tail): k = (ab, cd) in K as reduced words, and
tail a reduced word over {a, s}.

A vertex is stored as its images under two homomorphisms: S -> G =
F(a,b) x F(c,d), which kills s (well defined because s centralizes K), and
the quotient S -> S/K = F(a,s).  They are jointly injective, since an
element in both kernels lies in K, where the first map is the identity.  So
a vertex is a triple (p_ab, cd, tail) of reduced words with es(p_ab) +
es(cd) = m, the a-exponent of the tail, and p_ab = ab * a^m.  `s_parts`
gives the published form; `validate_s` checks published parts and stores
them.

Generators are signed integer ids as in `words`: letters 1..4, the stable
letter 5, kernel generators 6..29.  `step` right-multiplies a normal form by
a signed generator's value from the fixed table `GEN_VALUES`, reading a
bounded memo of `s_multiply` results that is cleared at its cap; nothing is
stored for an unknown generator.  Walks, the rewriter and the verifier step;
searches and drawings (`ball_to_dot`) call `s_multiply` and never fill the memo.

`s_multiply`, the one transition kernel under `step`, the BFS and the
verifier, is three independent seam reductions, one per projection.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .words import (
    AB_LETTERS,
    CD_LETTERS,
    EGEN_LETTERS,
    GEN_TOKENS,
    GElement,
    S_ID,
    TOKEN_GENS,
    exponent_sum,
    g_from_word,
    invert_word,
    is_reduced,
    reduce_mul,
    word_is_over,
)

TAIL_LETTERS = "asAS"


class SElement(NamedTuple):
    """A vertex of S as its projections to F(a,b), F(c,d) and S/K = F(a,s)."""

    p_ab: str
    cd: str
    tail: str


S_IDENTITY = SElement("", "", "")

# SElement from parts already in normal form, skipping NamedTuple.__new__
_new_s = tuple.__new__


def a_exponent(tail: str) -> int:
    """a-exponent of a tail word; the stable letter contributes nothing."""
    return tail.count("a") - tail.count("A")


def a_power(m: int) -> str:
    return "a" * m if m >= 0 else "A" * (-m)


def validate_s(ab: str, cd: str, tail: str) -> SElement:
    """Check the published parts (k = (ab, cd), tail) and store them as a vertex."""
    if not (word_is_over(ab, AB_LETTERS) and is_reduced(ab)):
        raise ValueError(f"bad ab part: {ab!r}")
    if not (word_is_over(cd, CD_LETTERS) and is_reduced(cd)):
        raise ValueError(f"bad cd part: {cd!r}")
    if exponent_sum(ab) + exponent_sum(cd) != 0:
        raise ValueError(f"k part is outside the kernel: {ab!r}, {cd!r}")
    if not (word_is_over(tail, TAIL_LETTERS) and is_reduced(tail)):
        raise ValueError(f"bad tail: {tail!r}")
    return SElement(reduce_mul(ab, a_power(a_exponent(tail))), cd, tail)


def s_parts(x: SElement) -> tuple[str, str, str]:
    """The published form (ab, cd, tail) of a vertex: ab = p_ab * a^-m."""
    p_ab, cd, tail = x
    return reduce_mul(p_ab, a_power(-a_exponent(tail))), cd, tail


def in_base_group(x: SElement) -> bool:
    """Whether x lies in the direct product of the two free groups."""
    return word_is_over(x.tail, "aA")


def check_base_group(x: SElement) -> None:
    """Raise ValueError, naming x's published parts, unless x is in the base group."""
    if not in_base_group(x):
        ab, cd, tail = s_parts(x)
        raise ValueError(
            f"element is not in the base group: SElement(ab={ab!r}, cd={cd!r}, tail={tail!r})"
        )


def in_kernel_subgroup(x: SElement) -> bool:
    return x.tail == ""


def g_to_s(g: GElement) -> SElement:
    """Embed the direct product: the tail is the a-power carried by es(g)."""
    return SElement(g.ab, g.cd, a_power(exponent_sum(g.ab + g.cd)))


def s_to_g(x: SElement) -> GElement:
    check_base_group(x)
    return GElement(x.p_ab, x.cd)


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------

def s_multiply(x: SElement, y: SElement) -> SElement:
    """Product of two vertices, projection by projection."""
    p_ab, cd, tail = x
    y_ab, y_cd, y_tail = y
    return _new_s(
        SElement, (reduce_mul(p_ab, y_ab), reduce_mul(cd, y_cd), reduce_mul(tail, y_tail))
    )


def s_invert(x: SElement) -> SElement:
    return SElement(invert_word(x.p_ab), invert_word(x.cd), invert_word(x.tail))


def distance_to_identity(v: SElement) -> int:
    """Word-metric distance from the identity, exact on the base group.

    On a base-group vertex the tail is a^m and the published part ab =
    p_ab * a^-m merges with it back into p_ab, so the distance is read from
    the stored projections: |p_ab| + |cd|.  Elsewhere it is a word-length
    bound, the length of the published form with ab and the tail merged.
    """
    if in_base_group(v):
        return len(v.p_ab) + len(v.cd)
    ab, cd, tail = s_parts(v)
    return len(reduce_mul(ab, tail)) + len(cd)


def _build_gen_values() -> dict[int, SElement]:
    table = {g: g_to_s(g_from_word(t)) for g, t in GEN_TOKENS.items() if abs(g) < S_ID}
    table[S_ID], table[-S_ID] = SElement("", "", "s"), SElement("", "", "S")
    for gen, (x, y) in EGEN_LETTERS.items():
        table[gen] = s_multiply(table[x], table[y])
    return table


# GEN_VALUES[gen] is the normal form of the signed generator gen (58 entries).
GEN_VALUES: dict[int, SElement] = _build_gen_values()

_STEP_MEMO_CAP = 2048
_step_memo: dict[tuple[SElement, int], SElement] = {}


def step(x: SElement, gen: int) -> SElement:
    """Right-multiply a normal form by one signed generator.

    Reads a bounded memo of `s_multiply` results, cleared at its cap, and
    stores nothing for an unknown generator.  Searches call `s_multiply`.
    """
    y = _step_memo.get((x, gen))
    if y is None:
        try:
            value = GEN_VALUES[gen]
        except KeyError:
            raise ValueError(f"unknown generator id: {gen}") from None
        if len(_step_memo) >= _STEP_MEMO_CAP:
            _step_memo.clear()
        y = _step_memo[x, gen] = s_multiply(x, value)
    return y


# ---------------------------------------------------------------------------
# parsing and conversions
# ---------------------------------------------------------------------------

def token_to_gen(token: str) -> int:
    """Token -> signed generator id ("a"->1, "S"->-5, "e3"->8, "E3"->-8)."""
    try:
        return TOKEN_GENS[token]
    except KeyError:
        raise ValueError(f"unknown generator token: {token!r}") from None


def gen_to_token(gen: int) -> str:
    try:
        return GEN_TOKENS[gen]
    except KeyError:
        raise ValueError(f"unknown generator id: {gen}") from None


def parse_gens(text: str | Iterable[str]) -> tuple[int, ...]:
    """Parse generators from tokens, or from a plain letter word.

    A string is split on whitespace when it contains spaces or digits
    (indexed tokens like "e7" need separators); otherwise every character
    is a single-letter token.
    """
    if isinstance(text, str):
        text = text.split() if " " in text or any(map(str.isdigit, text)) else list(text)
    return tuple(map(token_to_gen, text))


def scan(gens: Iterable[int], start: SElement = S_IDENTITY) -> SElement:
    """Normal form of start * g1 * g2 * ... for signed generator ids."""
    return walk(start, gens)[-1]


def walk(start: SElement, gens: Iterable[int]) -> list[SElement]:
    """Vertices of the edge path from start along signed generator ids."""
    verts = [start]
    for gen in gens:
        verts.append(step(verts[-1], gen))
    return verts


def s_from_word(word: str) -> SElement:
    """Normal form of a word over the letters a, b, c, d, s and inverses."""
    return scan(parse_gens(word))


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def s_to_json(x: SElement) -> dict[str, object]:
    ab, cd, tail = s_parts(x)
    return {"k": {"ab": ab, "cd": cd}, "tail": tail}


def s_from_json(data: dict[str, object]) -> SElement:
    if not (isinstance(data, dict) and isinstance(data.get("k"), dict)):
        raise ValueError(f"malformed normal form: {data!r}")
    parts = (data["k"].get("ab"), data["k"].get("cd"), data.get("tail"))
    if not all(isinstance(p, str) for p in parts):
        raise ValueError(f"malformed normal form: {data!r}")
    return validate_s(*parts)
