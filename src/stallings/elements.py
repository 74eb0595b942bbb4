"""Normal forms in the ambient group generated by a, b, c, d and s.

The ambient group splits as K x| F(a,s): the kernel K is normal, the free
group on {a, s} is a complement, and conjugation by a tail word t in F(a,s)
acts on K through the a-exponent of t only (s centralizes K).  Every element
is therefore a unique pair (k, tail) with k in K stored as a reduced word
pair and tail a reduced word over {a, s}.

Generators are signed integer ids as in `words`: letters 1..4, the stable
letter 5, kernel generators 6..29.  `step` right-multiplies a normal form by
a signed generator's value from the fixed table `GEN_VALUES`; it is the
primitive that graph searches are built on.

`s_multiply` is the one transition kernel under `step`, the BFS and the
verifier.  Both factors are in normal form, so it multiplies only the parts
the right factor has, each with the seam-only `reduce_mul`, conjugates only
by a non-zero a-exponent, and builds the result without re-checking it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .words import (
    EGEN_COUNT,
    EGEN_FIRST_ID,
    EGEN_VALUES,
    GElement,
    ID_LETTERS,
    LETTER_IDS,
    S_ID,
    egen_id,
    egen_index,
    exponent_sum,
    g_from_word,
    invert_word,
    is_reduced,
    reduce_mul,
    word_is_over,
)

TAIL_LETTERS = "asAS"


class SElement(NamedTuple):
    """Normal form (k, tail): k = (ab, cd) in the kernel, tail in F(a,s)."""

    ab: str
    cd: str
    tail: str


S_IDENTITY = SElement("", "", "")

# SElement from parts already in normal form, skipping NamedTuple.__new__
_new_s = tuple.__new__


def validate_s(x: SElement) -> SElement:
    """Check the normal-form invariants; returns x for chaining."""
    if not (word_is_over(x.ab, "abAB") and is_reduced(x.ab)):
        raise ValueError(f"bad ab part: {x.ab!r}")
    if not (word_is_over(x.cd, "cdCD") and is_reduced(x.cd)):
        raise ValueError(f"bad cd part: {x.cd!r}")
    if exponent_sum(x.ab) + exponent_sum(x.cd) != 0:
        raise ValueError(f"k part is outside the kernel: {x.ab!r}, {x.cd!r}")
    if not (word_is_over(x.tail, TAIL_LETTERS) and is_reduced(x.tail)):
        raise ValueError(f"bad tail: {x.tail!r}")
    return x


def a_exponent(tail: str) -> int:
    """a-exponent of a tail word; the stable letter contributes nothing."""
    return tail.count("a") - tail.count("A")


def a_power(m: int) -> str:
    return "a" * m if m >= 0 else "A" * (-m)


def conjugate_ab(ab: str, m: int) -> str:
    """a^m * ab * a^-m as a reduced word."""
    if m == 0 or not ab:
        return ab
    return reduce_mul(reduce_mul(a_power(m), ab), a_power(-m))


def in_base_group(x: SElement) -> bool:
    """Whether x lies in the direct product of the two free groups."""
    return word_is_over(x.tail, "aA")


def in_kernel_subgroup(x: SElement) -> bool:
    return x.tail == ""


def g_to_s(g: GElement) -> SElement:
    """Embed the direct product: split off the a-power carried by es(g)."""
    m = g.exponent_sum()
    k = g * GElement(a_power(-m), "")
    return SElement(k.ab, k.cd, a_power(m))


def s_to_g(x: SElement) -> GElement:
    if not in_base_group(x):
        raise ValueError(f"element is not in the base group: {x}")
    return GElement(x.ab, x.cd) * GElement(x.tail, "")


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------

def s_multiply(x: SElement, y: SElement) -> SElement:
    """(k1, t1)(k2, t2) = (k1 * t1 k2 t1^-1, t1 t2).

    Only the parts y has are multiplied: an empty part of y leaves x's part
    as it is (a kernel generator has no tail; a, s and their inverses have
    only a tail).  The a-exponent of t1 is counted only when k2 has an ab
    part, and that part is conjugated only when the exponent is non-zero.
    """
    ab, cd, tail = x
    y_ab, y_cd, y_tail = y
    if y_ab:
        m = a_exponent(tail)
        ab = reduce_mul(ab, conjugate_ab(y_ab, m) if m else y_ab)
    if y_cd:
        cd = reduce_mul(cd, y_cd)
    if y_tail:
        tail = reduce_mul(tail, y_tail)
    return _new_s(SElement, (ab, cd, tail))


def s_invert(x: SElement) -> SElement:
    """(k, t)^-1 = (t^-1 k^-1 t, t^-1)."""
    m = a_exponent(x.tail)
    return SElement(
        conjugate_ab(invert_word(x.ab), -m),
        invert_word(x.cd),
        invert_word(x.tail),
    )


def distance_to_identity(v: SElement) -> int:
    """Length of a normal form: the word-metric distance from the identity.

    The first-factor part and the tail share the letter a, so they merge
    before counting.  Exact on base-group vertices; elsewhere it is a
    word-length bound.
    """
    return len(reduce_mul(v.ab, v.tail)) + len(v.cd)


def _build_gen_values() -> dict[int, SElement]:
    table = {S_ID: SElement("", "", "s"), -S_ID: SElement("", "", "S")}
    values = [(LETTER_IDS[ch], g_from_word(ch)) for ch in "abcd"]
    values += [(egen_id(i), EGEN_VALUES[i - 1]) for i in range(1, EGEN_COUNT + 1)]
    for gen, value in values:
        table[gen] = g_to_s(value)
        table[-gen] = g_to_s(value.inverse())
    return table


# GEN_VALUES[gen] is the normal form of the signed generator gen (58 entries).
GEN_VALUES: dict[int, SElement] = _build_gen_values()


def step(x: SElement, gen: int) -> SElement:
    """Right-multiply a normal form by one signed generator."""
    try:
        value = GEN_VALUES[gen]
    except KeyError:
        raise ValueError(f"unknown generator id: {gen}") from None
    return s_multiply(x, value)


# ---------------------------------------------------------------------------
# parsing and conversions
# ---------------------------------------------------------------------------

def token_to_gen(token: str) -> int:
    """Token -> signed generator id ("a"->1, "S"->-5, "e3"->8, "E3"->-8)."""
    if len(token) == 1 and token.lower() in LETTER_IDS:
        gid = LETTER_IDS[token.lower()]
        return gid if token.islower() else -gid
    if token[:1] in ("e", "E") and token[1:].isdigit():
        index = int(token[1:])
        if 1 <= index <= EGEN_COUNT:
            gid = EGEN_FIRST_ID - 1 + index
            return gid if token[0] == "e" else -gid
    raise ValueError(f"unknown generator token: {token!r}")


def gen_to_token(gen: int) -> str:
    base = abs(gen)
    if base == 0:
        raise ValueError("generator id 0 is not signed")
    if base <= S_ID:
        letter = ID_LETTERS[base]
        return letter if gen > 0 else letter.upper()
    index = egen_index(base)
    return f"e{index}" if gen > 0 else f"E{index}"


def parse_gens(text: str | Iterable[str]) -> tuple[int, ...]:
    """Parse generators from tokens, or from a plain letter word.

    A string is split on whitespace when it contains spaces or digits
    (indexed tokens like "e7" need separators); otherwise every character
    is a single-letter token.
    """
    if isinstance(text, str):
        if " " in text or any(ch.isdigit() for ch in text):
            tokens: Iterable[str] = text.split()
        else:
            tokens = list(text)
    else:
        tokens = text
    return tuple(token_to_gen(tok) for tok in tokens)


def scan(gens: Iterable[int], start: SElement = S_IDENTITY) -> SElement:
    """Normal form of start * g1 * g2 * ... for signed generator ids."""
    x = start
    for gen in gens:
        x = step(x, gen)
    return x


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
    return {"k": {"ab": x.ab, "cd": x.cd}, "tail": x.tail}


def s_from_json(data: dict[str, object]) -> SElement:
    if not (isinstance(data, dict) and isinstance(data.get("k"), dict)):
        raise ValueError(f"malformed normal form: {data!r}")
    parts = (data["k"].get("ab"), data["k"].get("cd"), data.get("tail"))
    if not all(isinstance(p, str) for p in parts):
        raise ValueError(f"malformed normal form: {data!r}")
    return validate_s(SElement(*parts))
