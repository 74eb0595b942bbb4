"""Reference reimplementations used as test oracles.

Deliberately slow and simple: certificates are replayed by slicing label
tuples, with every vertex recomputed from scratch after each move.  Vertices
come from the reference product below, not from the library's `step`, so
the replay does not share the library's transition kernel.  Nor does it
share its representation: the oracle works in the published (k, tail) form
and converts only at its edges, through `s_parts` and `s_from_json`.  It
reads a cell move by inverting and rotating the relator word itself, not
through the library's table of cell forms.
"""

from typing import NamedTuple

from stallings.complexes import (
    DEFAULT_BUDGET,
    REL_WORDS,
    SearchBudgetExceeded,
    ball,
    get_complex,
)
from stallings.elements import s_from_json, s_multiply, s_parts, step
from stallings.words import (
    EGEN_FIRST_ID,
    EGEN_WORDS,
    ID_LETTERS,
    S_ID,
    invert_word,
    reduce_word,
)


class Published(NamedTuple):
    """The published normal form (k, tail), k = (ab, cd) in the kernel."""

    ab: str
    cd: str
    tail: str


def _a_power(m):
    return "a" * m if m >= 0 else "A" * -m


def reference_multiply(x, y):
    """(k1, t1)(k2, t2) = (k1 * a^m k2 a^-m, t1 t2), m the a-exponent of t1.

    Both factors are (ab, cd, tail) triples in the published form.  Every
    part of y is multiplied, the conjugation is spelled out with explicit
    a-powers, and each concatenation is freely reduced from scratch.
    """
    ab1, cd1, tail1 = x
    ab2, cd2, tail2 = y
    power = _a_power(tail1.count("a") - tail1.count("A"))
    return Published(
        reduce_word(ab1 + power + ab2 + invert_word(power)),
        reduce_word(cd1 + cd2),
        reduce_word(tail1 + tail2),
    )


def generator_value(gen):
    """Published normal form of a signed generator, from its defining word."""
    if abs(gen) == S_ID:
        return Published("", "", "s" if gen > 0 else "S")
    word = ID_LETTERS[abs(gen)] if abs(gen) < S_ID else EGEN_WORDS[abs(gen) - EGEN_FIRST_ID]
    if gen < 0:
        word = invert_word(word)
    power = _a_power(sum(1 if ch.islower() else -1 for ch in word))
    ab = "".join(ch for ch in word if ch in "abAB")
    cd = "".join(ch for ch in word if ch in "cdCD")
    return Published(reduce_word(ab + invert_word(power)), reduce_word(cd), power)


def reference_step(x, gen):
    return reference_multiply(x, generator_value(gen))


def _inverse(labels):
    return tuple(-g for g in reversed(labels))


def cell_form(rid, inv, rot):
    """The word 2-cell rid reads, inverted if inv and rotated by rot, or
    None when (inv, rot) is not one of its encodings."""
    rel = REL_WORDS[rid]
    if inv not in (0, 1) or not 0 <= rot < len(rel):
        return None
    if inv:
        rel = _inverse(rel)
    return rel[rot:] + rel[:rot]


# Which published forms (ab, cd, tail) are vertices of each complex: the
# kernel K has no tail, the base group G a power of a, K x <s> a power of s,
# and F(a,b) is the part of G with no cd part.
def _tail_over(letters):
    return lambda v: set(v.tail) <= set(letters)


VERTEX_TESTS = {
    "gamma_k": lambda v: v.tail == "",
    "gamma_1": _tail_over("aA"),
    "gamma_2": _tail_over("aA"),
    "gamma_h": _tail_over("sS"),
    "gamma_h_bar": _tail_over("sS"),
    "x": lambda v: True,
    "free_ab": lambda v: v.cd == "" and _tail_over("aA")(v),
}


def _library_vertex(v):
    """The library vertex of a published form."""
    return s_from_json({"k": {"ab": v.ab, "cd": v.cd}, "tail": v.tail})


def _to_library(verts):
    return frozenset(map(_library_vertex, verts))


def is_published_form(v):
    """Whether (ab, cd, tail) is a normal form: each part a reduced word over
    its own letters, and k = (ab, cd) in the kernel."""
    signs = sum(1 if ch.islower() else -1 for ch in v.ab + v.cd)
    return signs == 0 and all(
        set(part) <= set(letters) and reduce_word(part) == part
        for part, letters in zip(v, ("abAB", "cdCD", "asAS"))
    )


def is_move(move):
    """A move is a tuple of its kind and as many int fields as the kind takes."""
    return (
        type(move) is tuple
        and (move[:1], len(move)) in ((("ins",), 3), (("del",), 2), (("cell",), 6))
        and all(type(x) is int for x in move[1:])
    )


def replay_certificate(cert, forbidden=frozenset()):
    """Returns (ok, reason, swept) computed independently of the library.

    The swept set holds library vertices, converted from the oracle's own
    form once, after the replay.
    """
    spec = get_complex(cert.complex_name)
    gens = set(spec.gens)

    # the start must be stored as the library stores its published form
    start = Published(*s_parts(cert.start))
    if not (
        is_published_form(start)
        and _library_vertex(start) == cert.start
        and VERTEX_TESTS[cert.complex_name](start)
    ):
        return False, f"start is not a vertex of {cert.complex_name}", frozenset()

    def vertices(labels):
        verts = [start]
        for g in labels:
            verts.append(reference_step(verts[-1], g))
        return verts

    labels = tuple(cert.path)
    if any(abs(g) not in gens for g in labels):
        return False, "bad path label", frozenset()
    swept = set(vertices(labels))
    end = vertices(labels)[-1]
    for mi, move in enumerate(cert.moves):
        if not is_move(move):
            return False, f"move {mi} invalid", _to_library(swept)
        kind = move[0]
        if kind == "ins":
            _, pos, gen = move
            if not (0 <= pos <= len(labels) and abs(gen) in gens):
                return False, f"move {mi} invalid", _to_library(swept)
            labels = labels[:pos] + (gen, -gen) + labels[pos:]
        elif kind == "del":
            _, pos = move
            if not (0 <= pos < len(labels) - 1 and labels[pos + 1] == -labels[pos]):
                return False, f"move {mi} invalid", _to_library(swept)
            labels = labels[:pos] + labels[pos + 2 :]
        elif kind == "cell":
            _, pos, rid, inv, rot, split = move
            r = cell_form(rid, inv, rot) if rid in spec.relator_ids else None
            if r is None:
                return False, f"move {mi} invalid", _to_library(swept)
            if not (0 <= split <= len(r) and 0 <= pos <= len(labels) - split):
                return False, f"move {mi} invalid", _to_library(swept)
            if labels[pos : pos + split] != r[:split]:
                return False, f"move {mi} invalid", _to_library(swept)
            labels = labels[:pos] + _inverse(r[split:]) + labels[pos + split :]
        else:
            return False, f"move {mi} invalid", _to_library(swept)
        verts = vertices(labels)
        assert verts[-1] == end, "a move changed the endpoint"
        swept.update(verts)
    swept = _to_library(swept)
    if labels != tuple(cert.result):
        return False, "result mismatch", swept
    if any(v in forbidden for v in swept):
        return False, "forbidden vertex swept", swept
    return True, None, swept


def reference_shell_components(spec, r, R):
    """The shell report of `sphere_complement_components`, by one full fill.

    Every shell vertex is expanded, with a visited set of its own, and a
    component is essential when it holds a vertex at distance R.  Distances
    and products are the library's `ball` and `s_multiply`, so this checks
    the component pass alone.
    """
    dist = ball(spec, R)
    values = tuple(spec.steps)
    shell = {v for v, d in dist.items() if d > r}
    seen = set()
    sizes = []
    essential = 0
    for v in shell:
        if v in seen:
            continue
        seen.add(v)
        stack = [v]
        size = 0
        touches_outer = False
        while stack:
            u = stack.pop()
            size += 1
            touches_outer |= dist[u] == R
            for value in values:
                w = s_multiply(u, value)
                if w in shell and w not in seen:
                    seen.add(w)
                    stack.append(w)
        sizes.append(size)
        essential += touches_outer
    return {
        "ball_size": len(dist),
        "shell_size": len(shell),
        "components": len(sizes),
        "essential_components": essential,
        "component_sizes": sorted(sizes, reverse=True),
    }


def reference_generator_path(
    spec, start, goal, forbidden=frozenset(), budget=DEFAULT_BUDGET
):
    """`find_generator_path` by stepping every signed generator label in turn.

    Each vertex tries all signed labels through the library's `step`; a
    label whose value an earlier label has reaches a vertex already seen.
    So the path, the budget overrun and the None for a goal the region
    cuts off must all match the library's search by distinct values.
    """
    if start in forbidden or goal in forbidden:
        return None
    if start == goal:
        return ()
    labels = [g for gen in spec.gens for g in (gen, -gen)]
    parent = {start: None}
    frontier = [start]
    while frontier:
        next_frontier = []
        for v in frontier:
            for gen in labels:
                w = step(v, gen)
                if w in parent or w in forbidden:
                    continue
                if len(parent) >= budget:
                    raise SearchBudgetExceeded(f"{spec.name}: reference search over budget")
                parent[w] = (v, gen)
                if w == goal:
                    path = []
                    while w != start:
                        w, gen = parent[w]
                        path.append(gen)
                    return tuple(reversed(path))
                next_frontier.append(w)
        frontier = next_frontier
    return None
