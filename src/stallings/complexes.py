"""Cayley graphs and presentation complexes over a shared generator table.

Every complex here is a subgroup (or the whole group) with a choice of
generators and a slice of one master relator table, so that a relator id
means the same 2-cell in every complex containing it.  Relator ids:

    0..3    commutators of {a,b} letters with {c,d} letters
    4..27   triangles identifying kernel generator i with its two-letter word
    28..51  squares making the stable letter commute with kernel generator i

Vertices are normal forms, and an edge multiplies by a signed generator's
value.  Searches take each distinct value once, `ComplexSpec.steps`, and a
vertex budget makes a runaway one fail.  They never call `step`, whose memo
is for walks: each search makes an `expander`, which multiplies projection by
projection.  It computes a projection's row, the products of one word with
that projection's part of each value, once per search, and zips a vertex's
neighbours from the rows of its three projections as plain tuples; a vertex
a search returns or keeps in a region is an `SElement`.  The ends probe keeps
plain tuples and returns no vertex: one labelled pass from one expander grows
the ball to radius R, then expands layer R once more only to merge.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from typing import Callable, Container, Iterable, NamedTuple

from .elements import (
    GEN_VALUES,
    SElement,
    S_IDENTITY,
    _new_s,
    gen_to_token,
    in_base_group,
    in_kernel_subgroup,
    s_parts,
)
from .words import (
    AB_GENS,
    CD_GENS,
    EGEN_IDS,
    EGEN_LETTERS,
    LETTER_GENS,
    S_ID,
    reduce_mul,
    word_is_over,
)

DEFAULT_BUDGET = 5_000_000


class SearchBudgetExceeded(RuntimeError):
    """A graph search visited more vertices than its budget allows."""


# ---------------------------------------------------------------------------
# master relator table
# ---------------------------------------------------------------------------

def _build_relators() -> tuple[tuple[int, ...], ...]:
    rels: list[tuple[int, ...]] = []
    for x in AB_GENS:
        for y in CD_GENS:
            rels.append((x, y, -x, -y))
    rels += [(-gen,) + EGEN_LETTERS[gen] for gen in EGEN_IDS]
    rels += [(S_ID, gen, -S_ID, -gen) for gen in EGEN_IDS]
    return tuple(rels)


REL_WORDS: tuple[tuple[int, ...], ...] = _build_relators()
COMMUTATOR_REL_IDS = tuple(range(0, 4))
TRIANGLE_REL_IDS = tuple(range(4, 28))
SQUARE_REL_IDS = tuple(range(28, 52))


# ---------------------------------------------------------------------------
# complex registry
# ---------------------------------------------------------------------------

def _tail_is_s_power(v: SElement) -> bool:
    return word_is_over(v.tail, "sS")


def _is_free_ab(v: SElement) -> bool:
    return v.cd == "" and in_base_group(v)


def _any_vertex(v: SElement) -> bool:
    return True


@lru_cache(maxsize=None)
def _steps(gens: tuple[int, ...]) -> dict[SElement, int]:
    steps: dict[SElement, int] = {}
    for gen in gens:
        for g in (gen, -gen):
            steps.setdefault(GEN_VALUES[g], g)
    return steps


class ComplexSpec(NamedTuple):
    """A named complex: generators, relator ids, vertex membership test."""

    name: str
    gens: tuple[int, ...]
    relator_ids: frozenset[int]
    member: Callable[[SElement], bool]

    @property
    def steps(self) -> dict[SElement, int]:
        """Each distinct group value of a signed generator (gen, then -gen,
        in `gens` order), mapped to the first signed generator that has it;
        cross-factor generator words commute, so values collide.  Every
        search steps through it, by way of `expander`; it is made once per
        generator tuple."""
        return _steps(self.gens)


COMPLEXES: dict[str, ComplexSpec] = {
    spec.name: spec
    for spec in (
        ComplexSpec(
            "gamma_k",
            EGEN_IDS,
            frozenset(),
            in_kernel_subgroup,
        ),
        ComplexSpec(
            "gamma_1",
            LETTER_GENS,
            frozenset(COMMUTATOR_REL_IDS),
            in_base_group,
        ),
        ComplexSpec(
            "gamma_2",
            LETTER_GENS + EGEN_IDS,
            frozenset(COMMUTATOR_REL_IDS + TRIANGLE_REL_IDS),
            in_base_group,
        ),
        ComplexSpec(
            "gamma_h",
            (S_ID,) + EGEN_IDS,
            frozenset(),
            _tail_is_s_power,
        ),
        ComplexSpec(
            "gamma_h_bar",
            (S_ID,) + EGEN_IDS,
            frozenset(SQUARE_REL_IDS),
            _tail_is_s_power,
        ),
        ComplexSpec(
            "x",
            LETTER_GENS + (S_ID,) + EGEN_IDS,
            frozenset(range(len(REL_WORDS))),
            _any_vertex,
        ),
        ComplexSpec(
            "free_ab",
            AB_GENS,
            frozenset(),
            _is_free_ab,
        ),
    )
}


def get_complex(name: str) -> ComplexSpec:
    try:
        return COMPLEXES[name]
    except KeyError:
        raise ValueError(f"unknown complex {name!r}; choose from {sorted(COMPLEXES)}")


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

class _Rows(dict):
    """Rows of one projection: each word read, mapped to its products with
    the projection's part of each step value, in `steps` order, made on the
    first read with one product per distinct part."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.parts = parts

    def __missing__(self, word: str) -> list[str]:
        products = {part: reduce_mul(word, part) for part in dict.fromkeys(self.parts)}
        row = self[word] = [products[part] for part in self.parts]
        return row


def expander(spec: ComplexSpec) -> Callable[[SElement], list[tuple[str, str, str]]]:
    """A function from a vertex to its neighbours, `s_multiply(v, value)` for
    each value of `spec.steps`, in that order, as plain (p_ab, cd, tail) tuples:
    they equal and hash like `SElement`s, are cheaper to build, and the garbage
    collector stops tracking them, never a tuple subclass.

    A ball has far fewer distinct projections than vertices, so the rows are
    kept by the returned function: one search computes each row once, and
    its neighbours share the row's strings.
    """
    ab_rows, cd_rows, tail_rows = map(_Rows, zip(*spec.steps))

    def expand(v: SElement) -> list[tuple[str, str, str]]:
        p_ab, cd, tail = v
        return list(zip(ab_rows[p_ab], cd_rows[cd], tail_rows[tail]))

    return expand


def ball(
    spec: ComplexSpec,
    radius: int,
    start: SElement = S_IDENTITY,
    budget: int = DEFAULT_BUDGET,
) -> dict[SElement, int]:
    """Breadth-first distances from start out to the given radius."""
    return neighborhood(spec, (start,), radius, budget)


def neighborhood(
    spec: ComplexSpec,
    sources: Iterable[SElement],
    radius: int,
    budget: int = DEFAULT_BUDGET,
) -> dict[SElement, int]:
    """Multi-source breadth-first distances out to the given radius, over `SElement`s."""
    dist: dict[SElement, int] = {}
    frontier: list[SElement] = []
    for v in sources:
        if v not in dist:
            dist[v] = 0
            frontier.append(v)
    expand = expander(spec)
    for layer in range(1, radius + 1):
        next_frontier: list[SElement] = []
        for v in frontier:
            for w in expand(v):
                if w not in dist:
                    if len(dist) >= budget:
                        raise SearchBudgetExceeded(
                            f"{spec.name}: radius-{radius} search exceeded {budget} vertices"
                        )
                    w = _new_s(SElement, w)
                    dist[w] = layer
                    next_frontier.append(w)
        frontier = next_frontier
    return dist


def sphere_sizes(dist: dict[SElement, int]) -> list[int]:
    """Vertex counts per distance layer of a search result."""
    sizes = [0] * (max(dist.values()) + 1)
    for d in dist.values():
        sizes[d] += 1
    return sizes


def find_generator_path(
    spec: ComplexSpec,
    start: SElement,
    goal: SElement,
    forbidden: Container[SElement] = frozenset(),
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, ...] | None:
    """Shortest signed-generator word from start to goal avoiding a region.

    Each edge is labelled by the first signed generator with its value.
    `forbidden` is any container of excluded vertices.  On an infinite
    complex a None return means the region separates the goal from the
    start; a budget overrun raises instead of returning None so the two
    failure modes stay distinguishable.
    """
    if start in forbidden or goal in forbidden:
        return None
    if start == goal:
        return ()
    parent: dict[tuple[str, str, str], tuple[tuple[str, str, str], int]] = {start: (start, 0)}
    frontier = [start]
    gens = tuple(spec.steps.values())
    expand = expander(spec)
    while frontier:
        next_frontier: list[tuple[str, str, str]] = []
        for v in frontier:
            for w, gen in zip(expand(v), gens):
                if w in parent or w in forbidden:
                    continue
                if len(parent) >= budget:
                    raise SearchBudgetExceeded(
                        f"{spec.name}: path search exceeded {budget} vertices"
                    )
                parent[w] = (v, gen)
                if w == goal:
                    path: list[int] = []
                    while w != start:
                        w, gen = parent[w]
                        path.append(gen)
                    return tuple(reversed(path))
                next_frontier.append(w)
        frontier = next_frontier
    return None


class ForbiddenRegion(frozenset):
    """The closed metric neighborhood of a finite vertex set, as a frozenset of
    vertices whose attributes refuse assignment, so nothing changes it.  A copy or
    unpickled region is built again; `dilated`, one step wider, is kept once read."""

    def __new__(cls, spec: ComplexSpec, centers: Iterable[SElement], radius: int):
        centers = tuple(dict.fromkeys(centers))
        self = super().__new__(cls, neighborhood(spec, centers, radius))
        vars(self).update(spec=spec, centers=centers, radius=radius)
        return self

    def __init__(self, *args) -> None:
        """`__new__` builds the region; this keeps a wrapped `__init__` off `object.__init__`."""

    def _refuse(self, *args):
        raise TypeError("a ForbiddenRegion cannot be changed")

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        return ForbiddenRegion, (self.spec, self.centers, self.radius)

    @cached_property
    def dilated(self) -> ForbiddenRegion:
        return ForbiddenRegion(self.spec, self.centers, self.radius + 1)


# ---------------------------------------------------------------------------
# ends experiment
# ---------------------------------------------------------------------------

def sphere_complement_components(
    spec: ComplexSpec,
    r: int,
    R: int,
    budget: int = DEFAULT_BUDGET,
) -> dict[str, object]:
    """Connectivity of the shell between radius r and radius R.

    Computes the components of ball(R) minus the closed r-ball and counts
    those reaching the outer sphere.  The number of such essential
    components is monotone in the number of ends; a control case with
    several ends separates from the one-ended cases already at small radii.

    Components are the roots of one union-find over labels, found in one
    breadth-first pass from the identity with one expander.  A new vertex
    takes the label of the vertex that found it: 0 in the inner ball, and
    -1 - id past it, where each vertex of layer r+1 gets an id of its own
    once that layer is grown.  An edge that meets another shell label
    attaches its root to the root of the expanded vertex's label, found once
    per vertex, so every shell edge with an inner end is seen from that end.
    The edges left unseen join two outer vertices (layer R, which is layer
    r+1 when R == r + 1), so the pass expands them as one more layer, R+1,
    that adds no vertex, and stops once one component is left: no edge can
    split it again.  On the one-ended complexes the inner layers already
    leave one component, and no outer vertex is expanded.
    """
    if not 0 <= r < R:
        raise ValueError(f"need 0 <= r < R, got r={r}, R={R}")
    expand = expander(spec)
    start = tuple(S_IDENTITY)
    dist = {start: 0}
    frontier = [start]
    parent: list[int] = []  # union-find over ids
    merges = 0

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for layer in range(1, R + 2):
        unseen = None if layer <= R else 0  # layer R+1 adds no vertex: one unseen reads as inner
        expanded, frontier = frontier, []
        for v in expanded:
            if layer > R and len(parent) - merges <= 1:
                break
            label = dist[v]
            root = label and find(-1 - label)  # 0 inside; only attached to, never moved
            for w in expand(v):
                dw = dist.get(w, unseen)
                if dw is None:
                    if len(dist) >= budget:
                        radius = r + 1 if layer <= r + 1 else R
                        raise SearchBudgetExceeded(
                            f"{spec.name}: radius-{radius} search exceeded {budget} vertices"
                        )
                    dist[w] = label
                    frontier.append(w)
                elif dw < 0 and parent[-1 - dw] != root:
                    j = find(-1 - dw)
                    if j != root:
                        parent[j] = root
                        merges += 1
        if layer == r + 1:
            for i, w in enumerate(frontier):
                dist[w] = -1 - i
            parent.extend(range(len(frontier)))
    roots = [find(i) for i in range(len(parent))]
    root_sizes = dict.fromkeys(roots, 0)
    for label, size in Counter(dist.values()).items():
        if label < 0:
            root_sizes[roots[-1 - label]] += size
    component_sizes = sorted(root_sizes.values(), reverse=True)
    return {
        "complex": spec.name,
        "r": r,
        "R": R,
        "ball_size": len(dist),
        "shell_size": sum(component_sizes),
        "components": len(component_sizes),
        "essential_components": len({roots[-1 - dist[v]] for v in expanded}),  # layer R
        "component_sizes": component_sizes,
    }


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _vertex_name(v: SElement) -> str:
    return "|".join(part or "1" for part in s_parts(v))


def ball_to_dot(spec: ComplexSpec, dist: dict[SElement, int]) -> str:
    """Render a search result as an undirected labelled graph."""
    lines = ["graph {", "  node [shape=circle, fontsize=10];"]
    for v, d in sorted(dist.items(), key=lambda item: s_parts(item[0])):
        lines.append(f'  "{_vertex_name(v)}" [xlabel="{d}"];')
    slot = {value: i for i, value in enumerate(spec.steps)}
    slots = [(slot[GEN_VALUES[gen]], gen) for gen in spec.gens]
    expand = expander(spec)
    for v in dist:
        neighbours = expand(v)
        for i, gen in slots:
            w = neighbours[i]
            if w in dist:
                lines.append(
                    f'  "{_vertex_name(v)}" -- "{_vertex_name(w)}"'
                    f' [label="{gen_to_token(gen)}"];'
                )
    lines.append("}")
    return "\n".join(lines)
