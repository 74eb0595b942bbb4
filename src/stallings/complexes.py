"""Cayley graphs and presentation complexes over a shared generator table.

Every complex here is a subgroup (or the whole group) with a choice of
generators and a slice of one master relator table, so that a relator id
means the same 2-cell in every complex containing it.  Relator ids:

    0..3    commutators of {a,b} letters with {c,d} letters
    4..27   triangles identifying kernel generator i with its two-letter word
    28..51  squares making the stable letter commute with kernel generator i

Vertices are normal forms; an edge is `s_multiply` by a signed generator's
value, never `step`, whose memo is for walks.  Searches take each distinct
value once, `ComplexSpec.steps`, and a vertex budget makes a runaway one fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Container, Iterable

from .elements import (
    GEN_VALUES,
    SElement,
    S_IDENTITY,
    gen_to_token,
    in_base_group,
    in_kernel_subgroup,
    s_multiply,
    s_parts,
)
from .words import AB_GENS, CD_GENS, EGEN_IDS, EGEN_LETTERS, LETTER_GENS, S_ID, word_is_over

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


@dataclass(frozen=True)
class ComplexSpec:
    """A named complex: generators, relator slice, vertex membership test."""

    name: str
    gens: tuple[int, ...]
    relator_ids: tuple[int, ...]
    member: Callable[[SElement], bool]

    @cached_property
    def steps(self) -> dict[SElement, int]:
        """Each distinct group value of a signed generator (gen, then -gen,
        in `gens` order), mapped to the first signed generator that has it;
        cross-factor generator words commute, so values collide.  Every
        search steps through it."""
        steps: dict[SElement, int] = {}
        for gen in self.gens:
            for g in (gen, -gen):
                steps.setdefault(GEN_VALUES[g], g)
        return steps


COMPLEXES: dict[str, ComplexSpec] = {
    spec.name: spec
    for spec in (
        ComplexSpec(
            "gamma_k",
            EGEN_IDS,
            (),
            in_kernel_subgroup,
        ),
        ComplexSpec(
            "gamma_1",
            LETTER_GENS,
            COMMUTATOR_REL_IDS,
            in_base_group,
        ),
        ComplexSpec(
            "gamma_2",
            LETTER_GENS + EGEN_IDS,
            COMMUTATOR_REL_IDS + TRIANGLE_REL_IDS,
            in_base_group,
        ),
        ComplexSpec(
            "gamma_h",
            (S_ID,) + EGEN_IDS,
            (),
            _tail_is_s_power,
        ),
        ComplexSpec(
            "gamma_h_bar",
            (S_ID,) + EGEN_IDS,
            SQUARE_REL_IDS,
            _tail_is_s_power,
        ),
        ComplexSpec(
            "x",
            LETTER_GENS + (S_ID,) + EGEN_IDS,
            tuple(range(len(REL_WORDS))),
            _any_vertex,
        ),
        ComplexSpec(
            "free_ab",
            AB_GENS,
            (),
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
    """Multi-source breadth-first distances out to the given radius."""
    dist: dict[SElement, int] = {}
    frontier: list[SElement] = []
    for v in sources:
        if v not in dist:
            dist[v] = 0
            frontier.append(v)
    values = tuple(spec.steps)
    for layer in range(1, radius + 1):
        next_frontier: list[SElement] = []
        for v in frontier:
            for value in values:
                w = s_multiply(v, value)
                if w not in dist:
                    if len(dist) >= budget:
                        raise SearchBudgetExceeded(
                            f"{spec.name}: radius-{radius} search exceeded {budget} vertices"
                        )
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
    parent: dict[SElement, tuple[SElement, int]] = {start: (start, 0)}
    frontier = [start]
    steps = spec.steps.items()
    while frontier:
        next_frontier: list[SElement] = []
        for v in frontier:
            for value, gen in steps:
                w = s_multiply(v, value)
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


class ForbiddenRegion(dict):
    """A closed metric neighborhood of a finite vertex set, as a dict from each
    vertex to its distance from the nearest center; its own mutating methods raise
    TypeError (`dict.clear(region)` still empties it).  A copy or unpickled region
    is built again from (spec, centers, radius).
    `dilated`, the region one step wider, is built on first read and kept."""

    def __init__(self, spec: ComplexSpec, centers: Iterable[SElement], radius: int) -> None:
        self.spec = spec
        self.centers = tuple(dict.fromkeys(centers))
        self.radius = radius
        super().__init__(neighborhood(spec, self.centers, radius))

    def _refuse(self, *args, **kwargs):
        raise TypeError("a ForbiddenRegion cannot be changed")

    __setitem__ = __delitem__ = clear = pop = popitem = setdefault = update = __ior__ = _refuse

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
    pass.  After a BFS out to radius r+1, each vertex of layer r+1 gets an
    id of its own, stored in `dist` as the label -1 - id.  The BFS then
    grows layers r+2 .. R from there: a new vertex takes the label of the
    vertex that found it, and an edge that meets another label unites the
    two.  So every shell edge with an inner end is seen from that end.  The
    edges left unseen join two outer vertices (layer R, which is layer r+1
    when R == r + 1), so the outer vertices are expanded last, uniting the
    labels of their shell neighbours, and the pass stops once one component
    is left: no edge can split it again.  On the one-ended complexes the
    inner layers already leave one component, and no outer vertex is
    expanded.
    """
    if not 0 <= r < R:
        raise ValueError(f"need 0 <= r < R, got r={r}, R={R}")
    dist = ball(spec, r + 1, budget=budget)
    values = tuple(spec.steps)
    frontier = [v for v, d in dist.items() if d == r + 1]
    for i, v in enumerate(frontier):
        dist[v] = -1 - i
    parent = list(range(len(frontier)))  # union-find over ids
    sizes = [1] * len(frontier)  # vertices labelled by each id
    merges = 0

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def union(i: int, j: int) -> bool:
        """Join the components of ids i and j; True if they were apart."""
        i, j = find(i), find(j)
        parent[j] = i
        return i != j

    for _ in range(r + 2, R + 1):
        next_frontier: list[SElement] = []
        for v in frontier:
            label = dist[v]
            for value in values:
                w = s_multiply(v, value)
                dw = dist.get(w)
                if dw is None:
                    if len(dist) >= budget:
                        raise SearchBudgetExceeded(
                            f"{spec.name}: radius-{R} search exceeded {budget} vertices"
                        )
                    dist[w] = label
                    sizes[-1 - label] += 1
                    next_frontier.append(w)
                elif dw < 0 and dw != label:
                    merges += union(-1 - label, -1 - dw)
        frontier = next_frontier
    outer = frontier
    for v in outer:
        if len(parent) - merges <= 1:
            break
        for value in values:
            dw = dist.get(s_multiply(v, value), 0)
            if dw < 0:
                merges += union(-1 - dist[v], -1 - dw)
    roots = [find(i) for i in range(len(parent))]
    root_sizes = dict.fromkeys(roots, 0)
    for root, size in zip(roots, sizes):
        root_sizes[root] += size
    component_sizes = sorted(root_sizes.values(), reverse=True)
    return {
        "complex": spec.name,
        "r": r,
        "R": R,
        "ball_size": len(dist),
        "shell_size": sum(component_sizes),
        "components": len(component_sizes),
        "essential_components": len({roots[-1 - dist[v]] for v in outer}),
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
    for v in dist:
        for gen in spec.gens:
            w = s_multiply(v, GEN_VALUES[gen])
            if w in dist:
                lines.append(
                    f'  "{_vertex_name(v)}" -- "{_vertex_name(w)}"'
                    f' [label="{gen_to_token(gen)}"];'
                )
    lines.append("}")
    return "\n".join(lines)
