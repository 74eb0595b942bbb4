"""Cayley graphs and presentation complexes over a shared generator table.

Every complex here is a subgroup (or the whole group) with a choice of
generators and a slice of one master relator table, so that a relator id
means the same 2-cell in every complex containing it.  Relator ids:

    0..3    commutators of {a,b} letters with {c,d} letters
    4..27   triangles identifying kernel generator i with its two-letter word
    28..51  squares making the stable letter commute with kernel generator i

Vertices are normal forms; edges are `step` by a signed generator.  Searches
carry an explicit vertex budget so runaway queries fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    step,
)
from .words import EGEN_IDS, EGEN_LETTERS, S_ID, word_is_over

DEFAULT_BUDGET = 5_000_000


class SearchBudgetExceeded(RuntimeError):
    """A graph search visited more vertices than its budget allows."""


# ---------------------------------------------------------------------------
# master relator table
# ---------------------------------------------------------------------------

def _build_relators() -> tuple[tuple[int, ...], ...]:
    rels: list[tuple[int, ...]] = []
    for x in (1, 2):
        for y in (3, 4):
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


@dataclass(frozen=True)
class ComplexSpec:
    """A named complex: generators, relator slice, vertex membership test."""

    name: str
    gens: tuple[int, ...]
    relator_ids: tuple[int, ...]
    member: Callable[[SElement], bool]
    _values: tuple[SElement, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = dict.fromkeys(GEN_VALUES[gen] for gen in self.signed_gens())
        object.__setattr__(self, "_values", tuple(values))

    def signed_gens(self) -> tuple[int, ...]:
        return tuple(g for gen in self.gens for g in (gen, -gen))

    def step_values(self) -> tuple[SElement, ...]:
        """Distinct group values of the signed generators.

        Distinct two-letter generator words can agree as group elements
        (cross-factor pairs commute), so this is shorter than the signed
        generator list; it is the right stepping set for metric questions.
        """
        return self._values


LETTER_GENS = (1, 2, 3, 4)

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
            (5,) + EGEN_IDS,
            (),
            _tail_is_s_power,
        ),
        ComplexSpec(
            "gamma_h_bar",
            (5,) + EGEN_IDS,
            SQUARE_REL_IDS,
            _tail_is_s_power,
        ),
        ComplexSpec(
            "x",
            LETTER_GENS + (5,) + EGEN_IDS,
            tuple(range(len(REL_WORDS))),
            lambda v: True,
        ),
        ComplexSpec(
            "free_ab",
            (1, 2),
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
    values = spec.step_values()
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
    if not dist:
        return []
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
    gens = spec.signed_gens()
    while frontier:
        next_frontier: list[SElement] = []
        for v in frontier:
            for gen in gens:
                w = step(v, gen)
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
    vertex to its distance from the nearest center; nothing writes to it later."""

    def __init__(self, spec: ComplexSpec, centers: Iterable[SElement], radius: int) -> None:
        self.spec = spec
        self.centers = tuple(dict.fromkeys(centers))
        self.radius = radius
        super().__init__(neighborhood(spec, self.centers, radius))


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
    """
    if not 0 <= r < R:
        raise ValueError(f"need 0 <= r < R, got r={r}, R={R}")
    dist = ball(spec, R, budget=budget)
    values = spec.step_values()
    sizes: list[int] = []
    essential = 0
    # flood fill over the shell; a visited vertex has its distance zeroed,
    # which drops it out of the shell (r >= 0) without a separate seen set
    for v, d in dist.items():
        if d <= r:
            continue
        touches_outer = d == R
        dist[v] = 0
        stack = [v]
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for value in values:
                w = s_multiply(u, value)
                dw = dist.get(w, 0)
                if dw > r:
                    touches_outer |= dw == R
                    dist[w] = 0
                    stack.append(w)
        sizes.append(size)
        essential += touches_outer
    return {
        "complex": spec.name,
        "r": r,
        "R": R,
        "ball_size": len(dist),
        "shell_size": sum(sizes),
        "components": len(sizes),
        "essential_components": essential,
        "component_sizes": sorted(sizes, reverse=True),
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
            w = step(v, gen)
            if w in dist:
                lines.append(
                    f'  "{_vertex_name(v)}" -- "{_vertex_name(w)}"'
                    f' [label="{gen_to_token(gen)}"];'
                )
    lines.append("}")
    return "\n".join(lines)
