"""Planar diagrams for products of conjugated relators.

A diagram is a combinatorial map: darts come in twin pairs (the two sides
of an edge), every dart lies in exactly one face list or on the boundary,
and face lists chain head to origin.  That data determines the embedding,
so folding never touches rotation systems directly; validity is enforced
afterwards through the Euler count and the face-chaining checks.

Construction wedges one lollipop per factor (a stem spelling the
conjugator, a cycle spelling the relator) and then folds the boundary
until it spells the free reduction of the expression word.  Folding two
boundary edges that already share both endpoints zips a bigon shut and
pinches off a sphere, which is swept away at the fold that closes it; this
is also what reduces a factor times its mirror to a point.

Stable-letter edges on the boundary pair up through chains of square
faces, since no other relator mentions the stable letter.  The extraction
checks the pairing is non-crossing, that the two sides of every chain
carry the same labels, and that every square belongs to exactly one chain.
"""

from __future__ import annotations

import random
from operator import neg
from typing import NamedTuple

from .complexes import REL_WORDS, SQUARE_REL_IDS
from .elements import gen_to_token
from .homotopy import RELATOR_FORMS, inverse_path
from .words import S_ID, free_reduce

OUTER = -1

# random conjugators use the letters, the stable letter and e1, e6, e12, e24
CONJUGATOR_ALPHABET = (1, 2, 3, 4, 5, 6, 11, 17, 29)


class DiagramError(ValueError):
    """The expression does not assemble into a valid planar diagram."""


class ConjugateFactor(NamedTuple):
    """One factor u r^sign u^-1 of a product of conjugated relators."""

    conjugator: tuple[int, ...]
    relator_id: int
    sign: int

    def word(self) -> tuple[int, ...]:
        rel = REL_WORDS[self.relator_id]
        if self.sign < 0:
            rel = inverse_path(rel)
        return self.conjugator + rel + inverse_path(self.conjugator)


def expression_word(factors) -> tuple[int, ...]:
    return tuple(g for f in factors for g in f.word())


def _reachable(start: int, adjacency: dict[int, list[int]]) -> set[int]:
    """Nodes reachable from start along the adjacency lists (a flood fill)."""
    seen = {start}
    stack = [start]
    while stack:
        for u in adjacency.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


class Diagram:
    """A folded diagram; mutating methods are internal to the builder."""

    def __init__(self):
        self.label: dict[int, int] = {}
        self.origin: dict[int, int] = {}
        self.faces: dict[int, list[int]] = {}
        self.face_rid: dict[int, int] = {}
        self.face_of: dict[int, int] = {}
        self.boundary: list[int] = []
        self.basepoint = 0
        self._next_vertex = 1
        self._next_dart = 0

    def head(self, dart: int) -> int:
        return self.origin[dart ^ 1]

    def new_vertex(self) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        return v

    def new_edge(self, u: int, v: int, gen: int) -> int:
        d = self._next_dart
        self._next_dart += 2
        self.label[d] = gen
        self.label[d + 1] = -gen
        self.origin[d] = u
        self.origin[d + 1] = v
        return d

    # -- derived data ------------------------------------------------------

    def vertices(self) -> set[int]:
        verts = set(self.origin.values())
        verts.add(self.basepoint)
        return verts

    def edge_count(self) -> int:
        return len(self.label) // 2

    def boundary_word(self) -> tuple[int, ...]:
        return tuple(self.label[d] for d in self.boundary)

    def euler_characteristic(self) -> int:
        return len(self.vertices()) - self.edge_count() + len(self.faces) + 1

    # -- folding -----------------------------------------------------------

    def _delete_edge(self, dart: int) -> None:
        for d in (dart, dart ^ 1):
            del self.label[d]
            del self.origin[d]

    def _merge_vertex(self, old: int, new: int) -> None:
        for d, v in self.origin.items():
            if v == old:
                self.origin[d] = new
        if self.basepoint == old:
            self.basepoint = new

    def _fold_boundary(self) -> None:
        i = 0
        while i + 1 < len(self.boundary):
            d1, d2 = self.boundary[i], self.boundary[i + 1]
            if self.label[d2] != -self.label[d1]:
                i += 1
                continue
            del self.boundary[i : i + 2]
            if d2 == d1 ^ 1:
                # spur: the corner closes a full turn, so the tip is a leaf (a
                # sphere is swept at the fold that closes it, so none hangs here)
                tip = self.origin[d2]
                if sum(1 for v in self.origin.values() if v == tip) != 1:
                    raise DiagramError("spur tip is not a leaf")
                self._delete_edge(d1)
            else:
                td2 = d2 ^ 1
                if td2 in self.face_of:
                    fid = self.face_of.pop(td2)
                    cyc = self.faces[fid]
                    cyc[cyc.index(td2)] = d1
                    self.face_of[d1] = fid
                else:
                    self.boundary[self.boundary.index(td2)] = d1
                w = self.origin[td2]
                self._delete_edge(d2)
                # gluing a bigon shut pinches off a spherical component
                if w == self.origin[d1]:
                    self._sweep_spheres()
                else:
                    self._merge_vertex(w, self.origin[d1])
            i = max(i - 1, 0)

    def _sweep_spheres(self) -> None:
        """Remove face components not touching the outer face."""
        adjacency: dict[int, list[int]] = {}
        for d in self.label:
            face = self.face_of.get(d, OUTER)
            adjacency.setdefault(face, []).append(self.face_of.get(d ^ 1, OUTER))
        keep = _reachable(OUTER, adjacency)
        dead = [fid for fid in self.faces if fid not in keep]
        dead_darts = {d for fid in dead for d in self.faces[fid]}
        for d in dead_darts:
            if (d ^ 1) not in dead_darts:
                raise DiagramError("sphere shares an edge with the disk")
        for fid in dead:
            for d in self.faces[fid]:
                del self.face_of[d]
                if d in self.label:
                    self._delete_edge(d)
            del self.faces[fid]
            del self.face_rid[fid]

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        for d, gen in self.label.items():
            if self.label[d ^ 1] != -gen:
                raise DiagramError("twin labels are not inverse")
        placed = list(self.boundary)
        for cyc in self.faces.values():
            placed.extend(cyc)
        if sorted(placed) != sorted(self.label):
            raise DiagramError("darts are not partitioned by the faces")
        cycles = list(self.faces.values())
        if self.boundary:
            cycles.append(self.boundary)
            if self.origin[self.boundary[0]] != self.basepoint:
                raise DiagramError("boundary does not start at the basepoint")
        for cyc in cycles:
            for j, d in enumerate(cyc):
                if self.head(d) != self.origin[cyc[(j + 1) % len(cyc)]]:
                    raise DiagramError("face darts do not chain")
        for fid, cyc in self.faces.items():
            word = tuple(self.label[d] for d in cyc)
            hits = RELATOR_FORMS.get(word, ())
            if not any(rid == self.face_rid[fid] for rid, _, _ in hits):
                raise DiagramError(f"face {fid} does not read its relator")
        if self.euler_characteristic() != 2:
            raise DiagramError("diagram is not spherical")
        adjacency: dict[int, list[int]] = {}
        for d in self.label:
            adjacency.setdefault(self.origin[d], []).append(self.head(d))
        if _reachable(self.basepoint, adjacency) != self.vertices():
            raise DiagramError("diagram is not connected")

    # -- export ------------------------------------------------------------

    def to_json(self) -> dict[str, object]:
        edges = [
            {
                "from": self.origin[d],
                "to": self.head(d),
                "label": gen_to_token(self.label[d]),
            }
            for d in sorted(self.label)
            if d % 2 == 0
        ]
        return {
            "vertices": sorted(self.vertices()),
            "basepoint": self.basepoint,
            "edges": edges,
            "faces": [
                {
                    "relator": self.face_rid[fid],
                    "word": [gen_to_token(self.label[d]) for d in cyc],
                }
                for fid, cyc in sorted(self.faces.items())
            ],
            "boundary": [gen_to_token(g) for g in self.boundary_word()],
        }

    def to_dot(self) -> str:
        lines = ["digraph diagram {"]
        for v in sorted(self.vertices()):
            shape = "doublecircle" if v == self.basepoint else "circle"
            lines.append(f'  v{v} [shape={shape}, label="{v}"];')
        for d in sorted(self.label):
            if d % 2:
                continue
            token = gen_to_token(self.label[d])
            lines.append(
                f'  v{self.origin[d]} -> v{self.head(d)} [label="{token}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def build_diagram(factors) -> Diagram:
    """Assemble and fold the diagram of a product of conjugated relators."""
    factors = list(factors)
    dia = Diagram()
    for f in factors:
        if f.sign not in (1, -1):
            raise DiagramError("factor sign must be +1 or -1")
        if not 0 <= f.relator_id < len(REL_WORDS):
            raise DiagramError("unknown relator id")
        cur = dia.basepoint
        stem: list[int] = []
        for gen in f.conjugator:
            nxt = dia.new_vertex()
            stem.append(dia.new_edge(cur, nxt, gen))
            cur = nxt
        word = REL_WORDS[f.relator_id]
        if f.sign < 0:
            word = inverse_path(word)
        cycle: list[int] = []
        anchor = cur
        for j, gen in enumerate(word):
            nxt = anchor if j == len(word) - 1 else dia.new_vertex()
            cycle.append(dia.new_edge(cur, nxt, gen))
            cur = nxt
        fid = len(dia.faces)
        dia.faces[fid] = [d ^ 1 for d in reversed(cycle)]
        dia.face_rid[fid] = f.relator_id
        for d in dia.faces[fid]:
            dia.face_of[d] = fid
        dia.boundary.extend(stem)
        dia.boundary.extend(cycle)
        dia.boundary.extend(d ^ 1 for d in reversed(stem))
    dia._fold_boundary()
    dia.validate()
    if dia.boundary_word() != tuple(free_reduce(expression_word(factors), neg)):
        raise DiagramError("boundary does not spell the reduced expression")
    return dia


# ---------------------------------------------------------------------------
# stable-letter bands
# ---------------------------------------------------------------------------

class Band(NamedTuple):
    """A chain of squares joining two boundary stable-letter edges."""

    entry: int
    exit: int
    faces: tuple[int, ...]
    side: tuple[int, ...]


class BandDecomposition(NamedTuple):
    """Bands sorted by entry; depths[i] counts the bands enclosing band i."""

    bands: list[Band]
    depths: list[int]


def extract_bands(dia: Diagram) -> BandDecomposition:
    """Pair boundary stable-letter edges through their square chains."""
    boundary_pos = {d: i for i, d in enumerate(dia.boundary)}
    s_positions = [i for i, d in enumerate(dia.boundary) if abs(dia.label[d]) == S_ID]
    matched: dict[int, int] = {}
    bands: list[Band] = []
    used_squares: set[int] = set()
    for i in s_positions:
        if i in matched:
            continue
        d = dia.boundary[i]
        t = d ^ 1
        if t in boundary_pos:
            j = boundary_pos[t]
            band = Band(min(i, j), max(i, j), (), ())
        else:
            chain: list[int] = []
            side_a: list[int] = []
            side_b: list[int] = []
            cur = t
            while True:
                fid = dia.face_of.get(cur)
                if fid is None or dia.face_rid[fid] not in SQUARE_REL_IDS:
                    raise DiagramError("stable edge borders a non-square face")
                if fid in used_squares:
                    raise DiagramError("square shared between bands")
                used_squares.add(fid)
                chain.append(fid)
                cyc = dia.faces[fid]
                k = cyc.index(cur)
                rot = cyc[k:] + cyc[:k]
                if len(rot) != 4 or abs(dia.label[rot[2]]) != S_ID:
                    raise DiagramError("square face is malformed")
                side_a.append(dia.label[rot[1]])
                side_b.append(-dia.label[rot[3]])
                out = rot[2] ^ 1
                if out in boundary_pos:
                    j = boundary_pos[out]
                    break
                cur = out
            if side_a != side_b:
                raise DiagramError("band sides disagree")
            band = Band(min(i, j), max(i, j), tuple(chain), tuple(side_a))
        if j in matched or j == i:
            raise DiagramError("inconsistent band pairing")
        if dia.label[dia.boundary[band.entry]] != -dia.label[dia.boundary[band.exit]]:
            raise DiagramError("band endpoints have equal orientation")
        matched[i] = j
        matched[j] = i
        bands.append(band)
    all_squares = {
        fid for fid, rid in dia.face_rid.items() if rid in SQUARE_REL_IDS
    }
    if used_squares != all_squares:
        raise DiagramError("annular band of squares detected")
    bands.sort(key=lambda b: b.entry)
    # bands still open at the current entry, each nested in the one below,
    # so their count is the depth; a band that outlasts the innermost open
    # band crosses it
    depths: list[int] = []
    open_bands: list[Band] = []
    for b in bands:
        while open_bands and open_bands[-1].exit < b.entry:
            open_bands.pop()
        if open_bands and open_bands[-1].exit < b.exit:
            raise DiagramError("bands cross")
        depths.append(len(open_bands))
        open_bands.append(b)
    return BandDecomposition(bands, depths)


def band_invariants(dia: Diagram) -> dict[str, object]:
    """Checked summary of the band structure, for reporting."""
    decomposition = extract_bands(dia)
    bands = decomposition.bands
    word = dia.boundary_word()
    return {
        "boundary_length": len(word),
        "bands": len(bands),
        "squares": sum(len(b.faces) for b in bands),
        "band_lengths": [len(b.faces) for b in bands],
        "depths": decomposition.depths,
        "self_paired": sum(1 for b in bands if not b.faces),
    }


def random_expression(rng: random.Random, max_factors: int = 4) -> list[ConjugateFactor]:
    """Random factor list; adjacent mirror factors are redrawn away.

    Conjugators are reduced words of at most four letters over
    `CONJUGATOR_ALPHABET`.
    """
    factors: list[ConjugateFactor] = []
    for _ in range(rng.randint(1, max_factors)):
        while True:
            conj: list[int] = []
            for _ in range(rng.randint(0, 4)):
                g = rng.choice(CONJUGATOR_ALPHABET) * rng.choice((1, -1))
                if conj and conj[-1] == -g:
                    continue
                conj.append(g)
            factor = ConjugateFactor(
                tuple(conj), rng.randrange(len(REL_WORDS)), rng.choice((1, -1))
            )
            if factors and not free_reduce(factors[-1].word() + factor.word(), neg):
                continue
            factors.append(factor)
            break
    return factors
