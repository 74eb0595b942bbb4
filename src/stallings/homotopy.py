"""Edge-path homotopies as verifiable certificates.

A certificate records a starting vertex, an initial edge path (signed
generator labels), and a list of local moves that transform it into a final
path with the same endpoints.  Moves:

    ("ins", pos, gen)                insert the backtrack (gen, -gen) at pos
    ("del", pos)                     delete a backtrack at pos
    ("cell", pos, rid, inv, rot, split)
                                     push the path across 2-cell rid: with
                                     r the relator word (inverted if inv,
                                     rotated by rot), the segment r[:split]
                                     at pos is replaced by the inverse path
                                     of r[split:]

Every move fixes the path's endpoints, so a verified certificate is a
homotopy rel endpoints; with an empty final path it is a null-homotopy.
Verification checks that the start is a normal form and a vertex of the
named complex (a walk by its generators stays in the start's coset, so every
vertex is), walks the moves, checks each against the labels it claims to act
on, and tests every vertex the homotopy sweeps over against an optional
forbidden region.
Endpoint preservation inside a cell move follows from the relator being
trivial in the group, which is checked, not assumed.

`PathEditor` applies moves against live state so that positions are always
correct, and turns the recorded history into a certificate.  The block
constructors below it build the standard homotopies (commuting two blocks,
interleaving, pair conversion, conjugation by the stable letter, loop
contraction) out of single moves.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Container, Iterable, NamedTuple, Sequence

from .complexes import ComplexSpec, REL_WORDS, get_complex
from .elements import (
    SElement,
    gen_to_token,
    s_from_json,
    s_parts,
    s_to_json,
    step,
    token_to_gen,
    validate_s,
    walk,
)
from .words import AB_GENS, CD_GENS, EGEN_LETTERS, GEN_TOKENS, LETTERS_EGEN, S_ID

Move = tuple
Labels = tuple[int, ...]

CERTIFICATE_SCHEMA = "homotopy-certificate/1"

MOVE_ARITY = {"ins": 3, "del": 2, "cell": 6}


class CertificateError(ValueError):
    """A move does not apply to the path it claims to act on."""


def inverse_path(labels: Sequence[int]) -> Labels:
    return tuple(-g for g in reversed(labels))


# CELL_FORMS[rid, inv, rot]: 2-cell rid's word, inverted if inv, rotated by rot
CELL_FORMS: dict[tuple[int, int, int], Labels] = {
    (rid, inv, rot): form[rot:] + form[:rot]
    for rid, rel in enumerate(REL_WORDS)
    for inv, form in enumerate((rel, inverse_path(rel)))
    for rot in range(len(form))
}

# CELL_SPLITS[cell][split] = (form[:split], inverse_path(form[split:])): the side a
# cell move reads and the path it writes; the verifier reads them from this table.
# The path is a prefix of inverse_path(form), the entry (rid, 1 - inv, -rot % n)
CELL_SPLITS: dict[tuple[int, int, int], tuple[tuple[Labels, Labels], ...]] = {
    (rid, inv, rot): tuple((form[:i], back[: len(form) - i]) for i in range(len(form) + 1))
    for (rid, inv, rot), form in CELL_FORMS.items()
    for back in (CELL_FORMS[rid, 1 - inv, -rot % len(form)],)
}

# RELATOR_FORMS[word] holds the encodings (rid, inv, rot) that read word
RELATOR_FORMS: dict[Labels, tuple[tuple[int, int, int], ...]] = {}
for _cell, _word in CELL_FORMS.items():
    RELATOR_FORMS[_word] = RELATOR_FORMS.get(_word, ()) + (_cell,)


def find_cell_move(
    spec: ComplexSpec, pos: int, segment: Sequence[int], replacement: Sequence[int]
) -> Move:
    """Cell move replacing `segment` by `replacement` at pos, if a 2-cell
    of the complex realizes it."""
    word = tuple(segment) + inverse_path(replacement)
    for rid, inv, rot in RELATOR_FORMS.get(word, ()):
        if rid in spec.relator_ids:
            return ("cell", pos, rid, inv, rot, len(segment))
    raise CertificateError(
        f"no 2-cell of {spec.name} replaces {tuple(segment)} by {tuple(replacement)}"
    )


class Certificate(NamedTuple):
    """A recorded homotopy between two edge paths with shared endpoints."""

    complex_name: str
    start: SElement
    path: Labels
    moves: tuple[Move, ...]
    result: Labels
    description: str = ""


class VerificationResult(NamedTuple):
    ok: bool
    reason: str | None
    moves_checked: int
    swept: frozenset[SElement] = frozenset()
    end: SElement | None = None

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:  # without the swept vertices
        shown = (f"{k}={v!r}" for k, v in zip(self._fields, self) if k != "swept")
        return f"VerificationResult({', '.join(shown)})"


def _apply_move(
    spec: ComplexSpec, labels: list[int], verts: list[SElement], move: Move
) -> Sequence[SElement]:
    """Apply one move in place; returns the vertices the move creates.

    Raises CertificateError when the move does not match the labels or
    does not fix the path's endpoints.
    """
    # a move is a tuple of its kind and int fields (0.0 and True compare like
    # ints but are none); a cell's rid, inv and rot are checked in its branch
    kind = move[0] if type(move) is tuple and move else None
    if (type(kind) is not str or MOVE_ARITY.get(kind) != len(move)
            or not type(move[1]) is type(move[-1]) is int):
        raise CertificateError(f"malformed move {move!r}")
    if kind == "ins":
        _, pos, gen = move
        if not 0 <= pos <= len(labels):
            raise CertificateError(f"insert position {pos} out of range")
        if abs(gen) not in spec.gens:
            raise CertificateError(f"generator {gen} is not in {spec.name}")
        v = verts[pos]
        new = step(v, gen)
        labels[pos:pos] = (gen, -gen)
        verts[pos + 1 : pos + 1] = (new, v)
        return (new,)
    if kind == "del":
        _, pos = move
        if not 0 <= pos < len(labels) - 1:
            raise CertificateError(f"delete position {pos} out of range")
        if labels[pos + 1] != -labels[pos] or verts[pos + 2] != verts[pos]:
            raise CertificateError(f"labels at {pos} are not a backtrack")
        del labels[pos : pos + 2]
        del verts[pos + 1 : pos + 3]
        return ()
    if kind == "cell":
        _, pos, rid, inv, rot, split = move
        if not type(rid) is type(inv) is type(rot) is int:
            raise CertificateError(f"malformed move {move!r}")
        if rid not in spec.relator_ids:
            raise CertificateError(f"2-cell {rid} is not in {spec.name}")
        sides = CELL_SPLITS.get((rid, inv, rot))
        if sides is None:
            raise CertificateError(f"2-cell {rid} has no form inv={inv}, rot={rot}")
        if not 0 <= split < len(sides):
            raise CertificateError(f"split {split} out of range for 2-cell {rid}")
        if not 0 <= pos <= len(labels) - split:
            raise CertificateError(f"cell position {pos} out of range")
        side, replacement = sides[split]
        if tuple(labels[pos : pos + split]) != side:
            raise CertificateError(f"path at {pos} does not match 2-cell {rid} side {side}")
        walked = walk(verts[pos], replacement)
        # both sides of the cell must read the same group element
        if walked[-1] != verts[pos + split]:
            raise CertificateError(f"2-cell {rid} does not close at {pos}")
        created = walked[1:-1]
        labels[pos : pos + split] = replacement
        verts[pos + 1 : pos + split] = created
        return created


@lru_cache(maxsize=256)
def _is_normal_form(x: SElement) -> bool:
    """Whether x, three strings, is a vertex as `validate_s` stores one; cached,
    as the rewrite suite verifies a basepoint's certificates from one start."""
    try:
        return validate_s(*s_parts(x)) == x
    except ValueError:
        return False


def verify_certificate(
    cert: Certificate, forbidden: Container[SElement] = frozenset()
) -> VerificationResult:
    """Replay a certificate, checking every move and every swept vertex.

    `forbidden` is any container of vertices the homotopy must not touch.
    """
    spec = get_complex(cert.complex_name)
    start = cert.start
    # tuple.__new__ can give an SElement another length, so it is checked too
    if not (type(start) is SElement and len(start) == 3
            and type(start[0]) is type(start[1]) is type(start[2]) is str
            and _is_normal_form(start) and spec.member(start)):
        return VerificationResult(False, f"start is not a vertex of {spec.name}", 0)
    labels = list(cert.path)
    for i, gen in enumerate(labels):
        if type(gen) is not int or abs(gen) not in spec.gens:
            return VerificationResult(False, f"path label {i} is not a generator", 0)
    verts = walk(start, labels)
    swept = set(verts)
    for v in verts:
        if v in forbidden:
            return VerificationResult(False, "initial path enters forbidden region", 0)
    end = verts[-1]
    for mi, move in enumerate(cert.moves):
        try:
            created = _apply_move(spec, labels, verts, move)
        except CertificateError as exc:
            return VerificationResult(False, f"move {mi}: {exc}", mi)
        for v in created:
            if v in forbidden:
                return VerificationResult(False, f"move {mi} sweeps into forbidden region", mi)
            swept.add(v)
    # labels hold ints only, so a result entry like 1.0 or True must not compare equal
    if tuple(labels) != cert.result or not all(type(g) is int for g in cert.result):
        return VerificationResult(
            False, "moves do not produce the claimed final path", len(cert.moves)
        )
    return VerificationResult(True, None, len(cert.moves), frozenset(swept), end)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def _move_to_json(move: Move) -> list:
    if move[0] == "ins":
        return ["ins", move[1], gen_to_token(move[2])]
    return list(move)


def _move_from_json(data: Sequence) -> Move:
    kind = data[0] if isinstance(data, list) and data else None
    if not (isinstance(kind, str) and len(data) == MOVE_ARITY.get(kind)):
        raise ValueError(f"malformed move {data!r}")
    # exact types: JSON true/false is a bool, which subclasses int, and not an integer field
    if kind == "ins":
        if type(data[1]) is int and type(data[2]) is str:
            return ("ins", data[1], token_to_gen(data[2]))
    elif set(map(type, data[1:])) == {int}:
        return tuple(data)
    raise ValueError(f"malformed move {data!r}")


def _json_list(data: dict, key: str, item_type: type) -> list:
    value = data.get(key)
    if not (isinstance(value, list) and all(isinstance(x, item_type) for x in value)):
        raise ValueError(f"certificate field {key!r} must be a list of {item_type.__name__}")
    return value


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "schema": CERTIFICATE_SCHEMA,
        "complex": cert.complex_name,
        "start": s_to_json(cert.start),
        "path": [gen_to_token(g) for g in cert.path],
        "moves": [_move_to_json(m) for m in cert.moves],
        "result": [gen_to_token(g) for g in cert.result],
        "description": cert.description,
    }


def certificate_from_json(data: dict) -> Certificate:
    """Parse a certificate, checking its shape; raises ValueError if malformed."""
    if not isinstance(data, dict):
        raise ValueError("a certificate must be a JSON object")
    if data.get("schema") != CERTIFICATE_SCHEMA:
        raise ValueError(f"unsupported certificate schema {data.get('schema')!r}")
    if not isinstance(data.get("complex"), str):
        raise ValueError("certificate field 'complex' must be a string")
    if not isinstance(data.get("description", ""), str):
        raise ValueError("certificate field 'description' must be a string")
    return Certificate(
        complex_name=data["complex"],
        start=s_from_json(data.get("start")),
        path=tuple(token_to_gen(t) for t in _json_list(data, "path", str)),
        moves=tuple(_move_from_json(m) for m in _json_list(data, "moves", list)),
        result=tuple(token_to_gen(t) for t in _json_list(data, "result", str)),
        description=data.get("description", ""),
    )


# ---------------------------------------------------------------------------
# live editing
# ---------------------------------------------------------------------------

class PathEditor:
    """Builds a certificate by applying moves against live path state.

    Move positions refer to the current label list, so constructing and
    recording are the same act; `certificate()` freezes the history.
    Indexing reads the live labels without copying them (a slice is a fresh
    list); `labels` is a tuple snapshot.  The constructor checks each label
    against `spec`, raising `CertificateError`, and walks the path once.
    """

    def __init__(self, spec: ComplexSpec, start: SElement, labels: Iterable[int]):
        self.spec = spec
        self.start = start
        self._initial = tuple(labels)
        self._labels = list(self._initial)
        for gen in self._labels:
            # 1.0 and True hash like the id 1 but are not labels; name them by repr
            if type(gen) is not int or abs(gen) not in spec.gens:
                token = GEN_TOKENS.get(gen, gen) if type(gen) is int else repr(gen)
                raise CertificateError(f"label {token} is not a generator of {spec.name}")
        self._verts = walk(start, self._labels)
        self._moves: list[Move] = []

    @property
    def labels(self) -> Labels:
        return tuple(self._labels)

    def __getitem__(self, i):
        return self._labels[i]

    def __len__(self) -> int:
        return len(self._labels)

    def vertex(self, i: int) -> SElement:
        return self._verts[i]

    def _record(self, move: Move) -> None:
        _apply_move(self.spec, self._labels, self._verts, move)
        self._moves.append(move)

    def insert_backtrack(self, pos: int, gen: int) -> None:
        self._record(("ins", pos, gen))

    def delete_backtrack(self, pos: int) -> None:
        self._record(("del", pos))

    def replace(self, pos: int, length: int, replacement: Sequence[int]) -> None:
        """Replace a segment across whichever 2-cell realizes the exchange."""
        segment = self._labels[pos : pos + length]
        self._record(find_cell_move(self.spec, pos, segment, replacement))

    def insert_round_trip(self, pos: int, seg: Sequence[int]) -> None:
        """Insert seg followed by its inverse path at pos."""
        for i, gen in enumerate(seg):
            self.insert_backtrack(pos + i, gen)

    def certificate(self, description: str = "") -> Certificate:
        return Certificate(
            complex_name=self.spec.name,
            start=self.start,
            path=self._initial,
            moves=tuple(self._moves),
            result=tuple(self._labels),
            description=description,
        )


# ---------------------------------------------------------------------------
# block constructors
# ---------------------------------------------------------------------------

def swap_adjacent(editor: PathEditor, pos: int) -> None:
    """Exchange two adjacent commuting labels through a commuting cell."""
    x, y = editor[pos : pos + 2]
    editor.replace(pos, 2, (y, x))


def commute_block(editor: PathEditor, pos: int, left_len: int, right_len: int) -> None:
    """Move a block of length right_len leftward past one of length left_len.

    Every label of the right block must commute with every label of the
    left block through an available 2-cell; the sweep uses exactly
    left_len * right_len swaps and visits only grid vertices, products of a
    prefix of one block with a prefix of the other.
    """
    for j in range(right_len):
        # the j-th right label sits at pos+left_len+j and travels left
        for i in range(pos + left_len + j - 1, pos + j - 1, -1):
            swap_adjacent(editor, i)


def interleave_blocks(editor: PathEditor, pos: int, k: int) -> None:
    """Turn two commuting blocks of length k into their interleaving.

    (t1..tk, g1..gk) becomes (t1, g1, t2, g2, ..., tk, gk) using
    k(k-1)/2 swaps: each g(i+1) in turn moves left past t(i+2)..tk.
    """
    for i in range(k):
        commute_block(editor, pos + 2 * i + 1, k - i - 1, 1)


def convert_letter_pairs(editor: PathEditor, pos: int, pair_count: int) -> int:
    """Convert opposite-sign letter pairs to kernel-generator labels.

    Backtrack pairs vanish instead of converting.  Returns the length of
    the produced segment.
    """
    produced = 0
    cursor = pos
    for _ in range(pair_count):
        x, y = editor[cursor : cursor + 2]
        if y == -x:
            editor.delete_backtrack(cursor)
            continue
        gen = LETTERS_EGEN.get((x, y))
        if gen is None:
            word = gen_to_token(x) + gen_to_token(y)
            raise CertificateError(f"letter pair {word!r} is not a kernel generator")
        editor.replace(cursor, 2, (gen,))
        cursor += 1
        produced += 1
    return produced


def expand_kernel_generators(editor: PathEditor, pos: int, count: int) -> int:
    """Expand the kernel-generator labels among `count` labels at pos.

    Each kernel-generator label becomes its two-letter word; other labels
    are left in place.  Returns the length of the produced segment.
    """
    cursor = pos
    for _ in range(count):
        letters = EGEN_LETTERS.get(editor[cursor])
        if letters is None:
            cursor += 1
            continue
        editor.replace(cursor, 1, letters)
        cursor += 2
    return cursor - pos


def stack_stable_conjugations(editor: PathEditor, pos: int, length: int, levels: int) -> None:
    """Conjugate a kernel-generator segment by a power of the stable letter.

    Each level inserts a stable backtrack and slides its inverse across the
    segment through `length` square swaps: (s^levels, segment, s^-levels).
    """
    for i in range(levels):
        editor.insert_backtrack(pos + i, S_ID)
        commute_block(editor, pos + i + 1, 1, length)


def contract_product_loop(editor: PathEditor, pos: int, length: int) -> None:
    """Contract a closed letter loop with trivial factor projections.

    Interleaves leftmost backtrack deletions with leftmost swaps that move
    {a,b} letters in front of {c,d} letters.  Deletions shrink the loop and
    swaps strictly reduce the number of out-of-order pairs, so the loop
    empties within length^2 moves; a sorted nonempty remainder would spell
    a nontrivial projection, contradicting closedness.
    """
    if editor.vertex(pos) != editor.vertex(pos + length):
        raise CertificateError("segment is not a closed loop")
    budget = max(1, length) ** 2
    n = length
    used = 0
    while n:
        seg = editor[pos : pos + n]
        for i in range(n - 1):
            if seg[i + 1] == -seg[i]:
                editor.delete_backtrack(pos + i)
                n -= 2
                break
        else:
            for i in range(n - 1):
                if abs(seg[i]) in CD_GENS and abs(seg[i + 1]) in AB_GENS:
                    swap_adjacent(editor, pos + i)
                    break
            else:
                raise CertificateError("loop is not null-homotopic in the product")
        used += 1
        if used > budget:
            raise CertificateError("loop contraction exceeded its move budget")


def contract_kernel_generator_loop(editor: PathEditor, pos: int, count: int) -> None:
    """Null-homotope a closed stable-free loop of letters and kernel labels."""
    produced = expand_kernel_generators(editor, pos, count)
    contract_product_loop(editor, pos, produced)

