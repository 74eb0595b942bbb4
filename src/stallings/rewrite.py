"""Rewriting letter paths into kernel-generator form, away from a basepoint.

A letter path whose exponent sum is zero is homotopic, through commuting
cells and backtrack insertions, to a path whose consecutive letter pairs
have opposite signs; each pair then spells a kernel generator (or a
backtrack).  The rewriting never moves toward the identity: every vertex it
sweeps over lies at an original path vertex's distance plus a nonnegative
offset, because inserted blocks repeat a letter chosen not to cancel into
the relevant projection, and every interleaving pairs such an inserted
block with at most one block of the original path.

The case analysis works on the first two syllables (maximal same-factor,
same-sign runs) of the unprocessed remainder.  With F the first syllable's
factor and s its sign, the second syllable falls into one of:

    1    opposite factor, same sign: partner the first syllable and merge
    2    same factor, opposite sign, at least as long: partner and pair off
    3    same factor, opposite sign, shorter: extend it away, then as 2
    4    opposite factor, opposite sign: partner, cancel the seam, and
         bridge the leftovers through a partner in the other factor;
         4.1 a leftover is empty, 4.2 the path side is at least as long
         as the inserted side, 4.3 it is shorter and gets extended

Each case removes at least one syllable from the remainder, so the
rewriting terminates.  A remainder that is already in paired form is left
untouched.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import NamedTuple, Sequence

from .complexes import ForbiddenRegion, get_complex
from .elements import (
    S_IDENTITY,
    SElement,
    check_base_group,
    s_from_word,
    step,
)
from .homotopy import (
    Certificate,
    CertificateError,
    PathEditor,
    interleave_blocks,
    verify_certificate,
)
from .words import AB_GENS, AB_LETTERS, CD_GENS, CD_LETTERS, LETTER_GENS, TOKEN_GENS

GAMMA_1 = get_complex("gamma_1")

# the enumerator's letter order: each letter, then its inverse
_WALK_LETTERS = tuple(sign * gen for gen in LETTER_GENS for sign in (1, -1))


def is_kernel_form(labels: Sequence[int]) -> bool:
    """Even length, every consecutive pair of opposite signs."""
    if len(labels) % 2:
        return False
    return all(
        (labels[i] > 0) != (labels[i + 1] > 0) for i in range(0, len(labels), 2)
    )


def split_syllables(labels: Sequence[int]) -> list[tuple[tuple[int, ...], int, int]]:
    """Maximal runs of same-factor, same-sign letters as (factor, sign, length),
    where the factor is `AB_GENS` or `CD_GENS` itself and compares with `is`."""
    out: list[tuple[tuple[int, ...], int, int]] = []
    for gen in labels:
        factor = AB_GENS if abs(gen) in AB_GENS else CD_GENS
        sign = 1 if gen > 0 else -1
        if out and out[-1][0] is factor and out[-1][1] == sign:
            out[-1] = (factor, sign, out[-1][2] + 1)
        else:
            out.append((factor, sign, 1))
    return out


def _away_letter(v: SElement, factor: tuple[int, ...], sign: int) -> tuple[int, bool]:
    """A letter of the factor (`AB_GENS` or `CD_GENS`) and sign whose
    repetitions move away from v.

    Picks the factor's letter other than the one v's projection ends in,
    so repeated appends never cancel; an empty projection falls back to
    the factor's second letter, which is reported so callers can flag it.
    """
    proj = v.p_ab if factor is AB_GENS else v.cd
    if not proj:
        return sign * factor[1], True
    last_base = abs(TOKEN_GENS[proj[-1]])
    return sign * (factor[0] if last_base != factor[0] else factor[1]), False


class RewriteReport(NamedTuple):
    """Outcome of one rewriting run, with its checked certificate."""

    certificate: Certificate
    cases: dict[str, int]
    fallback_partner_used: bool
    min_original_distance: int
    min_swept_distance: int | None
    verified: bool
    syllable_counts: list[int]


class Rewriter:
    """The six-case rewriting of a zero-sum letter path from a base-group start.
    Building it makes `rewrite_to_kernel_path`'s input checks; `run` returns
    the certificate unreplayed and keeps `cases`, `fallback` and `trace`."""

    def __init__(self, start: SElement, labels: tuple[int, ...]):
        check_base_group(start)
        self.ed = PathEditor(GAMMA_1, start, labels)
        if sum(1 if g > 0 else -1 for g in labels) != 0:
            raise ValueError("path has nonzero exponent sum")
        self.cases: Counter[str] = Counter()
        self.fallback = False
        self.trace: list[int] = []

    def _insert_partner(
        self, pos: int, length: int, factor: tuple[int, ...], sign: int
    ) -> None:
        """Insert an away-moving round trip of `length` copies of one letter."""
        gen, fellback = _away_letter(self.ed.vertex(pos), factor, sign)
        self.fallback |= fellback
        self.ed.insert_round_trip(pos, (gen,) * length)

    def run(self) -> Certificate:
        """Rewrite the whole path into kernel-pair form; returns its certificate."""
        ed = self.ed
        trace = self.trace
        pos = 0
        while pos < len(ed):
            rem = ed[pos:]
            if is_kernel_form(rem):
                break
            syllables = split_syllables(rem)
            trace.append(len(syllables))
            if len(trace) >= 2 and trace[-1] >= trace[-2]:
                raise CertificateError("the syllable count did not decrease")
            if len(syllables) < 2:
                raise CertificateError("a zero-sum remainder has at least two syllables")
            factor, sign, k1 = syllables[0]
            factor2, sign2, k2 = syllables[1]
            other = CD_GENS if factor is AB_GENS else AB_GENS
            # partner the first syllable and interleave it away
            self._insert_partner(pos + k1, k1, other, -sign)
            interleave_blocks(ed, pos, k1)
            pos += 2 * k1
            # the inverted partner block, k1 letters of `other` with sign,
            # now sits at pos, in front of the second syllable
            if factor2 is other and sign2 == sign:
                self.cases["1"] += 1  # merges with the partner block
                continue
            if factor2 is factor:
                if k2 >= k1:
                    self.cases["2"] += 1
                else:
                    self.cases["3"] += 1
                    self._insert_partner(pos + k1 + k2, k1 - k2, factor, -sign)
                interleave_blocks(ed, pos, k1)
                pos += 2 * k1
                continue
            # case 4: the second syllable has the partner's factor and sign;
            # cancel the seam between the inverted partner and the syllable
            q = 0
            while q < min(k1, k2) and ed[pos + k1 - q] == -ed[pos + k1 - q - 1]:
                ed.delete_backtrack(pos + k1 - q - 1)
                q += 1
            k_left, k_right = k1 - q, k2 - q
            if k_left == 0 or k_right == 0:
                self.cases["4.1"] += 1
                continue
            self._insert_partner(pos + k_left, k_left, factor, -sign)
            interleave_blocks(ed, pos, k_left)
            pos += 2 * k_left
            if k_right >= k_left:
                self.cases["4.2"] += 1
            else:
                self.cases["4.3"] += 1
                self._insert_partner(pos + k_left + k_right, k_left - k_right, other, -sign)
            interleave_blocks(ed, pos, k_left)
            pos += 2 * k_left
        return ed.certificate()


def rewrite_to_kernel_path(
    start: SElement,
    labels: tuple[int, ...],
    forbidden=frozenset(),
) -> RewriteReport:
    """Rewrite a zero-sum letter path into kernel-generator pair form.

    `Rewriter(start, labels).run()`, then its check: the certificate must
    end in kernel-pair form and replay against `forbidden`, and the
    away-from-identity guarantee must hold; a failed check clears `verified`.
    Both minima are exact base-group distances |p_ab| + |cd|: the start passes
    `check_base_group`, and letter moves keep every original and swept vertex
    in the base group, where `distance_to_identity` reads the same.
    """
    rewriter = Rewriter(start, labels)
    min_original = min(len(v.p_ab) + len(v.cd) for v in rewriter.ed._verts)
    cert = rewriter.run()
    min_swept = min_original
    verified = is_kernel_form(cert.result)
    if verified:
        res = verify_certificate(cert, forbidden)
        # a rejected certificate sweeps nothing; a verified rewriting never
        # moves toward the identity
        min_swept = min((len(v.p_ab) + len(v.cd) for v in res.swept), default=None)
        verified = res.ok and min_swept >= min_original
    return RewriteReport(cert, rewriter.cases, rewriter.fallback, min_original, min_swept,
                         verified, rewriter.trace)


# ---------------------------------------------------------------------------
# exhaustive harness
# ---------------------------------------------------------------------------

def zero_sum_walks(start: SElement, max_len: int, region=frozenset()):
    """(word, dipped) for each zero-sum letter word of length <= max_len.

    Walks depth first from start, stepping each prefix once and only while a
    zero-sum completion fits; only the prefix's last vertex is kept.
    `dipped` says whether the path `walk(start, word)` enters `region`.
    """
    stack = [((), start, 0, start in region)]
    while stack:
        word, v, es, dipped = stack.pop()
        if es == 0:
            yield word, dipped
        room = max_len - len(word) - 1
        for g in _WALK_LETTERS:
            es_g = es + (1 if g > 0 else -1)
            if abs(es_g) <= room:
                w = step(v, g)
                stack.append((word + (g,), w, es_g, dipped or w in region))


def zero_sum_words(max_len: int) -> list[tuple[int, ...]]:
    """All zero-sum letter words of length <= max_len, shortest first, in walk order."""
    return sorted((word for word, _ in zero_sum_walks(S_IDENTITY, max_len)), key=len)


def transversal_bases() -> tuple[SElement, ...]:
    """One base vertex per factor-length split (i, n-i) for 3 <= n <= 5.

    Each factor's part reads its alphabet (`AB_LETTERS`, `CD_LETTERS`)
    cyclically, so the words mix letters and signs; the split shapes drive
    which partner and seam cases the rewriting can reach.
    """
    return tuple(
        s_from_word((AB_LETTERS * n)[:i] + (CD_LETTERS * n)[: n - i])
        for n in (3, 4, 5)
        for i in range(n + 1)
    )


def run_rewrite_suite(
    bases: tuple[SElement, ...] | None = None,
    max_len: int = 6,
    m: int | None = None,
) -> dict[str, object]:
    """Rewrite every zero-sum word of length <= max_len at every base.

    Verifies each certificate and the away-from-identity guarantee, and
    aggregates which cases fired.  With `m` set, words whose path dips
    into the radius-m ball around the identity are skipped (the rewriting
    guarantee applies to paths outside it) and every certificate is
    verified against that ball as a forbidden region.
    """
    if bases is None:
        bases = transversal_bases()
    region = frozenset() if m is None else ForbiddenRegion(GAMMA_1, (S_IDENTITY,), m)
    cases: Counter[str] = Counter()
    runs = 0
    verified = 0
    skipped = 0
    fallback_runs = 0
    max_moves = 0
    for base in bases:
        for word, dipped in zero_sum_walks(base, max_len, region):
            if dipped:
                skipped += 1
                continue
            report = rewrite_to_kernel_path(base, word, forbidden=region)
            runs += 1
            verified += report.verified
            fallback_runs += report.fallback_partner_used
            max_moves = max(max_moves, len(report.certificate.moves))
            cases.update(report.cases)
    return {
        "bases": len(bases),
        # zero-sum words of length 2j: j positive positions, four letters at each
        "words": sum(comb(2 * j, j) * 16**j for j in range(max_len // 2 + 1)),
        "ball_radius": m,
        "skipped": skipped,
        "runs": runs,
        "verified": verified,
        "all_verified": verified == runs,
        "cases": dict(sorted(cases.items())),
        "fallback_runs": fallback_runs,
        "max_moves": max_moves,
    }
