"""The benchmark's three workloads: seeded inputs, one round, answer gates.

A workload is driven in rounds.  `inputs(seed, index)` makes the inputs of
round `index` from the seed alone (the program never sees the seed), and
`run_round` feeds them to the program through its public functions and
checks every answer.  A round's items are timed one by one; the round
ends in a checked result.

`DEFAULT_SEED` and `HELD_OUT_SEED` are the recorded seeds: for them the
outputs of round 0 are pinned exactly.  Claims are made on the default
seed and re-checked on the held-out one.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


@dataclass
class RoundResult:
    """Outcome of one round: item counts, work units and timed items.

    `items` holds one (start, end) perf_counter pair per call the round
    made into the program.
    """

    attempted: int = 0
    failed: int = 0
    units: int = 0
    items: list[tuple[float, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    digest: str = ""


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _free_word(rng: random.Random, bases: tuple[int, int], length: int) -> list[int]:
    """A uniformly random reduced word of the given length over two bases."""
    word: list[int] = []
    while len(word) < length:
        gen = rng.choice(bases) * rng.choice((1, -1))
        if not word or gen != -word[-1]:
            word.append(gen)
    return word


def _inverse(word) -> list[int]:
    return [-g for g in reversed(word)]


def _free_reduce(labels) -> tuple[int, ...]:
    out: list[int] = []
    for gen in labels:
        if out and out[-1] == -gen:
            out.pop()
        else:
            out.append(gen)
    return tuple(out)


class Rewrite:
    """Criterion 5's suite: every zero-sum word at 15 basepoints.

    One round is one `run_rewrite_suite` call over one basepoint for each
    syllable-split shape (i, n - i) of the 3 <= |v| <= 5 shell, drawn at
    random from that shape; the default seed's round 0 uses the program's
    own `transversal_bases()`.  Words go up to length 4 so that a round
    takes a few seconds and a run holds several.
    """

    name = "rewrite"
    unit = "verified rewrites/s"
    MAX_LEN = 4
    RADIUS = 2
    WORDS = 1569  # zero-sum words of length <= 4, the empty word included
    SHAPES = tuple((i, n - i) for n in (3, 4, 5) for i in range(n + 1))
    CASES = ["1", "2", "3", "4.1", "4.2", "4.3"]
    PINNED = {
        DEFAULT_SEED: {
            "runs": 21551,
            "skipped": 1984,
            "cases": {"1": 3528, "2": 1772, "3": 1772, "4.1": 1350, "4.2": 1314, "4.3": 860},
        },
        HELD_OUT_SEED: {
            "runs": 21565,
            "skipped": 1970,
            "cases": {"1": 3528, "2": 1780, "3": 1779, "4.1": 1353, "4.2": 1323, "4.3": 867},
        },
    }

    def setup(self, st):
        return {"st": st, "transversal": st.transversal_bases()}

    def inputs(self, ctx, seed: int, index: int):
        st = ctx["st"]
        if seed == DEFAULT_SEED and index == 0:
            return ctx["transversal"]
        rng = _rng(seed, index)
        bases = []
        for ab_len, cd_len in self.SHAPES:
            word = _free_word(rng, (1, 2), ab_len) + _free_word(rng, (3, 4), cd_len)
            bases.append(st.scan(word))
        return tuple(bases)

    def run_round(self, ctx, bases, seed: int, index: int) -> RoundResult:
        st = ctx["st"]
        t0 = perf_counter()
        report = st.run_rewrite_suite(bases, max_len=self.MAX_LEN, m=self.RADIUS)
        span = (t0, perf_counter())
        runs = report["runs"]
        errors = []
        if report["words"] != self.WORDS:
            errors.append(f"suite enumerated {report['words']} words, not {self.WORDS}")
        if not report["all_verified"] or report["verified"] != runs:
            errors.append(f"{runs - report['verified']} rewrites failed verification")
        if runs + report["skipped"] != len(bases) * self.WORDS:
            errors.append("runs + skipped != bases x words")
        if sorted(report["cases"]) != self.CASES:
            errors.append(f"cases fired: {sorted(report['cases'])}")
        pinned = self.PINNED.get(seed) if index == 0 else None
        if pinned is not None:
            got = {k: report[k] for k in ("runs", "skipped", "cases")}
            if got != pinned:
                errors.append(f"round 0 of seed {seed}: {got} != pinned {pinned}")
        return RoundResult(
            attempted=runs,
            failed=runs if errors else 0,
            units=report["verified"],
            items=[span],
            errors=errors,
        )

    def failed_round(self, bases) -> RoundResult:
        n = len(bases) * self.WORDS
        return RoundResult(attempted=n, failed=n)


class Ends:
    """Criterion 4's ends probe on four complexes at r = 1, 2, 3, R = r + 2.

    The Cayley graphs are vertex-transitive, so the work does not depend
    on the seed; every round repeats the same experiment.
    """

    name = "ends"
    unit = "BFS ball vertices/s"
    R_VALUES = (1, 2, 3)
    GAP = 2
    NAMES = ("gamma_k", "gamma_1", "gamma_h", "free_ab")
    ESSENTIAL = {
        "gamma_k": [1, 1, 1],
        "gamma_1": [1, 1, 1],
        "gamma_h": [1, 1, 1],
        "free_ab": [12, 36, 108],
    }
    BALL_VERTICES = 271_100

    def setup(self, st):
        return {"st": st, "complexes": [st.get_complex(name) for name in self.NAMES]}

    def inputs(self, ctx, seed: int, index: int):
        return self.NAMES

    def run_round(self, ctx, names, seed: int, index: int) -> RoundResult:
        st = ctx["st"]
        t0 = perf_counter()
        report = st.run_ends_experiment(r_values=self.R_VALUES, names=names, gap=self.GAP)
        span = (t0, perf_counter())
        rows = report["rows"]
        vertices = sum(row["ball_size"] for row in rows)
        errors = []
        if report["essential_components"] != self.ESSENTIAL:
            errors.append(f"essential components {report['essential_components']}")
        if vertices != self.BALL_VERTICES:
            errors.append(f"{vertices} ball vertices, not {self.BALL_VERTICES}")
        return RoundResult(
            attempted=len(rows),
            failed=len(rows) if errors else 0,
            units=vertices,
            items=[span],
            errors=errors,
        )

    def failed_round(self, names) -> RoundResult:
        n = len(names) * len(self.R_VALUES)
        return RoundResult(attempted=n, failed=n)


class Pipeline:
    """Criterion 7's mix: far loops and band-elimination expressions, 2:1.

    Loops are commutators of cross-factor words, or out-and-back words,
    based at random reduced vertices, with every vertex at distance >= 4
    from the identity; expressions are 1-4 conjugated relators.  Each item
    runs one driver against the radius-1 ball in `x`, serializes the
    report through `emit`, reads the certificate back from the JSON and
    replays it, as `pipeline --word`, `reduce-demo --expr` and
    `verify-cert` would.
    """

    name = "pipeline"
    unit = "verified runs/s"
    LOOPS = 200
    EXPRESSIONS = 100
    MIN_DISTANCE = 4
    MAX_HALF = 2
    MAX_FACTORS = 4
    MAX_CONJUGATOR = 4
    ALPHABET = (1, 2, 3, 4, 5, 6, 11, 17, 29)
    # sha256 of the concatenated `emit` output of round 0
    PINNED = {
        DEFAULT_SEED: "3d633e00432563e4a433fe249b456f565f01253b9aca806112832abd315e73f3",
        HELD_OUT_SEED: "a240ae1e2b7e2265eb653286341dbfc515247db2bd182ba0358cf10904c084d2",
    }

    def setup(self, st):
        region = st.ForbiddenRegion(st.get_complex("x"), (st.S_IDENTITY,), 1)
        return {"st": st, "region": region}

    def _far_loop(self, rng):
        while True:
            n = self.MIN_DISTANCE + rng.randint(1, 3)
            split = rng.randint(0, n)
            base = _free_word(rng, (1, 2), split) + _free_word(rng, (3, 4), n - split)
            if rng.random() < 0.25:
                out = _free_word(rng, rng.choice(((1, 2), (3, 4))), 2 * self.MAX_HALF)
                loop = out + _inverse(out)
            else:
                u = _free_word(rng, (1, 2), rng.randint(1, self.MAX_HALF))
                v = _free_word(rng, (3, 4), rng.randint(1, self.MAX_HALF))
                loop = u + v + _inverse(u) + _inverse(v)
            ab = [g for g in base if abs(g) <= 2]
            cd = [g for g in base if abs(g) > 2]
            nearest = len(ab) + len(cd)
            for gen in loop:
                part = ab if abs(gen) <= 2 else cd
                if part and part[-1] == -gen:
                    part.pop()
                else:
                    part.append(gen)
                nearest = min(nearest, len(ab) + len(cd))
            if nearest >= self.MIN_DISTANCE:
                return tuple(base), tuple(loop)

    def _expression(self, rng, st, relator_count: int):
        factors = []
        for _ in range(rng.randint(1, self.MAX_FACTORS)):
            while True:
                conj: list[int] = []
                for _ in range(rng.randint(0, self.MAX_CONJUGATOR)):
                    gen = rng.choice(self.ALPHABET) * rng.choice((1, -1))
                    if not conj or conj[-1] != -gen:
                        conj.append(gen)
                factor = st.ConjugateFactor(
                    tuple(conj), rng.randrange(relator_count), rng.choice((1, -1))
                )
                # a factor that cancels its neighbour is redrawn
                if factors and not _free_reduce(factors[-1].word() + factor.word()):
                    continue
                factors.append(factor)
                break
        return tuple(factors)

    def inputs(self, ctx, seed: int, index: int):
        st = ctx["st"]
        rng = _rng(seed, index)
        relator_count = len(st.complexes.REL_WORDS)
        items = []
        for i in range(self.LOOPS + self.EXPRESSIONS):
            if i % 3 == 2:
                items.append(("reduce", self._expression(rng, st, relator_count)))
            else:
                base, loop = self._far_loop(rng)
                items.append(("main", (st.scan(base), loop)))
        return items

    def run_round(self, ctx, items, seed: int, index: int) -> RoundResult:
        st = ctx["st"]
        region = ctx["region"]
        digest = hashlib.sha256()
        result = RoundResult()
        for kind, item in items:
            result.attempted += 1
            t0 = perf_counter()
            try:
                if kind == "main":
                    report = st.run_main_pipeline(item[0], item[1], region=region)
                else:
                    report = st.run_reduce_demo(item, region=region)
                text = st.emit(report)
                data = json.loads(text)
                replay = st.verify_certificate(
                    st.certificate_from_json(data["certificate"]), region
                )
            except Exception as exc:  # an item that raises is a failed item
                result.failed += 1
                result.errors.append(f"{kind} item {result.attempted - 1}: {exc!r}")
                continue
            result.items.append((t0, perf_counter()))
            digest.update(text.encode())
            if report.verified and data["verified"] and replay.ok:
                result.units += 1
            else:
                result.failed += 1
                result.errors.append(
                    f"{kind} item {result.attempted - 1}: verified={report.verified}"
                    f" replay={replay.reason}"
                )
        pinned = self.PINNED.get(seed) if index == 0 else None
        if pinned is not None and not result.errors and digest.hexdigest() != pinned:
            result.failed = result.attempted
            result.errors.append(
                f"round 0 of seed {seed}: reports sha256 {digest.hexdigest()}"
                f" != pinned {pinned}"
            )
        result.digest = digest.hexdigest()
        return result

    def failed_round(self, items) -> RoundResult:
        return RoundResult(attempted=len(items), failed=len(items))


WORKLOADS = {w.name: w for w in (Rewrite(), Ends(), Pipeline())}
