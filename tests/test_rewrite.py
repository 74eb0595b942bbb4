import hashlib
import random

import pytest

from oracles import replay_certificate
from stallings import rewrite
from stallings.complexes import ForbiddenRegion, get_complex
from stallings.elements import (
    S_IDENTITY,
    distance_to_identity,
    in_base_group,
    s_from_word,
    scan,
    walk,
)
from stallings.homotopy import CertificateError, verify_certificate
from stallings.rewrite import (
    is_kernel_form,
    rewrite_to_kernel_path,
    run_rewrite_suite,
    split_syllables,
    transversal_bases,
    zero_sum_walks,
    zero_sum_words,
)
from stallings.words import AB_GENS, CD_GENS, TOKEN_GENS, g_from_word, in_kernel

GAMMA_1 = get_complex("gamma_1")


def test_kernel_form_predicate():
    assert is_kernel_form(())
    assert is_kernel_form((1, -3))
    assert is_kernel_form((1, -1, 4, -2))
    assert not is_kernel_form((1, 3))
    assert not is_kernel_form((1, -3, 2))
    assert not is_kernel_form((-1, -3))


def test_split_syllables():
    assert split_syllables(()) == []
    assert split_syllables((1, 2, 1)) == [(AB_GENS, 1, 3)]
    assert split_syllables((1, -1)) == [(AB_GENS, 1, 1), (AB_GENS, -1, 1)]
    assert split_syllables((1, 2, -3, -4, -1)) == [
        (AB_GENS, 1, 2),
        (CD_GENS, -1, 2),
        (AB_GENS, -1, 1),
    ]


def test_commutator_loop_away_from_ball():
    """The square [a, c] based two steps out stays clear of the unit ball."""
    base = s_from_word("ac")
    report = rewrite_to_kernel_path(base, (1, 3, -1, -3))
    assert report.verified
    assert is_kernel_form(report.certificate.result)
    assert report.min_original_distance == 2
    assert report.min_swept_distance == 2
    assert set(report.cases) == {"1", "4.3"}
    # the whole homotopy verifies against the unit-ball forbidden region
    region = ForbiddenRegion(GAMMA_1, [S_IDENTITY], 1)
    res = verify_certificate(report.certificate, forbidden=region)
    assert res.ok
    # endpoints unchanged and the result is a loop in the kernel
    assert report.certificate.start == base
    assert in_kernel(g_from_word(scan_to_word(report.certificate.result)))


def scan_to_word(labels):
    return "".join(
        "abcd"[abs(g) - 1] if g > 0 else "abcd"[abs(g) - 1].upper() for g in labels
    )


CASE_WORDS = {
    "1": (1, 3, -1, -3),
    "2": (1, -1, -1, -3, 3, 4),
    "3": (1, 1, -1, -3),
    "4.1": (1, 2, -4, -4),
    "4.2": (1, 2, -3, -4),
    "4.3": (1, 2, -3, 3, -4, -4),
}


def test_each_case_reachable():
    base = s_from_word("ac")
    for case, word in CASE_WORDS.items():
        report = rewrite_to_kernel_path(base if case == "1" else S_IDENTITY, word)
        assert case in report.cases, (case, report.cases)
        assert report.verified


def test_frozen_small_rewrites():
    report = rewrite_to_kernel_path(S_IDENTITY, (1, 2, -4, -4))
    assert report.certificate.result == (1, -4, 2, -4)
    assert report.cases == {"4.1": 1}
    assert report.fallback_partner_used
    report = rewrite_to_kernel_path(s_from_word("ac"), (1, 3, -1, -3))
    assert report.certificate.result == (
        1, -4, 4, -2, 3, -2, 2, -4, 2, -4, 4, -1, 4, -2, 2, -3,
    )


def test_short_circuit_leaves_kernel_paths_alone():
    report = rewrite_to_kernel_path(s_from_word("b"), (1, -3, -2, 4))
    assert report.certificate.moves == ()
    assert report.cases == {}
    report = rewrite_to_kernel_path(S_IDENTITY, ())
    assert report.certificate.moves == ()


def test_input_validation():
    with pytest.raises(ValueError):
        rewrite_to_kernel_path(S_IDENTITY, (1, 1))
    with pytest.raises(ValueError):
        rewrite_to_kernel_path(S_IDENTITY, (6, -6))
    with pytest.raises(ValueError):
        rewrite_to_kernel_path(S_IDENTITY, (5, -5))


def test_path_into_forbidden_region_is_reported_unverified():
    region = ForbiddenRegion(get_complex("gamma_1"), (S_IDENTITY,), 2)
    report = rewrite_to_kernel_path(S_IDENTITY, (1, 3, -1, -3), forbidden=region)
    assert not report.verified
    assert report.min_swept_distance is None


def test_dipping_path_never_reaches_identity():
    """Both projections of the input dip; the sweep must not compound them."""
    base = s_from_word("Ad")
    labels = (1, 1, -4, -3)
    vertices = [base]
    for gen in labels:
        vertices.append(scan((gen,), start=vertices[-1]))
    assert min(distance_to_identity(v) for v in vertices) == 1
    report = rewrite_to_kernel_path(base, labels)
    assert report.verified
    assert report.min_swept_distance >= 1


def test_exhaustive_short_words():
    for base in (S_IDENTITY, s_from_word("aBc")):
        for word in zero_sum_words(4):
            report = rewrite_to_kernel_path(base, word)
            assert report.verified
            assert is_kernel_form(report.certificate.result)


def _random_zero_sum_word(rng, half):
    signs = [1] * half + [-1] * half
    rng.shuffle(signs)
    return tuple(s * rng.randint(1, 4) for s in signs)


def test_random_words_verify_and_replay():
    rng = random.Random(20260815)
    base_words = ["", "a", "cD", "abC", "BAdc", "aBcDa"]
    for trial in range(120):
        base = s_from_word(rng.choice(base_words))
        labels = _random_zero_sum_word(rng, rng.randint(1, 5))
        report = rewrite_to_kernel_path(base, labels)
        assert report.verified
        assert is_kernel_form(report.certificate.result)
        ok, reason, swept = replay_certificate(report.certificate)
        assert ok, reason
        assert report.min_swept_distance >= report.min_original_distance


def test_syllable_counts_strictly_decrease():
    rng = random.Random(7)
    for trial in range(60):
        labels = _random_zero_sum_word(rng, rng.randint(2, 6))
        report = rewrite_to_kernel_path(S_IDENTITY, labels)
        trace = report.syllable_counts
        assert all(b < a for a, b in zip(trace, trace[1:]))


def test_zero_sum_word_counts():
    assert sum(1 for _ in zero_sum_words(0)) == 1
    assert sum(1 for _ in zero_sum_words(2)) == 33
    assert sum(1 for _ in zero_sum_words(4)) == 1569
    assert sum(1 for _ in zero_sum_words(6)) == 83489


def test_suite_word_count_matches_the_walk():
    for n in range(7):
        assert run_rewrite_suite((), max_len=n)["words"] == len(zero_sum_words(n))


def test_zero_sum_words_order_is_pinned():
    """Criterion 8's corpus and the mutation fuzz sample from this sequence."""
    digest = hashlib.sha256(repr(list(zero_sum_words(6))).encode()).hexdigest()
    assert digest == "9ecddcb3ed6b3a6045085b733e67ead1c38f0ef6d675ea34bb1fbeee3f916134"


def test_zero_sum_walks_flag_the_words_that_enter_the_region():
    region = ForbiddenRegion(GAMMA_1, (S_IDENTITY,), 2)
    words = zero_sum_words(4)
    flags = set()
    # "ab" lies inside the region; from "aBc" and "abCdA" only some words dip
    for base in map(s_from_word, ("ab", "aBc", "abCdA")):
        walks = list(zero_sum_walks(base, 4, region))
        assert sorted(word for word, _ in walks) == sorted(words)
        for word, dipped in walks:
            assert dipped == any(v in region for v in walk(base, word))
        flags.add(frozenset(dipped for _, dipped in walks))
    assert flags == {frozenset({True}), frozenset({True, False})}


@pytest.mark.parametrize("m", [None, 2])
def test_projection_minima_equal_distance_to_identity(m):
    """Both minima read |p_ab| + |cd|; on the base group that is the distance."""
    rng = random.Random(2021)
    region = frozenset() if m is None else ForbiddenRegion(GAMMA_1, (S_IDENTITY,), m)
    for base in rng.sample(transversal_bases(), 5):
        words = [word for word, dipped in zero_sum_walks(base, 4, region) if not dipped]
        for word in rng.sample(words, 40):
            report = rewrite_to_kernel_path(base, word, forbidden=region)
            assert report.verified
            assert report.min_original_distance == min(map(distance_to_identity, walk(base, word)))
            swept = verify_certificate(report.certificate, region).swept
            assert all(map(in_base_group, swept))
            assert report.min_swept_distance == min(map(distance_to_identity, swept))


def test_rewriter_refuses_labels_that_are_not_letters():
    """The editor's generator check is the rewriter's one letter check."""
    for word in ((6, -6), (5, 6, -5, -6), (6,), (99,), (1.0, 3, -1, -3), (True, -1)):
        with pytest.raises(CertificateError, match="is not a generator of gamma_1"):
            rewrite_to_kernel_path(S_IDENTITY, word)
    # a label that only compares like a letter is named by its repr, not as the letter
    with pytest.raises(CertificateError, match="label 1.0 is not"):
        rewrite_to_kernel_path(S_IDENTITY, (1.0, 3, -1, -3))
    with pytest.raises(CertificateError, match="label True is not"):
        rewrite_to_kernel_path(S_IDENTITY, (True, -1))


def test_rewrite_that_sweeps_toward_the_identity_is_not_verified(monkeypatch):
    """A certificate that verifies but dips below the input's minimum distance
    fails the away-from-identity check."""
    away = rewrite._away_letter

    def toward(v, factor, sign):
        # the base the projection ends in, so repeated appends can cancel
        proj = v.p_ab if factor is AB_GENS else v.cd
        return (sign * abs(TOKEN_GENS[proj[-1]]), False) if proj else away(v, factor, sign)

    monkeypatch.setattr(rewrite, "_away_letter", toward)
    report = rewrite_to_kernel_path(transversal_bases()[0], (3, 4, -4, -2))
    assert verify_certificate(report.certificate).ok
    assert (report.min_original_distance, report.min_swept_distance) == (2, 1)
    assert not report.verified


def test_rewrite_whose_syllable_count_stalls_is_refused(monkeypatch):
    """A remainder whose syllable count does not fall between two passes
    raises instead of looping on."""
    word = (-4, -2, 4, 4)
    base = transversal_bases()[0]
    assert rewrite_to_kernel_path(base, word).syllable_counts == [3, 2]
    split = rewrite.split_syllables
    calls = []

    def padded(labels):
        # the k-th call repeats the last syllable k more times
        calls.append(None)
        syllables = split(labels)
        return syllables + syllables[-1:] * len(calls)

    monkeypatch.setattr(rewrite, "split_syllables", padded)
    with pytest.raises(CertificateError, match="the syllable count did not decrease"):
        rewrite_to_kernel_path(base, word)


def test_transversal_bases_cover_all_splits():
    bases = transversal_bases()
    assert len(bases) == 15
    from stallings.elements import s_to_g

    splits = {(len(s_to_g(b).ab), len(s_to_g(b).cd)) for b in bases}
    assert splits == {
        (i, n - i) for n in (3, 4, 5) for i in range(n + 1)
    }


def test_suite_smoke():
    report = run_rewrite_suite(max_len=2)
    assert report["runs"] == 15 * 33
    assert report["all_verified"]
    assert report["words"] == 33
