"""S-score arithmetic, ranking, distribution stats, histogram."""

import random
from fractions import Fraction

import pytest

from callgap import Corpus, SimilarityParams, score_all
from callgap.scoring import ScoredUsage, distribution_stats, histogram, s_score
from conftest import random_corpus, usage


P1 = SimilarityParams()


def test_score_extremes():
    assert s_score(1, 0) == 0
    assert s_score(1, 99) == Fraction(99, 100)


def test_score_sandra_value():
    assert s_score(1, 16) == Fraction(16, 17)


def test_score_rejects_zero_e():
    with pytest.raises(ValueError):
        s_score(0, 5)


def test_score_monotonicity():
    for e in range(1, 6):
        for a in range(0, 6):
            assert s_score(e, a + 1) > s_score(e, a)
            if a > 0:  # at a=0 the score is 0 for every e
                assert s_score(e + 1, a) < s_score(e, a)
            assert 0 <= s_score(e, a) < 1


def test_score_all_unique_buckets_all_zero(two_usage_corpus):
    assert all(s.s_score == 0 for s in score_all(two_usage_corpus, P1))


def test_score_all_three_buttons(three_button_corpus):
    by_id = {s.id: s for s in score_all(three_button_corpus, P1)}
    assert by_id["b"].s_score == Fraction(1, 3)
    assert by_id["aBut"].s_score == Fraction(1, 3)
    assert by_id["myBut"].s_score == 0


def test_score_all_ordering_and_determinism(sandra_corpus):
    scores = score_all(sandra_corpus, P1)
    assert scores[0].id == "sandra"
    assert scores[0].s_score == Fraction(16, 17)
    # ties broken by id ascending; repeat runs identical
    assert scores == score_all(sandra_corpus, P1)
    tail = [s.id for s in scores[1:]]
    assert tail == sorted(tail)


def test_planted_deviant_scores_highest():
    conv = {"open", "use", "close"}
    usages = [usage(f"u{i}", "T", "c()", conv) for i in range(100)]
    usages.append(usage("dev", "T", "c()", conv - {"close"}))
    scores = score_all(Corpus(usages), P1)
    assert scores[0].id == "dev"
    assert scores[0].s_score == Fraction(100, 101)
    assert all(s.s_score == 0 for s in scores[1:])


def test_distribution_stats_all_zero(two_usage_corpus):
    stats = distribution_stats(score_all(two_usage_corpus, P1), two_usage_corpus)
    assert stats.median_s == 0
    assert stats.mean_s == 0
    assert stats.frac_below_0_1 == 1
    assert stats.frac_above_0_5 == 0
    assert stats.frac_above_0_9 == 0
    assert stats.n_redundant == 0


def test_distribution_stats_mixed(sandra_corpus):
    stats = distribution_stats(score_all(sandra_corpus, P1), sandra_corpus)
    assert stats.n_usages == 17
    assert stats.median_s == 0  # lower-middle of 16 zeros + one 16/17
    assert stats.mean_s == Fraction(16, 17) / 17
    assert stats.frac_above_0_9 == Fraction(1, 17)
    assert stats.n_redundant == 17  # all share one bucket


def test_distribution_stats_empty_rejected(two_usage_corpus):
    with pytest.raises(ValueError):
        distribution_stats([], two_usage_corpus)


def test_distribution_stats_rejects_a_partial_score_list(sandra_corpus):
    scores = score_all(sandra_corpus, P1)
    with pytest.raises(ValueError):
        distribution_stats(scores[1:], sandra_corpus)


def test_distribution_stats_match_bruteforce_recount():
    corpus = random_corpus(random.Random(7), max_usages=80)
    scores = score_all(corpus, P1)
    stats = distribution_stats(scores, corpus)
    vals = sorted(s.s_score for s in scores)
    assert stats.median_s == vals[(len(vals) - 1) // 2]
    assert stats.mean_s == sum(vals, Fraction(0)) / len(vals)
    assert stats.frac_below_0_1 * len(vals) == sum(1 for v in vals if v < Fraction(1, 10))


def _scored(values):
    return [ScoredUsage(f"u{i}", Fraction(v), 1, ()) for i, v in enumerate(values)]


def test_histogram_simple():
    hist = histogram(_scored([0, 0, Fraction(1, 2)]), Fraction(1, 2))
    assert hist == [
        (Fraction(0), Fraction(1, 2), 2),
        (Fraction(1, 2), Fraction(1), 1),
    ]


def test_histogram_empty_input():
    hist = histogram([], Fraction(1, 4))
    assert [c for _, _, c in hist] == [0, 0, 0, 0]


def test_histogram_conserves_total():
    rng = random.Random(3)
    values = [Fraction(rng.randrange(100), 101) for _ in range(57)]
    for width in (Fraction(1, 20), Fraction(3, 10), Fraction(1)):
        hist = histogram(_scored(values), width)
        assert sum(c for _, _, c in hist) == 57
        assert hist[-1][1] == 1


def test_histogram_rejects_bad_width():
    with pytest.raises(ValueError):
        histogram([], 0)
