"""S-score arithmetic, ranking, distribution stats, histogram."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import callgap.scoring
from callgap import Corpus, SimilarityParams, score_all
from callgap.scoring import ScoredUsage, distribution_stats, histogram, s_score
from callgap.similarity import query_for
from conftest import random_corpus, usage
from oracle import brute_force_oracle, oracle_similarity


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


# The per-row definitions the distinct-score arithmetic must reproduce.
def _stats_per_row(scores, corpus):
    n = len(scores)
    vals = sorted(s.s_score for s in scores)
    n_red = sum(len(b) for b in corpus.bucket_index.values() if len(b) >= 2)
    return callgap.scoring.DistributionStats(
        n_usages=n,
        median_s=vals[(n - 1) // 2],
        mean_s=sum(vals, Fraction(0)) / n,
        frac_below_0_1=Fraction(sum(1 for v in vals if v < Fraction(1, 10)), n),
        frac_above_0_5=Fraction(sum(1 for v in vals if v > Fraction(1, 2)), n),
        frac_above_0_9=Fraction(sum(1 for v in vals if v > Fraction(9, 10)), n),
        n_redundant=n_red,
        frac_redundant=Fraction(n_red, n),
    )


def _histogram_per_row(scores, w):
    n_bins = int(-(-1 // w))
    counts = [0] * n_bins
    for s in scores:
        counts[min(int(s.s_score / w), n_bins - 1)] += 1
    return [(i * w, min((i + 1) * w, Fraction(1)), counts[i]) for i in range(n_bins)]


def _score_all_per_row(corpus, p):
    rows = []
    for u in corpus:
        r = oracle_similarity(query_for(u), corpus, p)
        rows.append(ScoredUsage(u.id, s_score(r.e_count, len(r.a_ids)), r.e_count, r.a_ids))
    return sorted(rows, key=lambda s: (-s.s_score, s.id))


# Scores as score_all makes them (equal values from different (e, a), such as
# 1/2 from (1, 1) and (2, 2)), plus bin edges and the three stats thresholds.
_EDGES = [Fraction(i, 20) for i in range(20)] + [Fraction(1, 3), Fraction(2, 3)]
_SCORES = st.one_of(st.builds(s_score, st.integers(1, 6), st.integers(0, 6)), st.sampled_from(_EDGES))
_WIDTHS = st.sampled_from([Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(3, 10),
                           Fraction(1, 3), Fraction(1, 2), Fraction(1)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SCORES, st.integers(1, 9), st.integers(0, 3)), min_size=1, max_size=40),
       _WIDTHS)
@example([(Fraction(1, 2), 1, 1), (Fraction(2, 4), 2, 2)], Fraction(1, 2))  # even n, one value twice
@example([(Fraction(1, 10), 1, 0), (Fraction(1, 2), 1, 0), (Fraction(9, 10), 1, 0)], Fraction(1, 10))
def test_distinct_score_arithmetic_matches_per_row_definitions(drawn, width):
    # each row gets its own Fraction object, and e/a that need not match the score
    rows = [ScoredUsage(f"u{i}", Fraction(v.numerator, v.denominator), e, ("x",) * a)
            for i, (v, e, a) in enumerate(drawn)]
    corpus = Corpus([usage(f"u{i}", "T", f"c{i % 3}()", {"m"}) for i in range(len(rows))])
    assert distribution_stats(rows, corpus) == _stats_per_row(rows, corpus)
    assert histogram(rows, width) == _histogram_per_row(rows, width)


@pytest.mark.parametrize("use_context", [True, False])
def test_score_all_order_matches_per_row_sort(use_context):
    p = SimilarityParams(use_context=use_context)
    for seed in range(30):
        corpus = random_corpus(random.Random(seed), max_usages=60)
        assert score_all(corpus, p) == _score_all_per_row(corpus, p)


@pytest.mark.parametrize("use_context", [True, False])
def test_score_all_ranks_equal_scores_of_distinct_pairs_alike(use_context):
    # (|E|, |A|) = (1, 1) and (2, 2) both score 1/2, and (1, 0) and (2, 0) both
    # score 0: each score's rows interleave by id across its pairs
    corpus = Corpus([usage("b", "X", "c()", {"a"}), usage("x", "X", "c()", {"a", "z"})]
                    + [usage(uid, "Y", "d()", calls) for uid, calls in
                       [("a", {"a"}), ("c", {"a"}), ("y1", {"a", "z"}), ("y2", {"a", "z"})]])
    p = SimilarityParams(use_context=use_context)
    rows = score_all(corpus, p)
    assert [(s.id, s.e_count, s.a_count) for s in rows] == [
        ("a", 2, 2), ("b", 1, 1), ("c", 2, 2), ("x", 1, 0), ("y1", 2, 0), ("y2", 2, 0)]
    assert rows == sorted(rows, key=lambda s: (-s.s_score, s.id))
    oracle = brute_force_oracle(corpus, p)
    assert {s.id: (s.e_count, s.a_ids) for s in rows} == {
        uid: (r.e_count, r.a_ids) for uid, r in oracle.items()}
    assert [s.s_score for s in rows] == [Fraction(1, 2)] * 3 + [0] * 3


def _counting(name):
    def op(self, *args):
        _Counted.ops += 1
        return getattr(Fraction, name)(self, *args)
    return op


# A score that counts the Fraction operations called on it.
_Counted = type("_Counted", (Fraction,), {"ops": 0, **{name: _counting(name) for name in (
    "__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__add__", "__radd__",
    "__mul__", "__rmul__", "__neg__", "__truediv__", "__rtruediv__")}})


def _ops(fn, *args):
    _Counted.ops = 0
    fn(*args)
    return _Counted.ops


def _five_scores(n):
    """n rows over 5 distinct scores, each row holding its own counted Fraction."""
    values = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(16, 17), Fraction(1, 20)]
    return [ScoredUsage(f"u{i}", _Counted(values[i % 5]), 1, ()) for i in range(n)]


def test_distribution_stats_does_fraction_work_per_distinct_score():
    def work(n):
        corpus = Corpus([usage(f"u{i}", "T", "c()", {"a"}) for i in range(n)])
        return _ops(distribution_stats, _five_scores(n), corpus)
    assert work(50) == work(200)


def test_histogram_does_fraction_work_per_distinct_score():
    def work(n):
        return _ops(histogram, _five_scores(n), Fraction(1, 20))
    assert work(50) == work(200)


def test_score_all_compares_no_row_score(monkeypatch):
    real = callgap.scoring.s_score
    monkeypatch.setattr(callgap.scoring, "s_score", lambda e, a: _Counted(real(e, a)))

    def corpus(m):  # every bucket scaled by m keeps each score, so the distinct keys and values hold
        sets = [{"a"}, {"a"}, {"a", "b"}, {"a", "b", "c"}, {"a", "c"}]
        return Corpus([usage(f"{ctx}-{i}-{j}", "T", f"{ctx}()", calls)
                       for ctx in "xyz" for i, calls in enumerate(sets[: 3 + "xyz".index(ctx)])
                       for j in range(m)])

    for use_context in (True, False):
        p = SimilarityParams(use_context=use_context)
        assert _ops(score_all, corpus(10), p) == _ops(score_all, corpus(40), p)
