"""Candidate calls, likelihoods, and threshold filtering."""

import random
from fractions import Fraction

import pytest

from callgap import PredictionConfig, Query, SimilarityParams, almost_similar, likelihoods
from callgap.prediction import filter_recommendations
from conftest import random_corpus


P1 = SimilarityParams()


def loo_query(corpus, uid):
    u = corpus.get(uid)
    return Query(u.type_name, u.context, u.calls, exclude_id=uid)


def neighborhood(corpus, uid):
    q = loo_query(corpus, uid)
    return q, almost_similar(q, corpus, P1)


def test_candidate_calls_likelihood_corpus(likelihood_corpus):
    q, a_ids = neighborhood(likelihood_corpus, "x")
    assert {r.method for r in likelihoods(q, a_ids, likelihood_corpus)} == {"setText", "setFont"}


def test_candidate_calls_empty_neighborhood(likelihood_corpus):
    q = Query("Button", "elsewhere()", frozenset({"<init>"}))
    assert {r.method for r in likelihoods(q, [], likelihood_corpus)} == set()


def test_candidates_never_include_own_calls(likelihood_corpus):
    q, a_ids = neighborhood(likelihood_corpus, "x")
    assert "<init>" not in {r.method for r in likelihoods(q, a_ids, likelihood_corpus)}


def test_likelihoods_values_and_order(likelihood_corpus):
    q, a_ids = neighborhood(likelihood_corpus, "x")
    recs = likelihoods(q, a_ids, likelihood_corpus)
    assert [(r.method, r.likelihood, r.support) for r in recs] == [
        ("setText", Fraction(4, 5), 4),
        ("setFont", Fraction(1, 5), 1),
    ]


def test_likelihoods_sandra(sandra_corpus):
    q, a_ids = neighborhood(sandra_corpus, "sandra")
    recs = likelihoods(q, a_ids, sandra_corpus)
    assert [(r.method, r.likelihood) for r in recs] == [("setControl", Fraction(1))]


def test_likelihoods_single_neighbor(three_button_corpus):
    q, a_ids = neighborhood(three_button_corpus, "b")
    recs = likelihoods(q, a_ids, three_button_corpus)
    assert [(r.method, r.likelihood) for r in recs] == [("setLink", Fraction(1))]


def test_likelihoods_empty_is_empty_list(likelihood_corpus):
    q = loo_query(likelihood_corpus, "x")
    assert likelihoods(q, [], likelihood_corpus) == []


def test_missing_threshold_worked_example(likelihood_corpus):
    q, a_ids = neighborhood(likelihood_corpus, "x")
    recs = filter_recommendations(likelihoods(q, a_ids, likelihood_corpus),
                                  PredictionConfig(Fraction(3, 4)))
    assert [r.method for r in recs] == ["setText"]


def test_missing_t0_strict_keeps_all(likelihood_corpus):
    q, a_ids = neighborhood(likelihood_corpus, "x")
    recs = filter_recommendations(likelihoods(q, a_ids, likelihood_corpus),
                                  PredictionConfig(Fraction(0)))
    assert [r.method for r in recs] == ["setText", "setFont"]


def test_missing_t1_strict_is_empty(likelihood_corpus, sandra_corpus):
    for corpus, uid in ((likelihood_corpus, "x"), (sandra_corpus, "sandra")):
        q, a_ids = neighborhood(corpus, uid)
        recs = likelihoods(q, a_ids, corpus)
        assert filter_recommendations(recs, PredictionConfig(Fraction(1))) == []


def test_missing_t1_nonstrict_keeps_unanimous(sandra_corpus):
    q, a_ids = neighborhood(sandra_corpus, "sandra")
    recs = filter_recommendations(likelihoods(q, a_ids, sandra_corpus),
                                  PredictionConfig(Fraction(1), strict_comparison=False))
    assert [r.method for r in recs] == ["setControl"]


def test_threshold_bounds_checked():
    with pytest.raises(ValueError):
        PredictionConfig(Fraction(3, 2))


def test_filter_monotonicity_random():
    rng = random.Random(11)
    corpus = random_corpus(rng, max_usages=60)
    thresholds = [Fraction(i, 10) for i in range(11)]
    for u in corpus:
        q, a_ids = neighborhood(corpus, u.id)
        recs = likelihoods(q, a_ids, corpus)
        prev = None
        for t in thresholds:
            cur = {r.method for r in filter_recommendations(recs, PredictionConfig(t))}
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_support_sums_to_neighborhood_size_at_k1():
    rng = random.Random(13)
    corpus = random_corpus(rng, max_usages=60)
    for u in corpus:
        q, a_ids = neighborhood(corpus, u.id)
        recs = likelihoods(q, a_ids, corpus)
        # each k=1 neighbor has exactly one extra call
        assert sum(r.support for r in recs) == len(a_ids)
