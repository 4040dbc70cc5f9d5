"""Exact- and almost-similarity relations, index vs brute-force oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from callgap import Query, SimilarityParams, almost_similar, exactly_similar
from callgap.evaluation import brute_force_oracle
from callgap.similarity import query_for, query_similarity
from conftest import random_corpus


P1 = SimilarityParams()


def leave_one_out_query(corpus, uid):
    u = corpus.get(uid)
    return Query(u.type_name, u.context, u.calls, exclude_id=uid)


def test_exactly_similar_counts_twin(three_button_corpus):
    q = leave_one_out_query(three_button_corpus, "b")
    assert exactly_similar(q, three_button_corpus, P1) == 2  # itself + aBut


def test_exactly_similar_unknown_type_is_self_only(three_button_corpus):
    q = Query("Unknown", "Page.createButton()", frozenset())
    assert exactly_similar(q, three_button_corpus, P1) == 1


def test_exactly_similar_empty_query_vs_sandra(sandra_corpus):
    q = leave_one_out_query(sandra_corpus, "sandra")
    assert exactly_similar(q, sandra_corpus, P1) == 1


def test_almost_similar_finds_superset_neighbor(three_button_corpus):
    q = leave_one_out_query(three_button_corpus, "b")
    assert almost_similar(q, three_button_corpus, P1) == ["myBut"]


def test_almost_similar_sandra_sees_all_sixteen(sandra_corpus):
    q = leave_one_out_query(sandra_corpus, "sandra")
    assert len(almost_similar(q, sandra_corpus, P1)) == 16


def test_almost_similar_likelihood_corpus(likelihood_corpus):
    q = leave_one_out_query(likelihood_corpus, "x")
    assert almost_similar(q, likelihood_corpus, P1) == ["a", "b2", "c", "d", "e"]


def test_almost_similar_no_superset(two_usage_corpus):
    q = leave_one_out_query(two_usage_corpus, "b")
    assert almost_similar(q, two_usage_corpus, P1) == []


def bucket_size(corpus, uid):
    u = corpus.get(uid)
    return len(corpus.bucket(u.type_name, u.context))


def test_is_redundant(two_usage_corpus, three_button_corpus):
    assert not bucket_size(two_usage_corpus, "b") >= 2
    for uid in ("b", "aBut", "myBut"):
        assert bucket_size(three_button_corpus, uid) >= 2


def test_similarity_of_composition(three_button_corpus):
    r = query_similarity(query_for(three_button_corpus.get("b")), three_button_corpus, P1)
    assert r.e_count == 2
    assert r.a_ids == ("myBut",)


def test_similarity_of_singleton(two_usage_corpus):
    r = query_similarity(query_for(two_usage_corpus.get("t")), two_usage_corpus, P1)
    assert r.e_count == 1
    assert r.a_ids == ()


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        SimilarityParams(k=0)


def test_anti_symmetry_k1(three_button_corpus):
    # myBut is a superset of b, so b cannot be a superset of myBut
    qb = leave_one_out_query(three_button_corpus, "b")
    qm = leave_one_out_query(three_button_corpus, "myBut")
    assert "myBut" in almost_similar(qb, three_button_corpus, P1)
    assert "b" not in almost_similar(qm, three_button_corpus, P1)


def test_e_equivalent_usages_get_identical_results(three_button_corpus):
    rb = query_similarity(query_for(three_button_corpus.get("b")), three_button_corpus, P1)
    ra = query_similarity(query_for(three_button_corpus.get("aBut")), three_button_corpus, P1)
    assert rb == ra


@pytest.mark.parametrize("seed", range(25))
def test_index_matches_oracle_on_random_corpora(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_usages=60)
    for k in (1, 2, 3):
        for use_context in (True, False):
            p = SimilarityParams(k=k, use_context=use_context)
            oracle = brute_force_oracle(corpus, p)
            for u in corpus:
                assert query_similarity(query_for(corpus.get(u.id)), corpus, p) == oracle[u.id]


@pytest.mark.parametrize("seed", range(10))
def test_k_monotonicity_and_context_ablation_superset(seed):
    rng = random.Random(1000 + seed)
    corpus = random_corpus(rng, max_usages=60)
    for u in corpus:
        q = leave_one_out_query(corpus, u.id)
        prev = set()
        for k in (1, 2, 3):
            cur = set(almost_similar(q, corpus, SimilarityParams(k=k)))
            assert prev <= cur
            prev = cur
        with_ctx = set(almost_similar(q, corpus, SimilarityParams()))
        no_ctx = set(almost_similar(q, corpus, SimilarityParams(use_context=False)))
        assert with_ctx <= no_ctx


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_redundancy_matches_pairwise_definition(seed):
    corpus = random_corpus(random.Random(seed), max_usages=40)
    for u in corpus:
        pairwise = any(
            y.id != u.id and y.type_name == u.type_name and y.context == u.context
            for y in corpus
        )
        assert (bucket_size(corpus, u.id) >= 2) == pairwise
