"""Exact- and almost-similarity relations, index vs brute-force oracle."""

import functools
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from callgap import Corpus, Query, SimilarityParams, almost_similar, exactly_similar
from callgap.similarity import query_for
from conftest import random_corpus, similarity_of, usage
from oracle import brute_force_oracle, oracle_similarity


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


def test_a_plain_set_query_matches_as_its_frozenset():
    corpus = Corpus([usage("u0", "T", "c", {"a", "b"}), usage("u1", "T", "c", {"a", "b"}),
                     usage("u2", "T", "c", {"a", "b", "c"})])
    q = Query("T", "c", {"a", "b"})
    assert exactly_similar(q, corpus, P1) == 3
    assert almost_similar(q, corpus, P1) == ["u2"]
    assert exactly_similar(Query("T", "c", {"a", "b"}, exclude_id="u1"), corpus, P1) == 2


def bucket_size(corpus, uid):
    u = corpus.get(uid)
    return len(corpus.bucket(u.type_name, u.context))


def test_is_redundant(two_usage_corpus, three_button_corpus):
    assert not bucket_size(two_usage_corpus, "b") >= 2
    for uid in ("b", "aBut", "myBut"):
        assert bucket_size(three_button_corpus, uid) >= 2


def test_similarity_of_composition(three_button_corpus):
    assert similarity_of(query_for(three_button_corpus.get("b")), three_button_corpus, P1) == (
        2, ("myBut",))


def test_similarity_of_singleton(two_usage_corpus):
    assert similarity_of(query_for(two_usage_corpus.get("t")), two_usage_corpus, P1) == (1, ())


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
    rb = similarity_of(query_for(three_button_corpus.get("b")), three_button_corpus, P1)
    ra = similarity_of(query_for(three_button_corpus.get("aBut")), three_button_corpus, P1)
    assert rb == ra


@pytest.mark.parametrize("seed", range(25))
def test_index_matches_oracle_on_random_corpora(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_usages=60)
    for k in (1, 2, 3, 10**12):
        for use_context in (True, False):
            p = SimilarityParams(k=k, use_context=use_context)
            oracle = brute_force_oracle(corpus, p)
            for u in corpus:
                assert similarity_of(query_for(corpus.get(u.id)), corpus, p) == oracle[u.id]


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


HOT_VOCAB = [f"m{i}" for i in range(8)]
HOT_CALLS = st.frozensets(st.sampled_from(HOT_VOCAB), max_size=7)


@st.composite
def hot_corpus_and_queries(draw):
    """1-2 buckets of up to 200 usages over a vocabulary of 8 calls (the
    buckets may share a type, so --no-context merges them), then external
    queries asked in a drawn order at k 1..3 or 10**12, past every call-set,
    with and without context."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["T0", "T1"]), st.sampled_from(["c0()", "c1()"])),
                         min_size=1, max_size=2, unique=True))
    usages = []
    for b, (t, c) in enumerate(keys):
        n = draw(st.integers(0, 200))
        usages += [usage(f"b{b}u{i}", t, c, calls)
                   for i, calls in enumerate(draw(st.lists(HOT_CALLS, min_size=n, max_size=n)))]
    corpus = Corpus(usages)
    asked = []
    for _ in range(draw(st.integers(1, 12))):
        t, c = draw(st.sampled_from(keys + [("Unknown", "c0()"), (keys[0][0], "other()")]))
        bucket = corpus.bucket(t, c)
        if bucket and draw(st.booleans()):  # one call short of a usage's call-set
            calls = draw(st.sampled_from(bucket)).calls
            calls -= {draw(st.sampled_from(sorted(calls)))} if calls else set()
        else:  # any call-set, empty or absent from the corpus included
            calls = draw(HOT_CALLS | st.just(frozenset({"absent"})))
        kind = draw(st.sampled_from(["none", "same calls", "other calls", "other bucket", "unknown"]))
        pool = {"none": [None], "unknown": ["nope"],
                "same calls": [y.id for y in bucket if y.calls == calls],
                "other calls": [y.id for y in bucket if y.calls != calls],
                "other bucket": [y.id for y in corpus if (y.type_name, y.context) != (t, c)]}[kind]
        exclude_id = draw(st.sampled_from(pool)) if pool else None
        p = SimilarityParams(k=draw(st.integers(1, 3) | st.just(10**12)), use_context=draw(st.booleans()))
        asked.append((Query(t, c, calls, exclude_id), p))
    return corpus, asked


# Leave-one-out goes by bucket identity. The query is T/c0() {a}; u1-u3 are
# its bucket, v1/v2 share its type in another context and w1/w2 have another
# type. Each exclude_id is asked with and without context.
EXCLUDE_CORPUS = Corpus([usage("u1", "T", "c0()", "ab"), usage("u2", "T", "c0()", "a"),
                         usage("u3", "T", "c0()", "ab"), usage("v1", "T", "c1()", "a"),
                         usage("v2", "T", "c1()", "ab"), usage("w1", "S", "c0()", "a"),
                         usage("w2", "S", "c0()", "ab")])


def excluding(uid):
    q = Query("T", "c0()", frozenset("a"), exclude_id=uid)
    return EXCLUDE_CORPUS, [(q, SimilarityParams(use_context=c)) for c in (False, True)]


@given(hot_corpus_and_queries())
@example(excluding("v1"))  # same call-set, other context: |E| 3 -> 2 without context, 2 with
@example(excluding("v2"))  # an A member in another context: A [u1 u3 v2] -> [u1 u3], [u1 u3]
@example(excluding("w1"))  # another type, same call-set: nothing changes
@example(excluding("w2"))  # another type, a superset: nothing changes
@settings(max_examples=60, deadline=None)
def test_external_queries_match_oracle_on_hot_buckets(case):
    corpus, asked = case
    for q, p in asked:
        want = oracle_similarity(q, corpus, p)
        assert exactly_similar(q, corpus, p) == want.e_count, (q, p)
        assert almost_similar(q, corpus, p) == list(want.a_ids), (q, p)


@pytest.mark.parametrize("use_context", [True, False])
def test_callset_index_size_does_not_grow_with_the_bucket(use_context):
    # a hot bucket of n, 2n and 4n usages over a fixed 8-call vocabulary:
    # by_set partitions the bucket's positions, the size masks nest, and there
    # is at most one mask per distinct call plus one per size up to the largest
    for n in (150, 300, 600):
        rng = random.Random(n)
        corpus = Corpus([usage(f"u{i}", "T", "c()", rng.sample(HOT_VOCAB, rng.randint(0, 7)))
                         for i in range(n)])
        _, by_set, masks = corpus.callset_index("T", "c()", use_context)
        assert functools.reduce(operator.or_, by_set.values()) == (1 << n) - 1
        assert sum(bits.bit_count() for bits in by_set.values()) == n
        assert all(type(bits) is int for bits in masks.values())
        largest = max(map(len, by_set))
        assert all(masks[s + 1] & ~masks[s] == 0 for s in range(1, largest))
        assert len(masks) <= len(set().union(*by_set)) + largest <= len(HOT_VOCAB) + 7
