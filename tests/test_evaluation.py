"""Degradation protocol, batch metrics, sweeps, generator, oracle."""

import io
import random
from dataclasses import fields
from fractions import Fraction

import pytest

import callgap.cli
import callgap.evaluation
from callgap import Corpus, EvalConfig, PredictionConfig, SimilarityParams, evaluate
from callgap.corpus import write_corpus
from callgap.evaluation import (
    EvalReport,
    SyntheticSpec,
    aggregate,
    gen_synthetic,
    generate_degraded,
    run_query,
    sweep_k,
    sweep_threshold,
)
from callgap.scoring import s_score
from conftest import random_corpus, usage
from oracle import brute_force_oracle, oracle_almost_similar, oracle_exactly_similar


def unanimous_corpus(n=10, calls=("a", "b", "c")):
    return Corpus([usage(f"u{i}", "T", "c()", set(calls)) for i in range(n)])


def two_convention_corpus():
    """One bucket with two competing conventions plus a second clean bucket."""
    usages = [usage(f"p{i}", "T", "c()", {"open", "read", "close"}) for i in range(6)]
    usages += [usage(f"q{i}", "T", "c()", {"open", "write"}) for i in range(4)]
    usages += [usage(f"r{i}", "U", "d()", {"init", "run"}) for i in range(5)]
    return Corpus(usages)


def test_generate_degraded_counts(three_button_corpus):
    queries = generate_degraded(three_button_corpus)
    # 3 redundant usages with 3, 3, 4 calls
    assert len(queries) == 10
    b_queries = [q for q in queries if q.seed_id == "b"]
    assert sorted(q.removed for q in b_queries) == ["<init>", "setColor", "setText"]
    for q in b_queries:
        assert q.removed not in q.query.calls
        assert len(q.query.calls) == 2


def test_generate_degraded_skips_non_redundant(two_usage_corpus):
    assert generate_degraded(two_usage_corpus) == []


def test_generate_degraded_skips_empty_callsets():
    c = Corpus([usage("u1", "T", "c()", set()), usage("u2", "T", "c()", set())])
    assert generate_degraded(c) == []


def test_generate_degraded_single_call_keeps_empty_query():
    c = Corpus([usage("u1", "T", "c()", {"f"}), usage("u2", "T", "c()", {"f"})])
    queries = generate_degraded(c)
    assert len(queries) == 2
    assert all(q.query.calls == frozenset() for q in queries)


def test_run_query_leave_one_out_planted():
    corpus = unanimous_corpus()
    dq = next(q for q in generate_degraded(corpus) if q.seed_id == "u0" and q.removed == "c")
    out = run_query(dq, corpus, EvalConfig())
    assert out.a_count == 9
    assert out.e_count == 1
    assert [r.method for r in out.missing] == ["c"]
    assert out.perfect


def test_run_query_include_seed_always_correct_at_t0():
    corpus = two_convention_corpus()
    cfg = EvalConfig(prediction=PredictionConfig(Fraction(0)), include_seed=True)
    for dq in generate_degraded(corpus):
        out = run_query(dq, corpus, cfg)
        assert out.answered and out.correct


def test_run_query_unanswerable_when_isolated():
    c = Corpus(
        [
            usage("u1", "T", "c()", {"f", "g"}),
            usage("u2", "T", "c()", {"x"}),  # makes u1 redundant but unrelated
        ]
    )
    dq = next(q for q in generate_degraded(c) if q.seed_id == "u1" and q.removed == "g")
    out = run_query(dq, c, EvalConfig(prediction=PredictionConfig(Fraction(0))))
    assert not out.answered


def test_evaluate_unanimous_corpus_is_perfect():
    report = evaluate(unanimous_corpus(), EvalConfig())
    assert report.n_queries == 30
    assert report.answered_frac == 1
    assert report.correct_frac == 1
    assert report.false_frac == 0
    assert report.precision == 1
    assert report.recall == 1
    assert report.perfect_frac == 1
    assert report.avg_e == 1
    assert report.avg_a == 9
    assert report.avg_s == Fraction(9, 10)


def test_evaluate_errors_without_redundancy(two_usage_corpus):
    with pytest.raises(ValueError):
        evaluate(two_usage_corpus, EvalConfig())


def test_evaluate_undefined_metrics_when_nothing_answered(tmp_path):
    c = Corpus([usage("u1", "T", "c()", {"f"}), usage("u2", "T", "c()", {"g", "h", "i"})])
    report = evaluate(c, EvalConfig())
    assert report.answered_frac == 0
    assert report.correct_frac is None
    assert report.false_frac is None
    assert report.precision is None
    assert report.recall == 0
    path = tmp_path / "c.tsv"
    path.write_text(write_corpus(c), encoding="utf-8")
    out = io.StringIO()
    assert callgap.cli.main(["eval", str(path)], out) == 0
    assert ",NA," in out.getvalue().splitlines()[1]


def test_evaluate_matches_oracle_similarity_path(monkeypatch):
    corpus = two_convention_corpus()
    cfg = EvalConfig()
    indexed = evaluate(corpus, cfg)
    monkeypatch.setattr(callgap.evaluation, "exactly_similar", oracle_exactly_similar)
    monkeypatch.setattr(callgap.evaluation, "almost_similar", oracle_almost_similar)
    assert indexed == evaluate(corpus, cfg)


def test_evaluate_deterministic():
    corpus = random_corpus(random.Random(5), max_usages=60)
    cfg = EvalConfig()
    try:
        r1 = evaluate(corpus, cfg)
        r2 = evaluate(corpus, cfg)
    except ValueError:
        pytest.skip("random corpus produced no degraded queries")
    assert r1 == r2


def test_sweep_threshold_monotonic():
    corpus = two_convention_corpus()
    ts = [Fraction(i, 5) for i in range(6)]
    rows = sweep_threshold(corpus, EvalConfig(), ts)
    assert [t for t, _ in rows] == ts
    for (t1, r1), (t2, r2) in zip(rows, rows[1:]):
        assert r2.answered_frac <= r1.answered_frac
        assert r2.recall <= r1.recall
    # strict comparison: nothing clears t=1
    assert rows[-1][1].recall == 0


def test_sweep_threshold_matches_direct_evaluate():
    corpus = two_convention_corpus()
    cfg = EvalConfig()
    rows = dict(sweep_threshold(corpus, cfg, [Fraction(1, 2), Fraction(9, 10)]))
    for t, report in rows.items():
        direct = evaluate(corpus, EvalConfig(prediction=PredictionConfig(t)))
        assert report == direct


def test_sweep_k_neighborhoods_grow():
    corpus = two_convention_corpus()
    rows = sweep_k(corpus, EvalConfig(), [1, 2, 3])
    for (_, r1), (_, r2) in zip(rows, rows[1:]):
        assert r2.avg_a >= r1.avg_a
        assert r2.avg_s >= r1.avg_s
        assert r2.avg_r >= r1.avg_r


def test_gen_synthetic_deterministic():
    spec = SyntheticSpec(n_buckets=5, usages_per_bucket=8, convention_size=3, deviance_rate=0.3)
    c1, t1 = gen_synthetic(spec, 42)
    c2, t2 = gen_synthetic(spec, 42)
    assert write_corpus(c1) == write_corpus(c2)
    assert t1 == t2
    assert len(c1) == 40


def test_gen_synthetic_no_deviance_scores_zero():
    spec = SyntheticSpec(n_buckets=4, usages_per_bucket=5, convention_size=3)
    corpus, truth = gen_synthetic(spec, 1)
    assert truth == []
    from callgap import score_all

    assert all(s.s_score == 0 for s in score_all(corpus, SimilarityParams()))


def test_gen_synthetic_deviants_score_as_planted():
    # force exactly the truth-listed usages to deviate; conformers dominate
    spec = SyntheticSpec(n_buckets=3, usages_per_bucket=20, convention_size=4, deviance_rate=0.1)
    corpus, truth = gen_synthetic(spec, 9)
    from callgap.similarity import almost_similar, query_for

    deviants = {uid for uid, _ in truth}
    for uid, dropped in truth:
        a_ids = almost_similar(query_for(corpus.get(uid)), corpus, SimilarityParams())
        # every conformer in the bucket is an almost-similar neighbor
        bucket = corpus.bucket(corpus.get(uid).type_name, corpus.get(uid).context)
        conformers = [b.id for b in bucket if b.id not in deviants]
        assert set(a_ids) >= set(conformers)


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_buckets=1, usages_per_bucket=1, convention_size=0)
    with pytest.raises(ValueError):
        SyntheticSpec(n_buckets=1, usages_per_bucket=1, convention_size=2, deviance_rate=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(n_buckets=1, usages_per_bucket=1, convention_size=9, method_vocab=5)


def test_brute_force_oracle_cap():
    corpus = unanimous_corpus(n=5)
    with pytest.raises(ValueError):
        brute_force_oracle(corpus, SimilarityParams(), cap=3)


def test_brute_force_oracle_two_usage(two_usage_corpus):
    res = brute_force_oracle(two_usage_corpus, SimilarityParams())
    for uid in ("b", "t"):
        assert res[uid].e_count == 1
        assert res[uid].a_ids == ()


def test_aggregate_invariants_on_random_corpora():
    for seed in range(8):
        corpus = random_corpus(random.Random(200 + seed), max_usages=60)
        queries = generate_degraded(corpus)
        if not queries:
            continue
        cfg = EvalConfig(prediction=PredictionConfig(Fraction(1, 2)))
        outcomes = [run_query(dq, corpus, cfg) for dq in queries]
        report = aggregate(outcomes)
        if report.correct_frac is not None:
            assert report.correct_frac + report.false_frac == 1
            assert 0 <= report.precision <= 1
        assert report.recall == report.answered_frac * (report.correct_frac or 0)
        assert report.perfect_frac <= report.recall


def per_query_report(outcomes):
    """EvalReport by the per-query definitions: 1/sizeanswer per correct
    query, s(e, a) per query, and the likelihood of every candidate."""
    n = len(outcomes)
    correct = [o for o in outcomes if any(r.method == o.removed for r in o.missing)]
    n_ans = sum(1 for o in outcomes if o.missing)
    candidates = [r for o in outcomes for r in o.recommendations]
    correct_frac = Fraction(len(correct), n_ans) if n_ans else None
    return EvalReport(
        n_queries=n,
        answered_frac=Fraction(n_ans, n),
        correct_frac=correct_frac,
        false_frac=1 - correct_frac if n_ans else None,
        precision=(sum((Fraction(1, len(o.missing)) for o in correct), Fraction(0)) / n_ans
                   if n_ans else None),
        recall=Fraction(len(correct), n),
        perfect_frac=Fraction(sum(1 for o in correct if len(o.missing) == 1), n),
        avg_e=Fraction(sum(o.e_count for o in outcomes), n),
        avg_a=Fraction(sum(o.a_count for o in outcomes), n),
        avg_s=sum((s_score(o.e_count, o.a_count) for o in outcomes), Fraction(0)) / n,
        avg_r=Fraction(len(candidates), n),
        avg_phi=(sum((r.likelihood for r in candidates), Fraction(0)) / len(candidates)
                 if candidates else None),
        avg_missing=Fraction(sum(len(o.missing) for o in outcomes), n),
    )


def test_aggregate_tallies_equal_per_query_definitions():
    thresholds = [Fraction(0), Fraction(1, 2), Fraction(9, 10), Fraction(1)]
    configs = 0
    no_neighbors = 0
    for seed in range(6):
        corpus = random_corpus(random.Random(300 + seed), max_usages=40)
        queries = generate_degraded(corpus)
        if not queries:
            continue
        for k in (1, 2, 3):
            for include_seed in (False, True):
                for t in thresholds:
                    for strict in (True, False):
                        cfg = EvalConfig(
                            prediction=PredictionConfig(t, strict_comparison=strict),
                            similarity=SimilarityParams(k=k),
                            include_seed=include_seed,
                        )
                        outcomes = [run_query(dq, corpus, cfg) for dq in queries]
                        report = aggregate(outcomes)
                        expected = per_query_report(outcomes)
                        assert report == expected, (seed, k, include_seed, t, strict)
                        for f in fields(EvalReport):
                            got, want = getattr(report, f.name), getattr(expected, f.name)
                            assert type(got) is type(want), f.name
                        no_neighbors += sum(1 for o in outcomes if o.a_count == 0)
                        configs += 1
    assert configs >= 3 * 48
    assert no_neighbors > 0
