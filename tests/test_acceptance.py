"""Acceptance gate: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
status lines. Criterion 5 is documentation-only: the published large-corpus
numbers need the original multi-million-line extractions, which are external
inputs; the property suite here exercises the identical protocol at desk
scale, and ``callgap eval <corpus>`` with default flags runs that protocol
unchanged on any user-supplied corpus.
"""

import io
import random
import time
from fractions import Fraction

import callgap.evaluation
from callgap import (
    Corpus,
    EvalConfig,
    PredictionConfig,
    Query,
    SimilarityParams,
    almost_similar,
    evaluate,
    exactly_similar,
    likelihoods,
    score_all,
)
from callgap.cli import main as cli_main
from callgap.corpus import write_corpus
from callgap.evaluation import SyntheticSpec, brute_force_oracle, gen_synthetic, oracle_similarity
from callgap.prediction import filter_recommendations
from callgap.scoring import s_score
from callgap.similarity import query_for, query_similarity
from conftest import random_corpus, usage


P1 = SimilarityParams()


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def loo_query(corpus, uid):
    u = corpus.get(uid)
    return Query(u.type_name, u.context, u.calls, exclude_id=uid)


def test_criterion_1_worked_example_goldens():
    # score extremes
    assert s_score(1, 0) == 0
    assert s_score(1, 99) == Fraction(99, 100)

    # Sandra scenario: 16 one-call conformers, one empty-call deviant query
    ctx = "App.createControl(Composite)"
    sandra = Corpus(
        [usage(f"u{i}", "DialogPage", ctx, {"setControl"}) for i in range(16)]
    )
    q = Query("DialogPage", ctx, frozenset())
    e = exactly_similar(q, sandra, P1)
    a_ids = almost_similar(q, sandra, P1)
    assert e == 1 and len(a_ids) == 16
    assert s_score(e, len(a_ids)) == Fraction(16, 17)
    recs = filter_recommendations(likelihoods(q, a_ids, sandra), PredictionConfig(Fraction(9, 10)))
    assert [(r.method, r.likelihood) for r in recs] == [("setControl", Fraction(1))]

    # likelihood worked example: 4/5 setText, 1/5 setFont, t=0.75 keeps setText
    ctx2 = "Page.createButton()"
    fig = Corpus(
        [usage("x", "Button", ctx2, {"<init>"})]
        + [usage(f"n{i}", "Button", ctx2, {"<init>", "setText"}) for i in range(4)]
        + [usage("e", "Button", ctx2, {"<init>", "setFont"})]
    )
    q2 = loo_query(fig, "x")
    a2 = almost_similar(q2, fig, P1)
    recs2 = likelihoods(q2, a2, fig)
    assert [(r.method, r.likelihood) for r in recs2] == [
        ("setText", Fraction(4, 5)),
        ("setFont", Fraction(1, 5)),
    ]
    kept = filter_recommendations(likelihoods(q2, a2, fig), PredictionConfig(Fraction(3, 4)))
    assert [r.method for r in kept] == ["setText"]

    # similarity-relations figure: b E aBut, myBut in A(b), by index and oracle
    three = Corpus(
        [
            usage("b", "Button", ctx2, {"<init>", "setText", "setColor"}),
            usage("aBut", "Button", ctx2, {"<init>", "setText", "setColor"}),
            usage("myBut", "Button", ctx2, {"<init>", "setText", "setColor", "setLink"}),
        ]
    )
    indexed = query_similarity(query_for(three.get("b")), three, P1)
    pairwise = brute_force_oracle(three, P1)["b"]
    assert indexed == pairwise
    assert indexed.e_count == 2  # b itself + aBut
    assert indexed.a_ids == ("myBut",)
    report("1 (worked-example goldens)")


def test_criterion_2_oracle_equivalence_200_corpora():
    start = time.perf_counter()
    n_corpora = 0
    for seed in range(200):
        rng = random.Random(seed)
        corpus = random_corpus(rng, max_usages=100, max_calls=6)
        k = rng.choice([1, 2, 3])
        p = SimilarityParams(k=k)
        oracle = brute_force_oracle(corpus, p)
        for u in corpus:
            r = query_similarity(query_for(corpus.get(u.id)), corpus, p)
            assert r == oracle[u.id]
            assert s_score(r.e_count, len(r.a_ids)) == s_score(
                oracle[u.id].e_count, len(oracle[u.id].a_ids)
            )
        n_corpora += 1
    elapsed = time.perf_counter() - start
    assert n_corpora == 200
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    report(f"2 (oracle equivalence, 200 corpora in {elapsed:.1f}s)")


def _planted_unanimous(n_buckets=3, per_bucket=10):
    usages = []
    for b in range(n_buckets):
        conv = {f"call{b}_{j}" for j in range(3)}
        usages += [usage(f"b{b}u{i}", f"T{b}", f"ctx{b}()", conv) for i in range(per_bucket)]
    return Corpus(usages)


def test_criterion_3_degradation_protocol(monkeypatch):
    # seed-inclusion sanity on several generated corpora
    for seed in range(5):
        corpus, _ = gen_synthetic(
            SyntheticSpec(n_buckets=4, usages_per_bucket=5, convention_size=3,
                          deviance_rate=0.3),
            seed,
        )
        cfg = EvalConfig(prediction=PredictionConfig(Fraction(0)), include_seed=True)
        rep = evaluate(corpus, cfg)
        assert rep.answered_frac == 1
        assert rep.correct_frac == 1
        assert rep.recall == 1

    # planted unanimous corpus: leave-one-out, t=0.9 strict
    rep = evaluate(_planted_unanimous(), EvalConfig())
    assert rep.precision == 1
    assert rep.recall == 1

    # two-convention corpus: indexed run equals the independent oracle run
    usages = [usage(f"p{i}", "T", "c()", {"open", "read", "close"}) for i in range(6)]
    usages += [usage(f"q{i}", "T", "c()", {"open", "write"}) for i in range(4)]
    two_conv = Corpus(usages)
    cfg = EvalConfig(prediction=PredictionConfig(Fraction(1, 2)))
    indexed = evaluate(two_conv, cfg)
    monkeypatch.setattr(callgap.evaluation, "query_similarity", oracle_similarity)
    assert indexed == evaluate(two_conv, cfg)
    report("3 (degradation-protocol properties)")


def test_criterion_4_sweep_monotonicity():
    from callgap.evaluation import sweep_k, sweep_threshold

    ts = [Fraction(i, 10) for i in range(11)]
    checked = 0
    for seed in range(40):
        corpus, _ = gen_synthetic(
            SyntheticSpec(n_buckets=3, usages_per_bucket=6, convention_size=3,
                          deviance_rate=0.4, method_vocab=6),
            seed,
        )
        try:
            t_rows = sweep_threshold(corpus, EvalConfig(), ts)
        except ValueError:
            continue
        for (_, r1), (_, r2) in zip(t_rows, t_rows[1:]):
            assert r2.answered_frac <= r1.answered_frac
            assert r2.recall <= r1.recall
        k_rows = sweep_k(corpus, EvalConfig(), [1, 2, 3, 4])
        for (_, r1), (_, r2) in zip(k_rows, k_rows[1:]):
            assert r2.avg_a >= r1.avg_a
            assert r2.avg_s >= r1.avg_s
            assert r2.avg_r >= r1.avg_r
        checked += 1
        if checked == 20:
            break
    assert checked == 20
    report("4 (sweep monotonicity on 20 corpora)")


def test_criterion_5_paper_scale_protocol_documented():
    # The published large-corpus tables are not reproducible at desk scale;
    # they require external multi-million-line extractions. What this suite
    # guarantees instead: `eval` with default flags runs the identical
    # protocol (t=0.9, k=1, strict, context on, leave-one-out) on any
    # user-supplied corpus file, as exercised below on a small stand-in.
    corpus = _planted_unanimous(n_buckets=2, per_bucket=4)
    buf = io.StringIO()
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(write_corpus(corpus))
        assert cli_main(["eval", path], out=buf) == 0
    header, row = buf.getvalue().splitlines()
    assert row.startswith("0.9,1,false,true,")
    report("5 (default flags run the published protocol; scale documented)")


def test_criterion_6_linear_time_at_scale():
    spec = SyntheticSpec(
        n_buckets=8000, usages_per_bucket=7, convention_size=3,
        deviance_rate=0.05, method_vocab=400,
    )
    corpus, _ = gen_synthetic(spec, 123)
    assert len(corpus) == 56000
    assert len(corpus.bucket_index) == 8000
    start = time.perf_counter()
    scores = score_all(corpus, P1)
    cfg = PredictionConfig(Fraction(9, 10))
    n_recs = 0
    for s in scores:
        u = corpus.get(s.id)
        q = Query(u.type_name, u.context, u.calls, exclude_id=u.id)
        a_ids = almost_similar(q, corpus, P1)
        n_recs += len(filter_recommendations(likelihoods(q, a_ids, corpus), cfg))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"scoring+prediction took {elapsed:.2f}s"
    assert n_recs > 0  # the planted deviants produce recommendations
    report(f"6 (56k usages / 8k buckets scored+predicted in {elapsed:.2f}s)")


def test_criterion_7_cli_determinism(tmp_path):
    corpus_path = str(tmp_path / "c.tsv")
    truth_path = str(tmp_path / "t.tsv")
    gen_args = [
        "gen", corpus_path, "--truth", truth_path,
        "--buckets", "20", "--per-bucket", "8", "--convention-size", "3",
        "--deviance", "0.2", "--seed", "5",
    ]
    commands = [
        gen_args,
        ["stats", corpus_path],
        ["score", corpus_path, "--top", "10"],
        ["score", corpus_path, "--format", "human"],
        ["predict", corpus_path, "--type", "T0", "--context", "Ctx0.m()"],
        ["eval", corpus_path],
        ["eval", corpus_path, "--sweep-t", "0,0.5,0.9,1"],
        ["eval", corpus_path, "--sweep-k", "1,2,3"],
    ]
    for argv in commands:
        buf1, buf2 = io.StringIO(), io.StringIO()
        assert cli_main(argv, out=buf1) == 0
        assert cli_main(argv, out=buf2) == 0
        assert buf1.getvalue().encode() == buf2.getvalue().encode(), argv
    report("7 (CLI byte-identical across runs)")
