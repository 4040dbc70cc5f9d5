"""The public surface: ``callgap.__all__`` is what the README documents, and
every name the benchmark harness (``bench/run.py``, ``bench/spans.py``) reads
still exists with the same parameters and call path."""

import dataclasses
import importlib
import inspect
import io
import re
import sys
from pathlib import Path

import pytest

import callgap
import callgap.cli
import callgap.evaluation
import callgap.similarity
from callgap import Corpus, EvalConfig
from callgap.corpus import write_corpus
from callgap.evaluation import SyntheticSpec, gen_synthetic
from conftest import usage

README = Path(__file__).resolve().parents[1] / "README.md"

# (module, attribute, parameter names) the harness calls or wraps by name
BENCH_FUNCTIONS = [
    ("callgap.corpus", "load_corpus", ["path"]),
    ("callgap.corpus", "parse_corpus", ["text"]),
    ("callgap.corpus", "parse_corpus_jsonl", ["text"]),
    ("callgap.similarity", "exactly_similar", ["q", "corpus", "p"]),
    ("callgap.similarity", "almost_similar", ["q", "corpus", "p"]),
    ("callgap.scoring", "score_all", ["corpus", "p"]),
    ("callgap.scoring", "distribution_stats", ["scores", "corpus"]),
    ("callgap.scoring", "histogram", ["scores", "bin_width"]),
    ("callgap.prediction", "likelihoods", ["q", "a_ids", "corpus"]),
    ("callgap.prediction", "filter_recommendations", ["recs", "cfg"]),
    ("callgap.evaluation", "evaluate", ["corpus", "cfg"]),
    ("callgap.evaluation", "sweep_k", ["corpus", "cfg", "ks"]),
    ("callgap.evaluation", "generate_degraded", ["corpus"]),
    ("callgap.evaluation", "aggregate", ["outcomes"]),
    ("callgap.evaluation", "run_query", ["dq", "corpus", "cfg"]),
    ("callgap.cli", "main", ["argv", "out"]),
]

# names the harness reads from the package itself
BENCH_TOP_LEVEL = [
    "SimilarityParams", "PredictionConfig", "Query", "exactly_similar",
    "almost_similar", "likelihoods", "load_corpus",
]


def test_all_matches_readme_library_block():
    block = re.search(r"from callgap import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    documented = re.findall(r"\w+", block.group(1))
    assert sorted(callgap.__all__) == sorted(documented)
    assert len(set(documented)) == len(documented)
    for name in callgap.__all__:
        assert hasattr(callgap, name), name


def test_bench_names_exist_with_their_parameters():
    for module, attr, params in BENCH_FUNCTIONS:
        fn = getattr(importlib.import_module(module), attr)
        assert list(inspect.signature(fn).parameters) == params, f"{module}.{attr}"
    for name in BENCH_TOP_LEVEL:
        assert name in callgap.__all__, name
    assert inspect.isclass(callgap.corpus.Corpus)


def test_evaluate_calls_module_run_query_once_per_degraded_query(monkeypatch):
    corpus = Corpus([usage(f"u{i}", "T", "c()", {"a", "b", "c"}) for i in range(4)])
    calls = []
    real = callgap.evaluation.run_query

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(callgap.evaluation, "run_query", counting)
    callgap.evaluation.evaluate(corpus, EvalConfig())
    assert calls == callgap.evaluation.generate_degraded(corpus)


def test_bench_reads_these_result_attributes():
    # bench/spans.py reads QueryOutcome.answered, DegradedQuery.query/.removed
    # and Query.type_name/.context/.calls; bench/run.py reads each
    # Recommendation's method, likelihood and support.
    corpus = Corpus([usage(f"u{i}", "T", "c()", {"a", "b"}) for i in range(3)])
    dq = callgap.evaluation.generate_degraded(corpus)[0]
    outcome = callgap.evaluation.run_query(dq, corpus, EvalConfig())
    assert outcome.answered is True
    assert dq.removed == "a" and dq.query.calls == frozenset({"b"})
    assert (dq.query.type_name, dq.query.context) == ("T", "c()")
    rec = outcome.recommendations[0]
    assert (rec.method, rec.likelihood, rec.support) == ("a", 1, 2)


def test_score_command_reuses_a_from_scoring(tmp_path, monkeypatch):
    corpus = Corpus([usage(f"u{i}", "T", "c()", {"a", "b"} if i else {"a"}) for i in range(5)]
                    + [usage("u5", "T", "d()", {"a", "b"})])
    path = tmp_path / "c.tsv"
    path.write_text(write_corpus(corpus), encoding="utf-8")
    calls = []
    real = callgap.similarity.almost_similar

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    # rebind the name in every callgap module that holds it, as bench/spans.py does
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "callgap" and vars(module).get("almost_similar") is real:
            monkeypatch.setattr(module, "almost_similar", counting)
    # one per distinct (type, context, call-set), all from score_all; the
    # context drops out of the key with --no-context
    assert callgap.cli.main(["score", str(path)], out=io.StringIO()) == 0
    assert [(q.context, q.calls) for q in calls] == [
        ("c()", frozenset("a")), ("c()", frozenset("ab")), ("d()", frozenset("ab"))]
    calls.clear()
    assert callgap.cli.main(["score", str(path), "--no-context"], out=io.StringIO()) == 0
    assert [q.calls for q in calls] == [frozenset("a"), frozenset("ab")]


def test_score_command_ranks_candidates_once_per_key(tmp_path, monkeypatch):
    corpus = Corpus([usage(f"u{i}", "T", "c()", {"a", "b"} if i else {"a"}) for i in range(5)]
                    + [usage("u5", "T", "d()", {"a"})])
    path = tmp_path / "c.tsv"
    path.write_text(write_corpus(corpus), encoding="utf-8")
    calls = []
    real = callgap.cli.likelihoods

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    # rows alike in (type, context, call-set) share score_all's a_ids and so
    # their recommendations; the context drops out of that key with --no-context
    monkeypatch.setattr(callgap.cli, "likelihoods", counting)
    assert callgap.cli.main(["score", str(path)], out=io.StringIO()) == 0
    assert sorted((q.context, "".join(sorted(q.calls))) for q in calls) == [
        ("c()", "a"), ("c()", "ab"), ("d()", "a")]
    calls.clear()
    assert callgap.cli.main(["score", str(path), "--no-context"], out=io.StringIO()) == 0
    assert sorted("".join(sorted(q.calls)) for q in calls) == ["a", "ab"]


@pytest.mark.parametrize("flags", [[], ["--no-context"]])
def test_score_command_keys_no_memo_on_a(tmp_path, monkeypatch, flags):
    work = 0

    class CountedIds(tuple):
        """An A id tuple that counts the elements it hashes or compares."""

        def __hash__(self):
            nonlocal work
            work += len(self)
            return super().__hash__()

        def __eq__(self, other):
            nonlocal work
            work += len(self)
            return super().__eq__(other)

    real = callgap.cli.score_all
    monkeypatch.setattr(callgap.cli, "score_all", lambda corpus, p: [
        dataclasses.replace(s, a_ids=CountedIds(s.a_ids)) for s in real(corpus, p)])
    # one bucket that follows a convention: deviants' A holds most of the bucket
    for n in (100, 200, 400):
        corpus, truth = gen_synthetic(SyntheticSpec(1, n, 5, 0.1, 20), 3)
        assert truth
        path = tmp_path / f"conv{n}.tsv"
        path.write_text(write_corpus(corpus), encoding="utf-8")
        assert callgap.cli.main(["score", str(path), *flags], out=io.StringIO()) == 0
        assert work == 0, n
