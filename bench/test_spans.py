"""Span-count test for the benchmark's tracing.

    python3 -m pytest bench/test_spans.py -q
"""

from __future__ import annotations

import io

import reference
import run
import spans
import workloads

cg = run.import_callgap()

# Two (type, context) buckets; "solo" has no bucket-mate, so it yields no
# degraded query, and u6's empty call-set yields none either.
RECORDS = [
    ("u1", "Button", "Page.init()", frozenset({"<init>", "setText", "show"}), None),
    ("u2", "Button", "Page.init()", frozenset({"<init>", "setText", "show"}), None),
    ("u3", "Button", "Page.init()", frozenset({"<init>", "setText"}), None),
    ("u4", "Reader", "Io.read()", frozenset({"open", "read", "close"}), None),
    ("u5", "Reader", "Io.read()", frozenset({"open", "read"}), None),
    ("u6", "Reader", "Io.read()", frozenset(), None),
    ("solo", "Reader", "Other.m()", frozenset({"open"}), None),
]


def traced_eval(path: str) -> tuple[spans.Tracer, str]:
    ref = reference.Reference(RECORDS, use_context=True)
    sizes = {k: sum(c.values()) for k, c in ref.groups.items()}
    tracer = spans.Tracer()
    inst = spans.Instrumentation(
        tracer, lambda t, c: sizes.get(ref.key(t, c), 0), ref.key)
    out = io.StringIO()
    inst.install()
    try:
        assert cg.cli.main(["eval", path], out=out) == 0
    finally:
        inst.remove()
    return tracer, out.getvalue()


def test_one_query_span_per_degraded_query_with_nested_layers(tmp_path):
    path = str(tmp_path / "tiny.tsv")
    workloads.write(RECORDS, path)
    ref = reference.Reference(RECORDS, use_context=True)
    tracer, text = traced_eval(path)
    assert text == ref.eval_text()

    names = [tracer.names[n] for n in tracer.name_of]
    queries = [i for i, n in enumerate(names) if n == "evaluation.query"]
    assert len(queries) == len(ref.degraded()) == 13
    for q in queries:
        children = sorted(names[i] for i, p in enumerate(tracer.parent) if p == q)
        assert children == [
            "prediction.filter_recommendations", "prediction.likelihoods",
            "similarity.almost_similar", "similarity.exactly_similar",
        ]
    # exactly_similar and almost_similar each walk the query's whole bucket.
    assert tracer.counts["similarity.scanned"] == 2 * (8 * 3 + 5 * 3)


def test_counts_repeat_exactly(tmp_path):
    path = str(tmp_path / "tiny.tsv")
    workloads.write(RECORDS, path)
    first, _ = traced_eval(path)
    second, _ = traced_eval(path)
    assert {k: v[0] for k, v in first.summary().items()} == \
        {k: v[0] for k, v in second.summary().items()}
    assert first.counts == second.counts
    assert first.distinct_queries == second.distinct_queries


def test_wrappers_are_removed():
    inst = spans.Instrumentation(spans.Tracer(), None, None)
    before = cg.evaluation.run_query
    inst.install()
    assert cg.evaluation.run_query is not before
    inst.remove()
    assert cg.evaluation.run_query is before
    assert not hasattr(cg.corpus.Corpus.__init__, "__wrapped__")
