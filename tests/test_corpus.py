"""Corpus parsing, writing, and bucket indexing."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from callgap import Corpus, CorpusFormatError, TypeUsage, load_corpus
from callgap.corpus import parse_corpus, parse_corpus_jsonl, write_corpus


def test_parse_basic_line():
    c = parse_corpus("u1\tButton\tPage.createButton()\t<init>,setText,setColor\n")
    u = c.get("u1")
    assert u.type_name == "Button"
    assert u.context == "Page.createButton()"
    assert u.calls == {"<init>", "setText", "setColor"}


def test_parse_empty_calls_field():
    c = parse_corpus("u2\tText\tPage.createButton()\t\n")
    assert c.get("u2").calls == frozenset()


def test_parse_collapses_duplicate_calls():
    c = parse_corpus("u3\tA\tc()\tf,f,g\n")
    assert c.get("u3").calls == {"f", "g"}


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\nu1\tA\tc()\tf\n  \nu2\tA\tc()\tg\n"
    assert len(parse_corpus(text)) == 2


def test_parse_auto_assigns_ids_in_line_order():
    c = parse_corpus("\tA\tc()\tf\n\tB\td()\tg\n")
    assert [u.id for u in c] == ["u1", "u2"]


def test_parse_origin_field():
    c = parse_corpus("u1\tA\tc()\tf\tFile.java:42\n")
    assert c.get("u1").origin == "File.java:42"


def test_parse_wrong_field_count_names_line():
    with pytest.raises(CorpusFormatError, match="line 2"):
        parse_corpus("u1\tA\tc()\tf\nu2\tA\tc()\n")


def test_parse_empty_type_rejected():
    with pytest.raises(CorpusFormatError, match="line 1"):
        parse_corpus("u1\t\tc()\tf\n")


def test_parse_duplicate_id_names_both_lines():
    with pytest.raises(CorpusFormatError, match=r"line 3.*line 1"):
        parse_corpus("u1\tA\tc()\tf\n# x\nu1\tB\td()\tg\n")


def test_jsonl_roundtrip(tmp_path):
    text = (
        '{"id": "u1", "type": "A", "context": "c()", "calls": ["g", "f"]}\n'
        '{"type": "B", "context": "d()", "calls": [], "origin": "F.java:1"}\n'
    )
    c = parse_corpus_jsonl(text)
    assert c.get("u1").calls == {"f", "g"}
    assert c.get("u2").origin == "F.java:1"


def test_jsonl_numeric_zero_id_is_kept():
    c = parse_corpus_jsonl(
        '{"id": 0, "type": "A", "context": "c()", "calls": []}\n'
        '{"type": "A", "context": "c()", "calls": []}\n'
    )
    assert [u.id for u in c] == ["0", "u2"]


def test_jsonl_and_tsv_strip_call_names_alike():
    tsv = parse_corpus("u1\tA\tc()\t f ,,g, f\n")
    jsonl = parse_corpus_jsonl('{"id": "u1", "type": "A", "context": "c()", "calls": [" f ", "", "g", "f"]}\n')
    assert tsv.get("u1").calls == jsonl.get("u1").calls == {"f", "g"}


def test_jsonl_non_string_call_name_names_line():
    with pytest.raises(CorpusFormatError, match="line 2"):
        parse_corpus_jsonl('{"type": "A", "context": "c()"}\n{"type": "A", "context": "c()", "calls": [1]}\n')


def test_jsonl_bad_json_names_line():
    with pytest.raises(CorpusFormatError, match="line 1"):
        parse_corpus_jsonl("{not json\n")


@pytest.mark.parametrize("key, value", [
    ("id", True), ("id", 1.5), ("id", ["u1"]), ("type", ["T"]), ("context", {"x": 1}),
    ("context", 3), ("origin", False), ("calls", "f"),
])
def test_jsonl_value_of_wrong_kind_names_line_and_key(key, value):
    rec = {"type": "A", "context": "c()", "calls": [], key: value}
    with pytest.raises(CorpusFormatError, match=f"line 2: {key!r} must be "):
        parse_corpus_jsonl('{"type": "A", "context": "c()"}\n' + json.dumps(rec) + "\n")


def test_jsonl_null_means_missing_for_every_key():
    c = parse_corpus_jsonl('{"id": null, "type": "A", "context": "c()", "calls": null, "origin": null}\n')
    assert list(c) == [TypeUsage("u1", "A", "c()", frozenset(), None)]
    with pytest.raises(CorpusFormatError, match="line 1: empty type or context field"):
        parse_corpus_jsonl('{"type": null, "context": "c()"}\n')


@pytest.mark.parametrize("line", ['{"type": ' + "[" * 100_000, '{"id": ' + "1" * 5000 + "}"])
def test_jsonl_undecodable_json_names_line(line):
    with pytest.raises(CorpusFormatError, match="line 1: invalid JSON"):
        parse_corpus_jsonl(line + "\n")


def test_jsonl_splits_records_at_line_feeds_only():
    rec = {"id": "u1", "type": "A", "context": "c()", "calls": ["f"], "origin": "F.java\u2028:1"}
    c = parse_corpus_jsonl(json.dumps(rec, ensure_ascii=False) + "\r\n" + json.dumps(rec | {"id": "u2"}))
    assert [u.origin for u in c] == ["F.java\u2028:1", "F.java\u2028:1"]


@pytest.mark.parametrize("name, text, ids", [
    ("c.tsv", "u1\tA\tc()\tf\n", ["u1"]),
    ("c.tsv", "# header\nu1\tA\tc()\tf\n", ["u1"]),
    ("c.jsonl", '{"id": "u1", "type": "A", "context": "c()"}\n', ["u1"]),
])
def test_load_skips_a_byte_order_mark(tmp_path, name, text, ids):
    path = tmp_path / name
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert [u.id for u in load_corpus(str(path))] == ids


def test_write_sorts_calls_and_roundtrips(two_usage_corpus):
    text = write_corpus(two_usage_corpus)
    lines = text.splitlines()
    assert lines[0] == "b\tButton\tPage.createButton()\t<init>,setColor,setText"
    again = parse_corpus(text)
    assert [u.calls for u in again] == [u.calls for u in two_usage_corpus]
    assert write_corpus(again) == text  # canonicalization is idempotent


def test_write_empty_corpus():
    assert write_corpus(Corpus([])) == ""


def test_write_empty_calls():
    c = Corpus([TypeUsage("u1", "A", "c()", frozenset())])
    assert write_corpus(c) == "u1\tA\tc()\t\n"


@pytest.mark.parametrize(
    "usage, field",
    [
        (TypeUsage("u1", "A\tB", "c()", frozenset()), "type"),
        (TypeUsage("u1", "A", "c()\r", frozenset()), "context"),
        (TypeUsage("u1", "A", "c()", frozenset(), "F.java\n:1"), "origin"),
        (TypeUsage("u1", "A", "c()", frozenset({"f,g"})), "call"),
        (TypeUsage("u1", "A", "c()", frozenset({""})), "call"),
        (TypeUsage(" u1", "A", "c()", frozenset()), "id"),
        (TypeUsage("", "A", "c()", frozenset()), "id"),
        (TypeUsage("#u1", "A", "c()", frozenset()), "id"),
        (TypeUsage("u1", "A", "c()", frozenset(), ""), "origin"),
    ],
)
def test_write_refuses_what_it_cannot_round_trip(usage, field):
    with pytest.raises(ValueError, match=f"usage {usage.id!r}: cannot write {field} "):
        write_corpus(Corpus([usage]))


# Plain characters plus, per corpus, one that the line format treats
# specially: a writer that lets such a character through is caught when the
# corpus reads back differently.
_SPECIAL = " #,:\t\r\n\x0b\x1c\x1f\x85\u2028"


@st.composite
def _corpora(draw):
    field = st.text(st.sampled_from("ab<>.()" + draw(st.sampled_from(_SPECIAL))),
                    min_size=1, max_size=4)
    ids = draw(st.lists(field, max_size=4, unique=True))
    return Corpus(
        TypeUsage(uid, draw(field), draw(field), frozenset(draw(st.lists(field, max_size=3))),
                  draw(st.none() | field))
        for uid in ids
    )


@given(_corpora())
@settings(max_examples=300, deadline=None)
def test_parse_reads_back_whatever_write_accepts(corpus):
    try:
        text = write_corpus(corpus)
    except ValueError:
        return
    assert list(parse_corpus(text)) == list(corpus)


def test_bucket_lookup(two_usage_corpus, three_button_corpus):
    assert [u.id for u in two_usage_corpus.bucket("Button", "Page.createButton()")] == ["b"]
    assert two_usage_corpus.bucket("Nope", "x()") == []
    assert len(three_button_corpus.bucket("Button", "Page.createButton()")) == 3


def test_bucket_sizes_sum_to_usage_count(three_button_corpus, sandra_corpus):
    for corpus in (three_button_corpus, sandra_corpus):
        assert sum(len(ids) for ids in corpus.bucket_index.values()) == len(corpus)


def test_every_usage_in_exactly_its_own_bucket(sandra_corpus):
    for u in sandra_corpus:
        assert u.id in [y.id for y in sandra_corpus.bucket(u.type_name, u.context)]


@given(st.lists(st.tuples(st.sampled_from("ST"), st.sampled_from("cd"),
                          st.frozensets(st.sampled_from("fgh"))), max_size=12),
       st.sampled_from("STU"), st.sampled_from("cde"), st.booleans())
@settings(max_examples=200, deadline=None)
def test_bucket_is_the_usages_a_query_is_matched_against(rows, t, c, use_context):
    corpus = Corpus(TypeUsage(f"u{i}", *row) for i, row in enumerate(rows))
    assert corpus.bucket(t, c, use_context) == [
        y for y in corpus if y.type_name == t and (not use_context or y.context == c)]


@pytest.mark.parametrize("usages, message", [
    ([TypeUsage("u1", "A", "c()", frozenset()), TypeUsage("u2", "A", "", frozenset())],
     "record 2: empty type or context field"),
    ([TypeUsage("u1", "A", "c()", frozenset()), TypeUsage("u2", "B", "d()", frozenset()),
      TypeUsage("u1", "A", "c()", frozenset())],
     "record 3: duplicate id 'u1' (first seen on record 1)"),
])
def test_construction_names_the_record_that_breaks_a_rule(usages, message):
    with pytest.raises(ValueError) as info:
        Corpus(usages)
    assert str(info.value) == message


def test_duplicate_id_rejected_at_construction():
    with pytest.raises(ValueError, match="duplicate"):
        Corpus(
            [
                TypeUsage("u1", "A", "c()", frozenset()),
                TypeUsage("u1", "B", "d()", frozenset()),
            ]
        )
