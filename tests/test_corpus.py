"""Corpus parsing, writing, and bucket indexing."""

import pytest
from hypothesis import given, settings, strategies as st

from callgap import Corpus, CorpusFormatError, TypeUsage
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
    assert two_usage_corpus.bucket("Button", "Page.createButton()") == ["b"]
    assert two_usage_corpus.bucket("Nope", "x()") == []
    assert len(three_button_corpus.bucket("Button", "Page.createButton()")) == 3


def test_bucket_sizes_sum_to_usage_count(three_button_corpus, sandra_corpus):
    for corpus in (three_button_corpus, sandra_corpus):
        assert sum(len(ids) for ids in corpus.bucket_index.values()) == len(corpus)


def test_every_usage_in_exactly_its_own_bucket(sandra_corpus):
    for u in sandra_corpus:
        assert u.id in sandra_corpus.bucket(u.type_name, u.context)


def test_duplicate_id_rejected_at_construction():
    with pytest.raises(ValueError, match="duplicate"):
        Corpus(
            [
                TypeUsage("u1", "A", "c()", frozenset()),
                TypeUsage("u1", "B", "d()", frozenset()),
            ]
        )
