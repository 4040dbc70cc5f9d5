"""CLI surface: output contracts, exit codes, determinism."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from callgap import Corpus
from callgap.cli import main
from callgap.corpus import write_corpus
from conftest import usage


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture
def sandra_file(tmp_path, sandra_corpus):
    path = tmp_path / "sandra.tsv"
    path.write_text(write_corpus(sandra_corpus), encoding="utf-8")
    return str(path)


@pytest.fixture
def likelihood_file(tmp_path, likelihood_corpus):
    path = tmp_path / "fig.tsv"
    path.write_text(write_corpus(likelihood_corpus), encoding="utf-8")
    return str(path)


@pytest.fixture
def unanimous_file(tmp_path):
    corpus = Corpus([usage(f"u{i}", "T", "c()", {"a", "b", "c"}) for i in range(10)])
    path = tmp_path / "plant.tsv"
    path.write_text(write_corpus(corpus), encoding="utf-8")
    return str(path)


def test_stats_two_usage_corpus(tmp_path, two_usage_corpus):
    path = tmp_path / "two.tsv"
    path.write_text(write_corpus(two_usage_corpus), encoding="utf-8")
    code, out = run_cli(["stats", str(path)])
    assert code == 0
    assert "n_usages,2" in out
    assert "n_redundant,0" in out
    assert "mean_s,0" in out
    assert "bin_start,bin_end,count" in out


def test_stats_missing_file_exits_2(tmp_path):
    code, _ = run_cli(["stats", str(tmp_path / "nope.tsv")])
    assert code == 2


def test_stats_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("u1\tA\n", encoding="utf-8")
    code, _ = run_cli(["stats", str(path)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_score_sandra_top_warning(sandra_file):
    code, out = run_cli(["score", sandra_file, "--format", "human"])
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("sandra")
    assert "score=0.941176" in first
    assert "SpecialPage.java:12" in first
    assert "missing setControl? 16 of 16" in out


def test_score_min_score_filters_everything(sandra_file):
    code, out = run_cli(["score", sandra_file, "--min-score", "0.99"])
    assert code == 0
    assert out.splitlines() == ["id,type,context,origin,score,e,a,recommendations"]


def test_score_top_limits_rows(sandra_file):
    _, out = run_cli(["score", sandra_file, "--top", "1"])
    assert len(out.splitlines()) == 2  # header + 1 row


def test_predict_worked_example(likelihood_file):
    code, out = run_cli(
        ["predict", likelihood_file, "--type", "Button",
         "--context", "Page.createButton()", "--calls", "<init>", "-t", "0.75"]
    )
    assert code == 0
    assert "e_count: 2" in out  # itself + x
    assert "a_count: 5" in out
    assert "setText  likelihood=0.8" in out
    assert "setFont" not in out


def test_predict_t0_lists_both(likelihood_file):
    _, out = run_cli(
        ["predict", likelihood_file, "--type", "Button",
         "--context", "Page.createButton()", "--calls", "<init>", "-t", "0"]
    )
    assert "setText" in out and "setFont" in out


def test_predict_strips_arguments_like_corpus_fields(likelihood_file):
    plain = run_cli(
        ["predict", likelihood_file, "--type", "Button",
         "--context", "Page.createButton()", "--calls", "<init>", "-t", "0"]
    )
    padded = run_cli(
        ["predict", likelihood_file, "--type", " Button ",
         "--context", "\tPage.createButton() ", "--calls", " <init> , ", "-t", "0"]
    )
    assert padded == plain
    assert "a_count: 5" in plain[1]


def test_predict_no_match(likelihood_file):
    code, out = run_cli(
        ["predict", likelihood_file, "--type", "Nope", "--context", "x()"]
    )
    assert code == 0
    assert "a_count: 0" in out
    assert "no almost-similar usages" in out


def test_eval_planted_corpus_perfect(unanimous_file):
    code, out = run_cli(["eval", unanimous_file])
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("t,k,include_seed,use_context,N,")
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["N"] == "30"
    assert cols["precision"] == "1"
    assert cols["recall"] == "1"
    assert cols["include_seed"] == "false"


def test_eval_sweep_t_rows_and_monotonicity(unanimous_file):
    code, out = run_cli(["eval", unanimous_file, "--sweep-t", "0,0.2,0.4,0.6,0.8,0.9,1"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 7
    recalls = [float(r.split(",")[9]) for r in rows]
    assert recalls == sorted(recalls, reverse=True)
    assert recalls[-1] == 0.0  # strict comparison at t=1


def test_eval_sweep_k_rows(unanimous_file):
    code, out = run_cli(["eval", unanimous_file, "--sweep-k", "1,2,3,4"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 4
    avg_a = [float(r.split(",")[12]) for r in rows]
    assert avg_a == sorted(avg_a)


def test_eval_no_redundancy_exits_1(tmp_path, two_usage_corpus):
    path = tmp_path / "two.tsv"
    path.write_text(write_corpus(two_usage_corpus), encoding="utf-8")
    code, _ = run_cli(["eval", str(path)])
    assert code == 1


def test_gen_roundtrip_and_determinism(tmp_path):
    args = [
        "gen", str(tmp_path / "c.tsv"), "--truth", str(tmp_path / "t.tsv"),
        "--buckets", "4", "--per-bucket", "6", "--convention-size", "3",
        "--deviance", "0.25", "--seed", "7",
    ]
    code, _ = run_cli(args)
    assert code == 0
    first = (tmp_path / "c.tsv").read_bytes(), (tmp_path / "t.tsv").read_bytes()
    code, _ = run_cli(args)
    assert code == 0
    assert ((tmp_path / "c.tsv").read_bytes(), (tmp_path / "t.tsv").read_bytes()) == first
    code, _ = run_cli(["stats", str(tmp_path / "c.tsv")])
    assert code == 0


def test_gen_zero_deviance_empty_truth(tmp_path):
    code, _ = run_cli(
        ["gen", str(tmp_path / "c.tsv"), "--truth", str(tmp_path / "t.tsv"),
         "--buckets", "2", "--per-bucket", "3"]
    )
    assert code == 0
    assert (tmp_path / "t.tsv").read_text() == ""
    assert len((tmp_path / "c.tsv").read_text().splitlines()) == 6


def test_gen_invalid_spec_exits_2(tmp_path):
    code, _ = run_cli(
        ["gen", str(tmp_path / "c.tsv"), "--truth", str(tmp_path / "t.tsv"),
         "--buckets", "2", "--per-bucket", "3", "--deviance", "1.5"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv_builder",
    [
        lambda f: ["stats", f],
        lambda f: ["score", f, "-t", "0.5"],
        lambda f: ["eval", f, "--sweep-t", "0,0.5,1"],
    ],
)
def test_commands_byte_identical_across_runs(sandra_file, argv_builder):
    argv = argv_builder(sandra_file)
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1.encode() == out2.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "-t", "abc"],
        ["score", "-t", "2"],
        ["score", "--min-score", "x"],
        ["score", "--k", "0"],
        ["score", "--top", "-1"],
        ["stats", "--hist-width", "0"],
        ["eval", "--sweep-k", "0"],
        ["eval", "--sweep-t", "2"],
        ["eval", "--sweep-t", "0.5", "--sweep-k", "1,2"],
    ],
)
def test_bad_flag_value_exits_2_before_loading(tmp_path, capsys, argv):
    # The corpus path does not exist: a flag checked only after loading
    # would return 2 from the read error instead of exiting as a usage error.
    command, *flags = argv
    buf = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "absent.tsv"), *flags], out=buf)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert buf.getvalue() == "" and captured.out == ""
    assert "Traceback" not in captured.err
    assert f"error: argument {flags[-2]}" in captured.err  # the last flag given


@pytest.mark.parametrize(
    "command,flag",
    [("score", "-t"), ("score", "--min-score"), ("stats", "--hist-width"), ("eval", "--sweep-t")],
)
def test_zero_denominator_flag_says_why(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "absent.tsv"), flag, "1/0"], out=io.StringIO())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err
    assert "zero denominator" in err
    assert "Fraction(" not in err


# Characters the formats treat specially: separators, comment marks, line
# breaks that only str.splitlines sees, a byte-order mark and JSON syntax.
_TEXT = st.text(st.sampled_from("ab,#: \t\r\x85\u2028\ufeff\"{}[]\\"), max_size=6)
_JSON_VALUE = (st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False) | _TEXT
               | st.lists(st.none() | st.integers(0, 2) | _TEXT, max_size=3)
               | st.dictionaries(_TEXT, _TEXT, max_size=1))


@st.composite
def _corpus_line(draw, jsonl):
    """A valid record with at most one value, or the whole line, replaced by
    something arbitrary."""
    rec = {"id": draw(st.sampled_from(["", "u3"])), "type": draw(st.sampled_from("AB")),
           "context": "c()", "calls": draw(st.lists(st.sampled_from("fgh"), max_size=3)),
           "origin": draw(st.sampled_from(["", "F.java:1"]))}
    key = draw(st.sampled_from([*rec, "line"])) if draw(st.booleans()) else None
    if key == "line":
        return draw(_TEXT | st.just('{"calls": ' + "[" * 100_000))
    if key:
        rec[key] = draw(_JSON_VALUE if jsonl else _TEXT)
    if jsonl:
        return json.dumps(rec, ensure_ascii=draw(st.booleans()))
    calls = rec["calls"] if isinstance(rec["calls"], str) else ",".join(rec["calls"])
    return "\t".join([rec["id"], rec["type"], rec["context"], calls, rec["origin"]])


@given(st.data(), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_stats_on_fuzzed_lines_exits_cleanly(tmp_path_factory, data, jsonl, bom):
    lines = data.draw(st.lists(_corpus_line(jsonl), max_size=5))
    path = tmp_path_factory.getbasetemp() / ("fuzz.jsonl" if jsonl else "fuzz.tsv")
    path.write_text("\ufeff" * bom + "\n".join(lines), encoding="utf-8", newline="")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(["stats", str(path)])
    if code == 0:
        assert err.getvalue() == ""
    elif code == 1:
        assert err.getvalue() == "error: corpus is empty\n"
    else:
        assert code == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
