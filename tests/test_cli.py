"""CLI surface: output contracts, exit codes, determinism."""

import contextlib
import io
import json
import os
import random
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from callgap import Corpus, SimilarityParams, score_all
from callgap.cli import main
from callgap.corpus import CorpusFormatError, parse_corpus_jsonl, write_corpus
from conftest import random_corpus, usage

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def cli_process(argv, run=subprocess.Popen, **kwargs):
    """``python -m callgap.cli argv`` in a child process, importing this checkout's
    callgap, with stdout buffered as in a plain run."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    return run([sys.executable, "-m", "callgap.cli", *argv], env=env, text=True,
               stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


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


@pytest.mark.parametrize("calls", [[["a"]], [{"x": 1}], ["a", ["b"]]])
def test_jsonl_call_name_that_is_a_list_or_object_is_one_error_line(tmp_path, capsys, calls):
    text = '{"type": "A", "context": "c()", "calls": ["a"]}\n' + json.dumps(
        {"type": "A", "context": "c()", "calls": calls}) + "\n"
    with pytest.raises(CorpusFormatError, match="^line 2: call names must be strings$"):
        parse_corpus_jsonl(text)
    path = tmp_path / "c.jsonl"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["stats", str(path)]) == (2, "")
    assert capsys.readouterr().err == f"error: {path}: line 2: call names must be strings\n"


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


def test_score_min_score_keeps_the_rows_at_or_above_it(tmp_path):
    corpus = random_corpus(random.Random(11), max_usages=60)
    path = tmp_path / "r.tsv"
    path.write_text(write_corpus(corpus), encoding="utf-8")
    exact = {s.id: s.s_score for s in score_all(corpus, SimilarityParams())}
    header, *rows = run_cli(["score", str(path)])[1].splitlines()
    cuts = sorted(set(exact.values()))
    for cut in cuts + [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])] + [Fraction(1)]:
        code, out = run_cli(["score", str(path), "--min-score", str(cut)])
        assert code == 0
        assert out.splitlines() == [header, *[r for r in rows if exact[r.split(",")[0]] >= cut]], cut


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


@pytest.mark.parametrize("flags", [[], ["--sweep-t", "0,0.5,1"], ["--sweep-k", "1,2,3"]])
def test_eval_header_and_rows_have_the_same_fields(sandra_file, flags):
    code, out = run_cli(["eval", sandra_file, *flags])
    assert code == 0
    header, *rows = out.splitlines()
    assert len(rows) == (3 if flags else 1)
    assert {len(row.split(",")) for row in rows} == {len(header.split(","))} == {17}


def test_eval_no_redundancy_exits_1(tmp_path, capsys, two_usage_corpus):
    path = tmp_path / "two.tsv"
    path.write_text(write_corpus(two_usage_corpus), encoding="utf-8")
    code, out = run_cli(["eval", str(path)])
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: no degraded queries") and err.count("\n") == 1


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


def test_gen_refuses_one_path_for_corpus_and_truth(tmp_path, capsys):
    path = tmp_path / "c.tsv"
    path.write_text("kept\n", encoding="utf-8")
    code, out = run_cli(["gen", str(path), "--truth", str(tmp_path / "." / "c.tsv"),
                         "--buckets", "2", "--per-bucket", "3", "--deviance", "0.5"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("blocked", ["corpus", "truth"])
@pytest.mark.parametrize("why", ["missing directory", "is a directory"])
@pytest.mark.parametrize("existing", [False, True])
def test_gen_writes_neither_file_when_one_cannot_be_written(tmp_path, capsys, blocked, why, existing):
    paths = {"corpus": tmp_path / "c.tsv", "truth": tmp_path / "t.tsv"}
    if why == "missing directory":
        paths[blocked] = tmp_path / "nodir" / paths[blocked].name
    else:
        paths[blocked].mkdir()
    if existing:
        for path in paths.values():
            if path.parent.exists() and not path.is_dir():
                path.write_bytes(b"kept\r\n")
    before = sorted(tmp_path.iterdir())
    code, out = run_cli(["gen", str(paths["corpus"]), "--truth", str(paths["truth"]),
                         "--buckets", "2", "--per-bucket", "3", "--deviance", "0.5"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before  # no file created, no temporary file left
    for path in paths.values():
        if path.is_file():
            assert path.read_bytes() == b"kept\r\n"
    assert [p.name for p in tmp_path.glob("*/*")] == []


@pytest.mark.parametrize("devnull", ["corpus", "truth"])
def test_gen_writes_a_target_that_is_not_a_regular_file_in_place(tmp_path, monkeypatch, devnull):
    real_replace, real_open = os.replace, os.open

    def replace(src, dst):
        assert not os.path.exists(dst) or os.path.isfile(dst), f"would replace {dst}"
        real_replace(src, dst)

    def open_(path, flags, *args, **kwargs):
        dir = os.path.dirname(path)
        assert not flags & os.O_CREAT or os.path.samefile(dir, tmp_path), f"would create a file in {dir}"
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "open", open_)
    paths = {"corpus": str(tmp_path / "c.tsv"), "truth": str(tmp_path / "t.tsv"), devnull: os.devnull}
    code, out = run_cli(["gen", paths["corpus"], "--truth", paths["truth"],
                         "--buckets", "2", "--per-bucket", "3", "--deviance", "0.5"])
    assert code == 0 and out.startswith("wrote 6 usages")
    assert [p.name for p in tmp_path.iterdir()] == ["t.tsv" if devnull == "corpus" else "c.tsv"]


def test_gen_keeps_the_mode_of_a_file_it_replaces(tmp_path):
    corpus, truth = tmp_path / "c.tsv", tmp_path / "t.tsv"
    corpus.write_text("kept\n", encoding="utf-8")
    corpus.chmod(0o640)
    other = tmp_path / f"c.tsv.{os.getpid()}.tmp"  # a file of the user's beside the target
    other.write_text("mine\n", encoding="utf-8")
    umask = os.umask(0)
    os.umask(umask)
    code, _ = run_cli(["gen", str(corpus), "--truth", str(truth), "--buckets", "2", "--per-bucket", "3"])
    assert code == 0
    assert len(corpus.read_text(encoding="utf-8").splitlines()) == 6
    assert stat.S_IMODE(corpus.stat().st_mode) == 0o640
    assert stat.S_IMODE(truth.stat().st_mode) == 0o666 & ~umask
    assert other.read_text(encoding="utf-8") == "mine\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["c.tsv", "t.tsv", other.name])


def test_gen_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    umask = os.umask(0)
    os.umask(umask)

    def no_umask(mask):
        raise AssertionError("gen set the umask of the whole process")

    monkeypatch.setattr(os, "umask", no_umask)
    corpus, truth = tmp_path / "c.tsv", tmp_path / "t.tsv"
    truth.write_text("kept\n", encoding="utf-8")
    truth.chmod(0o604)
    code, _ = run_cli(["gen", str(corpus), "--truth", str(truth), "--buckets", "2", "--per-bucket", "3"])
    assert code == 0
    assert stat.S_IMODE(corpus.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(truth.stat().st_mode) == 0o604
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.tsv", "t.tsv"]


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
        ["stats", "--hist-width", "1e-15"],
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


def test_query_cost_stops_growing_with_k(tmp_path):
    path = tmp_path / "three.tsv"
    path.write_text("a\tT\tc()\tx,y\nb\tT\tc()\tx,y,z\nc\tT\tc()\tx\n", encoding="utf-8")
    commands = [
        ["eval", str(path), "--k", "{k}"],
        ["eval", str(path), "--sweep-k", "1,{k}"],
        ["score", str(path), "--k", "{k}"],
        ["predict", str(path), "--type", "T", "--context", "c()", "--calls", "x", "--k", "{k}"],
    ]

    def run(argv, k):
        proc = cli_process([a.format(k=k) for a in argv], run=subprocess.run, timeout=30)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        out = proc.stdout
        if argv[0] == "eval":  # drop the k column
            out = "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != 1)
                            for line in out.splitlines())
        return out

    for argv in commands:
        assert run(argv, 10**12) == run(argv, 64), argv


@pytest.mark.parametrize("short", [False, True])
def test_closed_stdout_is_one_error_line(tmp_path, short):
    """A long output fails in a write, once the pipe is full; a short one
    would fail only in the interpreter's flush at exit."""
    corpus = str(tmp_path / "c.tsv")
    code, _ = run_cli(["gen", corpus, "--truth", str(tmp_path / "t.tsv"), "--buckets", "2" if short else "500",
                       "--per-bucket", "10", "--deviance", "0.2", "--seed", "3"])
    assert code == 0
    assert len(run_cli(["score", corpus])[1]) >= (0 if short else 100_000)  # more than a pipe holds
    proc = cli_process(["score", corpus])
    if not short:
        assert proc.stdout.readline().startswith("id,")
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
    """stats, score and eval on fuzzed lines, perhaps holding a byte that is
    not UTF-8: a nonzero exit writes one error line and no output."""
    lines = data.draw(st.lists(_corpus_line(jsonl), max_size=5))
    body = ("\ufeff" * bom + "\n".join(lines)).encode("utf-8")
    at = data.draw(st.integers(0, len(body)))
    body = body[:at] + data.draw(st.sampled_from([b"", b"\xff", b"\xc3", b"\x80\r"])) + body[at:]
    path = tmp_path_factory.getbasetemp() / ("fuzz.jsonl" if jsonl else "fuzz.tsv")
    path.write_bytes(body)
    for command in ("stats", "score", "eval"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli([command, str(path)])
        if code == 0:
            assert err.getvalue() == ""
        elif code == 1 and command == "stats":
            assert (out, err.getvalue()) == ("", "error: corpus is empty\n")
        else:
            assert code in (1, 2) and out == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
