#!/usr/bin/env python3
"""Byte-identity digest of the CLI: one line per command, giving its argv,
its exit code and the sha256 of its stdout.

    python3 tools/cli_digest.py [CHECKOUT] > digest.txt

callgap is imported from CHECKOUT/src (default: the checkout holding this
script), and every command runs in-process through ``callgap.cli.main``. The
286 commands are 13 shapes, which use every subcommand but ``gen`` and every
flag, each run with and without ``--no-context`` on 11 corpora: the
acceptance suite's criterion-7 corpus and one 300-usage bucket that follows
a convention, the paper's majority-rule shape (both made with ``callgap
gen``), the Sandra corpus, a hand-written corpus of messy call fields in TSV
and in JSONL, and the three benchmark workloads at seeds 1 and 7 (made with
this checkout's ``bench/workloads.py``). Corpora are written to a
temporary directory and named relative to it, so two checkouts print the same
argv.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)
CRITERION_7 = ["--buckets", "20", "--per-bucket", "8", "--convention-size", "3",
               "--deviance", "0.2", "--seed", "5"]
CONVENTION = ["--buckets", "1", "--per-bucket", "300", "--convention-size", "5", "--vocab", "20",
              "--deviance", "0.1", "--seed", "3"]
SANDRA = "".join(f"u{i}\tDialogPage\tApp.createControl(Composite)\tsetControl\n" for i in range(1, 17)) + (
    "sandra\tDialogPage\tApp.createControl(Composite)\t\tSpecialPage.java:12\n")

# (type, context, calls field): call names padded, permuted, repeated and empty
MESSY = [("Widget", "View.build()", " init , setText,setColor"),
         ("Widget", "View.build()", "setColor,init,,setText"),
         ("Widget", "View.build()", "setText,init,setColor,setText"),
         ("Widget", "View.build()", "init ,  setText"),
         ("Widget", "View.build()", ",init,setText,setColor,"),
         ("Widget", "View.build()", " "),
         ("Widget", "View.build()", "setColor,init,,setText"),
         ("Widget", "View.show()", "init,show, show"),
         ("Widget", "View.show()", " show,init"),
         ("Widget", "View.show()", "init"),
         ("Widget", "View.show()", "init,show,setText"),
         ("Label", "View.build()", "init,setText"),
         ("Label", "View.build()", " setText , init "),
         ("Label", "View.build()", "init,,"),
         ("Label", "View.build()", "setText,init,setText"),
         ("Label", "View.build()", "")]


def messy(jsonl: bool) -> str:
    """MESSY as corpus text, with blank and comment lines between records; a
    JSONL record's calls list is its TSV field split at commas."""
    lines = ["# messy call fields", ""]
    for i, (type_name, context, calls) in enumerate(MESSY, start=1):
        lines.append(json.dumps({"id": f"m{i}", "type": type_name, "context": context,
                                 "calls": calls.split(",")}) if jsonl
                     else f"m{i}\t{type_name}\t{context}\t{calls}")
        if i % 4 == 0:
            lines += ["   ", f"  # after m{i}", ""]
    return "\n".join(lines) + "\n"


def shapes(corpus, first) -> list[list[str]]:
    """The 13 command shapes on ``corpus``; predict asks about ``first``, the
    corpus's first usage, with its last call (in name order) removed."""
    predict = ["predict", corpus, "--type", first.type_name, "--context", first.context,
               "--calls", ",".join(sorted(first.calls)[:-1])]
    return [
        ["stats", corpus, "--hist-width", "0.1"],
        ["score", corpus, "--top", "40", "--min-score", "0.05"],
        ["score", corpus, "--format", "human"],
        ["score", corpus, "--k", "2", "--ge", "-t", "0.5"],
        ["score", corpus, "--k", "1000000000000"],
        predict,
        [*predict, "--k", "3", "--threshold", "0.5", "--ge"],
        ["eval", corpus],
        ["eval", corpus, "--include-seed"],
        ["eval", corpus, "--k", "3"],
        ["eval", corpus, "--ge", "-t", "0.5"],
        ["eval", corpus, "--sweep-t", "0,0.5,0.9,1"],
        ["eval", corpus, "--sweep-k", "1,2,3"],
    ]


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else HERE).resolve()
    sys.path[:0] = [str(checkout / "src"), str(HERE / "bench")]
    import callgap.cli
    import workloads

    if Path(callgap.cli.__file__).resolve().parent != checkout / "src" / "callgap":
        raise SystemExit(f"error: imported callgap from {callgap.cli.__file__}, not {checkout}/src")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for corpus, spec in (("criterion7.tsv", CRITERION_7), ("convention.tsv", CONVENTION)):
            with contextlib.redirect_stdout(io.StringIO()):
                if callgap.cli.main(["gen", corpus, "--truth", "truth.tsv", *spec]) != 0:
                    raise SystemExit(f"error: gen {corpus} failed")
        Path("sandra.tsv").write_text(SANDRA, encoding="utf-8")
        Path("messy.tsv").write_text(messy(False), encoding="utf-8")
        Path("messy.jsonl").write_text(messy(True), encoding="utf-8")
        corpora = ["criterion7.tsv", "convention.tsv", "sandra.tsv", "messy.tsv", "messy.jsonl"]
        for name, w in workloads.WORKLOADS.items():
            for seed in SEEDS:
                corpora.append(f"{name}-{seed}{w.suffix}")
                workloads.write(w.generate(seed), corpora[-1])
        for corpus in corpora:
            for command in shapes(corpus, callgap.cli.load_corpus(corpus).usages[0]):
                for flags in ([], ["--no-context"]):
                    out = io.StringIO()
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = callgap.cli.main(command + flags, out=out)
                    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
                    print(f"{shlex.join(command + flags)}\t{code}\t{digest}")
        os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
