"""Command-line interface: stats, score, predict, eval, gen.

All commands are deterministic batch operations; exit code 0 means success,
1 an analysis-level failure (e.g. nothing to evaluate), 2 an input/IO error.
Defaults mirror the headline configuration: t=0.9, k=1, strict comparison,
context equality on, leave-one-out on.

Only this module reads a corpus path, formats a number or writes output; the
library modules return counts, Fractions and reports. A failing command writes
one ``error:`` line to stderr and nothing to stdout. A command whose reader
closes stdout stops with one such line and exit code 2.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from bisect import bisect_left

from .corpus import Corpus, load_corpus, write_corpus
from .evaluation import EvalConfig, SyntheticSpec, evaluate, gen_synthetic, sweep_k, sweep_threshold
from .prediction import PredictionConfig, likelihoods, filter_recommendations
from .scoring import (
    as_bin_width,
    as_fraction,
    distribution_stats,
    histogram,
    s_score,
    score_all,
)
from .similarity import Query, SimilarityParams, almost_similar, exactly_similar, query_for

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_INPUT = 2

# The eval CSV columns after t,k,include_seed,use_context: (header, EvalReport field)
_EVAL_COLUMNS = (
    ("N", "n_queries"), ("answered", "answered_frac"), ("correct", "correct_frac"),
    ("false", "false_frac"), ("precision", "precision"), ("recall", "recall"),
    ("perfect", "perfect_frac"), ("avg_e", "avg_e"), ("avg_a", "avg_a"), ("avg_s", "avg_s"),
    ("avg_r", "avg_r"), ("avg_phi", "avg_phi"), ("avg_missing", "avg_missing"),
)


def _fmt(value) -> str:
    """A number as printed: 'NA' for an undefined metric, else a decimal."""
    return "NA" if value is None else f"{float(value):.6g}"


def _load(path: str) -> Corpus | None:
    try:
        return load_corpus(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except ValueError as exc:  # CorpusFormatError, or a Corpus invariant
        print(f"error: {path}: {exc}", file=sys.stderr)
    return None


def _sim_params(args) -> SimilarityParams:
    return SimilarityParams(k=args.k, use_context=not args.no_context)


def _pred_config(args) -> PredictionConfig:
    return PredictionConfig(args.threshold, strict_comparison=not args.ge)


def cmd_stats(corpus: Corpus, args, out) -> int:
    if len(corpus) == 0:
        print("error: corpus is empty", file=sys.stderr)
        return EXIT_ANALYSIS
    scores = score_all(corpus, _sim_params(args))
    stats = distribution_stats(scores, corpus)
    print("metric,value", file=out)
    print(f"n_usages,{stats.n_usages}", file=out)
    print(f"n_types,{len(corpus.type_index)}", file=out)
    print(f"n_contexts,{len({u.context for u in corpus})}", file=out)
    print(f"n_redundant,{stats.n_redundant}", file=out)
    print(f"frac_redundant,{_fmt(stats.frac_redundant)}", file=out)
    print(f"median_s,{_fmt(stats.median_s)}", file=out)
    print(f"mean_s,{_fmt(stats.mean_s)}", file=out)
    print(f"frac_below_0_1,{_fmt(stats.frac_below_0_1)}", file=out)
    print(f"frac_above_0_5,{_fmt(stats.frac_above_0_5)}", file=out)
    print(f"frac_above_0_9,{_fmt(stats.frac_above_0_9)}", file=out)
    print("", file=out)
    print("bin_start,bin_end,count", file=out)
    for lo, hi, count in histogram(scores, args.hist_width):
        print(f"{_fmt(lo)},{_fmt(hi)},{count}", file=out)
    return EXIT_OK


def cmd_score(corpus: Corpus, args, out) -> int:
    p = _sim_params(args)
    cfg = _pred_config(args)
    scores = score_all(corpus, p)
    rows = scores[: bisect_left(scores, True, key=lambda s: s.s_score < args.min_score)][: args.top]
    human = args.format == "human"
    if not human:
        print("id,type,context,origin,score,e,a,recommendations", file=out)
    recs_of: dict[tuple, tuple] = {}  # rows alike in score_all's memo key share its a_ids
    text_of: dict[tuple[int, int], str] = {}  # a score's (numerator, denominator) -> its text
    for s in rows:
        u = corpus.get(s.id)
        key = (corpus.bucket_key(u.type_name, u.context, p.use_context), u.calls)
        if key not in recs_of:
            recs = filter_recommendations(likelihoods(query_for(u), s.a_ids, corpus), cfg)
            recs_of[key] = recs, ";".join(f"{r.method}:{_fmt(r.likelihood)}" for r in recs)
        recs, rec_str = recs_of[key]
        pair = (s.s_score.numerator, s.s_score.denominator)
        score = text_of.get(pair) or text_of.setdefault(pair, _fmt(s.s_score))
        if human:
            origin = f"  [{u.origin}]" if u.origin else ""
            print(f"{s.id}  score={score}  {u.type_name}  {u.context}{origin}", file=out)
            for r in recs:
                print(
                    f"    missing {r.method}? {r.support} of {s.a_count} similar "
                    f"usages also call it (likelihood {_fmt(r.likelihood)})",
                    file=out,
                )
        else:
            print(
                f"{s.id},{u.type_name},{u.context},{u.origin or ''},"
                f"{score},{s.e_count},{s.a_count},{rec_str}",
                file=out,
            )
    return EXIT_OK


def cmd_predict(corpus: Corpus, args, out) -> int:
    p = _sim_params(args)
    cfg = _pred_config(args)
    calls = frozenset(c.strip() for c in (args.calls or "").split(",") if c.strip())
    q = Query(args.type, args.context, calls)
    e_count, a_ids = exactly_similar(q, corpus, p), almost_similar(q, corpus, p)
    print(f"e_count: {e_count}", file=out)
    print(f"a_count: {len(a_ids)}", file=out)
    print(f"s_score: {_fmt(s_score(e_count, len(a_ids)))}", file=out)
    if not a_ids:
        print("no almost-similar usages", file=out)
        return EXIT_OK
    recs = filter_recommendations(likelihoods(q, a_ids, corpus), cfg)
    cmp = ">=" if args.ge else ">"
    print(f"missing calls (likelihood {cmp} {_fmt(cfg.threshold)}):", file=out)
    for r in recs:
        print(
            f"  {r.method}  likelihood={_fmt(r.likelihood)}  "
            f"({r.support} of {len(a_ids)} similar usages also call it)",
            file=out,
        )
    return EXIT_OK


def cmd_eval(corpus: Corpus, args, out) -> int:
    cfg = EvalConfig(_pred_config(args), _sim_params(args), include_seed=args.include_seed)
    try:
        if args.sweep_t:
            rows = [(t, args.k, r) for t, r in sweep_threshold(corpus, cfg, args.sweep_t)]
        elif args.sweep_k:
            rows = [(cfg.prediction.threshold, k, r) for k, r in sweep_k(corpus, cfg, args.sweep_k)]
        else:
            rows = [(cfg.prediction.threshold, args.k, evaluate(corpus, cfg))]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    print("t,k,include_seed,use_context," + ",".join(h for h, _ in _EVAL_COLUMNS), file=out)
    run = f"{str(args.include_seed).lower()},{str(not args.no_context).lower()}"
    for t, k, report in rows:
        cells = (getattr(report, f) for _, f in _EVAL_COLUMNS)  # N is a count, the rest metrics
        print(f"{_fmt(t)},{k},{run}," + ",".join(str(c) if isinstance(c, int) else _fmt(c) for c in cells), file=out)
    return EXIT_OK


def cmd_gen(args, out) -> int:
    if os.path.realpath(args.out) == os.path.realpath(args.truth):
        print(f"error: corpus and truth would both be written to {args.out}", file=sys.stderr)
        return EXIT_INPUT
    try:
        spec = SyntheticSpec(
            n_buckets=args.buckets,
            usages_per_bucket=args.per_bucket,
            convention_size=args.convention_size,
            deviance_rate=args.deviance,
            method_vocab=args.vocab,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    corpus, truth = gen_synthetic(spec, args.seed)
    try:
        _write_all([(args.out, write_corpus(corpus)),
                    (args.truth, "".join(f"{uid}\t{dropped}\n" for uid, dropped in truth))])
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {len(corpus)} usages to {args.out}, {len(truth)} deviants to {args.truth}", file=out)
    return EXIT_OK


def _write_all(texts: list[tuple[str, str]]) -> None:
    """Write every (path, text), or none if one fails: a missing or regular file
    is replaced by a temporary file, with its mode, once all are written; other
    files (``os.devnull``, a FIFO, a directory) are opened directly before that."""
    moves, direct = [], []  # (temporary file, target), (path, text)
    try:
        for path, text in texts:
            if os.path.exists(path) and not os.path.isfile(path):
                direct.append((path, text))
                continue
            target = os.path.realpath(path)
            tmp = os.path.join(os.path.dirname(target), f".callgap-{os.urandom(8).hex()}.tmp")
            # mode 0o666 less the umask, as open(target, "w") would create it
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            moves.append((tmp, target))
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            if os.path.exists(target):
                shutil.copymode(target, tmp)
        for path, text in direct:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for tmp, target in moves:
            os.replace(tmp, target)
    finally:
        for tmp, _ in moves:
            if os.path.exists(tmp):
                os.remove(tmp)


def _flag(convert):
    """argparse ``type=`` converter: a value ``convert`` rejects becomes a
    usage error (exit 2) naming the flag, raised before any corpus is read."""

    def parse(text: str):
        try:
            return convert(text)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"{text!r}: zero denominator") from None
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None

    return parse


def _k(text: str) -> int:
    return SimilarityParams(k=int(text)).k


def _threshold(text: str):
    return PredictionConfig(as_fraction(text)).threshold


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(f"must be >= 0, got {n}")
    return n


def _each(convert):
    """Converter for a comma-separated list of ``convert`` values."""
    return lambda text: [convert(v) for v in text.split(",")]


def _add_similarity_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=_flag(_k), default=1, help="extra calls admitted into almost-similarity")
    p.add_argument("--no-context", action="store_true", help="drop the context-equality condition")


def _add_threshold_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-t", "--threshold", type=_flag(_threshold), default="0.9",
                   help="likelihood threshold (default 0.9)")
    p.add_argument("--ge", action="store_true", help="filter with >= instead of strict >")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="callgap",
        description="Detect likely missing method calls by majority-rule deviance over type-usages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus counts and score distribution (CSV)")
    p.add_argument("corpus")
    _add_similarity_flags(p)
    p.add_argument("--hist-width", type=_flag(as_bin_width), default="0.05", help="histogram bin width")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("score", help="ranked deviance warnings with recommendations")
    p.add_argument("corpus")
    _add_similarity_flags(p)
    _add_threshold_flags(p)
    p.add_argument("--top", type=_flag(_count), default=None, help="keep only the N highest-scored usages")
    p.add_argument("--min-score", type=_flag(as_fraction), default="0", help="drop usages scoring below this")
    p.add_argument("--format", choices=["csv", "human"], default="csv")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("predict", help="recommendations for one ad-hoc query")
    p.add_argument("corpus")
    p.add_argument("--type", type=str.strip, required=True, help="variable type name")
    p.add_argument("--context", type=str.strip, required=True, help="enclosing method signature")
    p.add_argument("--calls", default="", help="comma-separated calls already made")
    _add_similarity_flags(p)
    _add_threshold_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="degradation-protocol evaluation (CSV report)")
    p.add_argument("corpus")
    _add_similarity_flags(p)
    _add_threshold_flags(p)
    p.add_argument("--include-seed", action="store_true", help="disable leave-one-out")
    sweep = p.add_mutually_exclusive_group()
    sweep.add_argument("--sweep-t", type=_flag(_each(_threshold)), default=None,
                       help="comma-separated thresholds to sweep")
    sweep.add_argument("--sweep-k", type=_flag(_each(_k)), default=None, help="comma-separated k values to sweep")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate a seeded synthetic corpus + ground truth")
    p.add_argument("out", help="corpus output path")
    p.add_argument("--truth", required=True, help="ground-truth output path")
    p.add_argument("--buckets", type=int, required=True)
    p.add_argument("--per-bucket", type=int, required=True)
    p.add_argument("--convention-size", type=int, default=3)
    p.add_argument("--deviance", type=float, default=0.0)
    p.add_argument("--vocab", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        if args.command == "gen":
            code = cmd_gen(args, out)
        else:
            corpus = _load(args.corpus)
            code = EXIT_INPUT if corpus is None else args.func(corpus, args, out)
        out.flush()  # a reader that left shows here, not in the flush at exit
        return code
    except BrokenPipeError as exc:  # the reader left, as in `callgap score c.tsv | head -1`
        if out is sys.stdout:  # point its descriptor at devnull, so the flush at exit is quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
