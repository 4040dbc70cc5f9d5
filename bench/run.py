#!/usr/bin/env python3
"""callgap benchmark: one workload run.

    python3 bench/run.py --workload small-buckets --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: callgap is imported from ``src/`` there,
and inputs, outputs and span files go to ``.bench_work/``. The workload's
corpus file is generated from ``--seed`` before timing starts. Then, for
``--seconds`` seconds, the run repeats rounds in one process with one
client (closed loop, no worker threads). A round is:

* ``setup``: ``load_corpus`` on the corpus file, SETUP_REPS times;
* the ad-hoc queries: QUERY_POOL degraded copies of seeded random usages
  (one call removed, no ``exclude_id``), each answered by the library calls
  ``callgap predict`` makes after loading, one at a time;
* ``stats``, ``score``, ``eval`` and ``eval --sweep-k 1,2,3``, each an
  in-process call to ``callgap.cli.main`` with output to a buffer.

Every output is checked against ``reference.Reference`` after timing ends.
With ``--trace 0`` the run reports the end-to-end metrics (medians over the
run; the query percentiles are over the pool, each query's latency being
the median of its timings). With ``--trace 1`` it alternates untraced and traced rounds and
reports per-layer metrics from the traced ones, plus the tracing overhead:
traced minus untraced time per command. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when the run completed, whether or not outputs matched.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 5
QUERY_POOL = 1000
COMMANDS = {
    "stats": ["stats"],
    "score": ["score"],
    "eval": ["eval"],
    "sweep_k": ["eval", "--sweep-k", ",".join(map(str, reference.SWEEP_KS))],
}



def import_callgap():
    """Import callgap from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "callgap" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'callgap'} not found: run from a checkout of callgap")
    sys.path.insert(0, str(src))
    import callgap
    import callgap.cli

    if Path(callgap.__file__).resolve().parent != (src / "callgap").resolve():
        raise SystemExit(f"error: imported callgap from {callgap.__file__}, not {src}")
    return callgap


def digest(value) -> bytes:
    return hashlib.sha256(repr(value).encode()).digest()


def query_answer(e, a_ids, recs, kept) -> tuple:
    """Normal form of an ad-hoc query's answer, shared with the reference."""
    return (e, len(a_ids),
            tuple((r.method, Fraction(r.likelihood), r.support) for r in recs),
            tuple(r.method for r in kept))


def reference_answer(ref: reference.Reference, q) -> tuple:
    e, a, recs = ref.answer(q.type_name, q.context, q.calls)
    return (e, a, tuple(recs), tuple(m for m, lik, _ in recs if lik > reference.THRESHOLD))


class Run:
    def __init__(self, cg, workload: workloads.Workload, seed: int):
        self.cg = cg
        self.workload = workload
        WORK.mkdir(exist_ok=True)
        self.path = str(WORK / f"{workload.name}-{seed}{workload.suffix}")
        self.records = workload.generate(seed)
        workloads.write(self.records, self.path)
        self.ref = reference.Reference(self.records, workload.use_context)
        self.sizes = {k: sum(c.values()) for k, c in self.ref.groups.items()}
        self.params = cg.SimilarityParams(k=1, use_context=workload.use_context)
        self.pred = cg.PredictionConfig(reference.THRESHOLD)
        rng = random.Random(f"queries:{seed}")
        with_calls = [r for r in self.records if r[3]]
        self.queries = []
        for _ in range(QUERY_POOL):
            _, type_name, context, calls, _ = rng.choice(with_calls)
            removed = rng.choice(sorted(calls))
            self.queries.append(cg.Query(type_name, context, calls - {removed}))
        # (operation, digest of its output or None if it raised / exited
        # nonzero) -> times seen; its size does not grow with the rounds run
        self.results: Counter[tuple[str, bytes | None]] = Counter()
        self.outputs: dict[bytes, object] = {}  # digest -> output, for diagnostics
        self.reported_error = False

    def bucket_size(self, type_name: str, context: str) -> int:
        return self.sizes.get(self.ref.key(type_name, context), 0)

    def _timed(self, tracer: spans.Tracer | None, span: str, fn, *args):
        """(ns, result) of one call of ``fn``, under a span when tracing;
        the result is None when the call raised."""
        sid = tracer.begin(span) if tracer is not None else 0
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception:
            result = None
            if not self.reported_error:
                self.reported_error = True
                traceback.print_exc(file=sys.stderr)
        finally:
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.finish(sid)
        return t1 - t0, result

    def _record(self, op: str, output) -> None:
        """Keep the digest of an operation's output; None marks a failure."""
        d = None if output is None else digest(output)
        if d is not None:
            self.outputs.setdefault(d, output)
        self.results[op, d] += 1

    def _query(self, q, corpus):
        cg = self.cg
        e = cg.exactly_similar(q, corpus, self.params)
        a_ids = cg.almost_similar(q, corpus, self.params)
        recs = cg.likelihoods(q, a_ids, corpus)
        kept = cg.prediction.filter_recommendations(recs, self.pred)
        return e, a_ids, recs, kept

    def _command(self, argv: list[str]) -> tuple[int | str, str]:
        buf = io.StringIO()
        try:
            rc = self.cg.cli.main(argv, out=buf)
        except SystemExit as exc:
            rc = exc.code
        return rc, buf.getvalue()

    def round(self, tracer: spans.Tracer | None = None) -> dict:
        """One pass over every operation; returns its timings in ns."""
        timings: dict = {"setup": [], "query": []}
        gc.collect()
        for _ in range(SETUP_REPS):
            corpus = None  # free the previous load first, as a fresh process would
            ns, corpus = self._timed(tracer, "setup", self.cg.load_corpus, self.path)
            timings["setup"].append(ns)
            self._record("setup", None if corpus is None else len(corpus))

        gc.collect()
        for i, q in enumerate(self.queries):
            ns, answer = self._timed(tracer, "query", self._query, q, corpus)
            timings["query"].append(ns)
            self._record(f"query{i}", answer and query_answer(*answer))
        corpus = None

        timings["output_bytes"] = 0
        for name, argv in COMMANDS.items():
            gc.collect()
            full = [argv[0], self.path, *argv[1:], *self.workload.flags]
            timings[name], result = self._timed(tracer, f"cli.{name}", self._command, full)
            rc, text = result or ("exception", "")
            timings["output_bytes"] += len(text.encode())
            self._record(name, text if rc == 0 else None)
        return timings

    def check(self) -> tuple[int, int]:
        """(attempted, failed): compare every recorded output with the reference."""
        ref = self.ref
        want = {
            "stats": ref.stats_text(), "score": ref.score_text(),
            "eval": ref.eval_text(), "sweep_k": ref.sweep_k_text(),
            "setup": len(self.records),
        }
        for i, q in enumerate(self.queries):
            want[f"query{i}"] = reference_answer(ref, q)
        expected = {op: digest(v) for op, v in want.items()}
        failed = {(op, d): n for (op, d), n in self.results.items() if d != expected[op]}
        for (op, d), n in sorted(failed.items(), key=lambda kv: kv[0][0]):
            got = "raised or exited nonzero" if d is None else self.outputs[d]
            print(f"FAILED {op} ({n} time(s)):", file=sys.stderr)
            show_diff(got, want[op])
        return sum(self.results.values()), sum(failed.values())

    def layer_metrics(self, tracer: spans.Tracer, output_bytes: int) -> dict:
        s = tracer.summary()
        c = tracer.counts

        def self_s(*names):
            return sum(s.get(n, (0, 0, 0))[2] for n in names) / 1e9

        def total(*names):
            return sum(s.get(n, (0, 0, 0))[1] for n in names) / 1e9

        def count(*names):
            return sum(s.get(n, (0, 0, 0))[0] for n in names)

        sim = ("similarity.exactly_similar", "similarity.almost_similar")
        pred = ("prediction.likelihoods", "prediction.filter_recommendations")
        groups = self.ref.groups
        return {
            "corpus.read_s": self_s("corpus.load"),
            "corpus.parse_s": self_s("corpus.parse"),
            "corpus.index_s": self_s("corpus.index"),
            "corpus.usages": len(self.records),
            "corpus.buckets": len(groups),
            "corpus.largest_bucket": max(self.sizes.values()),
            "corpus.distinct_callsets": sum(len(g) for g in groups.values()),
            "similarity.calls": count(*sim),
            "similarity.busy_s": total(*sim),
            "similarity.scanned": c["similarity.scanned"],
            "similarity.hit_ratio": c["similarity.hits"] / c["similarity.scanned"],
            "scoring.score_all_s": self_s("scoring.score_all"),
            "scoring.stats_s": self_s("scoring.distribution_stats"),
            "scoring.histogram_s": self_s("scoring.histogram"),
            "prediction.calls": count(*pred),
            "prediction.busy_s": total(*pred),
            "prediction.candidates": c["prediction.candidates"],
            "prediction.kept_ratio": c["prediction.kept"] / c["prediction.filtered"],
            "evaluation.queries": count("evaluation.query"),
            "evaluation.distinct_queries": len(tracer.distinct_queries),
            "evaluation.answered": c["evaluation.answered"],
            "evaluation.degrade_s": self_s("evaluation.generate_degraded"),
            "evaluation.query_s": self_s("evaluation.query"),
            "evaluation.aggregate_s": self_s("evaluation.aggregate"),
            "cli.self_s": self_s(*(f"cli.{n}" for n in COMMANDS)),
            "cli.requery_s": tracer.time_under("cli.score", ("similarity.", "prediction.")) / 1e9,
            "cli.output_bytes": output_bytes,
            "trace.spans": tracer.n_spans,
        }


def show_diff(got, want) -> None:
    """Print the first differing line of two outputs."""
    if not (isinstance(got, str) and isinstance(want, str)):
        print(f"  got  {got!r}\n  want {want!r}", file=sys.stderr)
        return
    g, w = got.splitlines(), want.splitlines()
    for n, (a, b) in enumerate(zip(g, w), start=1):
        if a != b:
            print(f"  line {n}: got  {a!r}\n  line {n}: want {b!r}", file=sys.stderr)
            return
    print(f"  {len(g)} lines, want {len(w)}", file=sys.stderr)


def end_to_end(rounds: list[dict]) -> dict:
    # A query's latency is the median of its timings over the rounds, so
    # that the percentiles are over the query pool, not scheduler jitter.
    queries = [statistics.median(ts) for ts in zip(*(r["query"] for r in rounds))]
    metrics = {
        "setup_s": statistics.median(t for r in rounds for t in r["setup"]) / 1e9,
        **{f"{name}_s": statistics.median(r[name] for r in rounds) / 1e9 for name in COMMANDS},
        "query_p50_us": statistics.median(queries) / 1e3,
        "query_p99_us": statistics.quantiles(queries, n=100)[98] / 1e3,
    }
    return metrics


def out_of_time(start: float, round_start: float, seconds: float) -> bool:
    """True when another round as long as the last would end after ``seconds``."""
    now = time.perf_counter()
    return now - start + (now - round_start) > seconds


def traced(run: Run, seconds: float, tracer: spans.Tracer) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds; per-layer metrics are medians
    over traced rounds, and counts must repeat exactly between them."""
    inst = spans.Instrumentation(tracer, run.bucket_size, run.ref.key)
    plain, traced_rounds, layers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run.round())
        tracer.reset()
        inst.install()
        try:
            timings = run.round(tracer)
        finally:
            inst.remove()
        traced_rounds.append(timings)
        layers.append(run.layer_metrics(tracer, timings["output_bytes"]))
        if out_of_time(start, t0, seconds):
            break
    counts_differ = sorted(
        k for k, v in layers[0].items()
        if not k.endswith("_s") and isinstance(v, int) and any(m[k] != v for m in layers)
    )
    metrics = {k: statistics.median(m[k] for m in layers) if k.endswith("_s") else layers[0][k]
               for k in layers[0]}
    untraced, with_spans = end_to_end(plain), end_to_end(traced_rounds)
    for name in ("setup", *COMMANDS):
        metrics[f"trace.{name}_overhead_s"] = with_spans[f"{name}_s"] - untraced[f"{name}_s"]
    metrics["trace.query_overhead_us"] = with_spans["query_p50_us"] - untraced["query_p50_us"]
    return metrics, {"rounds": len(traced_rounds), "counts_differ": counts_differ}


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric_units() -> dict[str, str]:
    """metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cg = import_callgap()
    units = metric_units()
    run = Run(cg, workloads.WORKLOADS[args.workload], args.seed)
    notes: dict = {}
    if args.trace:
        tracer = spans.Tracer()
        metrics, notes = traced(run, args.seconds, tracer)
        tracer.write(str(WORK / f"spans-{args.workload}-{args.seed}.tsv"))
    else:
        # The peak is read after the first round, so that it does not grow
        # with the timings kept by a run that fits more rounds.
        harness_rss_mb = max_rss_mb()
        rounds = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(run.round())
            if len(rounds) == 1:
                peak_rss_mb = max_rss_mb()
            if out_of_time(start, t0, args.seconds):
                break
        metrics = end_to_end(rounds)
        metrics["peak_rss_mb"] = peak_rss_mb
        notes["rounds"] = len(rounds)
        print(f"harness_rss_mb = {harness_rss_mb:.6g} MiB"
              " (before the first round: interpreter, corpus records, reference, queries)")
    attempted, failed = run.check()
    correct = failed == 0 and not notes.get("counts_differ")
    if notes.get("counts_differ"):
        print(f"counts differ between traced rounds: {notes['counts_differ']}", file=sys.stderr)

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} ratio"
          f" ({failed} of {attempted} operations, {notes['rounds']} rounds)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
