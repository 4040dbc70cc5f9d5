"""In-memory span recorder and the wrappers that put spans around callgap's
public functions.

``from .x import y`` binds ``y`` into the importing module when it is
imported, so a function is wrapped by rebinding its name in every
``callgap`` module that holds it. ``exactly_similar`` and ``almost_similar``
are wrapped rather than ``default_similarity``, because ``run_query`` takes
``default_similarity`` as a default argument and never looks the name up
again. Corpus indexing is timed by wrapping ``Corpus.__init__``.

Counts are taken after a wrapped call returns, outside its span.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

NO_PARENT = -1


class Tracer:
    """Spans as parallel arrays (name id, parent index, start, end in ns),
    plus counters. One tracer records one round; ``reset`` starts another."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_queries: set = set()

    def begin(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else NO_PARENT)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, tuple[int, int, int]]:
        """name -> (spans, total ns, self ns); self time is a span's time
        minus the time of its child spans."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p != NO_PARENT:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list[int]] = {}
        for i, nid in enumerate(self.name_of):
            d = self.end[i] - self.start[i]
            agg = out.setdefault(self.names[nid], [0, 0, 0])
            agg[0] += 1
            agg[1] += d
            agg[2] += d - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def time_under(self, parent_name: str, child_prefixes: tuple[str, ...]) -> int:
        """Total ns of spans whose name starts with one of ``child_prefixes``
        and whose direct parent is named ``parent_name``."""
        pid = self.name_ids.get(parent_name)
        total = 0
        for i, p in enumerate(self.parent):
            if (p != NO_PARENT and self.name_of[p] == pid
                    and self.names[self.name_of[i]].startswith(child_prefixes)):
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: str) -> None:
        """One line per span: index, parent index, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            fh.writelines(
                f"{i}\t{p}\t{names[n]}\t{s}\t{e}\n"
                for i, (p, n, s, e) in enumerate(zip(self.parent, self.name_of, self.start, self.end))
            )


def _wrap(tracer: Tracer, name: str, fn, after=None):
    begin, finish = tracer.begin, tracer.finish

    def wrapper(*args, **kwargs):
        i = begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(i)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Instrumentation:
    """Installs span wrappers on callgap's public functions and removes them.

    ``bucket_size(type_name, context)`` gives the length of the candidate
    list a similarity query walks; the benchmark computes it from its own
    records, so ``similarity.scanned`` does not depend on callgap's index.
    ``bucket_key(type_name, context)`` names the bucket a query falls in.
    """

    def __init__(self, tracer: Tracer, bucket_size, bucket_key):
        self.tracer = tracer
        self.bucket_size = bucket_size
        self.bucket_key = bucket_key
        self._undo: list[tuple[object, str, object]] = []

    def _counted_exact(self, args, result) -> None:
        q = args[0]
        c = self.tracer.counts
        c["similarity.scanned"] += self.bucket_size(q.type_name, q.context)
        c["similarity.hits"] += result - 1

    def _counted_almost(self, args, result) -> None:
        q = args[0]
        c = self.tracer.counts
        c["similarity.scanned"] += self.bucket_size(q.type_name, q.context)
        c["similarity.hits"] += len(result)

    def _counted_likelihoods(self, args, result) -> None:
        self.tracer.counts["prediction.candidates"] += len(result)

    def _counted_filter(self, args, result) -> None:
        c = self.tracer.counts
        c["prediction.filtered"] += len(args[0])
        c["prediction.kept"] += len(result)

    def _counted_query(self, args, result) -> None:
        # A query's answer depends only on its bucket, the seed's call-set and
        # the removed call; queries are distinct within one enclosing span
        # (one evaluate() call, one configuration).
        dq = args[0]
        q = dq.query
        t = self.tracer
        t.counts["evaluation.answered"] += result.answered
        enclosing = t.stack[-1] if t.stack else NO_PARENT
        t.distinct_queries.add(
            (enclosing, self.bucket_key(q.type_name, q.context), q.calls, dq.removed))

    def targets(self):
        """(module, attribute, span name, counter) for every wrapped function."""
        from callgap import corpus, evaluation, prediction, scoring, similarity

        return [
            (corpus, "load_corpus", "corpus.load", None),
            (corpus, "parse_corpus", "corpus.parse", None),
            (corpus, "parse_corpus_jsonl", "corpus.parse", None),
            (similarity, "exactly_similar", "similarity.exactly_similar", self._counted_exact),
            (similarity, "almost_similar", "similarity.almost_similar", self._counted_almost),
            (scoring, "score_all", "scoring.score_all", None),
            (scoring, "distribution_stats", "scoring.distribution_stats", None),
            (scoring, "histogram", "scoring.histogram", None),
            (prediction, "likelihoods", "prediction.likelihoods", self._counted_likelihoods),
            (prediction, "filter_recommendations", "prediction.filter_recommendations",
             self._counted_filter),
            (evaluation, "evaluate", "evaluation.evaluate", None),
            (evaluation, "sweep_k", "evaluation.sweep_k", None),
            (evaluation, "generate_degraded", "evaluation.generate_degraded", None),
            (evaluation, "run_query", "evaluation.query", self._counted_query),
            (evaluation, "aggregate", "evaluation.aggregate", None),
        ]

    def install(self) -> None:
        from callgap.corpus import Corpus

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "callgap" or n.startswith("callgap."))]
        for home, attr, name, after in self.targets():
            original = getattr(home, attr)
            wrapper = _wrap(self.tracer, name, original, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        init = Corpus.__init__
        self._undo.append((Corpus, "__init__", init))
        Corpus.__init__ = _wrap(self.tracer, "corpus.index", init)

    def remove(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
