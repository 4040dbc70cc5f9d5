"""Seeded corpus generators for the three benchmark workloads.

The generators belong to the benchmark, not to callgap, so a change to
``callgap.evaluation.gen_synthetic`` cannot alter what is measured. Each
returns a list of records ``(id, type, context, calls, origin)`` with
``calls`` a frozenset; ``write`` turns them into the file the program reads.
The shape parameters below are the ones the benchmark runs; the reason for
each shape is in ``BENCHMARK.json`` and in ``WORKLOADS``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

VERBS = (
    "get", "set", "add", "remove", "open", "close", "flush", "reset", "update",
    "check", "build", "load", "save", "start", "stop", "read", "write", "clear",
    "init", "bind", "release", "register", "validate", "dispose",
)
NOUNS = ("Value", "Size", "Name", "Item", "Listener", "Buffer", "State", "Text")


def _vocab(rng: random.Random, size: int) -> list[str]:
    names = [v + n for v in VERBS for n in NOUNS]
    return rng.sample(names, size)


# small-buckets: many (type, context) buckets of 5..9 usages, each with a
# planted convention; 5% of usages drop one call. Large file, heavy sharing,
# tiny similarity scans.
SMALL_TYPES = 100
SMALL_CONTEXTS_PER_TYPE = 5
SMALL_BUCKET_SIZE = (5, 9)
SMALL_CONVENTION_SIZE = (2, 4)
SMALL_VOCAB = 14
SMALL_INIT_PROB = 0.6
SMALL_DROP_RATE = 0.05


def small_buckets(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    records = []
    for t in range(SMALL_TYPES):
        type_name = f"com.example.ui.Widget{t}"
        vocab = _vocab(rng, SMALL_VOCAB)
        for c in range(SMALL_CONTEXTS_PER_TYPE):
            context = f"com.example.app.Page{t % 37}.create{t}x{c}()"
            convention = set(rng.sample(vocab, rng.randint(*SMALL_CONVENTION_SIZE)))
            if rng.random() < SMALL_INIT_PROB:
                convention.add("<init>")
            for _ in range(rng.randint(*SMALL_BUCKET_SIZE)):
                calls = set(convention)
                if rng.random() < SMALL_DROP_RATE:
                    calls.discard(rng.choice(sorted(calls)))
                n = len(records) + 1
                origin = f"src/app/Page{t % 37}.java:{rng.randint(10, 2000)}"
                records.append((f"s{n}", type_name, context, frozenset(calls), origin))
    return records


# hot-bucket: two (type, context) buckets of 450 usages whose call-sets
# are drawn from a Zipf-weighted vocabulary, so most call-sets are distinct
# and every query scans a whole large bucket.
HOT_BUCKETS = (("java.io.FileOutputStream", "com.example.io.Exporter.export()"),
               ("javax.swing.JButton", "com.example.ui.Dialog.layout()"))
HOT_BUCKET_SIZE = 450
HOT_VOCAB = 60
HOT_ZIPF_S = 1.3
HOT_CALLSET_SIZES = (1, 2, 3, 4, 5, 6, 7)
HOT_CALLSET_WEIGHTS = (2, 4, 6, 6, 4, 2, 1)


def hot_bucket(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    records = []
    for type_name, context in HOT_BUCKETS:
        vocab = _vocab(rng, HOT_VOCAB)
        weights = [1 / (i + 1) ** HOT_ZIPF_S for i in range(HOT_VOCAB)]
        for _ in range(HOT_BUCKET_SIZE):
            size = rng.choices(HOT_CALLSET_SIZES, HOT_CALLSET_WEIGHTS)[0]
            calls: set[str] = set()
            while len(calls) < size:
                calls.add(rng.choices(vocab, weights)[0])
            n = len(records) + 1
            origin = f"src/io/Exporter.java:{rng.randint(10, 5000)}"
            records.append((f"h{n}", type_name, context, frozenset(calls), origin))
    return records


# no-context: many contexts per type, run with --no-context so a bucket is a
# whole type. Written as JSON lines so the second parser is exercised.
NOCTX_TYPES = 10
NOCTX_CONTEXTS_PER_TYPE = 30
NOCTX_BUCKET_SIZE = 5
NOCTX_CONVENTION_SIZE = (2, 5)
NOCTX_VOCAB = 16
NOCTX_DROP_RATE = 0.05


def no_context(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    records = []
    for t in range(NOCTX_TYPES):
        type_name = f"java.sql.Resource{t}"
        vocab = _vocab(rng, NOCTX_VOCAB)
        for c in range(NOCTX_CONTEXTS_PER_TYPE):
            context = f"com.example.db.Dao{c}.query{t}()"
            convention = set(rng.sample(vocab, rng.randint(*NOCTX_CONVENTION_SIZE)))
            for _ in range(NOCTX_BUCKET_SIZE):
                calls = set(convention)
                if rng.random() < NOCTX_DROP_RATE:
                    calls.discard(rng.choice(sorted(calls)))
                n = len(records) + 1
                origin = f"src/db/Dao{c}.java:{rng.randint(10, 900)}"
                records.append((f"n{n}", type_name, context, frozenset(calls), origin))
    return records


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list[tuple]]
    suffix: str  # file extension; load_corpus dispatches on it
    use_context: bool
    why: str

    @property
    def flags(self) -> list[str]:
        return [] if self.use_context else ["--no-context"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-buckets", small_buckets, ".tsv", True,
            "500 buckets of 5-9 usages with planted conventions, 5% drop a call:"
            " parse, Fraction and render bound; similarity scans at most 8 mates",
        ),
        Workload(
            "hot-bucket", hot_bucket, ".tsv", True,
            "2 buckets of 450 usages, Zipf call-sets over 60 methods, most distinct:"
            " bucket scans dominate; call-set grouping gains little",
        ),
        Workload(
            "no-context", no_context, ".jsonl", False,
            "10 types x 30 contexts x 5 usages in JSONL, run with --no-context so a"
            " bucket is a type of 150: type index, JSONL parser, per-k re-evaluation",
        ),
    )
}


def write(records: list[tuple], path: str) -> None:
    """Write records as a tab-separated corpus, or as JSON lines when the
    path ends in ``.jsonl``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if path.endswith(".jsonl"):
            for uid, type_name, context, calls, origin in records:
                rec = {"id": uid, "type": type_name, "context": context, "calls": sorted(calls)}
                if origin:
                    rec["origin"] = origin
                fh.write(json.dumps(rec) + "\n")
        else:
            for uid, type_name, context, calls, origin in records:
                fields = [uid, type_name, context, ",".join(sorted(calls))]
                if origin:
                    fields.append(origin)
                fh.write("\t".join(fields) + "\n")
