"""Exact- and almost-similarity relations over type-usages.

Two usages are exactly-similar when they share type, context, and call-set;
y is almost-similar to x when y shares type and context, its call-set strictly
contains x's, and it has between 1 and k extra calls (k=1 by default). Both
relations can be relaxed to drop the context-equality condition (type equality
always remains); that mode matches over every usage of the type instead of the
(type, context) bucket. Both read ``Corpus.callset_index``: |E(x)| is the
number of bucket positions holding x's call-set, and A(x) is the set bits of
the |x|+1..|x|+k size masks ANDed with the mask of each call of x, read from
low to high, which is corpus order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, TypeUsage


@dataclass(frozen=True)
class SimilarityParams:
    """k = max number of extra calls admitted into almost-similarity (>= 1);
    use_context = require context equality (turning it off is the ablation)."""

    k: int = 1
    use_context: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class Query:
    """An external probe: a (type, context, call-set) to match against the
    corpus. ``exclude_id`` omits one corpus usage during matching, which gives
    leave-one-out semantics for degraded queries. It is looked up in
    ``Corpus.by_id``; an unknown id, or a usage outside the query's bucket,
    changes nothing."""

    type_name: str
    context: str
    calls: frozenset[str]
    exclude_id: str | None = None


def exactly_similar(q: Query, corpus: Corpus, p: SimilarityParams) -> int:
    """|E(q)|: matching corpus usages with an identical call-set, plus one
    for the subject itself, so it is always >= 1."""
    bucket, by_set, _ = corpus.callset_index(q.type_name, q.context, p.use_context)
    calls = frozenset(q.calls)
    x = corpus.by_id.get(q.exclude_id)
    return 1 + len(by_set.get(calls, ())) - (
        x is not None and x.calls == calls
        and corpus.bucket(x.type_name, x.context, p.use_context) is bucket)


def almost_similar(q: Query, corpus: Corpus, p: SimilarityParams) -> list[str]:
    """Ids of A(q): matching usages whose call-set strictly contains q's with
    1..k extra calls, in corpus order."""
    bucket, _, masks = corpus.callset_index(q.type_name, q.context, p.use_context)
    n = len(q.calls)
    hits = 0
    # No call-set has more calls than its bucket has distinct calls, and masks
    # holds one entry per distinct call, so a k past len(masks) adds no size.
    for size in range(n + 1, n + min(p.k, len(masks)) + 1):
        hits |= masks.get(size, 0)
    for m in q.calls:
        if not hits:
            return []
        hits &= masks.get(m, 0)
    x = corpus.by_id.get(q.exclude_id)
    bits = bin(hits)[:1:-1]  # character i is bit i
    ids, i = [], bits.find("1")
    while i >= 0:
        if bucket[i] is not x:
            ids.append(bucket[i].id)
        i = bits.find("1", i + 1)
    return ids


def query_for(u: TypeUsage) -> Query:
    """Leave-self-out query for an in-corpus usage."""
    return Query(u.type_name, u.context, u.calls, exclude_id=u.id)
