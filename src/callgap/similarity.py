"""Exact- and almost-similarity relations over type-usages.

Two usages are exactly-similar when they share type, context, and call-set;
y is almost-similar to x when y shares type and context, its call-set strictly
contains x's, and it has between 1 and k extra calls (k=1 by default). Both
relations can be relaxed to drop the context-equality condition (type equality
always remains); that mode matches over every usage of the type instead of the
(type, context) bucket. ``Corpus.bucket`` is the lookup for both.
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
    leave-one-out semantics for degraded queries."""

    type_name: str
    context: str
    calls: frozenset[str]
    exclude_id: str | None = None


@dataclass(frozen=True)
class SimilarityResult:
    """e_count includes the subject itself, so it is always >= 1."""

    e_count: int
    a_ids: tuple[str, ...]


def exactly_similar(q: Query, corpus: Corpus, p: SimilarityParams) -> int:
    """|E(q)|: matching corpus usages with an identical call-set, plus one
    for the subject itself."""
    count = 1
    for y in corpus.bucket(q.type_name, q.context, p.use_context):
        if y.calls == q.calls and y.id != q.exclude_id:
            count += 1
    return count


def almost_similar(q: Query, corpus: Corpus, p: SimilarityParams) -> list[str]:
    """Ids of A(q): matching usages whose call-set strictly contains q's with
    1..k extra calls, in corpus order."""
    lo = len(q.calls) + 1
    hi = len(q.calls) + p.k
    return [y.id for y in corpus.bucket(q.type_name, q.context, p.use_context)
            if lo <= len(y.calls) <= hi and q.calls <= y.calls and y.id != q.exclude_id]


def query_for(u: TypeUsage) -> Query:
    """Leave-self-out query for an in-corpus usage."""
    return Query(u.type_name, u.context, u.calls, exclude_id=u.id)


def query_similarity(q: Query, corpus: Corpus, p: SimilarityParams) -> SimilarityResult:
    """E/A of a query: the one place the two relations are composed. An
    in-corpus subject contributes exactly once to e_count (via the explicit
    +1, never via the bucket) when the query excludes it."""
    return SimilarityResult(exactly_similar(q, corpus, p), tuple(almost_similar(q, corpus, p)))

