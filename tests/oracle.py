"""Brute-force E/A oracle: the paper's definitions scanned literally.

It reads no index and returns its own result type, so the tests can check
the indexed similarity engine against it without sharing any of the
engine's code.
"""

from typing import NamedTuple

from callgap.corpus import Corpus
from callgap.similarity import Query, SimilarityParams, query_for


class OracleResult(NamedTuple):
    """e_count includes the subject itself, so it is always >= 1."""

    e_count: int
    a_ids: tuple[str, ...]


def oracle_similarity(q: Query, corpus: Corpus, p: SimilarityParams) -> OracleResult:
    """Literal definition-by-definition scan of the whole corpus, no index.

    Slow on purpose; exists so every indexed result can be cross-checked.
    """
    e = 1
    a = []
    lo, hi = len(q.calls) + 1, len(q.calls) + p.k
    for y in corpus:
        if y.id == q.exclude_id or y.type_name != q.type_name:
            continue
        if p.use_context and y.context != q.context:
            continue
        if y.calls == q.calls:
            e += 1
        elif lo <= len(y.calls) <= hi and q.calls <= y.calls:
            a.append(y.id)
    return OracleResult(e, tuple(a))


def oracle_exactly_similar(q: Query, corpus: Corpus, p: SimilarityParams) -> int:
    """``exactly_similar``'s answer, read off the oracle."""
    return oracle_similarity(q, corpus, p).e_count


def oracle_almost_similar(q: Query, corpus: Corpus, p: SimilarityParams) -> list[str]:
    """``almost_similar``'s answer, read off the oracle."""
    return list(oracle_similarity(q, corpus, p).a_ids)


def brute_force_oracle(
    corpus: Corpus, p: SimilarityParams, cap: int = 1000
) -> dict[str, OracleResult]:
    """Pairwise E/A for every in-corpus usage, by direct definition."""
    if len(corpus) > cap:
        raise ValueError(f"corpus size {len(corpus)} exceeds oracle cap {cap}")
    return {u.id: oracle_similarity(query_for(u), corpus, p) for u in corpus}
