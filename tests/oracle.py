"""Brute-force E/A oracle: the paper's definitions scanned literally.

It reads no index, so the tests can check the indexed similarity engine
against it without sharing any of the engine's code.
"""

from callgap.corpus import Corpus
from callgap.similarity import Query, SimilarityParams, SimilarityResult, query_for


def oracle_similarity(q: Query, corpus: Corpus, p: SimilarityParams) -> SimilarityResult:
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
    return SimilarityResult(e, tuple(a))


def brute_force_oracle(
    corpus: Corpus, p: SimilarityParams, cap: int = 1000
) -> dict[str, SimilarityResult]:
    """Pairwise E/A for every in-corpus usage, by direct definition."""
    if len(corpus) > cap:
        raise ValueError(f"corpus size {len(corpus)} exceeds oracle cap {cap}")
    return {u.id: oracle_similarity(query_for(u), corpus, p) for u in corpus}
