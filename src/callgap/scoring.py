"""Strangeness score and corpus-level distribution statistics.

The score of a usage is 1 - |E|/(|E| + |A|): few places doing exactly the same
thing combined with many places doing one call more marks the usage as a
minority deviation. Scores are exact rationals (ratios of small counts): every
number is bit-identical across platforms, decimals appear only at the reporting
edge, and exact arithmetic runs once per distinct score, not once per usage.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .corpus import Corpus
from .similarity import SimilarityParams, almost_similar, exactly_similar, query_for

MAX_BINS = 1_000_000  # histogram bins; a finer width would only fill memory


@dataclass(frozen=True)
class ScoredUsage:
    """a_ids are the usage's almost-similar neighbors, in corpus order."""

    id: str
    s_score: Fraction
    e_count: int
    a_ids: tuple[str, ...]

    @property
    def a_count(self) -> int:
        return len(self.a_ids)


@dataclass(frozen=True)
class DistributionStats:
    """Summary of a score distribution plus bucket redundancy counts.

    median is the lower-middle element of the sorted scores (no interpolation);
    the three fraction fields use strict comparisons (< 0.1, > 0.5, > 0.9).
    """

    n_usages: int
    median_s: Fraction
    mean_s: Fraction
    frac_below_0_1: Fraction
    frac_above_0_5: Fraction
    frac_above_0_9: Fraction
    n_redundant: int
    frac_redundant: Fraction


def s_score(e_count: int, a_count: int) -> Fraction:
    """1 - e/(e+a). e_count must be >= 1 (the subject is always in E), which
    keeps the score strictly below 1."""
    if e_count < 1:
        raise ValueError(f"e_count must be >= 1, got {e_count}")
    if a_count < 0:
        raise ValueError(f"a_count must be >= 0, got {a_count}")
    return 1 - Fraction(e_count, e_count + a_count)


def score_all(corpus: Corpus, p: SimilarityParams) -> list[ScoredUsage]:
    """Score every usage; sorted by score descending, ties by id ascending.
    Each distinct (bucket key, call-set) is queried once, and each distinct
    (|E|, |A|) pair scored and ranked once; pairs of equal score share a rank."""
    memo: dict[tuple, tuple] = {}  # key -> (e_count, a_ids, ids of the usages sharing them)
    for u in corpus:
        key = (corpus.bucket_key(u.type_name, u.context, p.use_context), u.calls)
        if key not in memo:
            q = query_for(u)
            memo[key] = (exactly_similar(q, corpus, p), tuple(almost_similar(q, corpus, p)), [])
        memo[key][2].append(u.id)
    value = {pair: s_score(*pair) for pair in {(e, len(a_ids)) for e, a_ids, _ in memo.values()}}
    rank = {v: i for i, v in enumerate(sorted(set(value.values()), reverse=True))}
    pairs = {pair: (rank[v], v) for pair, v in value.items()}  # (e, a) -> (rank, score)
    rows = sorted((r, uid, v, e, a_ids) for e, a_ids, ids in memo.values()
                  for r, v in [pairs[e, len(a_ids)]] for uid in ids)
    return [ScoredUsage(uid, v, e, a_ids) for _, uid, v, e, a_ids in rows]


def _tally(scores: list[ScoredUsage]) -> list[tuple[Fraction, int]]:
    """(value, rows) per distinct score, ascending; rows count on int pairs, which hash fast."""
    counts = Counter((s.s_score.numerator, s.s_score.denominator) for s in scores)
    return sorted((Fraction(*pair), c) for pair, c in counts.items())


def distribution_stats(scores: list[ScoredUsage], corpus: Corpus) -> DistributionStats:
    """Summary of ``scores``, which holds one row per usage of ``corpus`` (what
    ``score_all`` returns); redundancy is counted from the corpus's buckets."""
    if not scores:
        raise ValueError("cannot summarize an empty score list")
    if len(scores) != len(corpus):
        raise ValueError(f"need one score per usage: got {len(scores)} for {len(corpus)} usages")
    n = len(scores)
    tally = _tally(scores)
    median = tally[bisect_right(list(accumulate(c for _, c in tally)), (n - 1) // 2)][0]
    mean = sum((v * c for v, c in tally), Fraction(0)) / n
    below = sum(c for v, c in tally if v < Fraction(1, 10))
    above5 = sum(c for v, c in tally if v > Fraction(1, 2))
    above9 = sum(c for v, c in tally if v > Fraction(9, 10))
    n_red = sum(len(b) for b in corpus.bucket_index.values() if len(b) >= 2)
    return DistributionStats(
        n_usages=n,
        median_s=median,
        mean_s=mean,
        frac_below_0_1=Fraction(below, n),
        frac_above_0_5=Fraction(above5, n),
        frac_above_0_9=Fraction(above9, n),
        n_redundant=n_red,
        frac_redundant=Fraction(n_red, n),
    )


def as_fraction(value) -> Fraction:
    """Exact rational from int/Fraction/str; floats go through their decimal
    literal so 0.05 means 1/20, not the nearest binary double."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def as_bin_width(value) -> Fraction:
    """Exact histogram bin width; ValueError unless it is in [1/MAX_BINS, 1]."""
    w = as_fraction(value)
    if not Fraction(1, MAX_BINS) <= w <= 1:
        raise ValueError(f"bin width must be in [1/{MAX_BINS}, 1], got {w}")
    return w


def histogram(
    scores: list[ScoredUsage], bin_width
) -> list[tuple[Fraction, Fraction, int]]:
    """Counts over half-open bins [i*w, (i+1)*w); the last bin is closed at 1."""
    w = as_bin_width(bin_width)
    n_bins = int(-(-1 // w))  # ceil(1/w)
    counts = [0] * n_bins
    for v, c in _tally(scores):
        counts[min(int(v / w), n_bins - 1)] += c
    return [
        (i * w, min((i + 1) * w, Fraction(1)), counts[i]) for i in range(n_bins)
    ]
