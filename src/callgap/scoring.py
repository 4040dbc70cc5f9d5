"""Strangeness score and corpus-level distribution statistics.

The score of a usage is 1 - |E|/(|E| + |A|): few places doing exactly the same
thing combined with many places doing one call more marks the usage as a
minority deviation. Scores are exact rationals (ratios of small counts) so
every downstream number is bit-identical across platforms; rendering to
decimals happens only at the reporting edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .corpus import Corpus
from .similarity import SimilarityParams, query_for, query_similarity


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
    """Score every usage; sorted by score descending, ties by id ascending."""
    scored = []
    for u in corpus:
        r = query_similarity(query_for(u), corpus, p)
        scored.append(ScoredUsage(u.id, s_score(r.e_count, len(r.a_ids)), r.e_count, r.a_ids))
    scored.sort(key=lambda s: (-s.s_score, s.id))
    return scored


def distribution_stats(scores: list[ScoredUsage], corpus: Corpus) -> DistributionStats:
    if not scores:
        raise ValueError("cannot summarize an empty score list")
    n = len(scores)
    vals = sorted(s.s_score for s in scores)
    median = vals[(n - 1) // 2]
    mean = sum(vals, Fraction(0)) / n
    below = sum(1 for v in vals if v < Fraction(1, 10))
    above5 = sum(1 for v in vals if v > Fraction(1, 2))
    above9 = sum(1 for v in vals if v > Fraction(9, 10))
    usages = [corpus.get(s.id) for s in scores]
    n_red = sum(1 for u in usages if len(corpus.bucket(u.type_name, u.context)) >= 2)
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
    """Exact histogram bin width; ValueError unless it is in (0, 1]."""
    w = as_fraction(value)
    if not 0 < w <= 1:
        raise ValueError(f"bin width must be in (0, 1], got {w}")
    return w


def histogram(
    scores: list[ScoredUsage], bin_width
) -> list[tuple[Fraction, Fraction, int]]:
    """Counts over half-open bins [i*w, (i+1)*w); the last bin is closed at 1."""
    w = as_bin_width(bin_width)
    n_bins = int(-(-1 // w))  # ceil(1/w)
    counts = [0] * n_bins
    for s in scores:
        counts[min(int(s.s_score / w), n_bins - 1)] += 1
    return [
        (i * w, min((i + 1) * w, Fraction(1)), counts[i]) for i in range(n_bins)
    ]
