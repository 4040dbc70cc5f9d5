"""Ranked missing-call recommendations from an almost-similar neighborhood.

The candidate set is every call the neighbors make that the query does not;
each candidate's likelihood is the fraction of neighbors making it. The final
recommendation list keeps candidates whose likelihood clears a threshold.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .corpus import Corpus
from .scoring import as_fraction
from .similarity import Query


@dataclass(frozen=True)
class Recommendation:
    """likelihood = support / |A|, where support counts the neighbors that
    make this call."""

    method: str
    likelihood: Fraction
    support: int


@dataclass(frozen=True)
class PredictionConfig:
    """threshold filters recommendations; the comparison is strict (phi > t)
    by default, with a >= mode for protocols that keep t = 1 meaningful."""

    threshold: Fraction = field(default=Fraction(9, 10))
    strict_comparison: bool = True

    def __post_init__(self) -> None:
        t = as_fraction(self.threshold)
        if not 0 <= t <= 1:
            raise ValueError(f"threshold must be in [0, 1], got {t}")
        object.__setattr__(self, "threshold", t)


def likelihoods(q: Query, a_ids: Sequence[str], corpus: Corpus) -> list[Recommendation]:
    """One recommendation per candidate call, sorted by likelihood descending
    then method name; empty when there are no neighbors."""
    support: dict[str, int] = {}
    for uid in a_ids:
        for m in corpus.by_id[uid].calls - q.calls:
            support[m] = support.get(m, 0) + 1
    n = len(a_ids)  # every candidate shares it, so support orders as likelihood does
    ranked = sorted(support.items(), key=lambda mc: (-mc[1], mc[0]))
    return [Recommendation(m, Fraction(c, n), c) for m, c in ranked]


def filter_recommendations(
    recs: Sequence[Recommendation], cfg: PredictionConfig
) -> list[Recommendation]:
    """Recommendations whose likelihood clears the threshold, order preserved."""
    t = cfg.threshold
    if cfg.strict_comparison:
        return [r for r in recs if r.likelihood > t]
    return [r for r in recs if r.likelihood >= t]
