"""Defect-simulation harness: degrade real usages, replay them as queries,
and measure how often the dropped call is recovered.

Every usage that has at least one bucket-mate is degraded once per call
(remove that call, keep the rest). Each degraded query is answered against
the corpus, by default with the seed usage excluded (leave-one-out) so the
seed cannot vouch for its own degraded copy. Batch metrics follow information
retrieval conventions; CORRECT and FALSE are fractions of *answered* queries.

Also provides a seeded synthetic-corpus generator. This module only computes
``EvalReport``s; the CLI renders them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .corpus import Corpus, TypeUsage
from .prediction import (
    PredictionConfig,
    Recommendation,
    filter_recommendations,
    likelihoods,
)
from .scoring import s_score
from .similarity import Query, SimilarityParams, almost_similar, exactly_similar


@dataclass(frozen=True)
class DegradedQuery:
    """One simulated defect: the seed usage with one call removed."""

    seed_id: str
    removed: str
    query: Query


@dataclass(frozen=True)
class EvalConfig:
    prediction: PredictionConfig = field(default_factory=PredictionConfig)
    similarity: SimilarityParams = field(default_factory=SimilarityParams)
    include_seed: bool = False  # False = leave-one-out


@dataclass(frozen=True)
class QueryOutcome:
    """Per-query record: what was asked and what came back. recommendations
    holds every candidate call, missing those that clear the threshold."""

    seed_id: str
    removed: str
    e_count: int
    a_count: int
    recommendations: tuple[Recommendation, ...]
    missing: tuple[Recommendation, ...]

    @property
    def answered(self) -> bool:
        return bool(self.missing)

    @property
    def correct(self) -> bool:
        return any(r.method == self.removed for r in self.missing)

    @property
    def perfect(self) -> bool:
        return self.correct and len(self.missing) == 1


@dataclass(frozen=True)
class EvalReport:
    """Batch metrics over degraded queries.

    correct_frac, false_frac and precision are None when no query was
    answered (they are undefined, not zero). avg_phi pools the likelihoods of
    every candidate call across all queries; it is None when no query yielded
    any candidate.
    """

    n_queries: int
    answered_frac: Fraction
    correct_frac: Fraction | None
    false_frac: Fraction | None
    precision: Fraction | None
    recall: Fraction
    perfect_frac: Fraction
    avg_e: Fraction
    avg_a: Fraction
    avg_s: Fraction
    avg_r: Fraction
    avg_phi: Fraction | None
    avg_missing: Fraction


def generate_degraded(corpus: Corpus) -> list[DegradedQuery]:
    """One degraded query per (redundant usage, call) pair, in corpus order
    then call-name order. Redundancy is judged on the original corpus.
    Usages with an empty call-set yield nothing."""
    out = []
    for u in corpus:
        if not u.calls or len(corpus.bucket(u.type_name, u.context)) < 2:
            continue
        for m in sorted(u.calls):
            q = Query(u.type_name, u.context, u.calls - {m}, exclude_id=u.id)
            out.append(DegradedQuery(u.id, m, q))
    return out


def run_query(dq: DegradedQuery, corpus: Corpus, cfg: EvalConfig) -> QueryOutcome:
    q = dq.query if not cfg.include_seed else replace(dq.query, exclude_id=None)
    e_count = exactly_similar(q, corpus, cfg.similarity)
    a_ids = almost_similar(q, corpus, cfg.similarity)
    recs = likelihoods(q, a_ids, corpus)
    missing = filter_recommendations(recs, cfg.prediction)
    return QueryOutcome(dq.seed_id, dq.removed, e_count, len(a_ids), tuple(recs), tuple(missing))


def aggregate(outcomes: list[QueryOutcome]) -> EvalReport:
    """Batch metrics. A batch repeats few (e, a) pairs, answer sizes and phi
    denominators, so s, 1/size and phi sums are built once per distinct one."""
    n = len(outcomes)
    if n == 0:
        raise ValueError("no degraded queries: corpus has no redundant usages with calls")
    n_ans = sum(1 for o in outcomes if o.answered)
    correct_sizes = Counter(len(o.missing) for o in outcomes if o.correct)
    n_cor = sum(correct_sizes.values())
    if n_ans:
        correct_frac = Fraction(n_cor, n_ans)
        false_frac = 1 - correct_frac
        precision = sum((Fraction(c, size) for size, c in correct_sizes.items()), Fraction(0)) / n_ans
    else:
        correct_frac = false_frac = precision = None
    by_ea = Counter((o.e_count, o.a_count) for o in outcomes)
    phi_by_den: Counter = Counter()  # likelihood numerators summed per denominator
    for o in outcomes:
        for r in o.recommendations:
            phi_by_den[r.likelihood.denominator] += r.likelihood.numerator
    total_phi = sum((Fraction(num, den) for den, num in phi_by_den.items()), Fraction(0))
    n_phi = sum(len(o.recommendations) for o in outcomes)
    return EvalReport(
        n_queries=n,
        answered_frac=Fraction(n_ans, n),
        correct_frac=correct_frac,
        false_frac=false_frac,
        precision=precision,
        recall=Fraction(n_cor, n),
        perfect_frac=Fraction(correct_sizes[1], n),
        avg_e=Fraction(sum(o.e_count for o in outcomes), n),
        avg_a=Fraction(sum(o.a_count for o in outcomes), n),
        avg_s=sum((c * s_score(e, a) for (e, a), c in by_ea.items()), Fraction(0)) / n,
        avg_r=Fraction(n_phi, n),
        avg_phi=total_phi / n_phi if n_phi else None,
        avg_missing=Fraction(sum(len(o.missing) for o in outcomes), n),
    )


def evaluate(corpus: Corpus, cfg: EvalConfig) -> EvalReport:
    queries = generate_degraded(corpus)
    return aggregate([run_query(dq, corpus, cfg) for dq in queries])


def sweep_threshold(
    corpus: Corpus, cfg: EvalConfig, thresholds: list
) -> list[tuple[Fraction, EvalReport]]:
    """One report per threshold; each query is answered once and its
    candidates re-filtered per threshold."""
    outcomes = [run_query(dq, corpus, cfg) for dq in generate_degraded(corpus)]
    out = []
    for t in thresholds:
        pc = PredictionConfig(t, cfg.prediction.strict_comparison)
        kept = [replace(o, missing=tuple(filter_recommendations(o.recommendations, pc)))
                for o in outcomes]
        out.append((pc.threshold, aggregate(kept)))
    return out


def sweep_k(
    corpus: Corpus, cfg: EvalConfig, ks: list[int]
) -> list[tuple[int, EvalReport]]:
    out = []
    for k in ks:
        kcfg = replace(cfg, similarity=replace(cfg.similarity, k=k))
        out.append((k, evaluate(corpus, kcfg)))
    return out


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator parameters: each bucket gets its own convention call-set
    drawn from a shared method vocabulary; each usage independently drops one
    uniformly chosen call with probability deviance_rate."""

    n_buckets: int
    usages_per_bucket: int
    convention_size: int
    deviance_rate: float = 0.0
    method_vocab: int = 50

    def __post_init__(self) -> None:
        if self.n_buckets < 1 or self.usages_per_bucket < 1:
            raise ValueError("need at least one bucket and one usage per bucket")
        if self.convention_size < 1:
            raise ValueError("convention call-set must be non-empty")
        if self.convention_size > self.method_vocab:
            raise ValueError("convention larger than the method vocabulary")
        if not 0 <= self.deviance_rate <= 1:
            raise ValueError(f"deviance rate must be in [0, 1], got {self.deviance_rate}")


def gen_synthetic(spec: SyntheticSpec, rng_seed: int) -> tuple[Corpus, list[tuple[str, str]]]:
    """Deterministic planted corpus plus the ground-truth list of
    (deviant id, dropped call)."""
    rng = random.Random(rng_seed)
    usages: list[TypeUsage] = []
    truth: list[tuple[str, str]] = []
    uid = 0
    for b in range(spec.n_buckets):
        convention = sorted(f"m{i}" for i in rng.sample(range(spec.method_vocab), spec.convention_size))
        type_name = f"T{b}"
        context = f"Ctx{b}.m()"
        for _ in range(spec.usages_per_bucket):
            uid += 1
            usage_id = f"u{uid}"
            calls = set(convention)
            if spec.deviance_rate and rng.random() < spec.deviance_rate:
                dropped = rng.choice(convention)
                calls.discard(dropped)
                truth.append((usage_id, dropped))
            usages.append(TypeUsage(usage_id, type_name, context, frozenset(calls)))
    return Corpus(usages), truth
