"""Missing-method-call detection by majority-rule deviance over type-usages."""

from .corpus import Corpus, CorpusFormatError, TypeUsage, load_corpus
from .evaluation import EvalConfig, evaluate
from .prediction import PredictionConfig, likelihoods
from .scoring import score_all
from .similarity import Query, SimilarityParams, almost_similar, exactly_similar

__all__ = [
    "Corpus",
    "CorpusFormatError",
    "EvalConfig",
    "PredictionConfig",
    "Query",
    "SimilarityParams",
    "TypeUsage",
    "almost_similar",
    "evaluate",
    "exactly_similar",
    "likelihoods",
    "load_corpus",
    "score_all",
]
