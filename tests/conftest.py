"""Shared corpora used across the test suite."""

import random

import pytest

from callgap import Corpus, TypeUsage, almost_similar, exactly_similar


def usage(uid, type_name, context, calls, origin=None):
    return TypeUsage(uid, type_name, context, frozenset(calls), origin)


def similarity_of(q, corpus, p):
    """(|E|, A's ids) from the indexed engine, comparable with an oracle answer."""
    return exactly_similar(q, corpus, p), tuple(almost_similar(q, corpus, p))


@pytest.fixture
def two_usage_corpus():
    """Button b {<init>, setText, setColor} and Text t {<init>}, same context."""
    return Corpus(
        [
            usage("b", "Button", "Page.createButton()", {"<init>", "setText", "setColor"}),
            usage("t", "Text", "Page.createButton()", {"<init>"}),
        ]
    )


@pytest.fixture
def three_button_corpus():
    """b and aBut share a call-set; myBut has the same plus setLink."""
    return Corpus(
        [
            usage("b", "Button", "Page.createButton()", {"<init>", "setText", "setColor"}),
            usage("aBut", "Button", "Page.createButton()", {"<init>", "setText", "setColor"}),
            usage("myBut", "Button", "Page.createButton()", {"<init>", "setText", "setColor", "setLink"}),
        ]
    )


@pytest.fixture
def sandra_corpus():
    """16 DialogPage usages, all with a single setControl call, plus one
    usage with no calls at all (the buggy one)."""
    ctx = "App.createControl(Composite)"
    usages = [
        usage(f"u{i}", "DialogPage", ctx, {"setControl"}) for i in range(1, 17)
    ]
    usages.append(usage("sandra", "DialogPage", ctx, set(), origin="SpecialPage.java:12"))
    return Corpus(usages)


@pytest.fixture
def likelihood_corpus():
    """x with only <init>; five neighbors with one extra call each: four
    add setText, one adds setFont."""
    ctx = "Page.createButton()"
    return Corpus(
        [
            usage("x", "Button", ctx, {"<init>"}),
            usage("a", "Button", ctx, {"<init>", "setText"}),
            usage("b2", "Button", ctx, {"<init>", "setText"}),
            usage("c", "Button", ctx, {"<init>", "setText"}),
            usage("d", "Button", ctx, {"<init>", "setText"}),
            usage("e", "Button", ctx, {"<init>", "setFont"}),
        ]
    )


def random_corpus(rng: random.Random, max_usages=100, max_calls=6,
                  n_types=4, n_contexts=4, vocab_size=8) -> Corpus:
    """Small random corpus with deliberately colliding buckets."""
    vocab = [f"m{i}" for i in range(vocab_size)]
    n = rng.randint(1, max_usages)
    usages = []
    for i in range(n):
        t = f"T{rng.randrange(n_types)}"
        c = f"ctx{rng.randrange(n_contexts)}()"
        k = rng.randint(0, max_calls)
        usages.append(usage(f"u{i}", t, c, rng.sample(vocab, k)))
    return Corpus(usages)
