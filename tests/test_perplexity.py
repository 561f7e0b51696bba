"""Perplexity (paper Figures 6-7) pinned to fixed float values.

``held_out_perplexity`` folds each held-out document's first half in with
the trained counts frozen, so its value depends on every draw of the fold-in
sampler.  The expected values below pin it for fixed states, held-out sets
and seeds; they must hold bit for bit whichever fold-in engine ``"auto"``
resolves to (the C kernel, or the reference loop without a compiler).
"""

import numpy as np
import pytest

from repro.topicmodel.lda import LatentDirichletAllocation, LDAConfig, TopicModelState
from repro.topicmodel.perplexity import (
    held_out_perplexity,
    perplexity_from_likelihood,
    training_perplexity,
)

V, K = 40, 5


def fixed_state():
    """A hand-built state: random word-topic counts, asymmetric α."""
    rng = np.random.default_rng(21)
    topic_word = rng.integers(0, 12, size=(V, K)).astype(np.int64)
    doc_topic = rng.integers(0, 9, size=(6, K)).astype(np.int64)
    return TopicModelState(topic_word_counts=topic_word,
                           doc_topic_counts=doc_topic,
                           topic_counts=topic_word.sum(axis=0),
                           alpha=np.array([0.3, 0.5, 0.1, 0.8, 0.2]),
                           beta=0.05)


def held_out_docs(seed, n_docs=15):
    """Held-out documents of 0-30 tokens, some ids outside ``[0, V)``."""
    rng = np.random.default_rng(seed)
    return [[int(w) for w in rng.integers(-2, V + 3, size=int(rng.integers(0, 31)))]
            for _ in range(n_docs)]


def fitted_state():
    """An LDA fit on 25 documents, with its training documents."""
    rng = np.random.default_rng(2)
    docs = [[int(w) for w in rng.integers(0, V, size=int(rng.integers(5, 30)))]
            for _ in range(25)]
    state = LatentDirichletAllocation(
        LDAConfig(n_topics=K, n_iterations=15, seed=4)).fit(docs, vocabulary_size=V)
    return state, docs


# (held-out set seed, fold-in seed) -> perplexity, at the default 20 sweeps
FIXED_STATE_PINS = {
    (31, 0): 44.3476968209909,
    (31, 1): 46.63749981604252,
    (31, 7): 46.45063152490242,
    (31, 2024): 45.10822084320582,
    (32, 0): 44.85444878636403,
    (32, 1): 43.22617569492153,
    (32, 7): 45.1780958279196,
    (32, 2024): 46.0602469571852,
}


@pytest.mark.parametrize("docs_seed, seed", sorted(FIXED_STATE_PINS))
def test_held_out_perplexity_pinned(docs_seed, seed):
    value = held_out_perplexity(fixed_state(), held_out_docs(docs_seed), seed=seed)
    assert value == FIXED_STATE_PINS[docs_seed, seed]


@pytest.mark.parametrize("n_iterations, expected", [
    (0, 41.042119234063854), (1, 43.34490729688884), (5, 44.334102193867125)])
def test_held_out_perplexity_sweep_counts(n_iterations, expected):
    value = held_out_perplexity(fixed_state(), held_out_docs(33),
                                n_fold_in_iterations=n_iterations, seed=5)
    assert value == expected


def test_held_out_perplexity_threads_one_generator():
    """A generator seed is consumed as one stream across the documents:
    passing ``default_rng(s)`` equals passing ``s``, and leaves the generator
    advanced exactly as the pinned draw order implies."""
    state, docs = fixed_state(), held_out_docs(31)
    rng = np.random.default_rng(7)
    assert held_out_perplexity(state, docs, seed=rng) == FIXED_STATE_PINS[31, 7]
    assert rng.random() == 0.28890459156812753


def test_held_out_perplexity_of_a_fitted_lda_state():
    state, _ = fitted_state()
    value = held_out_perplexity(state, held_out_docs(34, n_docs=30), seed=3)
    assert value == 42.68686415645383


def test_training_perplexity_pinned():
    state, docs = fitted_state()
    assert training_perplexity(state, docs) == 36.66229612095104
    docs = [[w for w in doc if 0 <= w < V] for doc in held_out_docs(35, n_docs=6)]
    assert training_perplexity(fixed_state(), docs) == 42.626757247424315


def test_held_out_perplexity_needs_evaluation_tokens():
    with pytest.raises(ValueError, match="no held-out tokens"):
        held_out_perplexity(fixed_state(), [[], [1], [-1, V, 2]], seed=0)
    with pytest.raises(ValueError, match="positive"):
        perplexity_from_likelihood(0.0, 0)


@pytest.mark.parametrize("prior", [dict(beta=0.0), dict(beta=-0.5),
                                   dict(alpha=np.array([0.3, 0.0, 0.1, 0.8, 0.2])),
                                   dict(alpha=np.array([0.3, 0.5, -0.1, 0.8, 0.2]))],
                         ids=["beta-zero", "beta-negative", "alpha-zero", "alpha-negative"])
def test_held_out_perplexity_rejects_degenerate_priors(prior):
    """Fold-in needs every clique posterior to have positive mass, so a
    state with β ≤ 0 or any α ≤ 0 (trainable only by the reference engine)
    is refused rather than scored."""
    state = fixed_state()
    for name, value in prior.items():
        setattr(state, name, value)
    with pytest.raises(ValueError, match="fold-in requires"):
        held_out_perplexity(state, held_out_docs(31), seed=0)
