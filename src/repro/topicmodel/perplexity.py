"""Perplexity evaluation for topic models (Figures 6 and 7).

The paper evaluates "how well the learned topic model predicts a held-out
portion of the corpus" and plots perplexity as a function of Gibbs iteration
for PhraseLDA versus LDA.  Because the *generative* process of PhraseLDA and
LDA is identical (the clique potential only constrains inference), their
perplexities are directly comparable.

Perplexity of a token stream ``w_1..w_N`` under a model with topic-word
distribution ``φ`` and per-document topic mixtures ``θ_d`` is::

    perplexity = exp( − Σ_d Σ_i log Σ_k θ_{d,k} φ_{k,w_{d,i}} / N )

Two evaluation modes are provided:

* :func:`training_perplexity` — perplexity of the training tokens under the
  current state (cheap; monotone proxy used for per-iteration traces).
* :func:`held_out_perplexity` — document-completion perplexity: for every
  held-out document, θ is estimated on the first half of its tokens (fold-in
  using the trained φ) and perplexity is measured on the second half.  The
  fold-in runs on the same engines as serving-time inference
  (:class:`~repro.core.infer.TopicInferencer`): LDA and PhraseLDA fold-in
  coincide on all-singleton cliques.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.topicmodel.lda import TopicModelState
from repro.utils.rng import SeedLike, new_rng


def perplexity_from_likelihood(total_log_likelihood: float, n_tokens: int) -> float:
    """Convert a summed token log-likelihood into perplexity."""
    if n_tokens <= 0:
        raise ValueError("n_tokens must be positive")
    return float(np.exp(-total_log_likelihood / n_tokens))


def training_perplexity(state: TopicModelState,
                        documents: Sequence[Sequence[int]]) -> float:
    """Perplexity of the training documents under the current model state."""
    phi = state.phi()
    theta = state.theta()
    log_likelihood = 0.0
    n_tokens = 0
    for d, doc in enumerate(documents):
        doc = np.asarray(list(doc), dtype=np.int64)
        if len(doc) == 0:
            continue
        token_probs = theta[d] @ phi[:, doc]
        log_likelihood += float(np.sum(np.log(np.maximum(token_probs, 1e-300))))
        n_tokens += len(doc)
    return perplexity_from_likelihood(log_likelihood, n_tokens)


def held_out_perplexity(state: TopicModelState,
                        held_out_documents: Sequence[Sequence[int]],
                        n_fold_in_iterations: int = 20,
                        seed: SeedLike = None) -> float:
    """Document-completion perplexity on held-out documents.

    For each held-out document the tokens are split into an *estimation* half
    (used to fold in a document-topic mixture with the trained counts held
    fixed) and an *evaluation* half on which the log-likelihood is measured.
    Token ids outside the vocabulary are dropped first, and documents with
    fewer than two tokens are skipped.  Documents are folded in one at a
    time on one shared random stream.

    Raises
    ------
    ValueError
        If no document has two in-vocabulary tokens, or if the state's
        ``beta`` or any ``alpha`` entry is not positive (fold-in needs every
        posterior to have positive mass).
    """
    # Function-local imports: repro.core imports this package.
    from repro.core.infer import InferenceConfig, TopicInferencer
    from repro.core.phrase_lda import unigram_segmentation

    inferencer = TopicInferencer(state, segmenter=None)
    config = InferenceConfig(n_iterations=n_fold_in_iterations, seed=new_rng(seed))
    phi = state.phi()

    log_likelihood = 0.0
    n_tokens = 0
    for doc in held_out_documents:
        doc = [w for w in doc if 0 <= w < state.vocabulary_size]
        if len(doc) < 2:
            continue
        half = len(doc) // 2
        estimation, evaluation = doc[:half], doc[half:]
        theta = inferencer.infer_segmented(unigram_segmentation([estimation]),
                                           config).theta[0]
        token_probs = theta @ phi[:, np.asarray(evaluation, dtype=np.int64)]
        log_likelihood += float(np.sum(np.log(np.maximum(token_probs, 1e-300))))
        n_tokens += len(evaluation)
    if n_tokens == 0:
        raise ValueError("no held-out tokens available for evaluation")
    return perplexity_from_likelihood(log_likelihood, n_tokens)
