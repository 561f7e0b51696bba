"""Dirichlet hyper-parameter optimisation (Minka's fixed-point method).

The paper optimises the Dirichlet hyper-parameters α and β with "the
fixed-point method proposed by [22]" (Minka, *Estimating a Dirichlet
distribution*, 2000) for the user-study and perplexity experiments, and turns
optimisation off for the timing experiments.  Both update rules are
implemented here and shared by LDA and PhraseLDA:

* :func:`optimize_asymmetric_alpha` — per-topic α_k from document-topic counts.
* :func:`optimize_symmetric_beta` — a single symmetric β from topic-word counts.

The fixed-point update for an asymmetric Dirichlet given count matrix
``N`` (rows = observations, columns = dimensions) is::

    α_k ← α_k · Σ_d [Ψ(N_dk + α_k) − Ψ(α_k)] / Σ_d [Ψ(N_d· + Σα) − Ψ(Σα)]

where Ψ is the digamma function.  ``scipy.special.psi`` is imported on first
call of either update, not with the module: optimisation is off by default, and
a default-config process never loads SciPy.
"""

from __future__ import annotations

import numpy as np

_MIN_HYPER = 1e-8


def optimize_asymmetric_alpha(doc_topic_counts: np.ndarray,
                              alpha: np.ndarray,
                              n_iterations: int = 20,
                              tolerance: float = 1e-6) -> np.ndarray:
    """Return an updated asymmetric α via Minka's fixed-point iteration.

    Parameters
    ----------
    doc_topic_counts:
        ``D × K`` matrix of per-document topic counts ``N_{d,k}``.
    alpha:
        Current ``K``-vector of Dirichlet parameters (the starting point).
    n_iterations:
        Maximum number of fixed-point sweeps.
    tolerance:
        Stop early when the largest absolute change falls below this.
    """
    from scipy.special import psi  # digamma

    counts = np.asarray(doc_topic_counts, dtype=float)
    alpha = np.asarray(alpha, dtype=float).copy()
    if counts.ndim != 2:
        raise ValueError("doc_topic_counts must be a 2-D matrix")
    if counts.shape[1] != alpha.shape[0]:
        raise ValueError("alpha length must equal number of topics")

    doc_lengths = counts.sum(axis=1)
    for _ in range(n_iterations):
        alpha_sum = alpha.sum()
        # Denominator: Σ_d Ψ(N_d + Σα) − D·Ψ(Σα)
        denominator = np.sum(psi(doc_lengths + alpha_sum)) - counts.shape[0] * psi(alpha_sum)
        if denominator <= 0:
            break
        # Numerator per topic: Σ_d Ψ(N_dk + α_k) − D·Ψ(α_k)
        numerator = np.sum(psi(counts + alpha), axis=0) - counts.shape[0] * psi(alpha)
        new_alpha = alpha * numerator / denominator
        new_alpha = np.maximum(new_alpha, _MIN_HYPER)
        if np.max(np.abs(new_alpha - alpha)) < tolerance:
            alpha = new_alpha
            break
        alpha = new_alpha
    return alpha


def optimize_symmetric_beta(topic_word_counts: np.ndarray,
                            beta: float,
                            n_iterations: int = 20,
                            tolerance: float = 1e-6) -> float:
    """Return an updated symmetric β via Minka's fixed-point iteration.

    Parameters
    ----------
    topic_word_counts:
        ``V × K`` matrix of topic-word counts ``N_{x,k}``.
    beta:
        Current symmetric concentration (scalar, per-dimension value).
    """
    from scipy.special import psi  # digamma

    counts = np.asarray(topic_word_counts, dtype=float)
    if counts.ndim != 2:
        raise ValueError("topic_word_counts must be a 2-D matrix")
    vocabulary_size, n_topics = counts.shape
    beta = float(beta)

    topic_totals = counts.sum(axis=0)  # N_k per topic
    for _ in range(n_iterations):
        beta_sum = beta * vocabulary_size
        denominator = vocabulary_size * (
            np.sum(psi(topic_totals + beta_sum)) - n_topics * psi(beta_sum)
        )
        if denominator <= 0:
            break
        numerator = np.sum(psi(counts + beta)) - n_topics * vocabulary_size * psi(beta)
        new_beta = beta * numerator / denominator
        new_beta = max(new_beta, _MIN_HYPER)
        if abs(new_beta - beta) < tolerance:
            beta = new_beta
            break
        beta = new_beta
    return float(beta)
