"""Dirichlet / multinomial utilities shared by the topic models.

These helpers implement the closed-form pieces of the collapsed joint
``P(Z, W)`` (paper Eq. 3 and the Appendix): the log multinomial Beta function
appearing in the integrated-out Dirichlet terms, Dirichlet sampling for the
synthetic corpus generators, and row normalisation used when converting count
matrices into estimated ``φ``/``θ`` distributions.

``scipy.special`` is imported on first call of the Beta-function helpers, not
with the module, so processes that never evaluate a log-likelihood never load
SciPy.
"""

from __future__ import annotations

import numpy as np


def log_multinomial_beta(alpha: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Return ``log B(α) = Σ log Γ(α_i) − log Γ(Σ α_i)``.

    When ``axis`` is given the Beta function is evaluated along that axis of a
    matrix (e.g. per topic row of a count-plus-prior matrix).
    """
    from scipy.special import gammaln

    alpha = np.asarray(alpha, dtype=float)
    if axis is None:
        return float(np.sum(gammaln(alpha)) - gammaln(np.sum(alpha)))
    return np.sum(gammaln(alpha), axis=axis) - gammaln(np.sum(alpha, axis=axis))


def sample_dirichlet(rng: np.random.Generator, alpha: np.ndarray, size: int | None = None) -> np.ndarray:
    """Draw from ``Dir(α)`` (one sample, or ``size`` rows)."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise ValueError("Dirichlet parameters must be positive")
    if size is None:
        return rng.dirichlet(alpha)
    return rng.dirichlet(alpha, size=size)


def normalize_rows(matrix: np.ndarray, prior: float | np.ndarray = 0.0) -> np.ndarray:
    """Return ``(matrix + prior)`` with every row normalised to sum to one.

    Used to turn topic-word count matrices ``N_{x,k}`` into ``φ̂_k`` estimates
    and document-topic counts ``N_{d,k}`` into ``θ̂_d`` estimates.
    """
    mat = np.asarray(matrix, dtype=float) + prior
    row_sums = mat.sum(axis=1, keepdims=True)
    # Rows that are entirely zero become uniform distributions.
    zero_rows = (row_sums == 0).flatten()
    if np.any(zero_rows):
        mat[zero_rows, :] = 1.0
        row_sums = mat.sum(axis=1, keepdims=True)
    return mat / row_sums


def collapsed_log_likelihood(topic_word_counts: np.ndarray,
                             doc_topic_counts: np.ndarray,
                             alpha: np.ndarray,
                             beta: np.ndarray) -> float:
    """Log of the collapsed joint ``P(Z, W | α, β)`` up to constants.

    Implements the product-of-Beta-functions form from the paper's Appendix:

    ``P(Z, W) ∝ Π_d B(α + N_d,·) / B(α) · Π_k B(β + N_·,k) / B(β)``

    Useful for convergence monitoring and for hyper-parameter optimisation
    sanity checks.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    doc_term = np.sum(log_multinomial_beta(doc_topic_counts + alpha, axis=1))
    doc_term -= doc_topic_counts.shape[0] * log_multinomial_beta(alpha)
    topic_term = np.sum(log_multinomial_beta(topic_word_counts.T + beta, axis=1))
    topic_term -= topic_word_counts.shape[1] * log_multinomial_beta(beta)
    return float(doc_term + topic_term)
