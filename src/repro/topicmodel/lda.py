"""Collapsed Gibbs sampling for Latent Dirichlet Allocation.

This is the 'bag-of-words' baseline from the paper (Section 5.1) and the
topic-model component reused by the KERT and Turbo Topics baselines.  The
sampler is the standard collapsed Gibbs sampler of Griffiths (2002): with
``Θ`` and ``Φ`` integrated out, the conditional for token ``i`` of document
``d`` is

    p(z_{d,i} = k | rest) ∝ (α_k + N_{d,k}) · (β_w + N_{w,k}) / (Σ_x β_x + N_k)

PhraseLDA (:mod:`repro.core.phrase_lda`) generalises this sampler to cliques
of tokens; when every clique has size one its conditional reduces exactly to
the expression above ("LDA is a special case of PhraseLDA").  So LDA has no
sampler of its own: :class:`LatentDirichletAllocation` fits
:class:`~repro.core.phrase_lda.PhraseLDA` on the all-singleton segmentation
of its documents, on either of PhraseLDA's engines.  This module also holds
what the two models share: the sampler configuration :class:`LDAConfig`
(``PhraseLDAConfig`` is the same class) and :class:`TopicModelState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.text.corpus import Corpus
from repro.topicmodel.dirichlet import collapsed_log_likelihood, normalize_rows
from repro.utils.rng import SeedLike

DocumentsLike = Union[Corpus, Sequence[Sequence[int]]]


@dataclass
class LDAConfig:
    """Configuration of collapsed Gibbs sampling for LDA and PhraseLDA.

    ``repro.core.phrase_lda.PhraseLDAConfig`` is this same class.

    Parameters
    ----------
    n_topics:
        Number of topics ``K``.
    alpha:
        Symmetric document-topic prior (per-topic value).  The paper uses
        standard LDA defaults; 50/K is a common choice and the default here.
    beta:
        Symmetric topic-word prior.
    n_iterations:
        Number of Gibbs sweeps over all cliques (tokens, for LDA).
    optimize_hyperparameters:
        Re-estimate α (asymmetric) and β (symmetric) with Minka's fixed-point
        update every ``hyper_optimize_interval`` iterations after ``burn_in``
        (paper Section 5.3).
    hyper_optimize_interval:
        Iterations between hyper-parameter updates.
    burn_in:
        Iterations before hyper-parameter optimisation starts.
    seed:
        Random seed.
    engine:
        Sweep implementation: ``"auto"`` (compiled kernel when available,
        the reference otherwise), ``"c"``, or ``"reference"`` (the readable
        nested loop).  Both engines produce identical assignments under a
        fixed seed.
    """

    n_topics: int = 10
    alpha: Optional[float] = None
    beta: float = 0.01
    n_iterations: int = 100
    optimize_hyperparameters: bool = False
    hyper_optimize_interval: int = 25
    burn_in: int = 10
    seed: SeedLike = None
    engine: str = "auto"

    def resolved_alpha(self) -> float:
        """Return the symmetric α value, defaulting to ``50 / K``."""
        if self.alpha is not None:
            return float(self.alpha)
        return 50.0 / self.n_topics


@dataclass
class TopicModelState:
    """Snapshot of a fitted topic model shared by LDA and PhraseLDA.

    Attributes
    ----------
    topic_word_counts:
        ``V × K`` matrix ``N_{x,k}``.
    doc_topic_counts:
        ``D × K`` matrix ``N_{d,k}``.
    topic_counts:
        Length-``K`` vector ``N_k``.
    alpha, beta:
        Final hyper-parameters (α is a length-``K`` vector, β a scalar).
    assignments:
        Per-document list of per-token topic assignments.
    """

    topic_word_counts: np.ndarray
    doc_topic_counts: np.ndarray
    topic_counts: np.ndarray
    alpha: np.ndarray
    beta: float
    assignments: List[np.ndarray] = field(default_factory=list)

    @property
    def n_topics(self) -> int:
        """Number of topics ``K``."""
        return self.topic_word_counts.shape[1]

    @property
    def vocabulary_size(self) -> int:
        """Vocabulary size ``V``."""
        return self.topic_word_counts.shape[0]

    def phi(self) -> np.ndarray:
        """Return the ``K × V`` topic-word distribution estimate ``φ̂``."""
        return normalize_rows(self.topic_word_counts.T, prior=self.beta)

    def theta(self) -> np.ndarray:
        """Return the ``D × K`` document-topic distribution estimate ``θ̂``."""
        return normalize_rows(self.doc_topic_counts, prior=self.alpha)

    def top_words(self, topic: int, n: int = 10) -> List[int]:
        """Return the ids of the ``n`` most probable words in ``topic``."""
        phi_k = self.phi()[topic]
        return list(np.argsort(-phi_k)[:n])

    def log_likelihood(self) -> float:
        """Collapsed joint log-likelihood (up to constants)."""
        beta_vec = np.full(self.vocabulary_size, self.beta)
        return collapsed_log_likelihood(self.topic_word_counts,
                                        self.doc_topic_counts,
                                        self.alpha, beta_vec)


IterationCallback = Callable[[int, TopicModelState], None]


class LatentDirichletAllocation:
    """Collapsed Gibbs LDA over token-id documents (all-singleton PhraseLDA).

    Example
    -------
    >>> docs = [[0, 1, 2, 0], [2, 3, 3, 1]]
    >>> model = LatentDirichletAllocation(LDAConfig(n_topics=2, n_iterations=20, seed=1))
    >>> state = model.fit(docs, vocabulary_size=4)
    >>> state.phi().shape
    (2, 4)
    """

    def __init__(self, config: Optional[LDAConfig] = None) -> None:
        self.config = config or LDAConfig()
        self.state: Optional[TopicModelState] = None

    # -- public API --------------------------------------------------------------
    def fit(self, documents: DocumentsLike, vocabulary_size: Optional[int] = None,
            callback: Optional[IterationCallback] = None) -> TopicModelState:
        """Run the Gibbs sampler and return the final :class:`TopicModelState`.

        Parameters
        ----------
        documents:
            A :class:`~repro.text.corpus.Corpus` or a sequence of documents,
            each a sequence of integer word ids.
        vocabulary_size:
            Required when passing raw documents; inferred from a corpus.
        callback:
            Called as ``callback(iteration, state)`` after every sweep —
            used by the perplexity-vs-iteration experiments (Figures 6, 7).
            ``state.assignments`` then holds the current per-token topics.
        """
        # Function-local import: repro.core imports this module.
        from repro.core.phrase_lda import PhraseLDA, unigram_segmentation

        token_docs, vocabulary_size = _extract_documents(documents, vocabulary_size)
        observe = None
        if callback is not None:
            def observe(iteration: int, state: TopicModelState) -> None:
                # PhraseLDA expands clique topics into per-token ones only
                # after its last sweep; singleton cliques *are* tokens, so
                # the live clique topics are the current token topics.
                state.assignments = state.clique_assignments
                callback(iteration, state)

        self.state = PhraseLDA(self.config).fit(
            unigram_segmentation(token_docs), vocabulary_size, observe)
        return self.state


def _extract_documents(documents: DocumentsLike,
                       vocabulary_size: Optional[int]) -> tuple[List[np.ndarray], int]:
    """Normalise the input into numpy token-id arrays plus the vocabulary size."""
    if isinstance(documents, Corpus):
        token_docs = [np.asarray(doc.tokens, dtype=np.int64) for doc in documents]
        return token_docs, documents.vocabulary_size
    token_docs = [np.asarray(list(doc), dtype=np.int64) for doc in documents]
    if vocabulary_size is None:
        max_id = max((int(doc.max()) for doc in token_docs if len(doc)), default=-1)
        vocabulary_size = max_id + 1
    return token_docs, vocabulary_size


def _sample_index(rng: np.random.Generator, weights: np.ndarray) -> int:
    """Sample an index proportional to non-negative ``weights``."""
    cumulative = np.cumsum(weights)
    total = cumulative[-1]
    if total <= 0:
        return int(rng.integers(0, len(weights)))
    return int(np.searchsorted(cumulative, rng.random() * total))
