"""PhraseLDA: phrase-constrained topic modeling (paper Section 5).

PhraseLDA keeps LDA's generative story but adds, for every mined phrase, a
clique potential over the latent topic assignments of the phrase's tokens
(paper Eq. 4).  With the hard potential of Eq. 6 — one when all tokens in the
clique share a topic, zero otherwise — each clique has only ``K`` reachable
states and collapsed Gibbs sampling can sample a whole clique at once from
the posterior of Eq. 7::

    p(C_{d,g} = k | W, Z_{¬C}) ∝ Π_{j=1}^{W_{d,g}}
        (α_k + N_{d,k}^{¬C} + j − 1) ·
        (β_{w_j} + N_{w_j,k}^{¬C}) / (Σ_x β_x + N_k^{¬C} + j − 1)

When every phrase has a single token this reduces to the standard LDA
conditional, so LDA is run here as the special case of an all-singleton
segmentation (exactly as the paper does for its timing experiments).

Two interchangeable sampling engines implement the sweep:

* ``engine="c"`` — the compiled flat-buffer kernel
  (:class:`repro.topicmodel.gibbs.CKernelSampler`), bit-exact with the
  reference;
* ``engine="reference"`` — the original nested-loop sampler, kept as the
  executable specification (also available as :class:`ReferencePhraseLDA`).

``"auto"`` picks the kernel when it loads and the reference otherwise.
Both engines consume the random stream identically, so a fixed seed yields
identical ``clique_assignments`` regardless of engine — the equivalence the
test suite and ``python -m repro.bench`` both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.segmentation import SegmentedCorpus
from repro.topicmodel.gibbs import (
    CKernelSampler,
    FlatPhraseCorpus,
    _check_token_range,
    check_priors,
    random_initialization,
    resolve_engine,
)
from repro.topicmodel.hyperopt import optimize_asymmetric_alpha, optimize_symmetric_beta
from repro.topicmodel.lda import LDAConfig, TopicModelState, _sample_index
from repro.utils.rng import new_rng

Phrase = Tuple[int, ...]
PhraseDocuments = Sequence[Sequence[Sequence[int]]]


# One sampler configuration serves LDA and PhraseLDA alike (see LDAConfig).
PhraseLDAConfig = LDAConfig


@dataclass
class PhraseLDAState(TopicModelState):
    """Topic-model state plus per-clique (phrase-instance) topic assignments.

    ``clique_assignments[d][g]`` is the topic shared by every token of the
    ``g``-th phrase of document ``d`` — the quantity the topical-frequency
    ranking (Eq. 8) is computed from.
    """

    clique_assignments: List[np.ndarray] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.clique_assignments is None:
            self.clique_assignments = []


IterationCallback = Callable[[int, PhraseLDAState], None]


class PhraseLDA:
    """Collapsed Gibbs sampler for PhraseLDA over a segmented corpus.

    Example
    -------
    >>> docs = [[(0, 1), (2,)], [(2, 3), (1,)]]
    >>> model = PhraseLDA(PhraseLDAConfig(n_topics=2, n_iterations=10, seed=0))
    >>> state = model.fit(docs, vocabulary_size=4)
    >>> state.phi().shape
    (2, 4)
    """

    def __init__(self, config: Optional[PhraseLDAConfig] = None) -> None:
        self.config = config or PhraseLDAConfig()
        self.state: Optional[PhraseLDAState] = None

    # -- public API ------------------------------------------------------------------
    def fit(self, documents: Union[SegmentedCorpus, FlatPhraseCorpus,
                                   PhraseDocuments],
            vocabulary_size: Optional[int] = None,
            callback: Optional[IterationCallback] = None) -> PhraseLDAState:
        """Run the Gibbs sampler and return the final :class:`PhraseLDAState`.

        Parameters
        ----------
        documents:
            A :class:`~repro.core.segmentation.SegmentedCorpus` (its flat
            partition is read directly), a
            :class:`~repro.topicmodel.gibbs.FlatPhraseCorpus`, or a sequence
            of documents, each a sequence of phrases (sequences of word ids).
        vocabulary_size:
            Required when passing raw phrase documents or a partition
            (otherwise inferred from the largest word id); a segmented
            corpus's vocabulary sets it.
        callback:
            Invoked as ``callback(iteration, state)`` after every sweep.

        Returns
        -------
        PhraseLDAState
            Final count matrices, hyper-parameters, per-token and per-clique
            topic assignments (also stored on :attr:`state`).
        """
        partition, vocabulary_size = _extract_partition(documents, vocabulary_size)
        check_priors(self.config.resolved_alpha(), self.config.beta,
                     "PhraseLDA", positive=False)
        engine = resolve_engine(self.config.engine)
        if engine == "reference":
            state = self._fit_reference(partition.documents(), vocabulary_size,
                                        callback)
        else:
            state = self._fit_flat(partition, vocabulary_size, callback)
        self.state = state
        return state

    # -- compiled engine ----------------------------------------------------------
    def _fit_flat(self, flat: FlatPhraseCorpus, vocabulary_size: int,
                  callback: Optional[IterationCallback]) -> PhraseLDAState:
        """Fit via the C kernel over the flat buffers: sweeps, Minka
        hyper-parameter updates and per-iteration callbacks.  The kernel
        mutates the state's count arrays in place, so every observation
        sees current counts."""
        config = self.config
        rng = new_rng(config.seed)
        n_topics = config.n_topics
        alpha = np.full(n_topics, config.resolved_alpha(), dtype=float)
        beta = float(config.beta)

        topic_word, doc_topic, topic_totals, assign = random_initialization(
            flat, n_topics, vocabulary_size, rng)
        # Per-document assignment arrays are views into the flat buffer, so
        # the state is always current without copying.
        clique_assignments = _per_document(assign, flat.doc_offsets)
        # Initial per-token expansion, so callbacks observe the same (stale,
        # init-time) token assignments the reference fit exposes; refreshed
        # from the final clique topics after the loop.
        state = PhraseLDAState(topic_word_counts=topic_word,
                               doc_topic_counts=doc_topic,
                               topic_counts=topic_totals,
                               alpha=alpha, beta=beta,
                               assignments=_expand_token_topics(flat, assign),
                               clique_assignments=clique_assignments)
        sampler = CKernelSampler(flat, topic_word, doc_topic, topic_totals,
                                 assign, alpha, beta)
        for iteration in range(config.n_iterations):
            sampler.sweep(rng)
            if (config.optimize_hyperparameters
                    and iteration >= config.burn_in
                    and (iteration + 1) % config.hyper_optimize_interval == 0):
                state.alpha = optimize_asymmetric_alpha(state.doc_topic_counts, state.alpha)
                state.beta = optimize_symmetric_beta(state.topic_word_counts, state.beta)
                sampler.rebuild(state.alpha, state.beta)
            if callback is not None:
                callback(iteration, state)
        state.assignments = _expand_token_topics(flat, assign)
        return state

    # -- reference implementation --------------------------------------------------
    def _fit_reference(self, phrase_docs: List[List[Phrase]], vocabulary_size: int,
                       callback: Optional[IterationCallback]) -> PhraseLDAState:
        """The original readable nested-loop fit, kept as the executable
        specification the C engine is tested against."""
        _check_token_range(np.asarray([w for phrases in phrase_docs
                                       for phrase in phrases for w in phrase],
                                      dtype=np.int64), vocabulary_size)
        config = self.config
        rng = new_rng(config.seed)
        n_topics = config.n_topics

        alpha = np.full(n_topics, config.resolved_alpha(), dtype=float)
        beta = float(config.beta)

        n_docs = len(phrase_docs)
        topic_word = np.zeros((vocabulary_size, n_topics), dtype=np.int64)
        doc_topic = np.zeros((n_docs, n_topics), dtype=np.int64)
        topic_totals = np.zeros(n_topics, dtype=np.int64)
        clique_assignments: List[np.ndarray] = []
        token_assignments: List[np.ndarray] = []

        # -- random initialisation: one topic per clique -----------------------------
        for d, phrases in enumerate(phrase_docs):
            doc_cliques = rng.integers(0, n_topics, size=len(phrases))
            clique_assignments.append(doc_cliques)
            flat_assign: List[int] = []
            for phrase, k in zip(phrases, doc_cliques):
                for w in phrase:
                    topic_word[w, k] += 1
                    doc_topic[d, k] += 1
                    topic_totals[k] += 1
                    flat_assign.append(int(k))
            token_assignments.append(np.asarray(flat_assign, dtype=np.int64))

        state = PhraseLDAState(topic_word_counts=topic_word,
                               doc_topic_counts=doc_topic,
                               topic_counts=topic_totals,
                               alpha=alpha, beta=beta,
                               assignments=token_assignments,
                               clique_assignments=clique_assignments)

        for iteration in range(config.n_iterations):
            self._sweep(phrase_docs, state, rng)
            if (config.optimize_hyperparameters
                    and iteration >= config.burn_in
                    and (iteration + 1) % config.hyper_optimize_interval == 0):
                state.alpha = optimize_asymmetric_alpha(state.doc_topic_counts, state.alpha)
                state.beta = optimize_symmetric_beta(state.topic_word_counts, state.beta)
            if callback is not None:
                callback(iteration, state)
        self._refresh_token_assignments(phrase_docs, state)
        return state

    # -- internals ---------------------------------------------------------------------
    def _sweep(self, phrase_docs: List[List[Phrase]], state: PhraseLDAState,
               rng: np.random.Generator) -> None:
        """One reference Gibbs sweep: resample every clique's topic (Eq. 7)."""
        topic_word = state.topic_word_counts
        doc_topic = state.doc_topic_counts
        topic_totals = state.topic_counts
        alpha = state.alpha
        beta = state.beta
        beta_sum = beta * state.vocabulary_size

        for d, phrases in enumerate(phrase_docs):
            doc_counts = doc_topic[d]
            doc_cliques = state.clique_assignments[d]
            for g, phrase in enumerate(phrases):
                size = len(phrase)
                if size == 0:
                    continue
                k_old = doc_cliques[g]
                # Remove the whole clique from the counts (Z without C_{d,g}).
                for w in phrase:
                    topic_word[w, k_old] -= 1
                doc_counts[k_old] -= size
                topic_totals[k_old] -= size

                # Eq. 7: product over the clique's tokens.
                weights = np.ones(state.n_topics, dtype=float)
                for j, w in enumerate(phrase):
                    weights *= (alpha + doc_counts + j)
                    weights *= (beta + topic_word[w])
                    weights /= (beta_sum + topic_totals + j)

                k_new = _sample_index(rng, weights)
                doc_cliques[g] = k_new
                for w in phrase:
                    topic_word[w, k_new] += 1
                doc_counts[k_new] += size
                topic_totals[k_new] += size

    def _refresh_token_assignments(self, phrase_docs: List[List[Phrase]],
                                   state: PhraseLDAState) -> None:
        """Expand clique topics into per-token assignments (for evaluation)."""
        token_assignments: List[np.ndarray] = []
        for phrases, cliques in zip(phrase_docs, state.clique_assignments):
            flat: List[int] = []
            for phrase, k in zip(phrases, cliques):
                flat.extend([int(k)] * len(phrase))
            token_assignments.append(np.asarray(flat, dtype=np.int64))
        state.assignments = token_assignments


class ReferencePhraseLDA(PhraseLDA):
    """PhraseLDA pinned to the readable nested-loop reference sampler."""

    def __init__(self, config: Optional[PhraseLDAConfig] = None) -> None:
        config = replace(config, engine="reference") if config else \
            PhraseLDAConfig(engine="reference")
        super().__init__(config)


def _expand_token_topics(flat: FlatPhraseCorpus,
                         assign: np.ndarray) -> List[np.ndarray]:
    """Per-document token assignments: every clique topic repeated over the
    clique's tokens, split at each document's token offsets."""
    token_topics = np.repeat(assign, flat.clique_sizes())
    return _per_document(token_topics, flat.offsets[flat.doc_offsets])


def _per_document(values: np.ndarray, bounds: np.ndarray) -> List[np.ndarray]:
    """Views of ``values`` between consecutive ``bounds`` (one per document)."""
    edges = bounds.tolist()
    return [values[a:b] for a, b in zip(edges, edges[1:])]


def _extract_partition(documents: Union[SegmentedCorpus, FlatPhraseCorpus,
                                        PhraseDocuments],
                       vocabulary_size: Optional[int],
                       ) -> Tuple[FlatPhraseCorpus, int]:
    """Normalise input into a flat phrase partition plus vocab size.

    A :class:`SegmentedCorpus` hands over its partition, which keeps every
    phrase — including empty ones — so ``clique_assignments[d]`` stays
    index-aligned with ``doc.phrases``; empty phrases get an (unsampled)
    assignment slot in every engine.  Raw phrase documents drop empty
    phrases instead.
    """
    if isinstance(documents, SegmentedCorpus):
        # The corpus's own vocabulary (or its data) sets V.
        vocabulary = documents.vocabulary
        vocabulary_size = len(vocabulary) if vocabulary is not None else None
        documents = documents.partition
    elif not isinstance(documents, FlatPhraseCorpus):
        documents = FlatPhraseCorpus.from_phrases(
            [[phrase for phrase in doc if len(phrase) > 0] for doc in documents])
    if vocabulary_size is None:
        tokens = documents.tokens
        vocabulary_size = int(tokens.max()) + 1 if tokens.size else 0
    return documents, vocabulary_size


def unigram_segmentation(documents: Sequence[Sequence[int]]) -> List[List[Phrase]]:
    """Convert bag-of-words documents into the all-singleton segmentation.

    Fitting :class:`PhraseLDA` on this segmentation is exactly collapsed-Gibbs
    LDA — the paper uses the same implementation for both models in its
    runtime comparison.
    """
    return [[(int(w),) for w in doc] for doc in documents]
