"""Fold-in inference: apply a trained ToPMine model to *unseen* documents.

Training (:class:`~repro.core.topmine.ToPMine`) produces two frozen
artifacts: the significant-phrase table that drives segmentation and the
PhraseLDA count matrices.  This module applies both to new text without
retraining:

1. preprocess each unseen document with the *training* configuration and
   encode it against the frozen vocabulary (unknown words are dropped, as in
   held-out perplexity evaluation);
2. segment the encoded chunks with the frozen phrase table — Algorithm 2
   with the training corpus' significance statistics;
3. Gibbs fold-in: resample only the new documents' clique assignments
   against the frozen topic-word counts and read off each document's topic
   mixture ``θ̂``.

Two interchangeable engines run the fold-in sweeps: ``"c"``, the
``phrase_lda_fold_in`` entry point of the compiled PhraseLDA kernel
(:func:`repro.topicmodel.ckernel.run_fold_in`, what ``"auto"`` picks when
the kernel loads), and ``"reference"``, a readable nested loop kept as the
executable specification and the no-compiler fallback.  Both consume the
random stream identically, so a fixed seed yields identical clique
assignments regardless of engine.

Held-out perplexity (:mod:`repro.topicmodel.perplexity`) folds its
estimation halves in through :meth:`TopicInferencer.infer_segmented`, so
evaluation and serving share one fold-in.

For the serving layer, :meth:`TopicInferencer.infer_texts_grouped` folds
several independent *requests* (each with its own seed) in one call whose
per-request results are bit-identical to running each request alone — the
contract the micro-batching scheduler in :mod:`repro.serve.batching`
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.segmentation import CorpusSegmenter
from repro.text.preprocess import PreprocessConfig, Preprocessor
from repro.text.vocabulary import Vocabulary
from repro.topicmodel import ckernel
from repro.topicmodel.gibbs import (
    FlatPhraseCorpus,
    _check_token_range,
    check_priors,
    resolve_engine,
)
from repro.topicmodel.lda import TopicModelState
from repro.utils.rng import SeedLike, new_rng
from repro.utils.timing import Stopwatch

Phrase = Tuple[int, ...]

# The C engine draws its uniforms in chunks of whole sweeps holding at most
# this many doubles (but always at least one sweep), so a request's buffer
# stays bounded however many iterations it asks for.
_UNIFORM_CHUNK = 1 << 16


def _frozen_counts(name: str, counts: np.ndarray,
                   shape: Tuple[int, ...]) -> np.ndarray:
    """``counts`` as a C-contiguous ``int64`` array of ``shape``.

    Raises ``ValueError`` for a wrong shape, a non-integer dtype, or a
    negative count (including ``uint64`` values that do not fit ``int64``).
    """
    array = np.asarray(counts)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}; expected {shape}")
    if array.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer counts, not {array.dtype}")
    array = np.ascontiguousarray(array, dtype=np.int64)
    if array.size and int(array.min()) < 0:
        raise ValueError(f"{name} must be non-negative")
    return array


@dataclass
class InferenceConfig:
    """Configuration of fold-in inference.

    Parameters
    ----------
    n_iterations:
        Gibbs fold-in sweeps over the unseen documents' cliques.
    seed:
        Random seed (int or :class:`numpy.random.Generator`).
    engine:
        Sweep implementation: ``"auto"`` (→ ``"c"`` when the kernel loads,
        ``"reference"`` otherwise), ``"c"``, or ``"reference"``.
    """

    n_iterations: int = 50
    seed: SeedLike = None
    engine: str = "auto"


@dataclass
class DocumentInference:
    """Per-document fold-in output.

    Attributes
    ----------
    theta:
        Length-``K`` posterior topic-mixture estimate ``θ̂_d``.
    phrases:
        The document's frozen-table segmentation (tuples of word ids).
    clique_topics:
        Final topic assignment of each phrase instance (aligned with
        ``phrases``).
    n_unknown_tokens:
        Tokens of the raw document that were dropped because their stem is
        not in the trained vocabulary (or fell below the training run's
        rare-word threshold, ``PreprocessConfig.min_word_frequency``).
    """

    theta: np.ndarray
    phrases: List[Phrase] = field(default_factory=list)
    clique_topics: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    n_unknown_tokens: int = 0

    def top_topics(self, n: int = 3) -> List[Tuple[int, float]]:
        """Return the ``n`` highest-probability ``(topic, probability)`` pairs."""
        order = np.argsort(-self.theta)[:n]
        return [(int(k), float(self.theta[k])) for k in order]


@dataclass
class InferenceResult:
    """Fold-in output for a batch of unseen documents.

    Attributes
    ----------
    theta:
        ``D × K`` matrix of document-topic mixtures (row ``d`` is document
        ``d``'s ``θ̂``).
    documents:
        Per-document details (segmentation, clique topics, unknown-token
        counts), aligned with the input order.
    """

    theta: np.ndarray
    documents: List[DocumentInference] = field(default_factory=list)

    @property
    def n_documents(self) -> int:
        """Number of folded-in documents."""
        return len(self.documents)

    @property
    def n_topics(self) -> int:
        """Number of topics ``K``."""
        return int(self.theta.shape[1]) if self.theta.ndim == 2 else 0


class TopicInferencer:
    """Applies a frozen phrase table and PhraseLDA model to unseen text.

    Parameters
    ----------
    state:
        Trained topic-model counts (a
        :class:`~repro.topicmodel.lda.TopicModelState` or subclass); only
        ``topic_word_counts``, ``topic_counts``, ``alpha`` and ``beta`` are
        read, never written.  They are turned once, here, into the
        ``float64`` Eq. 7 factors both fold-in engines read (``beta + N_wk``
        and ``beta·V + N_k``), so they must be non-negative integer counts
        of shapes ``(V, K)`` and ``(K,)``, with finite, positive ``alpha``
        (shape ``(K,)``) and ``beta``.  ``None`` builds a
        segmentation-only inferencer.
    segmenter:
        A :class:`~repro.core.segmentation.CorpusSegmenter` built from the
        *training* mining result, so unseen text is segmented with the
        frozen significance statistics.  ``None`` suffices when only
        pre-segmented documents are folded in through
        :meth:`infer_segmented` (as
        :func:`~repro.topicmodel.perplexity.held_out_perplexity` does).
    vocabulary:
        The frozen training vocabulary used to encode raw text.
    preprocess:
        Preprocessing options; must match training for stems to line up.

    Raises
    ------
    ValueError
        If the state breaks one of those rules, or the vocabulary has more
        words than the model.  Everything here is checked once, so fold-in
        does not re-check it per request.

    Examples
    --------
    Built most conveniently from a saved model bundle::

        bundle = load_model("model.npz")
        inferencer = bundle.inferencer()
        result = inferencer.infer_texts(["support vector machine training"])
        result.theta.shape      # (1, K)
    """

    def __init__(self, state: Optional[TopicModelState],
                 segmenter: Optional[CorpusSegmenter],
                 vocabulary: Optional[Vocabulary] = None,
                 preprocess: Optional[PreprocessConfig] = None) -> None:
        self.state = state
        self.segmenter = segmenter
        self.vocabulary = vocabulary
        self.preprocess = preprocess or PreprocessConfig()
        self._preprocessor = Preprocessor(self.preprocess)
        if state is not None:
            topic_word = np.asarray(state.topic_word_counts)
            if topic_word.ndim != 2 or topic_word.shape[1] < 1:
                raise ValueError(f"topic_word_counts must be V x K with K >= 1; "
                                 f"got shape {topic_word.shape}")
            n_words, n_topics = topic_word.shape
            topic_word = _frozen_counts("topic_word_counts", topic_word,
                                        topic_word.shape)
            topic_totals = _frozen_counts("topic_counts", state.topic_counts,
                                          (n_topics,))
            self._alpha = np.ascontiguousarray(state.alpha, dtype=np.float64)
            if self._alpha.shape != (n_topics,):
                raise ValueError(f"alpha has shape {self._alpha.shape}; "
                                 f"expected {(n_topics,)}")
            beta = float(state.beta)
            # Checked once here rather than per fold-in: the priors and the
            # vocabulary are frozen with the counts.
            check_priors(self._alpha, beta, "fold-in", positive=True,
                         hint=", so every clique posterior has positive mass")
            # Eq. 7's frozen word and topic-total factors, which both
            # engines read (the kernel header's prior-baked factors).
            self._wfac = topic_word + beta
            self._tfac = topic_totals + beta * n_words
            if vocabulary is not None and len(vocabulary) > topic_word.shape[0]:
                # Encoded text could then index outside the V x K counts.
                raise ValueError(
                    f"the vocabulary has {len(vocabulary)} words but the "
                    f"model only {topic_word.shape[0]}")

    # -- public API ------------------------------------------------------------------
    def infer_texts(self, texts: Sequence[str],
                    config: Optional[InferenceConfig] = None) -> InferenceResult:
        """Fold in raw document strings and return their topic mixtures.

        Parameters
        ----------
        texts:
            Unseen raw documents.  Each is preprocessed with the training
            configuration and encoded against the frozen vocabulary;
            out-of-vocabulary stems — and, when training used
            ``min_word_frequency > 1``, stems below that threshold — are
            dropped (and counted per document in
            :attr:`DocumentInference.n_unknown_tokens`).
        config:
            Fold-in options (iterations, seed, engine).

        Returns
        -------
        InferenceResult
            Topic mixtures plus per-document segmentations.

        Raises
        ------
        RuntimeError
            If the inferencer was built without a vocabulary (raw text then
            cannot be encoded — use :meth:`infer_segmented` instead).
        """
        config = config or InferenceConfig()
        partition, unknown_counts = self._segment_texts(texts)
        return self._fold_in(partition, unknown_counts, config.seed,
                             config.n_iterations,
                             resolve_engine(config.engine))

    def infer_texts_grouped(self, groups: Sequence[Sequence[str]],
                            seeds: Sequence[SeedLike],
                            config: Optional[InferenceConfig] = None,
                            watch: Optional[Stopwatch] = None,
                            ) -> List[InferenceResult]:
        """Fold in several independent *requests* in one call.

        The multi-request entry point behind the serving layer's
        micro-batching scheduler: every group is an independent request with
        its own seed.  All groups share one segmentation pass; each group is
        then folded in with its own random stream, exactly as a solo call
        would.  Results are **bit-identical** to calling :meth:`infer_texts`
        once per group with that group's seed — batching is purely a
        throughput optimisation, never a semantic one.

        Parameters
        ----------
        groups:
            One sequence of raw documents per request.
        seeds:
            One seed (or generator) per request, aligned with ``groups``;
            overrides ``config.seed``.
        config:
            Shared fold-in options (iterations and engine apply to every
            group).
        watch:
            Optional :class:`~repro.utils.timing.Stopwatch` that receives
            the batch's ``"segmentation"`` and ``"fold_in"`` stage times —
            the serving layer's span instrumentation hook (timing is free
            when no watch is passed).

        Returns
        -------
        list of InferenceResult
            One result per request, aligned with ``groups``.
        """
        config = config or InferenceConfig()
        engine = resolve_engine(config.engine)
        if len(seeds) != len(groups):
            raise ValueError(f"got {len(groups)} groups but {len(seeds)} seeds")
        watch = watch if watch is not None else Stopwatch()
        # All requests share one batched segmentation pass; each group's
        # documents are then folded in on their own stream.
        with watch.measure("segmentation"):
            partition, unknown_counts = self._segment_texts(
                [text for texts in groups for text in texts])
        results: List[InferenceResult] = []
        start = 0
        with watch.measure("fold_in"):
            for texts, seed in zip(groups, seeds):
                end = start + len(texts)
                results.append(self._fold_in(
                    partition.select(start, end), unknown_counts[start:end],
                    seed, config.n_iterations, engine))
                start = end
        return results

    def segment_texts(self, texts: Sequence[str],
                      ) -> Tuple[List[List[Phrase]], List[int]]:
        """Segment raw unseen documents with the frozen phrase table only.

        The segmentation half of :meth:`infer_texts` without the Gibbs
        fold-in — what the serving layer's ``/v1/segment`` endpoint exposes.

        Returns
        -------
        (phrases, unknown_counts)
            ``phrases[d]`` is document ``d``'s list of phrases (tuples of
            word ids over the frozen vocabulary) and ``unknown_counts[d]``
            its number of dropped out-of-vocabulary tokens.
        """
        partition, unknown_counts = self._segment_texts(texts)
        return partition.documents(), unknown_counts

    def _segment_texts(self, texts: Sequence[str],
                       ) -> Tuple[FlatPhraseCorpus, List[int]]:
        """Encode raw texts against the frozen vocabulary and segment them."""
        if self.vocabulary is None:
            raise RuntimeError(
                "cannot infer from raw text without a vocabulary; "
                "pass encoded documents to infer_segmented() instead")
        min_frequency = self.preprocess.min_word_frequency
        encoded: List[List[List[int]]] = []
        unknown_counts: List[int] = []
        for text in texts:
            chunks: List[List[int]] = []
            unknown = 0
            for chunk in self._preprocessor.process_text(text):
                stems = [stem for stem, _surface in chunk]
                ids = self.vocabulary.encode(stems, grow=False)
                if min_frequency > 1:
                    # Training dropped rare words from the documents (their
                    # ids stay in the vocabulary); mirror that here so
                    # unseen text is encoded exactly like training text.
                    ids = [w for w in ids
                           if self.vocabulary.frequency_of(w) >= min_frequency]
                unknown += len(stems) - len(ids)
                if ids:
                    chunks.append(ids)
            encoded.append(chunks)
            unknown_counts.append(unknown)
        # One batched pass: every document shares the segmenter's kernel
        # call.
        return self.segmenter.segment_partition(encoded), unknown_counts

    def infer_segmented(self, phrase_docs: Sequence[Sequence[Sequence[int]]],
                        config: Optional[InferenceConfig] = None) -> InferenceResult:
        """Fold in pre-segmented documents (each a sequence of phrases).

        Raises
        ------
        ValueError
            If a token id falls outside the model's vocabulary ``[0, V)``.
        """
        config = config or InferenceConfig()
        partition = FlatPhraseCorpus.from_phrases(phrase_docs)
        if self.state is not None:
            # Caller-built ids: the C kernel must never index outside the
            # frozen V x K counts.
            _check_token_range(partition.tokens, self._wfac.shape[0])
        return self._fold_in(partition, [0] * partition.n_docs, config.seed,
                             config.n_iterations,
                             resolve_engine(config.engine))

    # -- engines ---------------------------------------------------------------------
    def _fold_in(self, partition: FlatPhraseCorpus,
                 unknown_counts: Sequence[int], seed: SeedLike,
                 n_iterations: int, engine: str) -> InferenceResult:
        """Fold in one request's documents on one random stream.

        The stream is consumed the same way by both engines: one
        ``integers`` draw for the initial topics of all cliques (the same
        draws as one per document, in document order), then one uniform per
        non-empty clique per sweep, in document and clique order.
        """
        if self.state is None:
            raise RuntimeError("this inferencer has no topic model to fold in with")
        rng = new_rng(seed)
        n_topics = self._wfac.shape[1]
        n_docs = partition.n_docs
        assign = rng.integers(0, n_topics, size=partition.n_cliques)
        # One count per token, in the (document, topic) cell of its clique.
        cells = np.repeat(partition.clique_doc.astype(np.int64) * n_topics + assign,
                          partition.clique_sizes())
        doc_topic = np.bincount(
            cells, minlength=n_docs * n_topics,
        ).astype(np.int64, copy=False).reshape(n_docs, n_topics)
        phrase_docs = partition.documents()
        if partition.n_sampled:
            if engine == "c":
                self._sweeps_c(partition, doc_topic, assign, n_iterations, rng)
            else:
                self._sweeps_reference(phrase_docs, partition.doc_offsets,
                                       doc_topic, assign, n_iterations, rng)

        theta = doc_topic + self._alpha
        theta /= theta.sum(axis=1, keepdims=True)
        bounds = partition.doc_offsets.tolist()
        documents = [
            DocumentInference(theta=theta[d], phrases=phrase_docs[d],
                              clique_topics=assign[bounds[d]:bounds[d + 1]],
                              n_unknown_tokens=unknown_counts[d])
            for d in range(n_docs)
        ]
        return InferenceResult(theta=theta, documents=documents)

    def _sweeps_c(self, flat: FlatPhraseCorpus, doc_topic: np.ndarray,
                  assign: np.ndarray, n_iterations: int,
                  rng: np.random.Generator) -> None:
        """Fold-in sweeps in the C kernel, a bounded chunk of whole sweeps
        per call (the GIL is released for each call)."""
        per_chunk = max(1, _UNIFORM_CHUNK // flat.n_sampled)
        done = 0
        while done < n_iterations:
            sweeps = min(per_chunk, n_iterations - done)
            ckernel.run_fold_in(
                flat.tokens, flat.offsets, flat.clique_doc, self._alpha,
                self._wfac, self._tfac, doc_topic, assign, sweeps,
                rng.random(sweeps * flat.n_sampled))
            done += sweeps

    def _sweeps_reference(self, phrase_docs: List[List[Phrase]],
                          doc_offsets: np.ndarray,
                          doc_topic: np.ndarray, assign: np.ndarray,
                          n_iterations: int, rng: np.random.Generator) -> None:
        """Readable nested-loop fold-in sweeps, the executable specification.

        Eq. 7 with the word and topic-total factors frozen at their trained
        values; only the new documents' counts ``doc_topic`` (and their
        clique assignments) change::

            p(C_{d,g} = k) ∝ Π_{j=1}^{W_{d,g}}
                (α_k + n_{d,k} + j − 1) ·
                (β + N_{w_j,k}) / (Σ_x β_x + N_k + j − 1)
        """
        n_topics = doc_topic.shape[1]
        alpha, wfac, tfac = self._alpha, self._wfac, self._tfac

        bounds = doc_offsets.tolist()
        for _ in range(n_iterations):
            for phrases, local, g0 in zip(phrase_docs, doc_topic, bounds):
                doc_assign = assign[g0:g0 + len(phrases)]
                for g, phrase in enumerate(phrases):
                    size = len(phrase)
                    if size == 0:
                        continue
                    k_old = doc_assign[g]
                    local[k_old] -= size
                    weights = np.ones(n_topics, dtype=float)
                    for j, w in enumerate(phrase):
                        weights *= (alpha + local + j)
                        weights *= wfac[w]
                        weights /= (tfac + j)
                    cumulative = np.cumsum(weights)
                    u = rng.random()
                    total = cumulative[-1]
                    if total > 0.0:
                        k_new = int(np.searchsorted(cumulative, u * total))
                    else:
                        # Long cliques against huge models can underflow the
                        # Eq. 7 product to exactly 0: uniform fallback from
                        # the same consumed uniform.
                        k_new = min(int(u * n_topics), n_topics - 1)
                    doc_assign[g] = k_new
                    local[k_new] += size
