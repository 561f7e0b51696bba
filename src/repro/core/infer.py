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

Two interchangeable engines run the fold-in sweep: ``"batch"``
(:class:`~repro.topicmodel.gibbs.BatchFoldInSampler`, the cross-document
slot-vectorized sampler, what ``"auto"`` resolves to) and ``"reference"``,
a readable nested loop kept as the executable specification.  ``"c"`` is
rejected explicitly — the compiled training kernel mutates global counts
and therefore does not apply to fold-in.  Both engines consume the random
stream identically, so a fixed seed yields identical clique assignments
regardless of engine.

For the serving layer, :meth:`TopicInferencer.infer_texts_grouped` folds
several independent *requests* (each with its own seed) in one batched
pass whose per-request results are bit-identical to running each request
alone — the contract the micro-batching scheduler in
:mod:`repro.serve.batching` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.segmentation import CorpusSegmenter, SegmentedDocument
from repro.text.corpus import Corpus
from repro.text.preprocess import PreprocessConfig, Preprocessor
from repro.text.vocabulary import Vocabulary
from repro.topicmodel.gibbs import (
    BatchFoldInSampler,
    FlatPhraseCorpus,
    validate_fold_in_input,
)
from repro.topicmodel.lda import TopicModelState
from repro.utils.rng import SeedLike, new_rng
from repro.utils.timing import Stopwatch

Phrase = Tuple[int, ...]

INFERENCE_ENGINES = ("auto", "batch", "reference")


def resolve_inference_engine(engine: str) -> str:
    """Map an inference engine request onto a concrete engine name.

    Parameters
    ----------
    engine:
        One of ``"auto"``, ``"batch"``, ``"reference"``.
        ``"auto"`` resolves to ``"batch"``, the cross-document vectorized
        fold-in — bit-identical to the reference loop under a fixed seed,
        without its per-clique Python loop.  (The compiled training kernel updates
        the global count matrices in place, which fold-in must *not* do,
        so ``"c"`` never applies here.)

    Returns
    -------
    str
        ``"batch"`` or ``"reference"``.

    Raises
    ------
    ValueError
        If ``engine`` is not a known inference engine — including ``"c"``,
        which is rejected explicitly (rather than silently substituted)
        because the training kernel does not apply to fold-in.
    """
    if engine == "c":
        raise ValueError(
            "engine 'c' is not available for fold-in inference (the "
            "compiled kernel mutates the trained counts); use 'auto' or "
            "'batch'")
    if engine not in INFERENCE_ENGINES:
        raise ValueError(
            f"unknown inference engine {engine!r}; expected one of {INFERENCE_ENGINES}")
    if engine == "auto":
        return "batch"
    return engine


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
        Sweep implementation: ``"auto"`` (→ the cross-document ``"batch"``
        sampler), ``"batch"``, or ``"reference"``.
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
        read, never written.
    segmenter:
        A :class:`~repro.core.segmentation.CorpusSegmenter` built from the
        *training* mining result, so unseen text is segmented with the
        frozen significance statistics.
    vocabulary:
        The frozen training vocabulary used to encode raw text.
    preprocess:
        Preprocessing options; must match training for stems to line up.

    Examples
    --------
    Built most conveniently from a saved model bundle::

        bundle = load_model("model.npz")
        inferencer = bundle.inferencer()
        result = inferencer.infer_texts(["support vector machine training"])
        result.theta.shape      # (1, K)
    """

    def __init__(self, state: TopicModelState, segmenter: CorpusSegmenter,
                 vocabulary: Optional[Vocabulary] = None,
                 preprocess: Optional[PreprocessConfig] = None) -> None:
        self.state = state
        self.segmenter = segmenter
        self.vocabulary = vocabulary
        self.preprocess = preprocess or PreprocessConfig()
        self._preprocessor = Preprocessor(self.preprocess)

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
        segmented, unknown_counts = self._segment_texts(texts)
        return self._infer_segmented_documents(segmented, config, unknown_counts)

    def infer_texts_grouped(self, groups: Sequence[Sequence[str]],
                            seeds: Sequence[SeedLike],
                            config: Optional[InferenceConfig] = None,
                            watch: Optional[Stopwatch] = None,
                            ) -> List[InferenceResult]:
        """Fold in several independent *requests* in one batched pass.

        The multi-request entry point behind the serving layer's
        micro-batching scheduler: every group is an independent request with
        its own seed, and the whole batch runs as a single slot-vectorized
        fold-in (:class:`~repro.topicmodel.gibbs.BatchFoldInSampler`) with
        one random stream per group.  Results are **bit-identical** to
        calling :meth:`infer_texts` once per group with that group's seed —
        batching is purely a throughput optimisation, never a semantic one.

        Parameters
        ----------
        groups:
            One sequence of raw documents per request.
        seeds:
            One seed (or generator) per request, aligned with ``groups``;
            overrides ``config.seed``.
        config:
            Shared fold-in options.  ``config.engine`` must resolve to
            ``"batch"`` (the only multi-stream engine); iterations apply to
            every group.
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
        engine = resolve_inference_engine(config.engine)
        if engine != "batch":
            raise ValueError(
                f"grouped inference requires the 'batch' engine (got "
                f"{config.engine!r}); it is the only engine that consumes "
                f"one random stream per request")
        if len(seeds) != len(groups):
            raise ValueError(f"got {len(groups)} groups but {len(seeds)} seeds")
        watch = watch if watch is not None else Stopwatch()
        # All requests share one vectorized segmentation pass; the per-group
        # ranges then carve the batch back apart.
        with watch.measure("segmentation"):
            segmented, unknown_counts = self._segment_texts(
                [text for texts in groups for text in texts])
        ranges: List[Tuple[int, int]] = []
        start = 0
        for texts in groups:
            ranges.append((start, start + len(texts)))
            start += len(texts)

        with watch.measure("fold_in"):
            phrase_docs = [[tuple(p) for p in doc.phrases]
                           for doc in segmented]
            flat = FlatPhraseCorpus(phrase_docs)
            state = self.state
            sampler = BatchFoldInSampler(flat, state.topic_word_counts,
                                         state.topic_counts, state.alpha,
                                         state.beta, group_doc_ranges=ranges)
            rngs = [new_rng(seed) for seed in seeds]
            sampler.initialize(rngs)
            for _ in range(config.n_iterations):
                sampler.sweep(rngs)
            theta = sampler.theta()
            assigns = [np.ascontiguousarray(sampler.assign[g0:g1])
                       for g0, g1 in flat.doc_ranges]

        results: List[InferenceResult] = []
        for start, end in ranges:
            documents = [
                DocumentInference(theta=theta[d], phrases=phrase_docs[d],
                                  clique_topics=assigns[d],
                                  n_unknown_tokens=unknown_counts[d])
                for d in range(start, end)
            ]
            results.append(InferenceResult(
                theta=np.ascontiguousarray(theta[start:end]),
                documents=documents))
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
        segmented, unknown_counts = self._segment_texts(texts)
        return ([[tuple(p) for p in doc.phrases] for doc in segmented],
                unknown_counts)

    def _segment_texts(self, texts: Sequence[str],
                       ) -> Tuple[List[SegmentedDocument], List[int]]:
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
        # One batched pass: every document shares the segmenter's vectorized
        # seed scoring (and sharding, when configured).
        segmented = self.segmenter.segment_documents(encoded)
        return segmented, unknown_counts

    def infer_corpus(self, corpus: Corpus,
                     config: Optional[InferenceConfig] = None) -> InferenceResult:
        """Fold in an already-encoded corpus (tokens over the frozen vocabulary)."""
        segmented = self.segmenter.segment_documents(
            [doc.chunks for doc in corpus],
            doc_ids=[doc.doc_id for doc in corpus])
        return self._infer_segmented_documents(segmented, config)

    def infer_segmented(self, phrase_docs: Sequence[Sequence[Sequence[int]]],
                        config: Optional[InferenceConfig] = None) -> InferenceResult:
        """Fold in pre-segmented documents (each a sequence of phrases)."""
        segmented = [
            SegmentedDocument(phrases=[tuple(int(w) for w in p) for p in doc],
                              doc_id=d)
            for d, doc in enumerate(phrase_docs)
        ]
        return self._infer_segmented_documents(segmented, config)

    # -- engines ---------------------------------------------------------------------
    def _infer_segmented_documents(self, segmented: List[SegmentedDocument],
                                   config: Optional[InferenceConfig],
                                   unknown_counts: Optional[List[int]] = None,
                                   ) -> InferenceResult:
        """Run the configured fold-in engine over segmented documents."""
        config = config or InferenceConfig()
        engine = resolve_inference_engine(config.engine)
        phrase_docs = [[tuple(p) for p in doc.phrases] for doc in segmented]
        flat = FlatPhraseCorpus(phrase_docs)
        if engine == "reference":
            # The batch sampler validates on construction; validate the
            # reference path here with the same shared check.
            validate_fold_in_input(flat, self.state.alpha, self.state.beta,
                                   self.state.vocabulary_size)
            theta, assigns = self._fold_in_reference(phrase_docs, config)
        else:
            theta, assigns = self._fold_in_batch(flat, config)
        if unknown_counts is None:
            unknown_counts = [0] * len(segmented)
        documents = [
            DocumentInference(theta=theta[d], phrases=phrase_docs[d],
                              clique_topics=assigns[d],
                              n_unknown_tokens=unknown_counts[d])
            for d in range(len(segmented))
        ]
        return InferenceResult(theta=theta, documents=documents)

    def _fold_in_batch(self, flat: FlatPhraseCorpus,
                       config: InferenceConfig,
                       ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Slot-vectorized fold-in across documents (``"auto"``'s choice).

        A single group covering every document, driven by one generator —
        the same random stream as :meth:`_fold_in_reference`, so the engines
        stay bit-identical while the batch sampler removes the per-clique
        Python loop.
        """
        state = self.state
        rng = new_rng(config.seed)
        sampler = BatchFoldInSampler(flat, state.topic_word_counts,
                                     state.topic_counts, state.alpha,
                                     state.beta)
        sampler.initialize([rng])
        for _ in range(config.n_iterations):
            sampler.sweep([rng])
        assigns = [np.ascontiguousarray(sampler.assign[g0:g1])
                   for g0, g1 in flat.doc_ranges]
        return sampler.theta(), assigns

    def _fold_in_reference(self, phrase_docs: List[List[Phrase]],
                           config: InferenceConfig,
                           ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Readable nested-loop fold-in, the executable specification.

        Consumes the random stream exactly like :meth:`_fold_in_batch` (one
        ``integers`` draw per document, one uniform per non-empty clique per
        sweep), so both engines agree under a fixed seed.
        """
        state = self.state
        rng = new_rng(config.seed)
        n_topics = state.n_topics
        alpha = np.asarray(state.alpha, dtype=np.float64)
        beta = float(state.beta)
        beta_sum = beta * state.vocabulary_size
        wfac = state.topic_word_counts + beta
        tfac = state.topic_counts + beta_sum

        assigns: List[np.ndarray] = []
        locals_: List[np.ndarray] = []
        for phrases in phrase_docs:
            doc_assign = rng.integers(0, n_topics, size=len(phrases))
            local = np.zeros(n_topics, dtype=np.int64)
            for phrase, k in zip(phrases, doc_assign):
                local[k] += len(phrase)
            assigns.append(doc_assign)
            locals_.append(local)

        for _ in range(config.n_iterations):
            for phrases, doc_assign, local in zip(phrase_docs, assigns, locals_):
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

        theta = np.empty((len(phrase_docs), n_topics))
        for d, local in enumerate(locals_):
            row = local + alpha
            theta[d] = row / row.sum()
        return theta, [np.asarray(a, dtype=np.int64) for a in assigns]
