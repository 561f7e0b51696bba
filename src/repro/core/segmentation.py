"""Corpus segmentation: from mined phrase counts to a 'bag of phrases'.

This module glues Algorithm 1 and Algorithm 2 together at corpus scale.  For
every document it runs the bottom-up phrase construction over each
phrase-invariant chunk and concatenates the resulting partitions, yielding a
:class:`SegmentedDocument` whose phrase instances cover the document's tokens
exactly (the partition property from the problem definition, Section 2).

The :class:`SegmentedCorpus` is the input to PhraseLDA: each phrase becomes a
clique whose tokens must share a topic.

Like the miner and the PhraseLDA samplers, the segmenter is engine-based:
``"reference"`` runs the readable per-chunk
:class:`~repro.core.phrase_construction.PhraseConstructor`, while ``"c"``
runs the batched compiled
:class:`~repro.core.fast_construction.FastSegmentationEngine` — bit-identical
partitions, an order of magnitude faster at corpus scale and also on
serving-sized batches of a few documents.  ``"auto"`` picks ``"c"`` when
the kernel loads and ``"reference"`` otherwise.  Every segmentation runs
in the calling process as one batched
:meth:`CorpusSegmenter.segment_documents` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.frequent_phrases import FrequentPhraseMiningResult
from repro.core.phrase_construction import (
    PhraseConstructionConfig,
    PhraseConstructor,
)
from repro.core.significance import SignificanceScorer
from repro.text.corpus import Corpus
from repro.text.flat import FlatChunks
from repro.text.vocabulary import Vocabulary
from repro.topicmodel import ckernel

Phrase = Tuple[int, ...]

#: Engine names accepted by the segmentation layer.
SEGMENTATION_ENGINES = ("auto", "c", "numpy", "reference")


def resolve_segmentation_engine(engine: str,
                                significance_threshold: float = 0.0) -> str:
    """Map a segmentation engine request onto a concrete engine name.

    ``"auto"`` resolves to ``"c"`` when the compiled kernel loads and the
    significance threshold is finite, and to ``"reference"`` otherwise (a
    ``-inf`` threshold makes the reference loop merge zero-frequency pairs,
    which the indexed scorer deliberately cannot express).  ``"numpy"`` resolves like ``"auto"``: it names the
    vectorized *miner*, and a config's mining engine doubles as its
    segmentation engine.

    Raises
    ------
    ValueError
        If ``engine`` is not one of :data:`SEGMENTATION_ENGINES`, or
        ``"c"`` is requested explicitly with a non-finite threshold.
    RuntimeError
        If ``"c"`` is requested but the kernel cannot be built or loaded.
    """
    if engine not in SEGMENTATION_ENGINES:
        raise ValueError(f"unknown segmentation engine {engine!r}; "
                         f"expected one of {SEGMENTATION_ENGINES}")
    finite = math.isfinite(significance_threshold)
    if engine in ("auto", "numpy"):
        return "c" if finite and ckernel.kernel_available() else "reference"
    if engine == "c":
        if not finite:
            raise ValueError("the c segmentation engine requires a finite "
                             "significance threshold; use 'reference'")
        if not ckernel.kernel_available():
            raise RuntimeError(
                f"engine='c' requested but the kernel is unavailable "
                f"({ckernel.load_error()}); use engine='auto' to fall back")
    return engine


@dataclass
class SegmentedDocument:
    """A document partitioned into phrase instances.

    Attributes
    ----------
    phrases:
        Ordered phrase instances; concatenating them restores the document's
        (chunked) token sequence.
    doc_id:
        Document index within the corpus.
    """

    phrases: List[Phrase]
    doc_id: int = 0

    @property
    def num_phrases(self) -> int:
        """Number of phrases ``G_d`` in the partition."""
        return len(self.phrases)

    @property
    def num_tokens(self) -> int:
        """Number of tokens ``N_d`` covered by the partition."""
        return sum(len(p) for p in self.phrases)

    @property
    def num_multiword_phrases(self) -> int:
        """Number of phrases with two or more words."""
        return sum(1 for p in self.phrases if len(p) >= 2)

    def flat_tokens(self) -> List[int]:
        """Concatenation of all phrase instances."""
        flat: List[int] = []
        for phrase in self.phrases:
            flat.extend(phrase)
        return flat


@dataclass
class SegmentedCorpus:
    """A corpus in 'bag-of-phrases' representation.

    Attributes
    ----------
    documents:
        One :class:`SegmentedDocument` per original document (same order).
    vocabulary:
        The shared word vocabulary (for decoding phrases back to text).
    name:
        Dataset name carried over from the source corpus.
    """

    documents: List[SegmentedDocument] = field(default_factory=list)
    vocabulary: Optional[Vocabulary] = None
    name: str = "corpus"

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[SegmentedDocument]:
        return iter(self.documents)

    def __getitem__(self, index: int) -> SegmentedDocument:
        return self.documents[index]

    @property
    def num_tokens(self) -> int:
        """Total token count across all documents."""
        return sum(doc.num_tokens for doc in self.documents)

    @property
    def num_phrases(self) -> int:
        """Total number of phrase instances across all documents."""
        return sum(doc.num_phrases for doc in self.documents)

    def phrase_instance_counts(self, min_length: int = 1) -> Dict[Phrase, int]:
        """Count how often each distinct phrase appears as a partition element."""
        counts: Dict[Phrase, int] = {}
        for doc in self.documents:
            for phrase in doc.phrases:
                if len(phrase) >= min_length:
                    counts[phrase] = counts.get(phrase, 0) + 1
        return counts

    def decode_phrase(self, phrase: Phrase, unstem: bool = True) -> str:
        """Return the readable text of ``phrase`` using the vocabulary."""
        if self.vocabulary is None:
            return " ".join(str(w) for w in phrase)
        if unstem:
            return self.vocabulary.unstem_phrase(phrase)
        return " ".join(self.vocabulary.word_of(w) for w in phrase)


class CorpusSegmenter:
    """Segments every document of a corpus into phrases.

    Parameters
    ----------
    mining_result:
        Output of :class:`~repro.core.frequent_phrases.FrequentPhraseMiner`
        providing the aggregate counts for the significance score.
    construction_config:
        Threshold α, phrase-length cap and engine.
    """

    def __init__(self, mining_result: FrequentPhraseMiningResult,
                 construction_config: Optional[PhraseConstructionConfig] = None) -> None:
        self.mining_result = mining_result
        self.config = construction_config or PhraseConstructionConfig()
        scorer = SignificanceScorer.from_mining_result(mining_result)
        self.constructor = PhraseConstructor(scorer, construction_config)
        self.engine = resolve_segmentation_engine(
            self.config.engine, self.config.significance_threshold)
        self._fast = None
        if self.engine == "c":
            from repro.core.fast_construction import FastSegmentationEngine

            self._fast = FastSegmentationEngine(mining_result, self.config)

    def segment_document(self, chunks: Sequence[Sequence[int]], doc_id: int = 0) -> SegmentedDocument:
        """Partition one document (given as token-id chunks) into phrases."""
        return self.segment_documents([chunks], doc_ids=[doc_id])[0]

    def segment_documents(self, documents: Sequence[Sequence[Sequence[int]]],
                          doc_ids: Optional[Sequence[int]] = None,
                          ) -> List[SegmentedDocument]:
        """Partition a batch of documents (each a sequence of chunks).

        The batched entry point behind :meth:`segment` and the serving
        layer: with the ``c`` engine all documents share one flat chunk
        buffer and one kernel call.  The per-document results are
        identical to calling :meth:`segment_document` in a loop, whatever
        the engine.

        Parameters
        ----------
        documents:
            One sequence of token-id chunks per document.
        doc_ids:
            Optional document ids to stamp on the results (defaults to the
            batch positions).

        Returns
        -------
        list of SegmentedDocument
            Aligned with ``documents``.

        Raises
        ------
        ValueError
            If a token id lies outside
            ``[0, repro.text.flat.MAX_TOKEN_ID]``, whatever the engine.
        """
        # Encoding the batch checks every token id's range, for every
        # engine alike; the c engine then segments this buffer.
        flat = FlatChunks.from_documents(documents)
        if doc_ids is None:
            doc_ids = range(len(documents))
        if self._fast is not None:
            phrase_lists = self._fast.segment_flat(flat)
        else:
            phrase_lists = self._segment_reference(documents)
        return [SegmentedDocument(phrases=phrases, doc_id=doc_id)
                for phrases, doc_id in zip(phrase_lists, doc_ids)]

    def segment(self, corpus: Corpus) -> SegmentedCorpus:
        """Segment every document of ``corpus`` into a :class:`SegmentedCorpus`."""
        segmented = SegmentedCorpus(vocabulary=corpus.vocabulary, name=corpus.name)
        segmented.documents = self.segment_documents(
            [doc.chunks for doc in corpus],
            doc_ids=[doc.doc_id for doc in corpus])
        return segmented

    # -- internals --------------------------------------------------------------------
    def _segment_reference(self, documents: Sequence[Sequence[Sequence[int]]],
                           ) -> List[List[Phrase]]:
        """The reference constructor, one chunk at a time."""
        results: List[List[Phrase]] = []
        for chunks in documents:
            phrases: List[Phrase] = []
            for chunk in chunks:
                if not len(chunk):
                    continue
                phrases.extend(self.constructor.construct(chunk).phrases)
            results.append(phrases)
        return results
