"""Corpus segmentation: from mined phrase counts to a 'bag of phrases'.

This module glues Algorithm 1 and Algorithm 2 together at corpus scale.  For
every document it runs the bottom-up phrase construction over each
phrase-invariant chunk and concatenates the resulting partitions, yielding a
:class:`SegmentedDocument` whose phrase instances cover the document's tokens
exactly (the partition property from the problem definition, Section 2).

The :class:`SegmentedCorpus` is the input to PhraseLDA: each phrase becomes a
clique whose tokens must share a topic.  Its primary form is the flat phrase
partition (:class:`~repro.topicmodel.gibbs.FlatPhraseCorpus`): token ids,
clique offsets, per-document clique offsets and one phrase key per clique.
PhraseLDA, fold-in and the Eq. 8 topical frequencies read those arrays;
phrase tuples are only decoded when something asks for
:attr:`SegmentedCorpus.documents`.

Like the miner and the PhraseLDA samplers, the segmenter is engine-based:
``"reference"`` runs the readable per-chunk
:class:`~repro.core.phrase_construction.PhraseConstructor`, while ``"c"``
runs the batched compiled
:class:`~repro.core.fast_construction.FastSegmentationEngine` — bit-identical
partitions, an order of magnitude faster at corpus scale and also on
serving-sized batches of a few documents.  ``"auto"`` picks ``"c"`` when
the kernel loads and ``"reference"`` otherwise.  Every segmentation runs
in the calling process as one batched :meth:`CorpusSegmenter.segment_flat`
call over a chunk buffer (:class:`~repro.text.flat.FlatChunks`): a
corpus's own buffer, a stream snapshot's, or one encoded per serving batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.frequent_phrases import FrequentPhraseMiningResult
from repro.core.phrase_construction import (
    PhraseConstructionConfig,
    PhraseConstructor,
)
from repro.core.significance import SignificanceScorer
from repro.text.corpus import Corpus
from repro.text.flat import FlatChunks
from repro.text.vocabulary import Vocabulary
from repro.topicmodel.gibbs import ENGINES, FlatPhraseCorpus, resolve_engine

Phrase = Tuple[int, ...]


def resolve_segmentation_engine(engine: str,
                                significance_threshold: float = 0.0) -> str:
    """Map a segmentation engine request (one of :data:`ENGINES`) onto a
    concrete engine name.

    A non-finite significance threshold means ``"reference"`` (a ``-inf``
    threshold makes the reference loop merge zero-frequency pairs, which
    the indexed scorer deliberately cannot express); everything else is
    :func:`~repro.topicmodel.gibbs.resolve_engine`'s rule.

    Raises
    ------
    ValueError
        If ``engine`` is not one of :data:`ENGINES`, or ``"c"`` is
        requested explicitly with a non-finite threshold.
    RuntimeError
        If ``"c"`` is requested but the kernel cannot be built or loaded.
    """
    if engine in ENGINES and not math.isfinite(significance_threshold):
        if engine == "c":
            raise ValueError("the c segmentation engine requires a finite "
                             "significance threshold; use 'reference'")
        return "reference"
    return resolve_engine(engine)


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


@dataclass(eq=False)
class SegmentedCorpus:
    """A corpus in 'bag-of-phrases' representation.

    The phrase partition (:attr:`partition`) is what PhraseLDA, fold-in,
    the Eq. 8 counts and the segmentation bundle read.  The per-document
    phrase tuples (:attr:`documents`) are decoded from it on first access,
    so a fit that never reads them never builds them.

    Attributes
    ----------
    partition:
        The flat phrase partition of every document.
    vocabulary:
        The shared word vocabulary (for decoding phrases back to text).
    name:
        Dataset name carried over from the source corpus.
    documents:
        One :class:`SegmentedDocument` per original document (same order).
    """

    partition: FlatPhraseCorpus
    vocabulary: Optional[Vocabulary] = None
    name: str = "corpus"

    @cached_property
    def documents(self) -> List[SegmentedDocument]:
        """Per-document phrase lists, decoded from the partition on first
        use."""
        return [SegmentedDocument(phrases=phrases, doc_id=doc_id)
                for doc_id, phrases in enumerate(self.partition.documents())]

    def __len__(self) -> int:
        return self.partition.n_docs

    def __iter__(self) -> Iterator[SegmentedDocument]:
        return iter(self.documents)

    def __getitem__(self, index: int) -> SegmentedDocument:
        return self.documents[index]

    @property
    def num_tokens(self) -> int:
        """Total token count across all documents."""
        return len(self.partition.tokens)

    @property
    def num_phrases(self) -> int:
        """Total number of phrase instances across all documents."""
        return self.partition.n_cliques

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
        return SegmentedDocument(self.segment_documents([chunks])[0].phrases,
                                 doc_id)

    def segment_flat(self, flat: FlatChunks) -> FlatPhraseCorpus:
        """Partition every document of a chunk buffer.

        The batched entry point behind :meth:`segment`,
        :meth:`segment_documents`, stream refreshes and the serving layer:
        with the ``c`` engine all documents go through one kernel call,
        whose span arrays become the partition without any phrase tuple
        being built.  The reference engine decodes the buffer's chunks and
        its phrase tuples go through
        :meth:`~repro.topicmodel.gibbs.FlatPhraseCorpus.from_phrases`.
        Partitions are identical whatever the engine.

        Returns
        -------
        FlatPhraseCorpus
            One document per buffer document, in order.
        """
        if self._fast is not None:
            return self._fast.segment_flat(flat)
        construct = self.constructor.construct
        return FlatPhraseCorpus.from_phrases(
            [[phrase for chunk in chunks for phrase in construct(chunk).phrases]
             for chunks in flat.documents()])

    def segment_documents(self, documents: Sequence[Sequence[Sequence[int]]],
                          ) -> List[SegmentedDocument]:
        """Partition a batch of documents (each a sequence of token-id
        chunks) into :class:`SegmentedDocument` s, ``doc_id`` their batch
        positions.

        The per-document results are identical to calling
        :meth:`segment_document` in a loop, whatever the engine.

        Raises
        ------
        ValueError
            If a token id lies outside
            ``[0, repro.text.flat.MAX_TOKEN_ID]``, whatever the engine.
        """
        return SegmentedCorpus(
            self.segment_flat(FlatChunks.from_documents(documents))).documents

    def segment(self, corpus: Corpus) -> SegmentedCorpus:
        """Segment every document of ``corpus`` into a :class:`SegmentedCorpus`."""
        return SegmentedCorpus(self.segment_flat(corpus.flat),
                               vocabulary=corpus.vocabulary, name=corpus.name)
