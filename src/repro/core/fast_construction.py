"""Batched, id-based phrase construction (the ``"c"`` segmentation engine).

Algorithm 2 (bottom-up agglomerative merging) is greedy *per chunk*, and
chunks are mutually independent — the merge order that matters is only the
order within one chunk.  :class:`FastSegmentationEngine` precomputes the
significance tables once
(:class:`~repro.core.significance.IndexedSignificanceScorer`), encodes a
batch of documents into one flat chunk buffer
(:class:`~repro.text.flat.FlatChunks`), runs the seed scoring and the merge
cascade of every chunk in one call to the ``phrase_segment`` entry point of
the compiled kernel library (:func:`repro.topicmodel.ckernel.run_segment`),
which also compacts the surviving spans into the flat phrase partition's
arrays (:class:`~repro.topicmodel.gibbs.FlatPhraseCorpus`): no phrase tuple
is built.  Without a compiler the
segmenter runs the reference constructor instead.

Partitions are **bit-identical** to the reference constructor
:class:`~repro.core.phrase_construction.PhraseConstructor` (same stored
scores, same per-chunk pop order, same tie-breaking, same
``max_phrase_words`` skip semantics), asserted by
``tests/test_mining_equivalence.py`` over datasets, thresholds, and caps.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.frequent_phrases import FrequentPhraseMiningResult
from repro.core.phrase_construction import PhraseConstructionConfig
from repro.core.significance import IndexedSignificanceScorer
from repro.text.flat import FlatChunks
from repro.topicmodel import ckernel
from repro.topicmodel.gibbs import FlatPhraseCorpus


class FastSegmentationEngine:
    """Algorithm 2 over many chunks at once, in one compiled-kernel call.

    Parameters
    ----------
    mining_result:
        Aggregate frequent-phrase counts driving the significance score.
    config:
        Threshold α and other construction options.  The engine requires a
        finite threshold (the segmenter falls back to the reference
        constructor otherwise) and a loadable kernel.
    """

    def __init__(self, mining_result: FrequentPhraseMiningResult,
                 config: Optional[PhraseConstructionConfig] = None) -> None:
        self.config = config or PhraseConstructionConfig()
        if not math.isfinite(self.config.significance_threshold):
            raise ValueError(
                "the c segmentation engine requires a finite significance "
                "threshold; use the reference engine")
        scorer = IndexedSignificanceScorer.from_mining_result(mining_result)
        self._tables = ckernel.SegmentTables(
            scorer.word_id, scorer.pair_keys, scorer.pair_key_sigs,
            scorer.pair_key_merged, scorer.n_phrases)

    # -- public API -------------------------------------------------------------------
    def segment_flat(self, flat: FlatChunks) -> FlatPhraseCorpus:
        """Partition every chunk of an encoded batch of documents at once.

        Parameters
        ----------
        flat:
            The batch, one flat chunk buffer.

        Returns
        -------
        FlatPhraseCorpus
            The partition of every encoded document (chunks concatenated in
            order).  It shares ``flat.tokens``: cliques are spans of the
            chunk buffer, and the kernel's phrase-table ids are their keys.
        """
        offsets, keys, chunk_first = self._run_kernel(flat)
        # Every chunk starts with a span head; a document's first clique is
        # its first chunk's (documents without chunks get none).
        return FlatPhraseCorpus(flat.tokens, offsets,
                                chunk_first[flat.doc_offsets], keys)

    # -- internals --------------------------------------------------------------------
    def _run_kernel(self, flat: FlatChunks,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Seed pass, cascade and compaction in one compiled-kernel call.

        Returns ``(clique_offsets, keys, chunk_first)`` (see
        :func:`repro.topicmodel.ckernel.run_segment`).
        """
        max_words = self.config.max_phrase_words
        if max_words is None:
            # No cap: pass a length no chunk can reach.
            max_words = flat.longest_chunk + 1
        return ckernel.run_segment(
            self._tables, flat.tokens, flat.offsets, flat.longest_chunk,
            self.config.significance_threshold, max_words)
