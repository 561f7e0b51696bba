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
and emits the surviving spans as phrase tuples.  Without a compiler the
segmenter runs the reference constructor instead.

Partitions are **bit-identical** to the reference constructor
:class:`~repro.core.phrase_construction.PhraseConstructor` (same stored
scores, same per-chunk pop order, same tie-breaking, same
``max_phrase_words`` skip semantics), asserted by
``tests/test_mining_equivalence.py`` over datasets, thresholds, and caps.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.frequent_phrases import FrequentPhraseMiningResult
from repro.core.phrase_construction import PhraseConstructionConfig
from repro.core.significance import IndexedSignificanceScorer
from repro.text.flat import FlatChunks
from repro.topicmodel import ckernel

Phrase = Tuple[int, ...]


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
    def segment_flat(self, flat: FlatChunks) -> List[List[Phrase]]:
        """Partition every chunk of an encoded batch of documents at once.

        Parameters
        ----------
        flat:
            The batch, one flat chunk buffer
            (:meth:`~repro.text.flat.FlatChunks.from_documents`).

        Returns
        -------
        list of list of tuple
            Per-document phrase lists (chunks concatenated in order), one
            per encoded document.
        """
        results: List[List[Phrase]] = [[] for _ in range(flat.n_documents)]
        if not flat.n_chunks:
            return results
        merged, length, nxt = self._run_kernel(flat)

        # -- emission ----------------------------------------------------------------
        token_list = flat.tokens.tolist()
        offsets = flat.offsets.tolist()
        chunk_docs = flat.doc_ids.tolist()
        merged_list = merged.tolist()
        length_list = length.tolist()
        nxt_list = nxt.tolist()
        singletons = [(w,) for w in token_list]
        for chunk_id in range(flat.n_chunks):
            start, end = offsets[chunk_id], offsets[chunk_id + 1]
            doc_phrases = results[chunk_docs[chunk_id]]
            if not merged_list[chunk_id]:
                doc_phrases.extend(singletons[start:end])
                continue
            head = start
            while head >= 0:
                span = length_list[head]
                doc_phrases.append(singletons[head] if span == 1 else
                                   tuple(token_list[head:head + span]))
                head = nxt_list[head]
        return results

    # -- internals --------------------------------------------------------------------
    def _run_kernel(self, flat: FlatChunks,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Seed pass and cascade in one compiled-kernel call.

        Returns ``(merged, length, nxt)``: per chunk whether it merged
        anything, and two arrays over token positions describing the
        surviving spans (see :func:`repro.topicmodel.ckernel.run_segment`).
        """
        max_words = self.config.max_phrase_words
        if max_words is None:
            # No cap: pass a length no chunk can reach.
            max_words = flat.longest_chunk + 1
        return ckernel.run_segment(
            self._tables, flat.tokens, flat.offsets, flat.longest_chunk,
            self.config.significance_threshold, max_words)
