"""Batched, id-based phrase construction (the ``"c"`` and ``"numpy"``
segmentation engines).

Algorithm 2 (bottom-up agglomerative merging) is greedy *per chunk*, and
chunks are mutually independent — the merge order that matters is only the
order within one chunk.  Both engines here share one class,
:class:`FastSegmentationEngine`: the significance tables are precomputed
once (:class:`~repro.core.significance.IndexedSignificanceScorer`), a batch
of documents is encoded into one flat chunk buffer
(:class:`~repro.text.flat.FlatChunks`), and the surviving spans are emitted
as phrase tuples by one loop.  Only the seed pass and the merge cascade
differ:

* ``"c"`` runs both in one call to the ``phrase_segment`` entry point of
  the compiled kernel library (:func:`repro.topicmodel.ckernel.run_segment`),
  chunk by chunk, with per-chunk scratch sized to the longest chunk;
* ``"numpy"`` (the no-compiler fallback) advances **every chunk's next
  merge simultaneously**, one vectorized round at a time, over the flat
  buffer:

  1. **Seed pass** — one vectorized scoring of every adjacent token pair of
     every chunk.  Chunks whose best seed pair is below the threshold α can
     never merge anything (the reference pops that same best pair first and
     terminates), so they emit all-singleton partitions without entering
     the cascade.
  2. **Merge cascade** — each round pops every active chunk's best pair
     (priority ``(significance, insertion sequence)``, exactly the
     reference heap's ordering) with segmented reductions, applies all
     merges as array scatters, and re-scores the merged spans' neighbour
     pairs with one sorted-key lookup into the precomputed pair table.  A
     chunk leaves the cascade when its best remaining pair falls below α —
     the reference's termination — or when its pairs run out.

  Each round costs about twenty NumPy calls, so this engine pays off on
  corpus-scale batches and loses to the reference on serving-sized ones;
  the C engine wins on both.

Partitions are **bit-identical** to the reference constructor
:class:`~repro.core.phrase_construction.PhraseConstructor` (same stored
scores, same per-chunk pop order, same tie-breaking, same
``max_phrase_words`` skip semantics), asserted by
``tests/test_mining_equivalence.py`` over datasets, thresholds, and caps.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.frequent_phrases import FrequentPhraseMiningResult
from repro.core.phrase_construction import PhraseConstructionConfig
from repro.core.significance import IndexedSignificanceScorer
from repro.text.flat import FlatChunks
from repro.topicmodel import ckernel

Phrase = Tuple[int, ...]


class FastSegmentationEngine:
    """Algorithm 2 over many chunks at once, batched.

    Parameters
    ----------
    mining_result:
        Aggregate frequent-phrase counts driving the significance score.
    config:
        Threshold α and other construction options.  The engine requires a
        finite threshold (the segmenter falls back to the reference
        constructor otherwise).
    engine:
        ``"c"`` (one compiled kernel call per batch; the kernel must load)
        or ``"numpy"`` (vectorized merge rounds).
    """

    def __init__(self, mining_result: FrequentPhraseMiningResult,
                 config: Optional[PhraseConstructionConfig] = None,
                 engine: str = "numpy") -> None:
        self.config = config or PhraseConstructionConfig()
        if engine not in ("c", "numpy"):
            raise ValueError(f"unknown batched segmentation engine {engine!r}")
        if not math.isfinite(self.config.significance_threshold):
            raise ValueError(
                f"the {engine} segmentation engine requires a finite "
                "significance threshold; use the reference engine")
        self.engine = engine
        self.scorer = scorer = IndexedSignificanceScorer.from_mining_result(
            mining_result)
        if engine == "c":
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
        if self.engine == "c":
            merged, length, nxt = self._run_kernel(flat)
        else:
            merged, length, nxt = self._run_numpy(flat)

        # -- emission ----------------------------------------------------------------
        token_list = flat.tokens.tolist()
        offsets = flat.offsets.tolist()
        chunk_docs = flat.doc_ids.tolist()
        merged_list = merged.tolist()
        if length is not None:
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
        anything, and the span arrays :meth:`_run_cascade` describes.
        """
        max_words = self.config.max_phrase_words
        if max_words is None:
            # No cap: pass a length no chunk can reach.
            max_words = flat.longest_chunk + 1
        return ckernel.run_segment(
            self._tables, flat.tokens, flat.offsets, flat.longest_chunk,
            self.config.significance_threshold, max_words)

    def _run_numpy(self, flat: FlatChunks,
                   ) -> Tuple[np.ndarray, Optional[np.ndarray],
                              Optional[np.ndarray]]:
        """Vectorized seed pass, then the merge cascade on flagged chunks.

        Returns ``(needs_cascade, length, nxt)``: per chunk whether its best
        seed pair clears the threshold, and the span arrays of
        :meth:`_run_cascade` (``None`` when no chunk needs the cascade).
        """
        tokens = flat.tokens.astype(np.int64)
        threshold = self.config.significance_threshold
        max_words = self.config.max_phrase_words

        chunk_end = flat.chunk_end_per_position()
        positions = np.arange(len(tokens), dtype=np.int64)
        has_pair = positions + 1 < chunk_end
        seed_sig = np.full(len(tokens), float("-inf"))
        pair_positions = np.flatnonzero(has_pair)
        if pair_positions.size:
            seed_sig[pair_positions] = self.scorer.adjacent_pair_significance(
                tokens, pair_positions)

        needs_cascade = np.zeros(flat.n_chunks, dtype=bool)
        chunk_index = None
        # A cap below two words blocks every merge outright.
        if max_words is None or max_words >= 2:
            significant = pair_positions[
                seed_sig[pair_positions] >= threshold]
            if significant.size:
                chunk_index = flat.chunk_index_per_position()
                needs_cascade[chunk_index[significant]] = True

        if not needs_cascade.any():
            return needs_cascade, None, None
        length, nxt = self._run_cascade(flat, tokens, seed_sig, needs_cascade,
                                        chunk_end, chunk_index)
        return needs_cascade, length, nxt

    def _run_cascade(self, flat: FlatChunks, tokens: np.ndarray,
                     seed_sig: np.ndarray, needs_cascade: np.ndarray,
                     chunk_end: np.ndarray, chunk_index: np.ndarray,
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance every flagged chunk's greedy merging, one round at a time.

        ``chunk_end`` and ``chunk_index`` are the caller's per-position
        arrays (already built for the seed pass — they are O(total tokens)
        to produce and are not recomputed here).

        Returns ``(length, nxt)`` arrays over token positions describing the
        surviving spans: a span headed at position ``p`` covers
        ``tokens[p:p + length[p]]`` and is followed by the span at
        ``nxt[p]`` (``-1`` ends the chunk).  Only entries of flagged chunks
        are meaningful.

        The per-chunk merge order is identical to the reference heap's: each
        round pops the chunk's live pair maximising ``(significance, -seq)``,
        seeds carry ``seq`` equal to their position order, and every
        re-score consumes the chunk's next ``seq`` values in the reference's
        push order (left-neighbour pair first, own pair second).
        """
        n_pos = len(tokens)
        threshold = self.config.significance_threshold
        max_words = self.config.max_phrase_words
        scorer = self.scorer

        chunk_start = np.repeat(flat.offsets[:-1], flat.chunk_lengths)
        positions = np.arange(n_pos, dtype=np.int64)
        in_cascade = needs_cascade[chunk_index]

        # Span state: linked list over head positions.
        length = np.ones(n_pos, dtype=np.int64)
        nxt = np.where(positions + 1 < chunk_end, positions + 1, -1)
        prv = np.where(positions > chunk_start, positions - 1, -1)
        phrase_id = scorer.word_ids(tokens)

        # Pair state, keyed by the pair's left head position.  Only pairs at
        # or above the threshold are tracked as live: a sub-α pair can never
        # pop (its chunk terminates first), so dropping it up front changes
        # nothing about the pop order — when a chunk's live pairs run out,
        # the reference's next pop is its sub-α maximum, i.e. termination.
        pair_sig = np.where(in_cascade, seed_sig, float("-inf"))
        pair_live = in_cascade & (pair_sig >= threshold)
        pair_seq = positions - chunk_start
        pair_merged = np.full(n_pos, -1, dtype=np.int64)
        live_seed = np.flatnonzero(pair_live)
        if live_seed.size:
            _, merged = scorer.pair_lookup(phrase_id[live_seed],
                                           phrase_id[live_seed + 1])
            pair_merged[live_seed] = merged
        # The reference seeds one heap entry per adjacent pair, so each
        # chunk's sequence counter starts past its seed pairs.
        next_seq = np.maximum(flat.chunk_lengths - 1, 0)

        while True:
            heads = np.flatnonzero(pair_live)
            if not heads.size:
                break
            # Heads are position-sorted, so each chunk's live pairs form one
            # contiguous segment.  Per-chunk pop = the segment entry with
            # the highest significance, earliest sequence number — the
            # reference heap's exact priority — via segmented reductions.
            chunks_of = chunk_index[heads]
            first = np.empty(heads.size, dtype=bool)
            first[0] = True
            np.not_equal(chunks_of[1:], chunks_of[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            sizes = np.diff(np.append(starts, heads.size))

            head_sig = pair_sig[heads]
            segment_max = np.maximum.reduceat(head_sig, starts)
            is_max = head_sig == np.repeat(segment_max, sizes)
            head_seq = np.where(is_max, pair_seq[heads], np.iinfo(np.int64).max)
            segment_first_seq = np.minimum.reduceat(head_seq, starts)
            pops = heads[head_seq == np.repeat(segment_first_seq, sizes)]

            rights = nxt[pops]
            merged_length = length[pops] + length[rights]
            if max_words is not None:
                # Cap-blocked pops are removed permanently (the span can
                # only grow), without consuming sequence numbers — exactly
                # the reference's skip path.
                capped = merged_length > max_words
                pair_live[pops[capped]] = False
                pops = pops[~capped]
                rights = rights[~capped]
                merged_length = merged_length[~capped]
            if not pops.size:
                continue

            # Apply every chunk's merge (at most one pop per chunk, so the
            # scatters never collide).
            phrase_id[pops] = pair_merged[pops]
            length[pops] = merged_length
            followers = nxt[rights]
            nxt[pops] = followers
            linked = followers >= 0
            prv[followers[linked]] = pops[linked]
            pair_live[pops] = False
            pair_live[rights] = False

            # Re-score the merged spans' neighbour pairs, consuming each
            # chunk's sequence numbers in the reference's push order.
            anchors_prev = prv[pops]
            has_prev = anchors_prev >= 0
            has_self = linked
            base = next_seq[chunk_index[pops]]
            next_seq[chunk_index[pops]] = (base + has_prev.astype(np.int64)
                                           + has_self.astype(np.int64))

            left_heads = anchors_prev[has_prev]
            if left_heads.size:
                sig, merged = scorer.pair_lookup(phrase_id[left_heads],
                                                 phrase_id[pops[has_prev]])
                pair_sig[left_heads] = sig
                pair_merged[left_heads] = merged
                pair_seq[left_heads] = base[has_prev]
                pair_live[left_heads] = sig >= threshold
            self_heads = pops[has_self]
            if self_heads.size:
                sig, merged = scorer.pair_lookup(phrase_id[self_heads],
                                                 phrase_id[followers[has_self]])
                pair_sig[self_heads] = sig
                pair_merged[self_heads] = merged
                pair_seq[self_heads] = (base + has_prev.astype(np.int64))[has_self]
                pair_live[self_heads] = sig >= threshold

        return length, nxt
