"""Bottom-up agglomerative phrase construction (paper Algorithm 2).

Given one document chunk (an ordered token sequence that never crosses
phrase-invariant punctuation) and the aggregate frequent-phrase counts, the
algorithm:

1. places every *adjacent pair* of current phrase instances into a max-heap,
   keyed by the significance (Eq. 1) of merging them;
2. repeatedly pops the most significant pair; if its significance is at least
   the threshold α the pair is merged into a single phrase instance and the
   significances of the new instance with its left and right neighbours are
   recomputed and pushed;
3. terminates when the best remaining pair falls below α (or when the whole
   chunk has collapsed into one phrase).

The surviving phrase instances partition the chunk — this is the document's
'bag of phrases'.  Because only merges of *frequent* phrases can be
significant, the partition implicitly filters the quadratic space of
candidate phrases down to at most a linear number of high-quality ones.

The merge history (a dendrogram, Figure 1 in the paper) is recorded so that
examples and tests can visualise and verify the construction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.significance import SignificanceScorer
from repro.utils.heap import AddressableMaxHeap


@dataclass
class PhraseConstructionConfig:
    """Configuration for bottom-up phrase construction.

    Parameters
    ----------
    significance_threshold:
        α — the minimum significance a merge needs to be applied.  The paper
        uses a fixed threshold (α = 5 in Figure 1's illustration).
    max_phrase_words:
        Optional cap on the number of words in a constructed phrase; ``None``
        leaves termination entirely to the threshold.
    engine:
        Segmentation implementation used by
        :class:`~repro.core.segmentation.CorpusSegmenter`: ``"reference"``
        (this module's readable constructor), ``"c"`` (the batched compiled
        engine), or ``"auto"`` (``"c"`` when the kernel loads, else
        ``"reference"``).  Partitions are bit-identical across engines, and
        every engine runs in the calling process.
    """

    significance_threshold: float = 5.0
    max_phrase_words: Optional[int] = None
    engine: str = "auto"


@dataclass
class MergeTraceEntry:
    """One step of the agglomerative merge history (a dendrogram level).

    Attributes
    ----------
    left, right:
        The word-id tuples of the two phrase instances that were merged.
    significance:
        The significance score of the merge.
    merged:
        The resulting phrase.
    iteration:
        1-based merge index within the chunk.
    """

    left: Tuple[int, ...]
    right: Tuple[int, ...]
    significance: float
    merged: Tuple[int, ...]
    iteration: int


@dataclass
class ConstructionResult:
    """Partition of a chunk into phrases plus the merge trace."""

    phrases: List[Tuple[int, ...]]
    trace: List[MergeTraceEntry] = field(default_factory=list)

    @property
    def num_phrases(self) -> int:
        """Number of phrases in the partition."""
        return len(self.phrases)

    def flat_tokens(self) -> List[int]:
        """Concatenation of all phrases — must equal the original chunk."""
        flat: List[int] = []
        for phrase in self.phrases:
            flat.extend(phrase)
        return flat


class _Node:
    """Doubly-linked-list node holding one live phrase instance."""

    __slots__ = ("phrase", "prev", "next", "alive", "node_id")

    def __init__(self, phrase: Tuple[int, ...], node_id: int) -> None:
        self.phrase = phrase
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None
        self.alive = True
        self.node_id = node_id


class PhraseConstructor:
    """Builds the 'bag of phrases' for document chunks (paper Algorithm 2)."""

    def __init__(self, scorer: SignificanceScorer,
                 config: Optional[PhraseConstructionConfig] = None) -> None:
        self.scorer = scorer
        self.config = config or PhraseConstructionConfig()

    # -- public API -------------------------------------------------------------------
    def construct(self, chunk: Sequence[int], keep_trace: bool = False) -> ConstructionResult:
        """Partition ``chunk`` (a token-id sequence) into phrases.

        Parameters
        ----------
        chunk:
            Ordered word ids of one phrase-invariant chunk.
        keep_trace:
            Record the merge dendrogram (Figure 1); off by default to avoid
            overhead in large runs.
        """
        tokens = [int(w) for w in chunk]
        if len(tokens) <= 1:
            return ConstructionResult(phrases=[tuple(tokens)] if tokens else [])

        threshold = self.config.significance_threshold
        max_words = self.config.max_phrase_words

        # Build the linked list of singleton phrase instances.
        nodes = [_Node((w,), i) for i, w in enumerate(tokens)]
        for left, right in zip(nodes, nodes[1:]):
            left.next = right
            right.prev = left

        # Seed the heap with every adjacent pair (Algorithm 2, lines 1-2).
        heap = AddressableMaxHeap()
        for node in nodes[:-1]:
            self._push_pair(heap, node)

        trace: List[MergeTraceEntry] = []
        iteration = 0

        # Greedy merging (Algorithm 2, lines 3-12).
        while len(heap) > 0:
            best = heap.pop_max()
            if best is None:
                break
            left_node: _Node = best.payload
            right_node = left_node.next
            # Stale entries whose endpoints were merged away are skipped.
            if not left_node.alive or right_node is None or not right_node.alive:
                continue
            if best.priority < threshold:
                # The most significant remaining merge is below α: terminate.
                break
            merged_phrase = left_node.phrase + right_node.phrase
            if max_words is not None and len(merged_phrase) > max_words:
                # Skip this merge permanently: phrase instances only ever
                # grow, so this pair can never come back under the cap.  No
                # re-seeding is needed — each endpoint's *other*-neighbour
                # pair is keyed by its own left node and stays live in the
                # heap (entries only leave the heap when popped, and every
                # neighbouring merge re-pushes the pairs it perturbs), so
                # merging continues around the blocked pair.  The capped-run
                # regression tests pin this partition behaviour against a
                # recompute-everything oracle.
                continue

            iteration += 1
            if keep_trace:
                trace.append(MergeTraceEntry(left=left_node.phrase,
                                             right=right_node.phrase,
                                             significance=best.priority,
                                             merged=merged_phrase,
                                             iteration=iteration))

            # Merge right_node into left_node (Algorithm 2, lines 6-8).
            left_node.phrase = merged_phrase
            left_node.next = right_node.next
            if right_node.next is not None:
                right_node.next.prev = left_node
            right_node.alive = False
            heap.remove(right_node.node_id)

            # Update the significance of the new instance with its neighbours.
            if left_node.prev is not None:
                self._push_pair(heap, left_node.prev)
            if left_node.next is not None:
                self._push_pair(heap, left_node)

        # Collect the surviving partition in order.
        phrases: List[Tuple[int, ...]] = []
        node: Optional[_Node] = nodes[0]
        # nodes[0] always survives (merges fold right neighbours into the left).
        while node is not None:
            phrases.append(node.phrase)
            node = node.next
        return ConstructionResult(phrases=phrases, trace=trace)

    # -- internals ---------------------------------------------------------------------
    def _push_pair(self, heap: AddressableMaxHeap, left_node: _Node) -> None:
        """(Re)score the pair (left_node, left_node.next) and push it."""
        right_node = left_node.next
        if right_node is None or not left_node.alive or not right_node.alive:
            return
        significance = self.scorer.significance(left_node.phrase, right_node.phrase)
        heap.push(left_node.node_id, significance, payload=left_node)
