"""Collocation significance score (paper Section 4.2.1, Eq. 1).

The null hypothesis h0 is that the corpus is a sequence of ``L`` independent
Bernoulli trials, so the count of a phrase ``P`` is approximately
``Normal(L·p(P), L·p(P))`` with ``p(P) = f(P)/L``.  For a candidate merge of
two adjacent phrases ``P1`` and ``P2`` the expected frequency under
independence is::

    μ0(f(P1 ⊕ P2)) = L · p(P1) · p(P2)

and the significance of the merge is the number of standard deviations the
observed frequency sits above that expectation, with the variance estimated
by the sample count (Eq. 1)::

    sig(P1, P2) ≈ (f(P1 ⊕ P2) − μ0) / sqrt(f(P1 ⊕ P2))

Treating each already-merged phrase as a single constituent is what defeats
the "free-rider" problem: a long phrase is only merged further when the merge
of its two *sub-phrases* is itself significant, instead of comparing against
every constituent unigram independently.

:class:`SignificanceScorer` is the readable scorer the reference
constructor queries; :class:`IndexedSignificanceScorer` precomputes every
legal merge once into the arrays the C segmentation kernel reads.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.frequent_phrases import FrequentPhraseMiningResult
from repro.utils.counter import HashCounter, Phrase


class SignificanceScorer:
    """Computes merge significance from mined phrase frequencies.

    Parameters
    ----------
    counter:
        Frequency counter over frequent phrases (tuples of word ids), as
        produced by :class:`~repro.core.frequent_phrases.FrequentPhraseMiner`.
    total_tokens:
        Corpus token count ``L`` (the number of Bernoulli trials).
    """

    def __init__(self, counter: HashCounter, total_tokens: int) -> None:
        if total_tokens <= 0:
            raise ValueError("total_tokens must be positive")
        self._counter = counter
        self._total_tokens = float(total_tokens)

    @classmethod
    def from_mining_result(cls, result: FrequentPhraseMiningResult) -> "SignificanceScorer":
        """Build a scorer directly from a mining result."""
        return cls(result.counter, result.total_tokens)

    # -- basic quantities ----------------------------------------------------------
    @property
    def total_tokens(self) -> float:
        """The number of Bernoulli trials ``L``."""
        return self._total_tokens

    def frequency(self, phrase: Sequence[int]) -> int:
        """Observed corpus frequency ``f(P)`` (0 for non-frequent phrases)."""
        return self._counter.get(tuple(phrase))

    def probability(self, phrase: Sequence[int]) -> float:
        """Empirical Bernoulli success probability ``p(P) = f(P)/L``."""
        return self.frequency(phrase) / self._total_tokens

    def expected_merged_frequency(self, left: Sequence[int], right: Sequence[int]) -> float:
        """Expected frequency ``μ0 = L·p(P1)·p(P2)`` under independence."""
        return self._total_tokens * self.probability(left) * self.probability(right)

    # -- the significance score -------------------------------------------------------
    def significance(self, left: Sequence[int], right: Sequence[int]) -> float:
        """Significance (Eq. 1) of merging adjacent phrases ``left ⊕ right``.

        Returns ``-inf`` when the concatenated phrase was never counted
        (frequency 0): such a merge can never be selected.
        """
        merged = tuple(left) + tuple(right)
        observed = self.frequency(merged)
        if observed <= 0:
            return float("-inf")
        expected = self.expected_merged_frequency(left, right)
        return (observed - expected) / math.sqrt(observed)

    def merged_phrase(self, left: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
        """Return the concatenation ``P1 ⊕ P2`` as a tuple of word ids."""
        return tuple(left) + tuple(right)


class IndexedSignificanceScorer:
    """Array-indexed significance lookups over the frequent-phrase table.

    The reference :class:`SignificanceScorer` re-hashes word-id tuples on
    every query — three tuple constructions plus three dictionary probes per
    candidate merge, repeated each time Algorithm 2 re-scores a pair.  This
    scorer pays that cost **once**: every frequent phrase gets a dense
    integer id, counts and Bernoulli probabilities live in NumPy arrays
    indexed by id, and every *legal* merge — a split of a frequent phrase
    into two frequent constituents — is precomputed into a table mapping the
    constituent id pair to ``(significance, merged_id)``.

    A merge query is then a single probe on an ``(int, int)`` key: a
    dictionary lookup in :meth:`pair_score`, a binary search over the
    sorted pair arrays in the C segmentation kernel.  Merges absent from
    the table have a merged frequency of zero (phrase frequency is downward
    closed, so a frequent concatenation implies frequent constituents) and
    score ``-inf``, exactly like the reference.  All stored significances are computed with the
    same floating-point expression and operation order as
    :meth:`SignificanceScorer.significance`, so scores — and therefore
    construction decisions — are bit-identical.

    Parameters
    ----------
    counter:
        Frequent-phrase counter from Algorithm 1 (the public result type).
    total_tokens:
        Corpus token count ``L`` of the significance null model.
    """

    def __init__(self, counter: HashCounter, total_tokens: int) -> None:
        if total_tokens <= 0:
            raise ValueError("total_tokens must be positive")
        self.total_tokens = float(total_tokens)
        phrases: List[Phrase] = list(counter)
        self.phrases = phrases
        self.id_of: Dict[Phrase, int] = {p: i for i, p in enumerate(phrases)}
        counts = np.array([counter.get(p) for p in phrases], dtype=np.float64)
        self.counts = counts
        # p(P) = f(P) / L, the same division the reference performs lazily.
        probabilities = counts / self.total_tokens
        self.probabilities = probabilities

        total = self.total_tokens
        pair_table: Dict[Tuple[int, int], Tuple[float, int]] = {}
        for merged_id, phrase in enumerate(phrases):
            if len(phrase) < 2:
                continue
            observed = counts[merged_id]
            root = math.sqrt(observed)
            for split in range(1, len(phrase)):
                left_id = self.id_of.get(phrase[:split])
                right_id = self.id_of.get(phrase[split:])
                if left_id is None or right_id is None:
                    continue
                expected = (total * probabilities[left_id]
                            * probabilities[right_id])
                pair_table[(left_id, right_id)] = (
                    (observed - expected) / root, merged_id)
        self.pair_table = pair_table

        # Token-indexed unigram ids (ids past the vocabulary read the last
        # entry, -1): the tables the C segmentation kernel reads, with the
        # sorted pair arrays below.
        self.vocab_bound = 1 + max(
            (w for p in phrases for w in p), default=-1)
        word_id = np.full(self.vocab_bound + 1, -1, dtype=np.int64)
        for phrase, phrase_id in self.id_of.items():
            if len(phrase) == 1:
                word_id[phrase[0]] = phrase_id
        self.word_id = word_id

        # Sorted pair-key arrays: ``pair_table`` keyed by
        # ``left_id * n_phrases + right_id``, binary-searched by the kernel.
        n_phrases = max(len(phrases), 1)
        self.n_phrases = n_phrases
        keys = np.array([left * n_phrases + right
                         for left, right in pair_table], dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        self.pair_keys = keys[order]
        values = list(pair_table.values())
        self.pair_key_sigs = np.array(
            [values[i][0] for i in order.tolist()], dtype=np.float64)
        self.pair_key_merged = np.array(
            [values[i][1] for i in order.tolist()], dtype=np.int64)

    @classmethod
    def from_mining_result(cls, result: FrequentPhraseMiningResult,
                           ) -> "IndexedSignificanceScorer":
        """Build an indexed scorer directly from a mining result."""
        return cls(result.counter, result.total_tokens)

    # -- queries ----------------------------------------------------------------------
    def pair_score(self, left_id: int, right_id: int) -> Tuple[float, int]:
        """Score merging the phrases with ids ``left_id`` and ``right_id``.

        Returns ``(significance, merged_id)``; ``(-inf, -1)`` when either
        constituent is not a frequent phrase (id ``-1``) or the
        concatenation was never counted.
        """
        if left_id < 0 or right_id < 0:
            return (float("-inf"), -1)
        return self.pair_table.get((left_id, right_id), (float("-inf"), -1))
