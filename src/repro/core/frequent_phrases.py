"""Frequent contiguous phrase mining (paper Algorithm 1).

The task: collect aggregate counts for all contiguous word sequences in a
corpus whose frequency meets a minimum support ε.  Two pruning properties
make this efficient:

1. **Downward closure** — if a phrase is not frequent no super-phrase is.
   Realised as *position-based Apriori pruning*: for every document we keep a
   set of *active indices*, the positions at which a frequent phrase of the
   current length starts.  At iteration n only candidates whose length-(n−1)
   prefix (at position i) and suffix (at position i+1) are both frequent are
   counted.
2. **Data antimonotonicity** — a document with no active indices left can
   never contribute a longer frequent phrase and is dropped from
   consideration, giving early termination.

Counting is done per *chunk* (text between phrase-invariant punctuation), so
candidate phrases never straddle punctuation and the candidate space per
document stays effectively constant-size, which is the basis of the paper's
linear-time argument (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.text.corpus import Corpus
from repro.utils.counter import HashCounter, Phrase

#: Engine names accepted by :class:`PhraseMiningConfig` (and by the
#: segmentation layer, which shares the same engine architecture).
MINING_ENGINES = ("auto", "numpy", "reference")


def resolve_mining_engine(engine: str) -> str:
    """Map a mining engine request onto a concrete engine name.

    ``"auto"`` resolves to ``"numpy"``, the vectorized flat-buffer miner —
    bit-identical to the reference loop (asserted by the equivalence tests)
    and much faster at corpus scale.

    Raises
    ------
    ValueError
        If ``engine`` is not one of :data:`MINING_ENGINES`.
    """
    if engine not in MINING_ENGINES:
        raise ValueError(f"unknown mining engine {engine!r}; "
                         f"expected one of {MINING_ENGINES}")
    return "numpy" if engine == "auto" else engine


@dataclass
class PhraseMiningConfig:
    """Configuration for frequent phrase mining.

    Parameters
    ----------
    min_support:
        Minimum number of occurrences ε a phrase needs to be kept.  The paper
        suggests growing it linearly with corpus size; see
        :meth:`PhraseMiningConfig.scaled_to_corpus`.
    max_phrase_length:
        Optional hard cap on phrase length (``None`` lets the antimonotone
        pruning terminate naturally).
    engine:
        Mining implementation: ``"reference"`` (the readable per-position
        loop over :class:`~repro.utils.counter.HashCounter`), ``"numpy"``
        (vectorized n-gram aggregation over the flat chunk buffer), or
        ``"auto"`` (→ ``"numpy"``).  All engines produce bit-identical
        results.
    """

    min_support: int = 10
    max_phrase_length: Optional[int] = None
    engine: str = "auto"

    @classmethod
    def scaled_to_tokens(cls, n_tokens: int,
                         support_per_million_tokens: float = 300.0,
                         minimum: int = 3,
                         max_phrase_length: Optional[int] = None,
                         engine: str = "auto") -> "PhraseMiningConfig":
        """Build a config whose minimum support scales with a token count.

        The single place the support-scaling formula lives:
        ``min_support = max(minimum, round(support_per_million_tokens *
        n_tokens / 1e6))``.  ``n_tokens`` must be the *chunked* token count
        mining actually sees (:attr:`~repro.text.corpus.Corpus.num_tokens`,
        the token count of the corpus's non-empty chunks); incremental
        pipelines that track that count as a running sum
        (:mod:`repro.stream.counters`) call this directly so a streamed
        corpus resolves the exact same threshold as an offline run over the
        equivalent snapshot.
        """
        support = max(minimum, int(round(support_per_million_tokens * n_tokens / 1e6)))
        return cls(min_support=support, max_phrase_length=max_phrase_length,
                   engine=engine)

    @classmethod
    def scaled_to_corpus(cls, corpus: Corpus, support_per_million_tokens: float = 300.0,
                         minimum: int = 3,
                         max_phrase_length: Optional[int] = None,
                         engine: str = "auto") -> "PhraseMiningConfig":
        """Build a config whose minimum support grows linearly with corpus size.

        ``min_support = max(minimum, support_per_million_tokens * N / 1e6)``
        following the paper's guidance that support should scale with the
        number of tokens ``N``.  ``N`` here is ``corpus.num_tokens`` —
        the chunked token count mining actually sees (and reports as
        :attr:`FrequentPhraseMiningResult.total_tokens`) — not a raw token
        count, which over-counts on punctuation- and stop-word-heavy text
        and would inflate the support threshold.
        """
        return cls.scaled_to_tokens(
            corpus.num_tokens,
            support_per_million_tokens=support_per_million_tokens,
            minimum=minimum, max_phrase_length=max_phrase_length, engine=engine)


@dataclass
class FrequentPhraseMiningResult:
    """Output of the miner: frequent phrases, their counts, and statistics.

    Attributes
    ----------
    counter:
        :class:`~repro.utils.counter.HashCounter` mapping each frequent phrase
        (tuple of word ids) to its corpus frequency ``C(P)``.  Length-1
        "phrases" (single words) are included because the significance score
        needs unigram counts.
    total_tokens:
        Corpus token count ``L`` used as the Bernoulli-trial count in the
        significance null model.
    min_support:
        The support threshold that was applied.
    iterations:
        Longest phrase length examined by the sliding window.
    """

    counter: HashCounter
    total_tokens: int
    min_support: int
    iterations: int = 0

    def frequency(self, phrase: Sequence[int]) -> int:
        """Return the mined frequency of ``phrase`` (0 when not frequent)."""
        return self.counter.get(phrase)

    def frequent_phrases(self, min_length: int = 2) -> Dict[Phrase, int]:
        """Return phrases of at least ``min_length`` words with their counts."""
        return {p: c for p, c in self.counter.items() if len(p) >= min_length}

    def num_frequent_phrases(self, min_length: int = 2) -> int:
        """Number of frequent phrases of at least ``min_length`` words."""
        return len(self.frequent_phrases(min_length))


class FrequentPhraseMiner:
    """Mines frequent contiguous phrases from a corpus (paper Algorithm 1)."""

    def __init__(self, config: Optional[PhraseMiningConfig] = None) -> None:
        self.config = config or PhraseMiningConfig()
        if self.config.min_support < 1:
            raise ValueError("min_support must be at least 1")
        self.engine = resolve_mining_engine(self.config.engine)

    def mine(self, corpus: Corpus) -> FrequentPhraseMiningResult:
        """Run frequent phrase mining over ``corpus``.

        Documents are processed chunk by chunk; a phrase never spans a chunk
        boundary.  Returns a :class:`FrequentPhraseMiningResult` whose counter
        contains every contiguous phrase (length ≥ 1) with frequency at least
        ``min_support``.  The configured engine only changes how the counts
        are computed — the result is bit-identical either way.
        """
        if self.engine == "numpy":
            return self._mine_numpy(corpus)
        return self._mine_reference(corpus)

    def _mine_numpy(self, corpus: Corpus) -> FrequentPhraseMiningResult:
        """Vectorized Algorithm 1 over the flat chunk buffer (the fast path)."""
        from repro.core.fast_mining import mine_flat_chunks

        flat = corpus.flat
        counter, iterations = mine_flat_chunks(
            flat, self.config.min_support, self.config.max_phrase_length)
        return FrequentPhraseMiningResult(counter=counter,
                                          total_tokens=flat.total_tokens,
                                          min_support=self.config.min_support,
                                          iterations=iterations)

    def _mine_reference(self, corpus: Corpus) -> FrequentPhraseMiningResult:
        """Readable per-position Algorithm 1, the executable specification."""
        min_support = self.config.min_support
        max_length = self.config.max_phrase_length

        counter = HashCounter()

        # Work at chunk granularity: each entry is the token-id list of one
        # (non-empty) chunk.  Chunk identity is all the counting needs;
        # segmentation later re-associates counts with documents.
        chunks: List[List[int]] = corpus.flat.chunks()
        total_tokens = corpus.flat.total_tokens

        # -- length-1 pass (Algorithm 1, lines 1-3) --------------------------------
        for chunk in chunks:
            for word in chunk:
                counter.increment((word,))

        # A_d,1: every position is an active index (line 2).
        active: List[List[int]] = [list(range(len(chunk))) for chunk in chunks]
        live_chunks: List[int] = [i for i, chunk in enumerate(chunks) if len(chunk) > 1]

        # -- increasing-size sliding window (Algorithm 1, lines 4-21) ---------------
        n = 2
        iterations = 1
        while live_chunks and (max_length is None or n <= max_length):
            iterations = n
            next_live: List[int] = []
            level_counts = HashCounter()
            for chunk_id in live_chunks:
                chunk = chunks[chunk_id]
                previous = active[chunk_id]
                # Line 7: keep indices whose length-(n-1) phrase is frequent.
                surviving = [
                    i for i in previous
                    if counter.get(tuple(chunk[i:i + n - 1])) >= min_support
                ]
                # Line 8: drop the largest index — the length-n phrase
                # starting there would run past the end of the frequent
                # region covered by the remaining indices.
                if surviving:
                    surviving = surviving[:-1]
                # Also guard against candidates overrunning the chunk.
                surviving = [i for i in surviving if i + n <= len(chunk)]
                if not surviving:
                    # Data antimonotonicity (lines 9-10): this chunk can never
                    # contain a frequent phrase of length > n-1.
                    active[chunk_id] = []
                    continue
                active[chunk_id] = surviving
                next_live.append(chunk_id)
                surviving_set = set(surviving)
                # Lines 12-15: count a length-n candidate at i only when the
                # suffix starting at i+1 is also a frequent (n-1)-phrase.
                for i in surviving:
                    suffix_start = i + 1
                    suffix = tuple(chunk[suffix_start:suffix_start + n - 1])
                    suffix_active = (suffix_start in surviving_set
                                     or counter.get(suffix) >= min_support)
                    if suffix_active:
                        candidate = tuple(chunk[i:i + n])
                        level_counts.increment(candidate)

            # Merge this level's frequent candidates into the global counter.
            # Infrequent candidates are discarded; the Apriori check at the
            # next level treats them as count 0, which is equivalent to the
            # paper's final filtering (line 22) applied per level.
            for phrase, count in level_counts.items():
                if count >= min_support:
                    counter[phrase] = count

            live_chunks = next_live
            n += 1

        # Final filter (line 22): only phrases meeting the support survive,
        # including unigrams.
        counter.prune_below(min_support)
        return FrequentPhraseMiningResult(counter=counter,
                                          total_tokens=total_tokens,
                                          min_support=min_support,
                                          iterations=iterations)
