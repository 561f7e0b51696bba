"""Mergeable per-shard phrase-mining statistics for incremental corpora.

Algorithm 1 over a growing corpus, without ever re-reading old shards.  The
trick is to split the miner into a *counting* half that distributes over
shards and a *filtering* half that runs at refresh time:

* At **ingest**, each new shard is tokenized once and its **raw** phrase
  counts — the true occurrence count of *every* contiguous n-gram, i.e.
  Algorithm 1 at ``min_support=1`` — are computed with the vectorized
  engine (:func:`repro.core.fast_mining.mine_flat_chunks`) and persisted
  as that shard's :class:`ShardStats` file.  Raw counts are exactly
  additive: counting each shard separately and summing
  (:meth:`~repro.utils.counter.HashCounter.merge_add`) equals counting the
  concatenated corpus.
* At **refresh**, the shard counters are merged in log order into an
  :class:`AccumulatedCounts` (the refresher caches the merge, so only
  shards it has not seen are loaded), which is filtered at the snapshot's
  support threshold.  Because an n-gram's reported count in Algorithm 1 is
  its true occurrence count whenever the n-gram is frequent (every
  occurrence of a frequent phrase survives the Apriori prefix/suffix and
  position pruning — downward closure guarantees all its sub-phrases are
  frequent at every occurrence site), the filtered merge is **bit-identical**
  to running the full miner on the snapshot: same phrases, same counts.

The one miner output that is not a pure function of the counts is
``iterations`` — the deepest level the increasing-size sliding window
*examined*, which depends on where frequent grams sit inside chunks.
:func:`replay_iterations` reproduces it exactly by replaying only the
window's *survival* logic (the cheap part) over the snapshot, using the
already-filtered counter in place of per-level counting.

Vocabulary ids stay stable under merge by construction: one shared
:class:`~repro.text.vocabulary.Vocabulary` grows in log-replay order, so a
word's id is its first-appearance rank — the same id an offline
preprocessing pass over the equivalent snapshot assigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.fast_mining import mine_flat_chunks
from repro.core.frequent_phrases import (
    FrequentPhraseMiningResult,
    PhraseMiningConfig,
    resolve_mining_engine,
)
from repro.io.artifacts import (
    ArtifactError,
    _pack_phrase_table,
    _read_container,
    _unpack_phrase_table,
    _write_npz,
)
from repro.text.flat import FlatChunks
from repro.text.preprocess import Preprocessor
from repro.text.vocabulary import Vocabulary
from repro.utils.counter import HashCounter

Phrase = Tuple[int, ...]

STATS_FORMAT = "repro.stream.stats"
STATS_VERSION = 1


class StreamStatsError(Exception):
    """A persisted statistics file is missing, corrupt, or inconsistent."""


# -- tokenization ---------------------------------------------------------------------
def encode_texts(texts: Sequence[str], preprocessor: Preprocessor,
                 vocabulary: Vocabulary, grow: bool = True) -> FlatChunks:
    """Tokenize ``texts`` into a chunk buffer, growing ``vocabulary`` in place.

    The same encoder :meth:`~repro.text.preprocess.Preprocessor.build_corpus`
    uses (:meth:`~repro.text.preprocess.Preprocessor.encode`), flattened
    once, so encoding a corpus shard by shard against one shared
    vocabulary assigns exactly the ids — and accumulates exactly the
    frequencies and surface-form counters — that a single offline pass
    over the concatenated texts would.  With ``grow=False`` the vocabulary
    is only looked up; a word it does not hold raises ``KeyError``.
    """
    return FlatChunks.from_documents(
        preprocessor.encode(texts, vocabulary, grow=grow))


# -- raw counting ---------------------------------------------------------------------
def count_all_phrases(flat: FlatChunks, max_length: Optional[int] = None,
                      engine: str = "auto") -> HashCounter:
    """Count every contiguous n-gram of every chunk (Algorithm 1 at ε=1).

    Parameters
    ----------
    flat:
        Flat-buffer encoding of the shard's chunks.
    max_length:
        Optional phrase-length cap (must match the refresh configuration's
        cap for the merge to equal an offline capped run).
    engine:
        ``"auto"``/``"numpy"`` runs the vectorized miner at support 1;
        ``"reference"`` a readable nested loop.  Both return identical raw
        counts.

    Returns
    -------
    HashCounter
        True occurrence counts of all n-grams (length ≥ 1, within-chunk).
    """
    engine = resolve_mining_engine(engine)
    if engine == "numpy":
        counter, _iterations = mine_flat_chunks(flat, 1, max_length)
        return counter
    counter = HashCounter()
    for chunk in flat.chunks():
        length = len(chunk)
        longest = length if max_length is None else min(length, max_length)
        for n in range(1, longest + 1):
            for start in range(length - n + 1):
                counter.increment(tuple(chunk[start:start + n]))
    return counter


# -- iterations replay ----------------------------------------------------------------
def replay_iterations(flat: FlatChunks, counter: HashCounter,
                      max_length: Optional[int] = None) -> int:
    """Reproduce the miner's ``iterations`` from a *filtered* counter.

    Replays the increasing-size sliding window of
    :func:`~repro.core.fast_mining.mine_flat_chunks` — active-position
    survival, per-chunk largest-index drop, overrun guard, data
    antimonotonicity — but skips the per-level candidate counting: the set
    of frequent ``n``-grams is already known (it is exactly the counter's
    length-``n`` phrases), so each level only re-keys positions against it.
    Position survival therefore evolves identically to a real mining run
    over ``flat``, and the returned level count is bit-equal to what either
    mining engine would report.

    Parameters
    ----------
    flat:
        Flat-buffer encoding of the snapshot corpus.
    counter:
        The frequent-phrase counter (already filtered at the snapshot's
        support threshold).
    max_length:
        The same phrase-length cap the mining run would use.

    Returns
    -------
    int
        The deepest phrase length the sliding window would examine.
    """
    tokens = flat.tokens.astype(np.int64, copy=False)
    n_pos = len(tokens)
    if n_pos == 0:
        return 1

    vocab_bound = int(tokens.max()) + 1
    frequent_words = np.asarray(
        sorted(phrase[0] for phrase in counter if len(phrase) == 1),
        dtype=np.int64)
    word_to_id = np.full(vocab_bound, -1, dtype=np.int64)
    in_bounds = frequent_words[frequent_words < vocab_bound]
    word_to_id[in_bounds] = np.searchsorted(frequent_words, in_bounds)
    gram_id = word_to_id[tokens]
    # phrase -> dense id of the current level's frequent grams (sorted-key
    # order, matching np.unique's ordering in the real miner).
    phrase_to_dense: Dict[Phrase, int] = {
        (int(word),): rank for rank, word in enumerate(frequent_words.tolist())}

    chunk_end = flat.chunk_end_per_position()
    chunk_index = flat.chunk_index_per_position()
    positions = np.arange(n_pos, dtype=np.int64)
    active = np.flatnonzero(np.repeat(flat.chunk_lengths >= 2,
                                      flat.chunk_lengths))

    n = 2
    iterations = 1
    while active.size and (max_length is None or n <= max_length):
        iterations = n
        surviving = active[gram_id[active] >= 0]
        if surviving.size:
            chunk_of = chunk_index[surviving]
            is_chunk_last = np.empty(surviving.size, dtype=bool)
            is_chunk_last[-1] = True
            np.not_equal(chunk_of[:-1], chunk_of[1:], out=is_chunk_last[:-1])
            surviving = surviving[~is_chunk_last]
            surviving = surviving[surviving + n <= chunk_end[surviving]]

        # The frequent n-grams are the counter's length-n phrases; key each
        # as (prefix dense id, last token), sorted to assign dense ids the
        # way np.unique would.
        level: List[Tuple[int, Phrase]] = []
        for phrase in counter:
            if len(phrase) == n:
                prefix = phrase_to_dense.get(phrase[:-1])
                if prefix is not None:
                    level.append((prefix * vocab_bound + phrase[-1], phrase))
        level.sort()
        level_keys = np.asarray([key for key, _ in level], dtype=np.int64)
        phrase_to_dense = {phrase: rank for rank, (_, phrase) in enumerate(level)}

        next_gram_id = np.full(n_pos, -1, dtype=np.int64)
        if level_keys.size:
            fits = np.flatnonzero((gram_id >= 0) & (positions + n <= chunk_end))
            fit_keys = gram_id[fits] * vocab_bound + tokens[fits + n - 1]
            slot = np.searchsorted(level_keys, fit_keys)
            slot = np.minimum(slot, len(level_keys) - 1)
            hit = level_keys[slot] == fit_keys
            next_gram_id[fits[hit]] = slot[hit]
        gram_id = next_gram_id
        active = surviving
        n += 1
    return iterations


# -- persistence ------------------------------------------------------------------------
def _write_stats(path: Union[str, Path], meta: Dict,
                 arrays: Dict[str, np.ndarray]) -> Path:
    """Commit a stats file: the bundle container, deflated, ``meta`` header."""
    return _write_npz(path, {"format": STATS_FORMAT, "version": STATS_VERSION,
                             **meta}, arrays, compress=True, header_name="meta")


def _read_stats(path: Union[str, Path],
                kind: str) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Read a stats file of ``kind``; any damage raises StreamStatsError."""
    try:
        meta, arrays = _read_container(path, header_name="meta",
                                       noun="statistics file", mapped=False)
    except ArtifactError as exc:
        raise StreamStatsError(str(exc)) from exc
    if not isinstance(meta, dict) or meta.get("format") != STATS_FORMAT:
        raise StreamStatsError(f"{path}: not a {STATS_FORMAT} file")
    if int(meta.get("version", 0)) > STATS_VERSION:
        raise StreamStatsError(
            f"{path}: stats version {meta.get('version')} is newer than "
            f"this reader (supports up to {STATS_VERSION})")
    if meta.get("kind") != kind:
        raise StreamStatsError(f"{path}: expected {kind} stats, "
                               f"got kind {meta.get('kind')!r}")
    return meta, arrays


# -- per-shard statistics -------------------------------------------------------------
@dataclass
class ShardStats:
    """One shard's tokenized documents and raw phrase counts.

    Everything a refresh needs from the shard — the original text is never
    consulted again after ingest.  On disk the buffer's arrays are the
    members ``tokens``, ``chunk_offsets`` and ``doc_chunk_offsets``.

    Attributes
    ----------
    name:
        The shard's log name.
    flat:
        The shard's documents, in shard order, as one chunk buffer (empty
        documents keep their slot).
    counter:
        Raw (support-1) n-gram counts of the shard's chunks.
    """

    name: str
    flat: FlatChunks
    counter: HashCounter

    @property
    def n_documents(self) -> int:
        """Number of documents in the shard."""
        return self.flat.n_documents

    @property
    def total_tokens(self) -> int:
        """Chunked token count — the shard's contribution to the
        snapshot's ``L``."""
        return self.flat.total_tokens

    @classmethod
    def compute(cls, name: str, flat: FlatChunks,
                max_length: Optional[int] = None,
                engine: str = "auto") -> "ShardStats":
        """Count one shard's phrases (the ingest-time, O(delta) step)."""
        return cls(name=name, flat=flat,
                   counter=count_all_phrases(flat, max_length, engine))

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the stats as one compressed ``.npz`` file."""
        arrays = {"tokens": self.flat.tokens,
                  "chunk_offsets": self.flat.offsets,
                  "doc_chunk_offsets": self.flat.doc_offsets}
        arrays.update(_pack_phrase_table(self.counter, "gram"))
        return _write_stats(path, {
            "kind": "shard", "shard": self.name,
            "n_documents": self.n_documents,
            "total_tokens": self.total_tokens,
        }, arrays)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardStats":
        """Load stats written by :meth:`save`; raise
        :class:`StreamStatsError` if the file is unreadable, its buffer is
        malformed (:meth:`~repro.text.flat.FlatChunks.from_arrays`) or
        disagrees with ``meta``, or its unigram counts are not the
        buffer's token counts."""
        meta, arrays = _read_stats(path, "shard")
        try:
            stats = cls(name=str(meta["shard"]),
                        flat=FlatChunks.from_arrays(arrays["tokens"],
                                                    arrays["chunk_offsets"],
                                                    arrays["doc_chunk_offsets"]),
                        counter=_unpack_phrase_table(arrays, "gram"))
            expected = (int(meta["n_documents"]), int(meta["total_tokens"]))
            unigrams_match = _unigrams_match(arrays, stats.flat.tokens)
        except (KeyError, ValueError, IndexError) as exc:
            raise StreamStatsError(f"{path}: malformed shard stats: "
                                   f"{exc}") from exc
        found = (stats.n_documents, stats.total_tokens)
        if found != expected:
            raise StreamStatsError(f"{path}: holds (documents, tokens) "
                                   f"{found} but meta says {expected}")
        if not unigrams_match:
            raise StreamStatsError(f"{path}: unigram counts disagree with "
                                   f"the shard's tokens")
        return stats


def _unigrams_match(arrays: Dict[str, np.ndarray], tokens: np.ndarray) -> bool:
    """Whether the ``gram_*`` table's length-1 rows hold exactly the ids of
    ``tokens``, each with its number of occurrences.

    Every token is counted as a unigram at ingest, so this catches a count
    altered after the file's checksums were computed.
    """
    offsets = arrays["gram_offsets"]
    rows = np.flatnonzero(np.diff(offsets) == 1)
    ids = arrays["gram_tokens"][offsets[rows]]
    order = np.argsort(ids, kind="stable")
    expected = np.bincount(tokens)
    present = np.flatnonzero(expected)
    return (np.array_equal(ids[order], present)
            and np.array_equal(arrays["gram_counts"][rows][order],
                               expected[present]))


# -- accumulated statistics -----------------------------------------------------------
@dataclass
class AccumulatedCounts:
    """The running merge of shards' raw counts, in log order.

    A refresh builds it from the shard stats files; :meth:`save` and
    :meth:`load` persist one for offline use (the stream itself keeps no
    accumulated file).

    Attributes
    ----------
    counter:
        Merged raw n-gram counts over all shards.
    total_tokens:
        Snapshot chunked token count (drives support scaling).
    n_documents:
        Snapshot document count.
    shard_names:
        Names of the shards merged so far, in log order.
    """

    counter: HashCounter = field(default_factory=HashCounter)
    total_tokens: int = 0
    n_documents: int = 0
    shard_names: List[str] = field(default_factory=list)

    def merge_shard(self, stats: ShardStats) -> None:
        """Fold one shard's raw counts into the accumulated state."""
        if stats.name in self.shard_names:
            raise StreamStatsError(
                f"shard {stats.name!r} was already merged")
        self.counter.merge_add(stats.counter)
        self.total_tokens += stats.total_tokens
        self.n_documents += stats.n_documents
        self.shard_names.append(stats.name)

    def copy(self) -> "AccumulatedCounts":
        """An independent copy (merging into it leaves this one as is)."""
        return AccumulatedCounts(counter=HashCounter(self.counter.as_dict()),
                                 total_tokens=self.total_tokens,
                                 n_documents=self.n_documents,
                                 shard_names=list(self.shard_names))

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the accumulated counts as one ``.npz`` file."""
        return _write_stats(path, {
            "kind": "accumulated",
            "total_tokens": int(self.total_tokens),
            "n_documents": int(self.n_documents),
            "shards": list(self.shard_names),
        }, _pack_phrase_table(self.counter, "gram"))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AccumulatedCounts":
        """Load accumulated counts written by :meth:`save`."""
        meta, arrays = _read_stats(path, "accumulated")
        return cls(counter=_unpack_phrase_table(arrays, "gram"),
                   total_tokens=int(meta["total_tokens"]),
                   n_documents=int(meta["n_documents"]),
                   shard_names=[str(s) for s in meta.get("shards", [])])

    def mining_result(self, snapshot: FlatChunks,
                      min_support: Optional[int] = None,
                      max_length: Optional[int] = None,
                      ) -> FrequentPhraseMiningResult:
        """Filter the merged counts into a full miner-equivalent result.

        Parameters
        ----------
        snapshot:
            Flat encoding of the snapshot corpus (needed only for the
            ``iterations`` survival replay — no counting happens here).
        min_support:
            Fixed support threshold ε; ``None`` scales it with the
            accumulated token count exactly like
            :meth:`~repro.core.frequent_phrases.PhraseMiningConfig.scaled_to_corpus`
            would for the equivalent offline corpus.
        max_length:
            Phrase-length cap (must match what the shards were counted
            with).

        Returns
        -------
        FrequentPhraseMiningResult
            Bit-identical — counter, ``total_tokens``, ``min_support``,
            ``iterations`` — to running
            :class:`~repro.core.frequent_phrases.FrequentPhraseMiner` on
            the snapshot corpus.
        """
        if min_support is None:
            min_support = PhraseMiningConfig.scaled_to_tokens(
                self.total_tokens).min_support
        if min_support < 1:
            raise ValueError("min_support must be at least 1")
        filtered = self.counter.filtered(min_support)
        return FrequentPhraseMiningResult(
            counter=filtered,
            total_tokens=self.total_tokens,
            min_support=min_support,
            iterations=replay_iterations(snapshot, filtered, max_length))
