"""Flat-buffer corpus encoding: chunked documents as contiguous arrays.

The one layout of a chunked corpus, in memory and on disk: every chunk's
token ids in one contiguous ``int32`` array, chunk offsets into it and
document offsets into the chunks — the phrase partition's layout
(:class:`repro.topicmodel.gibbs.FlatPhraseCorpus`) one stage earlier.
:class:`~repro.text.corpus.Corpus` and the stream's shard statistics hold
one, and the miners and the segmenter read one: NumPy indexing answers what
the pure-Python reference engines, which decode the chunks they walk,
answer with per-position tuple slicing.

Empty chunks are dropped during encoding — mirroring the reference miner,
which skips them — so :attr:`FlatChunks.total_tokens` is by construction the
token count the mining algorithms actually see.  Token ids must lie in
``[0, MAX_TOKEN_ID]``: the engines index arrays with them and store them as
``int32``, so encoding rejects anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: The largest token id a flat buffer can hold (``int32``).
MAX_TOKEN_ID = 2**31 - 1


def _offsets(lengths: Sequence[int]) -> np.ndarray:
    """``int64`` boundaries ``[0, l0, l0 + l1, ...]`` of consecutive runs."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=offsets[1:])
    return offsets


def _rises(bounds: np.ndarray, end: int, strictly: bool) -> bool:
    """Whether ``bounds`` runs from 0 to ``end`` without decreasing (or,
    ``strictly``, without repeating a value)."""
    return (bounds[:1].tolist() == [0] and bounds[-1] == end
            and bool(np.all(np.diff(bounds) >= int(strictly))))


@dataclass
class FlatChunks:
    """All chunk tokens of a document collection in one contiguous buffer.

    Attributes
    ----------
    tokens:
        ``int32`` array holding every (non-empty) chunk's token ids,
        concatenated in document order.
    offsets:
        ``int64`` array of length ``n_chunks + 1``; chunk ``i`` occupies
        ``tokens[offsets[i]:offsets[i + 1]]``.
    doc_offsets:
        ``int64`` array of length ``n_documents + 1``; document ``d`` holds
        chunks ``doc_offsets[d]:doc_offsets[d + 1]`` (none for a document
        whose chunks were all empty).
    longest_chunk:
        Token count of the longest chunk (0 when there are none); worked
        out from ``offsets`` when not given.
    """

    tokens: np.ndarray
    offsets: np.ndarray
    doc_offsets: np.ndarray
    longest_chunk: int = -1

    def __post_init__(self) -> None:
        if self.longest_chunk < 0:
            self.longest_chunk = (int(self.chunk_lengths.max())
                                  if self.n_chunks else 0)

    @classmethod
    def from_documents(cls, documents: Sequence[Sequence[Sequence[int]]]) -> "FlatChunks":
        """Encode ``documents`` (each a sequence of token-id chunks).

        Empty chunks are dropped (they carry no tokens and the miners skip
        them); empty documents keep their slot so callers can reassemble
        per-document results positionally.

        Raises
        ------
        ValueError
            If a token id lies outside ``[0, MAX_TOKEN_ID]``.
        """
        flat_tokens: List[int] = []
        lengths: List[int] = []
        doc_offsets: List[int] = [0]
        for chunks in documents:
            for chunk in chunks:
                if not len(chunk):
                    continue
                flat_tokens.extend(chunk)
                lengths.append(len(chunk))
            doc_offsets.append(len(lengths))
        try:
            tokens = np.asarray(flat_tokens, dtype=np.int64)
            # One reduction: viewed as unsigned, a negative id is huge.
            in_range = not tokens.size or \
                tokens.view(np.uint64).max() <= MAX_TOKEN_ID
        except OverflowError:  # beyond int64
            in_range = False
        if not in_range:
            raise ValueError(f"token ids must lie in [0, {MAX_TOKEN_ID}]")
        return cls(tokens=tokens.astype(np.int32),
                   offsets=_offsets(lengths),
                   doc_offsets=np.asarray(doc_offsets, dtype=np.int64),
                   longest_chunk=max(lengths, default=0))

    @classmethod
    def from_arrays(cls, tokens: np.ndarray, offsets: np.ndarray,
                    doc_offsets: np.ndarray) -> "FlatChunks":
        """Adopt buffers read from outside the program, checking them first.

        Raises ``ValueError`` unless all three are 1-d integer arrays, every
        token id lies in ``[0, MAX_TOKEN_ID]``, the chunk offsets rise
        strictly from 0 to ``len(tokens)`` (encoding never emits an empty
        chunk) and the document offsets rise from 0 to the chunk count.
        """
        arrays = (tokens, offsets, doc_offsets)
        if not all(a.ndim == 1 and a.dtype.kind in "iu" for a in arrays):
            raise ValueError("chunk buffers must be 1-d integer arrays")
        tokens, offsets, doc_offsets = (a.astype(np.int64) for a in arrays)
        if tokens.size and (tokens.min() < 0 or tokens.max() > MAX_TOKEN_ID):
            raise ValueError(f"token ids must lie in [0, {MAX_TOKEN_ID}]")
        if not (_rises(offsets, len(tokens), strictly=True)
                and _rises(doc_offsets, len(offsets) - 1, strictly=False)):
            raise ValueError("chunk offsets must rise strictly from 0 to the "
                             "token count, document offsets from 0 to the "
                             "chunk count")
        return cls(tokens.astype(np.int32), offsets, doc_offsets)

    @classmethod
    def concatenate(cls, parts: Sequence["FlatChunks"]) -> "FlatChunks":
        """The documents of every part, in order, in one buffer."""
        token_base = _offsets([p.total_tokens for p in parts])
        chunk_base = _offsets([p.n_chunks for p in parts])
        return cls(
            tokens=np.concatenate([np.zeros(0, np.int32)]
                                  + [p.tokens for p in parts]),
            offsets=np.concatenate([[0]] + [p.offsets[1:] + base for p, base
                                            in zip(parts, token_base)]),
            doc_offsets=np.concatenate([[0]] + [
                p.doc_offsets[1:] + base for p, base in zip(parts, chunk_base)]))

    def subset(self, keep: np.ndarray) -> "FlatChunks":
        """The buffer of the documents where the boolean ``keep`` is true."""
        doc_chunks = np.diff(self.doc_offsets)
        kept_chunks = np.repeat(keep, doc_chunks)
        return FlatChunks(
            tokens=self.tokens[np.repeat(kept_chunks, self.chunk_lengths)],
            offsets=_offsets(self.chunk_lengths[kept_chunks]),
            doc_offsets=_offsets(doc_chunks[keep]))

    def keep_tokens(self, keep: np.ndarray) -> "FlatChunks":
        """The buffer without the tokens where the boolean ``keep`` is
        false; chunks left empty are dropped, documents keep their slot."""
        kept = np.diff(_offsets(keep)[self.offsets])
        nonempty = np.flatnonzero(kept)
        return FlatChunks(tokens=self.tokens[keep],
                          offsets=_offsets(kept[nonempty]),
                          doc_offsets=np.searchsorted(nonempty,
                                                      self.doc_offsets))

    @property
    def n_documents(self) -> int:
        """Number of documents encoded (including those without chunks)."""
        return len(self.doc_offsets) - 1

    @property
    def n_chunks(self) -> int:
        """Number of (non-empty) chunks encoded."""
        return len(self.offsets) - 1

    @property
    def total_tokens(self) -> int:
        """Total token count across all encoded chunks.

        This is exactly the ``L`` the miners report as
        :attr:`~repro.core.frequent_phrases.FrequentPhraseMiningResult.total_tokens`
        and use as the Bernoulli-trial count of the significance null model.
        """
        return int(self.offsets[-1])

    @property
    def chunk_lengths(self) -> np.ndarray:
        """``int64`` array of per-chunk token counts."""
        return np.diff(self.offsets)

    def chunks(self) -> List[List[int]]:
        """Every chunk as a plain list of ints (for the reference engines)."""
        tokens = self.tokens.tolist()
        offsets = self.offsets.tolist()
        return [tokens[a:b] for a, b in zip(offsets, offsets[1:])]

    def documents(self) -> List[List[List[int]]]:
        """Every document as its list of chunks."""
        chunks = self.chunks()
        bounds = self.doc_offsets.tolist()
        return [chunks[a:b] for a, b in zip(bounds, bounds[1:])]

    def chunk_end_per_position(self) -> np.ndarray:
        """For every token position, the (exclusive) end offset of its chunk."""
        return np.repeat(self.offsets[1:], self.chunk_lengths)

    def chunk_index_per_position(self) -> np.ndarray:
        """For every token position, the index of the chunk containing it."""
        return np.repeat(np.arange(self.n_chunks, dtype=np.int64),
                         self.chunk_lengths)
