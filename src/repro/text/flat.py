"""Flat-buffer corpus encoding: chunked documents as contiguous arrays.

The vectorized phrase-mining engine and the C segmentation engine operate
on a *flat* view of the corpus: every chunk's token ids concatenated into one
contiguous ``int32`` array, plus an offsets array delimiting chunks and a
per-chunk document index.  This is the same buffers-first layout the C
PhraseLDA engine uses for cliques (:class:`repro.topicmodel.gibbs.FlatPhraseCorpus`), applied
one stage earlier in the pipeline: a single pass of NumPy indexing can then
answer questions that the pure-Python reference engines answer with
per-position tuple slicing.

Empty chunks are dropped during encoding — mirroring the reference miner,
which skips them — so :attr:`FlatChunks.total_tokens` is by construction the
token count the mining algorithms actually see.  Token ids must lie in
``[0, MAX_TOKEN_ID]``: the engines index arrays with them and store them as
``int32``, so encoding rejects anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.text.corpus import Corpus

#: The largest token id a flat buffer can hold (``int32``).
MAX_TOKEN_ID = 2**31 - 1


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
    doc_ids:
        ``int32`` array of length ``n_chunks`` mapping each chunk back to
        the index of the document it came from (within the encoded
        collection, in input order).
    n_documents:
        Number of documents encoded (including documents whose chunks were
        all empty).
    longest_chunk:
        Token count of the longest chunk (0 when there are none).
    """

    tokens: np.ndarray
    offsets: np.ndarray
    doc_ids: np.ndarray
    n_documents: int
    longest_chunk: int = 0

    @classmethod
    def from_documents(cls, documents: Sequence[Sequence[Sequence[int]]]) -> "FlatChunks":
        """Encode ``documents`` (each a sequence of token-id chunks).

        Empty chunks are dropped (they carry no tokens and the miners skip
        them); empty documents keep their slot in ``n_documents`` so callers
        can reassemble per-document results positionally.

        Raises
        ------
        ValueError
            If a token id lies outside ``[0, MAX_TOKEN_ID]``.
        """
        flat_tokens: List[int] = []
        lengths: List[int] = []
        doc_ids: List[int] = []
        for doc_index, chunks in enumerate(documents):
            for chunk in chunks:
                if not len(chunk):
                    continue
                flat_tokens.extend(chunk)
                lengths.append(len(chunk))
                doc_ids.append(doc_index)
        try:
            tokens = np.asarray(flat_tokens, dtype=np.int64)
            # One reduction: viewed as unsigned, a negative id is huge.
            in_range = not tokens.size or \
                tokens.view(np.uint64).max() <= MAX_TOKEN_ID
        except OverflowError:  # beyond int64
            in_range = False
        if not in_range:
            raise ValueError(f"token ids must lie in [0, {MAX_TOKEN_ID}]")
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.asarray(lengths, dtype=np.int64).cumsum(out=offsets[1:])
        return cls(tokens=tokens.astype(np.int32),
                   offsets=offsets,
                   doc_ids=np.asarray(doc_ids, dtype=np.int32),
                   n_documents=len(documents),
                   longest_chunk=max(lengths, default=0))

    @classmethod
    def from_corpus(cls, corpus: "Corpus") -> "FlatChunks":
        """Encode every document of a :class:`~repro.text.corpus.Corpus`."""
        return cls.from_documents([doc.chunks for doc in corpus])

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

    def chunk(self, index: int) -> List[int]:
        """Return chunk ``index`` as a plain list of ints (for debugging)."""
        start, end = self.offsets[index], self.offsets[index + 1]
        return [int(w) for w in self.tokens[start:end]]

    def chunk_end_per_position(self) -> np.ndarray:
        """For every token position, the (exclusive) end offset of its chunk."""
        return np.repeat(self.offsets[1:], self.chunk_lengths)

    def chunk_index_per_position(self) -> np.ndarray:
        """For every token position, the index of the chunk containing it."""
        return np.repeat(np.arange(self.n_chunks, dtype=np.int64),
                         self.chunk_lengths)
