"""Document and corpus containers.

A corpus (paper Section 2) is ``D`` documents, each a sequence of token ids
over a shared vocabulary.  Because phrase mining never crosses
phrase-invariant punctuation, documents are sequences of *chunks*; the flat
token sequence is the concatenation of the chunks.  A :class:`Corpus` keeps
all of them in one :class:`~repro.text.flat.FlatChunks` buffer, the layout
the miners and the segmenter read; its :class:`Document` views are decoded
from that buffer on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterator, List, Optional

import numpy as np

from repro.text.flat import FlatChunks
from repro.text.vocabulary import Vocabulary
from repro.utils.rng import SeedLike, new_rng


@dataclass
class Document:
    """A single document as chunked token-id sequences.

    Attributes
    ----------
    chunks:
        Phrase-invariant chunks; each chunk is a list of word ids.  Phrases
        mined later never span two chunks.
    doc_id:
        Position of the document within its corpus.
    raw_text:
        Optional original text kept for inspection and examples.
    """

    chunks: List[List[int]]
    doc_id: int = 0
    raw_text: Optional[str] = None

    @property
    def tokens(self) -> List[int]:
        """Flat token-id sequence (concatenation of chunks)."""
        flat: List[int] = []
        for chunk in self.chunks:
            flat.extend(chunk)
        return flat

    @property
    def num_tokens(self) -> int:
        """Number of tokens ``N_d`` in the document."""
        return sum(len(chunk) for chunk in self.chunks)

    def __len__(self) -> int:
        return self.num_tokens


@dataclass(eq=False)
class Corpus:
    """A collection of documents sharing one vocabulary.

    The documents live in :attr:`flat`; :attr:`documents` decodes them into
    :class:`Document` views on first access (the views are copies: editing
    one changes nothing in the corpus).

    Attributes
    ----------
    flat:
        Every document's chunks in one buffer.
    vocabulary:
        Shared :class:`~repro.text.vocabulary.Vocabulary`.
    name:
        Human-readable dataset name (used in benchmark output).
    raw_texts:
        The original text of each document (empty when not kept).
    """

    flat: FlatChunks = field(default_factory=lambda: FlatChunks.from_documents([]))
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    name: str = "corpus"
    raw_texts: List[str] = field(default_factory=list)

    @cached_property
    def documents(self) -> List[Document]:
        """The documents, indexed by ``doc_id`` (decoded on first use)."""
        return [Document(chunks=chunks, doc_id=doc_id, raw_text=raw)
                for doc_id, (chunks, raw) in enumerate(zip(
                    self.flat.documents(), self.raw_texts or repeat(None)))]

    def __len__(self) -> int:
        return self.flat.n_documents

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __getitem__(self, index: int) -> Document:
        return self.documents[index]

    @property
    def num_tokens(self) -> int:
        """Total token count ``N`` across all documents."""
        return self.flat.total_tokens

    @property
    def vocabulary_size(self) -> int:
        """Vocabulary size ``V``."""
        return len(self.vocabulary)

    def _subset(self, keep: np.ndarray, name: str) -> "Corpus":
        return Corpus(self.flat.subset(keep), self.vocabulary, name,
                      [raw for raw, kept in zip(self.raw_texts, keep) if kept])

    def split(self, holdout_fraction: float, seed: SeedLike = None) -> tuple["Corpus", "Corpus"]:
        """Split into (training, held-out) corpora sharing the vocabulary.

        Used by the perplexity experiments (Figures 6, 7): the topic model is
        trained on the first part and evaluated on the second.  The split is
        a deterministic shuffle controlled by ``seed`` (an int or an existing
        :class:`numpy.random.Generator`).
        """
        if not 0.0 < holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        rng = new_rng(seed)
        order = rng.permutation(len(self))
        n_holdout = max(1, int(round(holdout_fraction * len(self))))
        held = np.zeros(len(self), dtype=bool)
        held[order[:n_holdout]] = True
        return (self._subset(~held, f"{self.name}-train"),
                self._subset(held, f"{self.name}-heldout"))

    def subsample(self, n_documents: int, seed: SeedLike = None) -> "Corpus":
        """Return a corpus containing a random sample of ``n_documents``.

        Mirrors the paper's "sampled dblp titles/abstracts" datasets used to
        make the expensive baselines tractable (Table 3).
        """
        if n_documents >= len(self):
            return self
        rng = new_rng(seed)
        chosen = np.zeros(len(self), dtype=bool)
        chosen[rng.choice(len(self), size=n_documents, replace=False)] = True
        return self._subset(chosen, f"{self.name}-sample{n_documents}")
