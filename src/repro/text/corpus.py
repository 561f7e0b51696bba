"""Document and corpus containers.

A corpus (paper Section 2) is ``D`` documents, each a sequence of token ids
over a shared vocabulary.  Because phrase mining never crosses
phrase-invariant punctuation, documents store their tokens as a list of
*chunks*; the flat token sequence is the concatenation of the chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

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

    def iter_chunks(self) -> Iterator[List[int]]:
        """Iterate over the document's chunks."""
        return iter(self.chunks)


@dataclass
class Corpus:
    """A collection of documents sharing one vocabulary.

    Attributes
    ----------
    documents:
        The documents, indexed by ``doc_id``.
    vocabulary:
        Shared :class:`~repro.text.vocabulary.Vocabulary`.
    name:
        Human-readable dataset name (used in benchmark output).
    """

    documents: List[Document] = field(default_factory=list)
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    name: str = "corpus"

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __getitem__(self, index: int) -> Document:
        return self.documents[index]

    @property
    def num_tokens(self) -> int:
        """Total token count ``N`` across all documents."""
        return sum(doc.num_tokens for doc in self.documents)

    @property
    def vocabulary_size(self) -> int:
        """Vocabulary size ``V``."""
        return len(self.vocabulary)

    def add_document(self, chunks: Sequence[Sequence[int]],
                     raw_text: Optional[str] = None) -> Document:
        """Append a document built from ``chunks`` and return it."""
        doc = Document(chunks=[list(c) for c in chunks],
                       doc_id=len(self.documents), raw_text=raw_text)
        self.documents.append(doc)
        return doc

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
        order = rng.permutation(len(self.documents))
        n_holdout = max(1, int(round(holdout_fraction * len(self.documents))))
        holdout_ids = set(int(i) for i in order[:n_holdout])

        train = Corpus(vocabulary=self.vocabulary, name=f"{self.name}-train")
        held = Corpus(vocabulary=self.vocabulary, name=f"{self.name}-heldout")
        for doc in self.documents:
            target = held if doc.doc_id in holdout_ids else train
            target.add_document(doc.chunks, raw_text=doc.raw_text)
        return train, held

    def subsample(self, n_documents: int, seed: SeedLike = None) -> "Corpus":
        """Return a corpus containing a random sample of ``n_documents``.

        Mirrors the paper's "sampled dblp titles/abstracts" datasets used to
        make the expensive baselines tractable (Table 3).
        """
        if n_documents >= len(self.documents):
            return self
        rng = new_rng(seed)
        chosen = rng.choice(len(self.documents), size=n_documents, replace=False)
        sample = Corpus(vocabulary=self.vocabulary,
                        name=f"{self.name}-sample{n_documents}")
        for doc_id in sorted(int(i) for i in chosen):
            doc = self.documents[doc_id]
            sample.add_document(doc.chunks, raw_text=doc.raw_text)
        return sample
