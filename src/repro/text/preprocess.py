"""End-to-end preprocessing pipeline: raw strings → :class:`Corpus`.

Follows the paper's Section 7.1 recipe:

1. tokenise and split each document on phrase-invariant punctuation,
2. remove English stop words,
3. stem each remaining token with the Porter stemmer,
4. encode stems as integer ids over a shared vocabulary, remembering the
   most frequent surface form of each stem so visualisations can unstem.

Stemming and stop-word removal are both optional so that synthetic corpora
(whose tokens are already canonical) can bypass them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.text.corpus import Corpus
from repro.text.flat import FlatChunks
from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import ENGLISH_STOP_WORDS
from repro.text.tokenizer import _TOKEN_RE, Tokenizer
from repro.text.vocabulary import Vocabulary

# What one raw token becomes in :meth:`Preprocessor.process_text`: it closes
# the current chunk, it is dropped, or it is kept as ``(stem, surface)``.
_BREAK = object()
_DROP = object()


@dataclass
class PreprocessConfig:
    """Configuration of the preprocessing pipeline.

    Parameters
    ----------
    stem:
        Apply Porter stemming (paper default: on).
    remove_stop_words:
        Remove English stop words before mining (paper default: on).
    lowercase:
        Case-fold the text.
    min_token_length:
        Drop word tokens shorter than this.
    min_word_frequency:
        Words occurring fewer times than this across the corpus are dropped
        from documents after the vocabulary pass (0/1 keeps all words).
    keep_numbers:
        Keep numeric tokens.
    """

    stem: bool = True
    remove_stop_words: bool = True
    lowercase: bool = True
    min_token_length: int = 1
    min_word_frequency: int = 1
    keep_numbers: bool = False


class Preprocessor:
    """Turns an iterable of raw document strings into a :class:`Corpus`.

    Every token's fate is a pure function of the raw token and the config,
    so :meth:`process_text` classifies each *distinct* raw token once and
    memoises the outcome.  The memo is bounded like the stemmer's cache (it
    resets after :attr:`MEMO_LIMIT` distinct tokens), so a long-lived
    serving process fed hostile input cannot grow it without bound.
    """

    #: Distinct raw tokens memoised before the memo resets.
    MEMO_LIMIT = 262144

    def __init__(self, config: Optional[PreprocessConfig] = None) -> None:
        self.config = config or PreprocessConfig()
        self._tokenizer = Tokenizer(lowercase=self.config.lowercase,
                                    keep_numbers=self.config.keep_numbers,
                                    min_token_length=self.config.min_token_length)
        self._stemmer = PorterStemmer()
        self._memo: Dict[str, object] = {}

    # -- single-document helpers -------------------------------------------------
    def _classify(self, raw: str) -> object:
        """Apply the tokenizer's case-fold, breaker and word rules, then stop
        words and stemming, to one raw token."""
        tokenizer = self._tokenizer
        token = raw.lower() if tokenizer.lowercase else raw
        if token in tokenizer.breakers:
            return _BREAK
        if not tokenizer.is_word(token):
            return _DROP
        if self.config.remove_stop_words and token in ENGLISH_STOP_WORDS:
            return _DROP
        stem = self._stemmer.stem(token) if self.config.stem else token
        return (stem, token) if stem else _DROP

    def process_text(self, text: str) -> List[List[tuple[str, str]]]:
        """Return chunks of ``(processed_token, surface_token)`` pairs.

        Equal to chunking with the tokenizer, then dropping stop words and
        stemming each remaining token (empty chunks are skipped).
        """
        memo = self._memo
        chunks: List[List[tuple[str, str]]] = []
        current: List[tuple[str, str]] = []
        for raw in _TOKEN_RE.findall(text):
            entry = memo.get(raw)
            if entry is None:
                if len(memo) >= self.MEMO_LIMIT:
                    memo.clear()
                entry = memo[raw] = self._classify(raw)
            if entry is _BREAK:
                if current:
                    chunks.append(current)
                    current = []
            elif entry is not _DROP:
                current.append(entry)
        if current:
            chunks.append(current)
        return chunks

    def encode(self, texts: Iterable[str], vocabulary: Vocabulary,
               grow: bool = True) -> List[List[List[int]]]:
        """Preprocess ``texts`` into token-id chunks over ``vocabulary``.

        With ``grow=True`` the vocabulary grows in place exactly as one
        ``Vocabulary.add(stem, surface_form=surface)`` per token, in text
        order, would grow it: new stems get ids in first-appearance order,
        and the ``(stem, surface)`` occurrences are counted first and folded
        in once each, in first-appearance order, so frequencies and
        surface-form counters (insertion order included) match too.  That
        is why encoding a corpus shard by shard against one shared
        vocabulary equals a single pass over the concatenated texts.

        With ``grow=False`` the vocabulary is only looked up, never
        changed: re-encoding texts it has already absorbed yields the same
        ids without counting their tokens twice.  A stem it does not hold
        raises ``KeyError``.

        Returns
        -------
        list
            One list of token-id chunks per document (a document whose
            chunks are all empty keeps its slot as an empty list).
        """
        documents: List[List[List[int]]] = []
        if not grow:
            id_of = vocabulary.id_of
            for text in texts:
                documents.append([[id_of(stem) for stem, _ in chunk]
                                  for chunk in self.process_text(text)])
            return documents
        word_to_id = vocabulary.word_to_id
        pair_counts: Dict[tuple[str, str], int] = {}
        for text in texts:
            id_chunks: List[List[int]] = []
            for chunk in self.process_text(text):
                id_chunk: List[int] = []
                for pair in chunk:
                    word_id = word_to_id.get(pair[0])
                    if word_id is None:
                        word_id = vocabulary.add(pair[0], count=0)
                    id_chunk.append(word_id)
                    pair_counts[pair] = pair_counts.get(pair, 0) + 1
                id_chunks.append(id_chunk)
            documents.append(id_chunks)
        for (stem, surface), count in pair_counts.items():
            vocabulary.add(stem, count=count, surface_form=surface)
        return documents

    # -- corpus construction -------------------------------------------------------
    def build_corpus(self, texts: Iterable[str], name: str = "corpus") -> Corpus:
        """Preprocess ``texts`` into a :class:`Corpus`.

        The vocabulary is grown over the whole collection and the encoded
        documents are flattened once into the corpus buffer; when
        ``min_word_frequency > 1`` a second pass removes rare words from
        that buffer (their ids stay in the vocabulary so that indexing
        remains stable, but they no longer appear in any chunk).
        """
        vocabulary = Vocabulary()
        raw_texts = list(texts)
        flat = FlatChunks.from_documents(self.encode(raw_texts, vocabulary))
        if self.config.min_word_frequency > 1:
            flat = self._drop_rare_words(flat, vocabulary)
        return Corpus(flat, vocabulary, name, raw_texts)

    def _drop_rare_words(self, flat: FlatChunks,
                         vocabulary: Vocabulary) -> FlatChunks:
        frequencies = np.fromiter(
            map(vocabulary.frequency_of, range(len(vocabulary))),
            dtype=np.int64, count=len(vocabulary))
        return flat.keep_tokens(
            frequencies[flat.tokens] >= self.config.min_word_frequency)


def preprocess_corpus(texts: Sequence[str], name: str = "corpus",
                      config: Optional[PreprocessConfig] = None) -> Corpus:
    """Convenience wrapper: preprocess ``texts`` with ``config`` into a corpus."""
    return Preprocessor(config).build_corpus(texts, name=name)
