"""Tokenisation and phrase-invariant chunk splitting.

Two facts from the paper shape this module:

* Phrases are *contiguous* token sequences, so tokenisation order matters and
  tokens never cross punctuation that terminates a phrase.
* Section 4.1 notes that splitting documents on "phrase-invariant punctuation
  (commas, periods, semicolons, etc)" keeps candidate generation effectively
  linear in corpus size, because each chunk is of roughly constant size.

The tokeniser therefore produces *chunks*: lists of lowercase word tokens
between phrase-invariant punctuation marks.  Downstream code never forms a
phrase across a chunk boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Sequence

# Punctuation that terminates a phrase.  A phrase can never span one of these.
PHRASE_INVARIANT_PUNCTUATION = frozenset(
    [".", ",", ";", ":", "!", "?", "(", ")", "[", "]", "{", "}", '"',
     "—", "–", "…"]
)

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z'\-]*|\d+(?:\.\d+)?|[^\sA-Za-z0-9]")
_WORD_RE = re.compile(r"^[A-Za-z][A-Za-z'\-]*$")
_NUMBER_RE = re.compile(r"^\d+(?:\.\d+)?$")


def tokenize(text: str) -> List[str]:
    """Split raw ``text`` into lowercase word/number/punctuation tokens."""
    return [tok.lower() for tok in _TOKEN_RE.findall(text)]


def split_chunks(tokens: Sequence[str], keep_numbers: bool = False) -> List[List[str]]:
    """Split a token stream into phrase-invariant chunks of word tokens.

    Punctuation tokens in :data:`PHRASE_INVARIANT_PUNCTUATION` close the
    current chunk and are discarded.  Other punctuation (apostrophes or
    hyphens are kept inside word tokens by the tokeniser) is dropped.  Number
    tokens are dropped unless ``keep_numbers`` is set — the paper's corpora
    are title/abstract/review text where numbers carry little topical signal.
    """
    chunks: List[List[str]] = []
    current: List[str] = []
    for token in tokens:
        if token in PHRASE_INVARIANT_PUNCTUATION:
            if current:
                chunks.append(current)
                current = []
            continue
        if _WORD_RE.match(token):
            current.append(token)
        elif keep_numbers and _NUMBER_RE.match(token):
            current.append(token)
        # any other symbol is ignored
    if current:
        chunks.append(current)
    return chunks


@dataclass
class Tokenizer:
    """Configurable tokeniser producing phrase-invariant chunks.

    Parameters
    ----------
    lowercase:
        Lowercase all tokens (the paper's corpora are case-folded).
    keep_numbers:
        Keep numeric tokens as words.
    min_token_length:
        Drop word tokens shorter than this many characters (after
        lowercasing); 1 keeps everything.
    """

    lowercase: bool = True
    keep_numbers: bool = False
    min_token_length: int = 1
    extra_phrase_breakers: frozenset = field(default_factory=frozenset)

    def tokenize(self, text: str) -> List[str]:
        """Return the flat token list for ``text``."""
        tokens = _TOKEN_RE.findall(text)
        if self.lowercase:
            tokens = [tok.lower() for tok in tokens]
        return tokens

    @property
    def breakers(self) -> frozenset:
        """Tokens that close the current chunk."""
        return PHRASE_INVARIANT_PUNCTUATION | self.extra_phrase_breakers

    def is_word(self, token: str) -> bool:
        """Whether a (case-folded, non-breaker) ``token`` joins a chunk."""
        if not (_WORD_RE.match(token)
                or (self.keep_numbers and _NUMBER_RE.match(token))):
            return False
        return len(token) >= self.min_token_length

    def chunk(self, text: str) -> List[List[str]]:
        """Return phrase-invariant chunks of word tokens for ``text``."""
        breakers = self.breakers
        chunks: List[List[str]] = []
        current: List[str] = []
        for token in self.tokenize(text):
            if token in breakers:
                if current:
                    chunks.append(current)
                    current = []
                continue
            if self.is_word(token):
                current.append(token)
        if current:
            chunks.append(current)
        return chunks
