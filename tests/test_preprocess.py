"""The memoised preprocessing path against its readable specification:
tokenizer chunks, then stop-word removal, then stemming, token by token,
and one ``Vocabulary.add`` per token for the corpus build."""

import itertools
import string

import pytest

from repro.datasets.registry import load_dataset
from repro.text.preprocess import PreprocessConfig, Preprocessor
from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import ENGLISH_STOP_WORDS
from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import Vocabulary

TEXTS = [
    "Mining Frequent Patterns — without Candidate Generation…",
    "THE Data-Mining of 2014 and 3.14159 results; It's the user's query!",
    "Café naïve Über straße: ÉCOLE résumé, señor coöperation",
    "a an of to in (parenthesised words) [brackets] {braces} \"quoted\"",
    "x y z 1 22 333 -- ' - rock'n'roll well-known e-mail",
    "   ",
    "",
    "Streaming phrase mining… streaming PHRASE mining — Streaming Phrases",
]

CONFIGS = [
    PreprocessConfig(stem=stem, remove_stop_words=stop, keep_numbers=numbers,
                     min_token_length=length, lowercase=lower)
    for stem, stop, numbers, length, lower in itertools.product(
        (True, False), (True, False), (True, False), (1, 3), (True, False))
]


def readable_process_text(config, text):
    """Tokenizer.chunk -> stop words -> stem, one token at a time."""
    tokenizer = Tokenizer(lowercase=config.lowercase,
                          keep_numbers=config.keep_numbers,
                          min_token_length=config.min_token_length)
    stemmer = PorterStemmer()
    chunks = []
    for chunk in tokenizer.chunk(text):
        kept = []
        for token in chunk:
            if config.remove_stop_words and token in ENGLISH_STOP_WORDS:
                continue
            stem = stemmer.stem(token) if config.stem else token
            if stem:
                kept.append((stem, token))
        if kept:
            chunks.append(kept)
    return chunks


@pytest.fixture(scope="module")
def titles():
    return load_dataset("dblp-titles", n_documents=150, seed=4).texts


@pytest.mark.parametrize("config", CONFIGS, ids=repr)
def test_process_text_equals_readable_composition(config, titles):
    preprocessor = Preprocessor(config)
    texts = TEXTS + list(titles[:40])
    for _ in range(2):  # cold memo, then warm
        for text in texts:
            assert preprocessor.process_text(text) == \
                readable_process_text(config, text)


def test_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(Preprocessor, "MEMO_LIMIT", 8)
    preprocessor = Preprocessor()
    words = ["".join(letters) for letters in
             itertools.product(string.ascii_lowercase, repeat=2)][:40]
    for start in range(0, len(words), 3):
        text = ", ".join(words[start:start + 3])
        assert preprocessor.process_text(text) == \
            readable_process_text(preprocessor.config, text)
        assert len(preprocessor._memo) <= 8


@pytest.mark.parametrize("config", [
    PreprocessConfig(),
    PreprocessConfig(stem=False, remove_stop_words=False, lowercase=False),
], ids=repr)
def test_build_corpus_equals_per_token_vocabulary_growth(config, titles):
    texts = TEXTS + list(titles)
    corpus = Preprocessor(config).build_corpus(texts, name="x")

    vocabulary = Vocabulary()
    documents = []
    for text in texts:
        documents.append([
            [vocabulary.add(stem, surface_form=surface) for stem, surface in chunk]
            for chunk in readable_process_text(config, text)])

    assert [doc.chunks for doc in corpus.documents] == documents
    assert [doc.raw_text for doc in corpus.documents] == texts
    # Ids, frequencies and every surface-form counter in insertion order.
    assert corpus.vocabulary.export_state() == vocabulary.export_state()


def test_encode_without_growth_looks_up_only(titles):
    preprocessor = Preprocessor()
    vocabulary = Vocabulary()
    grown = preprocessor.encode(titles, vocabulary)
    before = vocabulary.export_state()
    assert preprocessor.encode(titles, vocabulary, grow=False) == grown
    assert vocabulary.export_state() == before
    with pytest.raises(KeyError):
        preprocessor.encode(["zyzzyvas quokkas"], vocabulary, grow=False)
