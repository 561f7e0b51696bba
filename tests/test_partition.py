"""The flat phrase partition: its numpy premise and its round trips.

:class:`~repro.topicmodel.gibbs.FlatPhraseCorpus` is what the segmenter
produces and what PhraseLDA, fold-in, the Eq. 8 counts and the segmentation
bundle read.  These tests pin, on both segmentation engines, that it
round-trips through phrase tuples and bundles unchanged and that its keys
count Eq. 8 exactly like a walk over the tuples.  They also pin the numpy
property the one-call topic initialization rests on.
"""

import numpy as np
import pytest

from repro.core.phrase_construction import PhraseConstructionConfig
from repro.core.phrase_lda import PhraseLDA, PhraseLDAConfig
from repro.core.segmentation import CorpusSegmenter
from repro.core.topmine import ToPMine, ToPMineConfig
from repro.core.visualization import TopicVisualizer
from repro.datasets.registry import load_dataset
from repro.io.artifacts import (
    ModelBundle,
    SegmentationBundle,
    load_bundle,
    save_bundle,
)
from repro.text.flat import FlatChunks
from repro.topicmodel import ckernel
from repro.topicmodel.gibbs import FlatPhraseCorpus

requires_c_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason=f"C kernel unavailable: {ckernel.load_error()}")

ENGINES = ["reference", pytest.param("c", marks=requires_c_kernel)]

BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                  np.random.Philox, np.random.SFC64]

# Cliques per document, with empty documents at the ends and in between.
DOC_SIZES = [0, 3, 0, 1, 17, 0, 0, 250, 2, 1, 0]


# -- the numpy property behind one-call initialization ---------------------------------
def _same_state(a, b) -> bool:
    """Equality of bit-generator states (nested dicts holding arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS,
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("n_topics", [1, 2, 20, 65537])
@pytest.mark.parametrize("warm_up", [0, 3])
def test_one_bounded_draw_equals_per_document_draws(bit_generator, n_topics,
                                                    warm_up):
    """``integers(0, K, size=sum(n))`` yields the per-document draws
    ``integers(0, K, size=n_d)`` concatenated, and leaves the generator in
    the same state.  ``warm_up`` odd-count draws first leave half of a
    64-bit output buffered, as a generator passed in by a caller can."""
    whole = np.random.Generator(bit_generator(20241018))
    per_document = np.random.Generator(bit_generator(20241018))
    for rng in (whole, per_document):
        rng.integers(0, 5, size=warm_up)
    drawn = whole.integers(0, n_topics, size=sum(DOC_SIZES))
    expected = np.concatenate([per_document.integers(0, n_topics, size=n)
                               for n in DOC_SIZES])
    assert drawn.dtype == expected.dtype == np.int64
    np.testing.assert_array_equal(drawn, expected)
    assert _same_state(whole.bit_generator.state, per_document.bit_generator.state)
    # Both go on to draw the same numbers.
    assert whole.random() == per_document.random()


# -- partitions on both segmentation engines -------------------------------------------
@pytest.fixture(scope="module")
def corpus_and_mining():
    """A corpus with multi-word phrases, plus documents without tokens."""
    texts = load_dataset("dblp-titles", n_documents=400, seed=11).texts
    texts = [""] + texts[:150] + ["the of and", ""] + texts[150:] + [""]
    topmine = ToPMine(ToPMineConfig(min_support=4, significance_threshold=3.0))
    corpus = topmine.preprocess(texts)
    return corpus, topmine.mine_phrases(corpus)


def _segmenter(mining, engine):
    return CorpusSegmenter(mining, PhraseConstructionConfig(
        significance_threshold=3.0, engine=engine))


def _expected_phrases(corpus, mining):
    """The partition as the reference constructor builds it, one chunk at
    a time (what ``segment()`` returned before the flat partition)."""
    constructor = _segmenter(mining, "reference").constructor
    return [[phrase for chunk in doc.chunks if len(chunk)
             for phrase in constructor.construct(chunk).phrases]
            for doc in corpus]


def _assert_same_partition(a, b):
    for name in ("tokens", "offsets", "doc_offsets"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)


@pytest.mark.parametrize("engine", ENGINES)
def test_lazy_documents_equal_the_constructor_output(corpus_and_mining, engine):
    corpus, mining = corpus_and_mining
    segmented = _segmenter(mining, engine).segment(corpus)
    expected = _expected_phrases(corpus, mining)
    assert len(segmented) == len(expected) == segmented.partition.n_docs
    assert any(len(p) >= 3 for doc in expected for p in doc)
    assert [] in expected
    assert [doc.phrases for doc in segmented] == expected
    assert [doc.doc_id for doc in segmented] == [doc.doc_id for doc in corpus]
    assert segmented.partition.documents() == expected
    assert segmented.num_phrases == sum(map(len, expected))
    assert segmented.num_tokens == sum(len(p) for doc in expected for p in doc)


@pytest.mark.parametrize("engine", ENGINES)
def test_partition_round_trips_through_phrase_tuples(corpus_and_mining, engine):
    corpus, mining = corpus_and_mining
    partition = _segmenter(mining, engine).segment(corpus).partition
    rebuilt = FlatPhraseCorpus.from_phrases(partition.documents())
    _assert_same_partition(partition, rebuilt)
    # Keys name phrases: equal keys exactly when the tuples are equal.
    phrases = partition.phrases()
    key_of = dict(zip(phrases, partition.keys.tolist()))
    assert len(key_of) == len(set(partition.keys.tolist()))
    assert [key_of[p] for p in phrases] == partition.keys.tolist()


@pytest.mark.parametrize("engine", ENGINES)
def test_phrases_decode_a_clique_range(corpus_and_mining, engine):
    corpus, mining = corpus_and_mining
    partition = _segmenter(mining, engine).segment(corpus).partition
    phrases = partition.phrases()
    for first, last in ((0, 3), (150, 155), (10, 10),
                        (0, partition.n_cliques),
                        (partition.n_cliques, partition.n_cliques)):
        assert partition.phrases(first, last) == phrases[first:last]
    assert partition.phrases(5) == phrases[5:]


def _dict_walk(segmented, clique_assignments, n_topics, min_phrase_length):
    """Eq. 8 as a walk over the phrase tuples (the readable definition)."""
    frequencies = [{} for _ in range(n_topics)]
    for doc, cliques in zip(segmented, clique_assignments):
        for phrase, topic in zip(doc.phrases, cliques):
            if len(phrase) >= min_phrase_length:
                bucket = frequencies[int(topic)]
                bucket[phrase] = bucket.get(phrase, 0) + 1
    return frequencies


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("min_phrase_length", [1, 2])
def test_topical_frequencies_from_keys_equal_the_dict_walk(
        corpus_and_mining, engine, min_phrase_length):
    corpus, mining = corpus_and_mining
    segmented = _segmenter(mining, engine).segment(corpus)
    state = PhraseLDA(PhraseLDAConfig(n_topics=4, n_iterations=5, seed=2,
                                      engine=engine)).fit(segmented)
    counted = TopicVisualizer(segmented, state).topical_frequencies(
        min_phrase_length)
    expected = _dict_walk(segmented, state.clique_assignments, 4,
                          min_phrase_length)
    assert counted == expected
    assert sum(len(topic) for topic in expected) > 0


def test_topical_frequencies_keep_empty_phrases_aligned():
    """A hand-built corpus may hold empty phrases: they keep their clique
    (and its topic) and only count when ``min_phrase_length`` is 0."""
    from repro.core.segmentation import SegmentedCorpus

    segmented = SegmentedCorpus(FlatPhraseCorpus.from_phrases([
        [(0, 1), (), (2,), (0, 1)], [], [(2,), (0, 1)]]))
    assert [doc.phrases for doc in segmented] == [
        [(0, 1), (), (2,), (0, 1)], [], [(2,), (0, 1)]]
    state = PhraseLDA(PhraseLDAConfig(n_topics=3, n_iterations=4, seed=1,
                                      engine="reference")).fit(segmented, 3)
    for min_phrase_length in (0, 1, 2):
        assert TopicVisualizer(segmented, state).topical_frequencies(
            min_phrase_length) == _dict_walk(segmented, state.clique_assignments,
                                             3, min_phrase_length)


@pytest.mark.parametrize("engine", ENGINES)
def test_segmentation_bundle_stores_the_partition_arrays(corpus_and_mining,
                                                         engine, tmp_path):
    corpus, mining = corpus_and_mining
    segmented = _segmenter(mining, engine).segment(corpus)
    partition = segmented.partition
    path = save_bundle(tmp_path / "seg.npz", SegmentationBundle(
        mining=mining, segmented=segmented,
        construction=PhraseConstructionConfig(significance_threshold=3.0)))
    with np.load(path) as saved:
        for stored, array in (("seg_tokens", partition.tokens),
                              ("seg_phrase_offsets", partition.offsets),
                              ("seg_doc_offsets", partition.doc_offsets)):
            assert saved[stored].dtype == array.dtype
            np.testing.assert_array_equal(saved[stored], array)
    restored = load_bundle(path).segmented
    _assert_same_partition(restored.partition, partition)
    assert [doc.phrases for doc in restored] == partition.documents()


@requires_c_kernel
def test_c_fit_never_builds_phrase_tuples(corpus_and_mining, tmp_path,
                                          monkeypatch):
    """On the C engines a fit, its visualization and its saved bundle read
    the partition only; no per-clique tuple is decoded."""
    corpus, _ = corpus_and_mining

    def refuse(*args, **kwargs):
        raise AssertionError("phrase tuples were built")

    monkeypatch.setattr(FlatPhraseCorpus, "phrases", refuse)
    config = ToPMineConfig(n_topics=4, min_support=4, significance_threshold=3.0,
                           n_iterations=5, seed=3)
    result = ToPMine(config).fit(corpus)
    assert result.visualization.top_phrases
    save_bundle(tmp_path / "model.npz", ModelBundle.from_result(result, config))


@requires_c_kernel
def test_c_fit_flattens_the_encoded_corpus_once(monkeypatch):
    """Preprocessing flattens the encoded documents into the corpus buffer
    once; mining and segmentation read that buffer, and nothing rebuilds
    nested chunk lists after encoding."""
    texts = load_dataset("dblp-titles", n_documents=300, seed=5).texts
    calls = []
    original = FlatChunks.from_documents

    def spy(cls, documents):
        calls.append(len(documents))
        return original(documents)

    monkeypatch.setattr(FlatChunks, "from_documents", classmethod(spy))
    result = ToPMine(ToPMineConfig(n_topics=3, min_support=None,
                                   n_iterations=3, seed=5)).fit(texts)
    assert calls == [len(texts)]
    assert result.corpus.flat.n_documents == len(texts)
