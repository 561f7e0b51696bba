"""Engine equivalence for the phrase-mining front end.

The vectorized (``"numpy"``) mining engine and the compiled (``"c"``)
segmentation engine must reproduce the readable reference implementations
**bit for bit**: identical frequent phrases and
counts, identical token totals and iteration counts, identical document
partitions — across datasets, supports, thresholds, length caps, and
adversarial random corpora.  These are the Algorithm 1/Algorithm 2
counterparts of ``tests/test_phrase_lda_equivalence.py``.
"""

import math
import random

import numpy as np
import pytest

from repro.core.frequent_phrases import (
    FrequentPhraseMiner,
    MINING_ENGINES,
    PhraseMiningConfig,
    resolve_mining_engine,
)
from repro.core.infer import TopicInferencer
from repro.core.phrase_construction import (
    PhraseConstructionConfig,
    PhraseConstructor,
)
from repro.core.segmentation import (
    CorpusSegmenter,
    resolve_segmentation_engine,
)
from repro.core.significance import IndexedSignificanceScorer, SignificanceScorer
from repro.core.topmine import ToPMine, ToPMineConfig
from repro.datasets.registry import load_dataset
from repro.text.corpus import Corpus
from repro.text.flat import FlatChunks
from repro.topicmodel import ckernel
from repro.utils.counter import HashCounter

#: The segmentation engine each equivalence case checks: ``"c"`` where the
#: kernel builds, else the reference itself, so that a machine without a
#: compiler still runs every case (against the reference or an oracle).
CHECKED_ENGINES = ("c",) if ckernel.kernel_available() else ("reference",)


def prepared_corpus(dataset="dblp-titles", n_documents=250, seed=7):
    """Generate and preprocess one synthetic corpus."""
    generated = load_dataset(dataset, n_documents=n_documents, seed=seed)
    return ToPMine(ToPMineConfig()).preprocess(generated.texts, name=dataset)


def mine(corpus, engine, min_support=3, max_length=None):
    """Mine ``corpus`` with the given engine."""
    return FrequentPhraseMiner(PhraseMiningConfig(
        min_support=min_support, max_phrase_length=max_length,
        engine=engine)).mine(corpus)


def assert_mining_equal(reference, fast):
    """Both engines produced the same result object contents."""
    assert reference.counter.as_dict() == fast.counter.as_dict()
    assert reference.total_tokens == fast.total_tokens
    assert reference.min_support == fast.min_support
    assert reference.iterations == fast.iterations


def random_corpus(rng, max_vocab=6):
    """A small adversarial corpus: empty docs/chunks, tiny vocabularies."""
    vocabulary_size = rng.randint(2, max_vocab)
    return Corpus(FlatChunks.from_documents([
        [[rng.randrange(vocabulary_size) for _ in range(rng.randint(0, 8))]
         for _ in range(rng.randint(0, 4))]
        for _ in range(rng.randint(0, 14))]))


# -- engine plumbing ------------------------------------------------------------------
def test_resolve_mining_engine():
    assert resolve_mining_engine("auto") == "numpy"
    assert resolve_mining_engine("reference") == "reference"
    assert resolve_mining_engine("numpy") == "numpy"
    with pytest.raises(ValueError, match="fortran"):
        resolve_mining_engine("fortran")
    assert set(MINING_ENGINES) == {"auto", "numpy", "reference"}


def test_resolve_segmentation_engine(monkeypatch):
    # auto picks the compiled kernel when it loads, the reference without
    # it (as under REPRO_DISABLE_C_KERNEL).  "numpy" names the vectorized
    # miner only: segmentation takes the training vocabulary.
    expected = "c" if ckernel.kernel_available() else "reference"
    assert resolve_segmentation_engine("auto", 5.0) == expected
    # A -inf threshold lets the reference merge zero-frequency pairs,
    # which the indexed scorer cannot express: auto degrades, an explicit
    # c fails.
    assert resolve_segmentation_engine("auto", float("-inf")) == "reference"
    assert resolve_segmentation_engine("reference", 5.0) == "reference"
    with pytest.raises(ValueError, match="finite"):
        resolve_segmentation_engine("c", float("-inf"))
    for engine in ("fortran", "numpy"):
        for threshold in (5.0, float("-inf")):
            with pytest.raises(ValueError, match="unknown"):
                resolve_segmentation_engine(engine, threshold)

    monkeypatch.setattr(ckernel, "kernel_available", lambda: False)
    assert resolve_segmentation_engine("auto", 5.0) == "reference"
    with pytest.raises(RuntimeError, match="unavailable"):
        resolve_segmentation_engine("c", 5.0)


# -- flat-buffer encoding -------------------------------------------------------------
def test_flat_chunks_layout():
    flat = FlatChunks.from_documents([[[1, 2], [], [3]], [], [[4]]])
    assert flat.tokens.tolist() == [1, 2, 3, 4]
    assert flat.offsets.tolist() == [0, 2, 3, 4]
    # The empty chunk is dropped; the empty document keeps its slot.
    assert flat.doc_offsets.tolist() == [0, 2, 2, 3]
    assert flat.n_documents == 3
    assert flat.n_chunks == 3
    assert flat.total_tokens == 4
    assert flat.longest_chunk == 2
    assert flat.chunks() == [[1, 2], [3], [4]]
    assert flat.documents() == [[[1, 2], [3]], [], [[4]]]
    assert flat.chunk_lengths.tolist() == [2, 1, 1]
    assert flat.chunk_end_per_position().tolist() == [2, 2, 3, 4]
    assert flat.chunk_index_per_position().tolist() == [0, 0, 1, 2]


def test_flat_chunks_empty():
    flat = FlatChunks.from_documents([])
    assert flat.total_tokens == 0
    assert flat.n_chunks == 0
    assert flat.n_documents == 0
    assert flat.doc_offsets.tolist() == [0]
    assert flat.longest_chunk == 0


def test_flat_chunks_concatenate_subset_and_keep_tokens_match_encoding():
    rng = random.Random(3)
    for _ in range(50):
        documents = [[[rng.randrange(9) for _ in range(rng.randint(0, 5))]
                      for _ in range(rng.randint(0, 4))]
                     for _ in range(rng.randint(0, 10))]
        whole = FlatChunks.from_documents(documents)
        cut = rng.randint(0, len(documents))
        parts = [FlatChunks.from_documents(documents[:cut]),
                 FlatChunks.from_documents([]),
                 FlatChunks.from_documents(documents[cut:])]
        keep = np.asarray([rng.random() < 0.5 for _ in documents], dtype=bool)
        kept_tokens = np.asarray([rng.random() < 0.7 for _ in whole.tokens],
                                 dtype=bool)
        tokens = iter(kept_tokens.tolist())
        for built, expected in (
                (FlatChunks.concatenate(parts), whole),
                (whole.subset(keep), FlatChunks.from_documents(
                    [doc for doc, kept in zip(documents, keep) if kept])),
                (whole.keep_tokens(kept_tokens), FlatChunks.from_documents(
                    [[[w for w in chunk if next(tokens)] for chunk in doc
                      if chunk] for doc in documents]))):
            assert built.tokens.dtype == np.int32
            for name in ("tokens", "offsets", "doc_offsets"):
                assert getattr(built, name).tolist() == \
                    getattr(expected, name).tolist()


@pytest.mark.parametrize("tokens, offsets, doc_offsets", [
    ([1, 2, 3], [0, 2, 1, 3], [0, 3]),      # offsets decrease
    ([1, 2, 3], [0, 2, 2, 3], [0, 3]),      # an empty chunk
    ([1, 2, 3], [1, 3], [0, 1]),            # does not start at 0
    ([1, 2, 3], [0, 2], [0, 1]),            # does not end at len(tokens)
    ([1, 2, 3], [0, 2, 3], [0, 3, 2]),      # document offsets decrease
    ([1, 2, 3], [0, 2, 3], [0, 3]),         # beyond the chunk count
    ([1, 2, 3], [0, 2, 3], [1, 2]),         # does not start at 0
    ([1, -2, 3], [0, 2, 3], [0, 2]),        # a negative token id
    ([1.0, 2.0], [0, 2], [0, 1]),           # not integers
])
def test_flat_chunks_from_arrays_rejects_malformed_buffers(tokens, offsets,
                                                          doc_offsets):
    with pytest.raises(ValueError):
        FlatChunks.from_arrays(np.asarray(tokens), np.asarray(offsets),
                               np.asarray(doc_offsets))


# -- Algorithm 1 equivalence ----------------------------------------------------------
@pytest.mark.parametrize("dataset", ["dblp-titles", "dblp-abstracts",
                                     "yelp-reviews"])
def test_mining_engines_match_on_datasets(dataset):
    corpus = prepared_corpus(dataset)
    for min_support in (2, 5, 10):
        for max_length in (None, 2, 3):
            assert_mining_equal(
                mine(corpus, "reference", min_support, max_length),
                mine(corpus, "numpy", min_support, max_length))


def test_mining_engines_match_on_random_corpora():
    rng = random.Random(0)
    for _ in range(150):
        corpus = random_corpus(rng)
        min_support = rng.choice([1, 2, 3])
        max_length = rng.choice([None, 1, 2, 4])
        assert_mining_equal(
            mine(corpus, "reference", min_support, max_length),
            mine(corpus, "numpy", min_support, max_length))


def test_mining_engines_match_on_empty_and_degenerate_corpora():
    for corpus in (Corpus(), ):
        assert_mining_equal(mine(corpus, "reference"), mine(corpus, "numpy"))
    singleton = Corpus(FlatChunks.from_documents([[[0]]]))
    assert_mining_equal(mine(singleton, "reference", 1),
                        mine(singleton, "numpy", 1))


def test_auto_engine_is_numpy_and_identical():
    corpus = prepared_corpus(n_documents=120)
    auto = mine(corpus, "auto")
    assert FrequentPhraseMiner(PhraseMiningConfig(engine="auto")).engine == "numpy"
    assert_mining_equal(mine(corpus, "reference"), auto)


# -- Algorithm 2 equivalence ----------------------------------------------------------
def segment_with(corpus, mining, engine, threshold=5.0, cap=None):
    """Segment ``corpus`` with the given engine."""
    return CorpusSegmenter(mining, PhraseConstructionConfig(
        significance_threshold=threshold, max_phrase_words=cap,
        engine=engine)).segment(corpus)


def assert_partitions_equal(reference, fast):
    """Both segmentations produced identical per-document partitions."""
    assert len(reference) == len(fast)
    for ref_doc, fast_doc in zip(reference, fast):
        assert ref_doc.phrases == fast_doc.phrases
        assert ref_doc.doc_id == fast_doc.doc_id


@pytest.mark.parametrize("dataset", ["dblp-titles", "dblp-abstracts",
                                     "yelp-reviews"])
def test_segmentation_engines_match_on_datasets(dataset):
    corpus = prepared_corpus(dataset)
    mining = mine(corpus, "numpy")
    for threshold in (-2.0, 0.0, 2.0, 5.0):
        for cap in (None, 1, 2, 3):
            reference = segment_with(corpus, mining, "reference", threshold,
                                     cap)
            for engine in CHECKED_ENGINES:
                assert_partitions_equal(
                    reference,
                    segment_with(corpus, mining, engine, threshold, cap))


def test_segmentation_engines_match_on_random_corpora():
    rng = random.Random(3)
    for _ in range(150):
        corpus = random_corpus(rng)
        mining = mine(corpus, "numpy", min_support=rng.choice([1, 2, 3]))
        if mining.total_tokens == 0:
            continue
        threshold = rng.choice([-1.0, 0.0, 1.0, 5.0])
        cap = rng.choice([None, 1, 2, 3])
        reference = segment_with(corpus, mining, "reference", threshold, cap)
        for engine in CHECKED_ENGINES:
            assert_partitions_equal(
                reference, segment_with(corpus, mining, engine, threshold, cap))


def test_segment_document_matches_batched_segment():
    corpus = prepared_corpus(n_documents=150)
    mining = mine(corpus, "numpy")
    for engine in CHECKED_ENGINES:
        segmenter = CorpusSegmenter(mining,
                                    PhraseConstructionConfig(engine=engine))
        batched = segmenter.segment(corpus)
        for doc in corpus:
            assert (segmenter.segment_document(doc.chunks,
                                               doc_id=doc.doc_id).phrases
                    == batched[doc.doc_id].phrases)


def test_serving_sized_batches_match_reference():
    """Many 1-4-document batches through ``TopicInferencer.segment_texts``
    (the serving layer's shape) partition identically on every engine."""
    generated = load_dataset("dblp-titles", n_documents=600, seed=5)
    pipeline = ToPMine(ToPMineConfig())
    corpus = pipeline.preprocess(generated.texts[:450])
    mining = mine(corpus, "numpy")
    inferencers = {
        engine: TopicInferencer(None, CorpusSegmenter(
            mining, PhraseConstructionConfig(engine=engine)),
            corpus.vocabulary, pipeline.config.preprocess)
        for engine in {"reference", *CHECKED_ENGINES}}
    held_out = generated.texts[450:]
    rng = random.Random(13)
    start, n_multiword = 0, 0
    while start < len(held_out):
        batch = held_out[start:start + rng.randint(1, 4)]
        start += len(batch)
        reference = inferencers["reference"].segment_texts(batch)
        n_multiword += sum(len(p) > 1 for doc in reference[0] for p in doc)
        for engine in CHECKED_ENGINES:
            assert inferencers[engine].segment_texts(batch) == reference
    assert n_multiword > 10  # the batches actually exercised merging


def test_indexed_scorer_matches_reference_scores_bitwise():
    corpus = prepared_corpus(n_documents=200)
    mining = mine(corpus, "numpy")
    reference = SignificanceScorer.from_mining_result(mining)
    indexed = IndexedSignificanceScorer.from_mining_result(mining)
    checked = 0
    for phrase in indexed.phrases:
        if len(phrase) < 2:
            continue
        for split in range(1, len(phrase)):
            left, right = phrase[:split], phrase[split:]
            left_id = indexed.id_of.get(left)
            right_id = indexed.id_of.get(right)
            if left_id is None or right_id is None:
                continue
            significance, merged_id = indexed.pair_score(left_id, right_id)
            # Bit-identical, not approximately equal: construction decisions
            # depend on exact comparisons.
            assert significance == reference.significance(left, right)
            assert indexed.phrases[merged_id] == phrase
            checked += 1
    assert checked > 50  # the corpus actually exercised the table
    assert indexed.pair_score(-1, 0) == (float("-inf"), -1)


# -- satellite: construction cap regression ------------------------------------------
def brute_force_construct(chunk, scorer, threshold, max_words):
    """Recompute-everything greedy oracle for Algorithm 2.

    At every step, score *all* adjacent pairs whose merge respects the cap
    and apply the most significant one (leftmost on ties) while it clears
    the threshold.  The heap-based constructors must match this partition —
    in particular, a merge skipped by ``max_phrase_words`` must not stop
    merging elsewhere in the chunk.
    """
    phrases = [(w,) for w in chunk]
    while len(phrases) > 1:
        best_index, best_significance = None, float("-inf")
        for i in range(len(phrases) - 1):
            if (max_words is not None
                    and len(phrases[i]) + len(phrases[i + 1]) > max_words):
                continue
            significance = scorer.significance(phrases[i], phrases[i + 1])
            if significance > best_significance:
                best_index, best_significance = i, significance
        if best_index is None or best_significance < threshold:
            break
        phrases[best_index:best_index + 2] = [
            phrases[best_index] + phrases[best_index + 1]]
    return phrases


def test_capped_construction_pins_expected_partition():
    """Regression: a cap-skipped merge must not terminate merging early.

    The chunk ``a b c d`` has three significant pairs; with
    ``max_phrase_words=2`` the top-scoring follow-up merges are blocked but
    the remaining pair-merges must still be applied, yielding the pinned
    two-bigram partition.
    """
    counts = {
        (0,): 100, (1,): 100, (2,): 100, (3,): 100,
        (0, 1): 60, (1, 2): 50, (2, 3): 55,
        (0, 1, 2): 40, (0, 1, 2, 3): 30, (1, 2, 3): 35,
    }
    scorer = SignificanceScorer(HashCounter(counts), 1000)
    config = PhraseConstructionConfig(significance_threshold=1.0,
                                      max_phrase_words=2)
    result = PhraseConstructor(scorer, config).construct([0, 1, 2, 3])
    # (0,1) merges first (highest significance), then (2,3); every longer
    # merge is cap-blocked.  Nothing terminates early.
    assert result.phrases == [(0, 1), (2, 3)]
    assert result.phrases == brute_force_construct(
        [0, 1, 2, 3], scorer, 1.0, 2)


def test_capped_construction_matches_brute_force_oracle():
    """Every constructor matches the oracle across random capped runs."""
    rng = random.Random(11)
    for _ in range(200):
        corpus = random_corpus(rng, max_vocab=4)
        mining = mine(corpus, "numpy", min_support=rng.choice([1, 2]))
        if mining.total_tokens == 0:
            continue
        scorer = SignificanceScorer.from_mining_result(mining)
        threshold = rng.choice([0.0, 1.0, 3.0])
        cap = rng.choice([2, 3, 4])
        config = PhraseConstructionConfig(significance_threshold=threshold,
                                          max_phrase_words=cap)
        chunk = [rng.randrange(4) for _ in range(rng.randint(2, 7))]
        expected = brute_force_construct(chunk, scorer, threshold, cap)
        assert PhraseConstructor(scorer, config).construct(chunk).phrases == expected
        for engine in CHECKED_ENGINES:
            fast = CorpusSegmenter(mining, PhraseConstructionConfig(
                significance_threshold=threshold, max_phrase_words=cap,
                engine=engine)).segment_document([chunk])
            assert fast.phrases == expected


# -- satellite: support scaling uses the mining-visible token count -------------------
def test_scaled_support_uses_chunked_token_count():
    """``scaled_to_corpus`` must scale by what mining sees and reports.

    On punctuation-heavy text the chunked token count that mining actually
    consumes (``FrequentPhraseMiningResult.total_tokens``) is far below the
    raw token count of the documents; the support threshold must follow the
    former exactly.
    """
    from repro.text.tokenizer import tokenize

    texts = ["data, mining; systems! query? (processing)." * 4] * 50
    corpus = ToPMine(ToPMineConfig()).preprocess(texts)
    visible = corpus.num_tokens
    raw = sum(len(tokenize(text)) for text in texts)
    assert visible < raw / 2  # punctuation-heavy: the two diverge widely

    config = PhraseMiningConfig.scaled_to_corpus(
        corpus, support_per_million_tokens=1e5, minimum=1)
    result = FrequentPhraseMiner(config).mine(corpus)
    assert result.total_tokens == visible
    assert config.min_support == max(1, int(round(1e5 * visible / 1e6)))


def test_mining_token_count_skips_empty_chunks():
    corpus = Corpus(FlatChunks.from_documents([[[1, 2], [], [3]], []]))
    assert corpus.num_tokens == 3
    assert mine(corpus, "numpy", 1).total_tokens == 3
    assert mine(corpus, "reference", 1).total_tokens == 3


# -- significance guard ---------------------------------------------------------------
def test_non_finite_threshold_falls_back_to_reference_engine():
    corpus = prepared_corpus(n_documents=80)
    mining = mine(corpus, "numpy", min_support=2)
    config = PhraseConstructionConfig(
        significance_threshold=-math.inf, engine="auto")
    segmenter = CorpusSegmenter(mining, config)
    assert segmenter.engine == "reference"
    segmented = segmenter.segment(corpus)
    assert segmented.num_tokens == corpus.num_tokens


# -- token-id range guard -------------------------------------------------------------
def test_out_of_range_token_ids_raise_on_every_engine():
    """A negative id once wrapped around a batched engine's ``word_id``
    table (merging where the reference did not), and an id >= 2**31
    overflowed the flat ``int32`` buffer; every engine now rejects both."""
    corpus = prepared_corpus(n_documents=200)
    mining = mine(corpus, "numpy")
    scorer = IndexedSignificanceScorer.from_mining_result(mining)
    # The most significant frequent bigram, merged at threshold 0.
    (a, b), significance = max(
        ((scorer.phrases[left] + scorer.phrases[right], sig)
         for (left, right), (sig, _) in scorer.pair_table.items()
         if len(scorer.phrases[left]) == len(scorer.phrases[right]) == 1),
        key=lambda item: item[1])
    assert significance > 0
    wrapped = a - (scorer.vocab_bound + 1)
    for engine in {"reference", *CHECKED_ENGINES}:
        segmenter = CorpusSegmenter(mining, PhraseConstructionConfig(
            significance_threshold=0.0, engine=engine))
        assert segmenter.segment_document([[a, b]]).phrases == [(a, b)]
        for chunk in ([wrapped, b], [a, 2**31]):
            with pytest.raises(ValueError, match=r"\[0, 2147483647\]"):
                segmenter.segment_document([chunk])
            with pytest.raises(ValueError, match="token ids"):
                segmenter.segment_documents([[[a, b]], [chunk]])
