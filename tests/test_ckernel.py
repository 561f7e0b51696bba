"""The C training sweep on a corpus large enough to exercise its
prior-baked factors: many documents (so the per-document factor row is
rebuilt often), 3-4-token cliques (the j >= 1 Eq. 7 steps) and Minka
hyper-parameter updates (factor re-derivation)."""

import numpy as np
import pytest

from repro.core import phrase_lda
from repro.core.phrase_lda import PhraseLDA, PhraseLDAConfig
from repro.topicmodel import ckernel

pytestmark = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason=f"C kernel unavailable: {ckernel.load_error()}")

VOCABULARY_SIZE = 400


def make_long_clique_docs(n_docs=240, seed=5):
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        phrases = []
        for _ in range(int(rng.integers(4, 20))):
            size = int(rng.choice([1, 1, 2, 3, 3, 4, 4]))
            phrases.append(tuple(int(w) for w in
                                 rng.integers(0, VOCABULARY_SIZE, size=size)))
        docs.append(phrases)
    return docs


def test_c_sweep_matches_reference_and_keeps_factors_exact(monkeypatch):
    docs = make_long_clique_docs()
    sizes = {len(phrase) for doc in docs for phrase in doc}
    assert {3, 4} <= sizes

    captured = []

    class CapturingSampler(phrase_lda.CKernelSampler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            captured.append(self)

    monkeypatch.setattr(phrase_lda, "CKernelSampler", CapturingSampler)

    # Minka updates after sweeps 10 and 20; sweeps 21-25 then run on
    # factors the kernel itself maintained since the last rebuild.
    states = {}
    for engine in ("reference", "c"):
        config = PhraseLDAConfig(n_topics=9, n_iterations=25, seed=17,
                                 engine=engine, optimize_hyperparameters=True,
                                 hyper_optimize_interval=10, burn_in=4)
        states[engine] = PhraseLDA(config).fit(docs, VOCABULARY_SIZE)
    reference, fast = states["reference"], states["c"]

    for a, b in zip(reference.clique_assignments, fast.clique_assignments):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(reference.assignments, fast.assignments):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(reference.topic_word_counts,
                                  fast.topic_word_counts)
    np.testing.assert_array_equal(reference.doc_topic_counts,
                                  fast.doc_topic_counts)
    np.testing.assert_array_equal(reference.topic_counts, fast.topic_counts)
    assert reference.alpha.tobytes() == fast.alpha.tobytes()
    assert reference.beta == fast.beta != PhraseLDAConfig().beta

    (sampler,) = captured
    assert sampler.beta == fast.beta
    assert sampler.wfac.tobytes() == \
        (sampler.beta + sampler.topic_word).tobytes()
    assert sampler.tfac.tobytes() == \
        (sampler.beta * VOCABULARY_SIZE + sampler.topic_totals).tobytes()


def test_segment_kernel_refuses_an_undersized_buffer():
    """``run_segment`` sizes the kernel's scratch from the caller's
    ``longest``; the kernel measures the chunks itself and writes nothing
    into a buffer it would overrun."""
    from repro.text.flat import FlatChunks

    tables = ckernel.SegmentTables(
        word_id=np.array([0, 1, -1], dtype=np.int64),
        pair_keys=np.array([0 * 3 + 1], dtype=np.int64),
        pair_sigs=np.array([7.0]), pair_merged=np.array([2], dtype=np.int64),
        n_phrases=3)
    flat = FlatChunks.from_documents([[[0, 1, 0, 1, 5]], [[1]]])
    length, key = ckernel.run_segment(
        tables, flat.tokens, flat.offsets, flat.longest_chunk, 5.0, 9)
    # (0 1) (0 1) (5) | (1): heads carry the span length, the rest 0.
    assert length.tolist() == [2, 0, 2, 0, 1, 1]
    # Table ids at the heads; the rare word 5 gets n_phrases + 5.
    assert key[[0, 2, 4, 5]].tolist() == [2, 2, 3 + 5, 1]
    with pytest.raises(ValueError, match="longest"):
        ckernel.run_segment(tables, flat.tokens, flat.offsets, 2, 5.0, 9)
