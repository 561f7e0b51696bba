"""Engine equivalence: the compiled sampler must reproduce the readable
reference sampler assignment-for-assignment under a fixed seed.
"""

import numpy as np
import pytest

from repro.core.phrase_lda import (
    PhraseLDA,
    PhraseLDAConfig,
    ReferencePhraseLDA,
    unigram_segmentation,
)
from repro.topicmodel import ckernel
from repro.topicmodel.gibbs import FlatPhraseCorpus, resolve_engine
from repro.topicmodel.lda import LatentDirichletAllocation, LDAConfig

requires_c_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason=f"C kernel unavailable: {ckernel.load_error()}")

FAST_ENGINES = [pytest.param("c", marks=requires_c_kernel)]
#: Cases whose behaviour does not depend on the engine run on both, so a
#: machine without a compiler still covers them.
ALL_ENGINES = ["reference"] + FAST_ENGINES


def make_phrase_docs(n_docs=40, seed=3):
    """Random segmented documents with a realistic clique-size mix."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        phrases = []
        for _ in range(int(rng.integers(3, 15))):
            size = int(rng.choice([1, 1, 1, 2, 2, 3]))
            phrases.append(tuple(int(w) for w in rng.integers(0, 120, size=size)))
        docs.append(phrases)
    return docs


def fit_phrase_lda(engine, docs, seed=11, **overrides):
    config = PhraseLDAConfig(n_topics=7, n_iterations=25, seed=seed,
                             engine=engine, **overrides)
    return PhraseLDA(config).fit(docs, vocabulary_size=120)


def assert_states_equal(reference, other):
    assert len(reference.clique_assignments) == len(other.clique_assignments)
    for a, b in zip(reference.clique_assignments, other.clique_assignments):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(reference.topic_word_counts,
                                  other.topic_word_counts)
    np.testing.assert_array_equal(reference.doc_topic_counts,
                                  other.doc_topic_counts)
    np.testing.assert_array_equal(reference.topic_counts, other.topic_counts)
    for a, b in zip(reference.assignments, other.assignments):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_phrase_lda_engines_match_reference(engine):
    docs = make_phrase_docs()
    reference = fit_phrase_lda("reference", docs)
    fast = fit_phrase_lda(engine, docs)
    assert_states_equal(reference, fast)


@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_phrase_lda_engines_match_with_hyperopt(engine):
    docs = make_phrase_docs(n_docs=25, seed=9)
    kwargs = dict(optimize_hyperparameters=True, hyper_optimize_interval=10,
                  burn_in=4)
    reference = fit_phrase_lda("reference", docs, **kwargs)
    fast = fit_phrase_lda(engine, docs, **kwargs)
    assert_states_equal(reference, fast)
    np.testing.assert_allclose(reference.alpha, fast.alpha)
    assert reference.beta == pytest.approx(fast.beta)


def make_repeated_word_docs(n_docs=30, n_words=4, seed=12):
    """Documents over a tiny vocabulary whose cliques repeat words: each
    phrase is one of (w), (w, w), (w, v), (w, v, w), (v, w, w)."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        phrases = []
        for _ in range(int(rng.integers(3, 9))):
            w, v = (int(x) for x in rng.choice(n_words, size=2, replace=False))
            shapes = [(w,), (w, w), (w, v), (w, v, w), (v, w, w)]
            phrases.append(shapes[int(rng.integers(len(shapes)))])
        docs.append(phrases)
    return docs


@pytest.mark.parametrize("engine", FAST_ENGINES)
@pytest.mark.parametrize("hyper", [False, True], ids=["fixed", "hyperopt"])
def test_engines_match_on_repeated_words_once_converged(engine, hyper):
    """200 sweeps on a 4-word vocabulary: a word occurring twice in a
    clique is removed twice from its count, and after burn-in most draws
    give a clique back the topic it had -- the draws the kernel settles
    without touching a count."""
    docs = make_repeated_word_docs()
    kwargs = dict(n_topics=3, n_iterations=200, seed=3)
    if hyper:
        kwargs.update(optimize_hyperparameters=True,
                      hyper_optimize_interval=25, burn_in=10)
    reference = PhraseLDA(PhraseLDAConfig(engine="reference", **kwargs)).fit(
        docs, vocabulary_size=4)
    previous, keeps = [], []

    def callback(iteration, state):
        current = np.concatenate(state.clique_assignments)
        if iteration >= 150:
            keeps.append(np.mean(current == previous[-1]))
        previous.append(current.copy())

    fast = PhraseLDA(PhraseLDAConfig(engine=engine, **kwargs)).fit(
        docs, vocabulary_size=4, callback=callback)
    assert np.mean(keeps) > 0.7
    assert_states_equal(reference, fast)
    assert reference.alpha.tobytes() == fast.alpha.tobytes()
    assert reference.beta == fast.beta


@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_lda_engines_match_reference(engine):
    rng = np.random.default_rng(4)
    docs = [[int(w) for w in rng.integers(0, 90, size=int(rng.integers(10, 40)))]
            for _ in range(35)]
    states = {}
    for name in ("reference", engine):
        model = LatentDirichletAllocation(
            LDAConfig(n_topics=6, n_iterations=20, seed=2, engine=name))
        states[name] = model.fit(docs, vocabulary_size=90)
    for a, b in zip(states["reference"].assignments, states[engine].assignments):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(states["reference"].topic_word_counts,
                                  states[engine].topic_word_counts)


def test_lda_is_special_case_of_phrase_lda():
    """Paper Section 5: all-singleton PhraseLDA is exactly collapsed LDA."""
    rng = np.random.default_rng(8)
    docs = [[int(w) for w in rng.integers(0, 50, size=20)] for _ in range(20)]
    lda_state = LatentDirichletAllocation(
        LDAConfig(n_topics=4, n_iterations=15, seed=6, engine="reference")
    ).fit(docs, vocabulary_size=50)
    plda_state = PhraseLDA(
        PhraseLDAConfig(n_topics=4, n_iterations=15, seed=6, engine="reference")
    ).fit(unigram_segmentation(docs), vocabulary_size=50)
    for a, b in zip(lda_state.assignments, plda_state.assignments):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(lda_state.topic_word_counts,
                                  plda_state.topic_word_counts)


def test_reference_phrase_lda_class_pins_engine():
    model = ReferencePhraseLDA(PhraseLDAConfig(n_topics=3, n_iterations=5, seed=0))
    assert model.config.engine == "reference"
    state = model.fit([[(0, 1), (2,)], [(1,), (2, 0)]], vocabulary_size=3)
    assert state.n_topics == 3


@requires_c_kernel
def test_c_engine_rejects_degenerate_priors():
    """The C sampler has no zero-total fallback, so beta=0 / alpha=0 must
    be refused instead of silently diverging from the reference."""
    docs = [[(0,), (1, 2)]]
    for bad in (dict(beta=0.0), dict(alpha=0.0)):
        with pytest.raises(ValueError, match="reference"):
            fit_phrase_lda("c", docs, **bad)


def test_reference_engine_accepts_zero_priors():
    """The reference sampler has the uniform fallback; degenerate
    denominators warn, as in the seed implementation."""
    with np.errstate(invalid="ignore", divide="ignore"):
        state = fit_phrase_lda("reference", [[(0,), (1, 2)]], beta=0.0)
    assert state.n_topics == 7


@pytest.mark.parametrize("engine", ["auto"] + ALL_ENGINES)
@pytest.mark.parametrize("bad", [dict(alpha=float("nan")),
                                 dict(alpha=float("inf")),
                                 dict(beta=float("nan")),
                                 dict(beta=float("-inf"))],
                         ids=["alpha-nan", "alpha-inf", "beta-nan",
                              "beta-neg-inf"])
def test_fit_rejects_non_finite_priors(engine, bad):
    """A NaN or infinite prior would collapse every clique onto topic 0
    and save a bundle that fold-in refuses; fit refuses it up front."""
    with pytest.raises(ValueError, match="finite alpha and beta"):
        fit_phrase_lda(engine, make_phrase_docs(n_docs=5), **bad)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_engine_callbacks_see_token_assignments(engine):
    """Callbacks must observe populated per-token assignments (the
    init-time expansion, as with the reference engine), not an empty list."""
    docs = make_phrase_docs(n_docs=5, seed=1)
    observed = {}
    for name in ("reference", engine):
        lengths = []

        def callback(iteration, state):
            lengths.append([len(a) for a in state.assignments])

        config = PhraseLDAConfig(n_topics=7, n_iterations=10, seed=11,
                                 engine=name)
        PhraseLDA(config).fit(docs, vocabulary_size=120, callback=callback)
        observed[name] = lengths
    assert observed[engine] == observed["reference"]
    assert all(observed[engine][0])  # non-empty per-doc arrays


def test_vocabulary_less_segmented_corpus_keeps_empty_slots():
    from repro.core.segmentation import SegmentedCorpus

    corpus = SegmentedCorpus(FlatPhraseCorpus.from_phrases([[(0, 1), (), (2,)]]),
                             vocabulary=None)
    state = PhraseLDA(PhraseLDAConfig(n_topics=2, n_iterations=5, seed=0)).fit(corpus)
    assert len(state.clique_assignments[0]) == 3
    assert state.vocabulary_size == 3


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_engines_reject_out_of_range_token_ids(engine):
    """Negative ids would wrap silently (and corrupt memory in the C
    kernel); both OOB directions must fail loudly at init."""
    for docs in ([[(0,), (-1,)]], [[(0,), (5,)]]):
        with pytest.raises((ValueError, IndexError)):
            PhraseLDA(PhraseLDAConfig(n_topics=2, n_iterations=2, seed=0,
                                      engine=engine)).fit(docs, vocabulary_size=2)


def test_resolve_engine_validates():
    for engine in ("fortran", "numpy"):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(engine)
    expected = "c" if ckernel.kernel_available() else "reference"
    assert resolve_engine("auto") == expected
    assert resolve_engine("reference") == "reference"


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_empty_and_trivial_corpora(engine):
    state = fit_phrase_lda(engine, [])
    assert state.clique_assignments == []
    state = fit_phrase_lda(engine, [[], [(1,)]])
    assert len(state.clique_assignments) == 2
    assert len(state.clique_assignments[0]) == 0
    assert len(state.clique_assignments[1]) == 1


def test_segmented_corpus_empty_phrases_keep_alignment():
    """An empty phrase in a SegmentedCorpus keeps its assignment slot so
    ``clique_assignments[d]`` stays aligned with ``doc.phrases`` (the
    visualizer's topical-frequency counting zips the two)."""
    from repro.core.segmentation import SegmentedCorpus
    from repro.text.vocabulary import Vocabulary

    vocabulary = Vocabulary()
    for word in ("alpha", "beta", "gamma"):
        vocabulary.add(word)
    corpus = SegmentedCorpus(FlatPhraseCorpus.from_phrases([
        [(0, 1), (), (2,), (1, 2)], [(2,), (0,)]]), vocabulary=vocabulary)
    assert corpus.documents[0].phrases == [(0, 1), (), (2,), (1, 2)]

    states = {}
    engines = ["reference"] + (["c"] if ckernel.kernel_available() else [])
    for engine in engines:
        model = PhraseLDA(PhraseLDAConfig(n_topics=3, n_iterations=20, seed=1,
                                          engine=engine))
        states[engine] = model.fit(corpus)
    for engine, state in states.items():
        # one slot per phrase, including the empty one
        assert [len(c) for c in state.clique_assignments] == [4, 2]
    for engine in engines[1:]:
        assert_states_equal(states["reference"], states[engine])

