"""Collapsed-Gibbs LDA pinned to fixed outputs on every training engine.

The expected values below are digests of the count matrices and topic
assignments (and the exact α, β floats) of fixed fits.  They pin LDA's
observable behaviour — including the per-token assignments an iteration
callback sees — so any change to how LDA is sampled must reproduce it bit
for bit on the ``reference`` and ``c`` engines alike.
"""

import hashlib

import numpy as np
import pytest

from repro.core.phrase_lda import PhraseLDA, PhraseLDAConfig
from repro.text.corpus import Corpus
from repro.text.flat import FlatChunks
from repro.text.vocabulary import Vocabulary
from repro.topicmodel import ckernel
from repro.topicmodel.lda import LatentDirichletAllocation, LDAConfig

requires_c_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason=f"C kernel unavailable: {ckernel.load_error()}")

ENGINES = ["reference", pytest.param("c", marks=requires_c_kernel)]

N_WORDS = 30


def token_docs():
    """Fourteen bag-of-words documents over 30 word ids, two of them empty."""
    rng = np.random.default_rng(5)
    docs = [[int(w) for w in rng.integers(0, N_WORDS, size=int(rng.integers(1, 25)))]
            for _ in range(12)]
    docs.insert(3, [])
    docs.append([])
    return docs


def corpus_input():
    """The same documents as a chunked :class:`Corpus` whose vocabulary has
    five ids no document uses, so ``V`` comes from the corpus, not the data."""
    vocabulary = Vocabulary()
    for i in range(N_WORDS + 5):
        vocabulary.add(f"w{i}")
    return Corpus(FlatChunks.from_documents(
        [[doc[:4], doc[4:]] if len(doc) > 4 else [doc] for doc in token_docs()]),
        vocabulary=vocabulary)


def digest(arrays, dtype=np.int64):
    """Short SHA-256 over the shapes and ``dtype`` bytes of ``arrays``."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=dtype)
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


HYPEROPT = dict(optimize_hyperparameters=True, hyper_optimize_interval=4,
                burn_in=3)

# (input, hyperopt) -> digests of the final counts, the final assignments and
# the assignments each of the 12 callbacks saw, the final alpha and beta, and
# a digest of the (alpha, beta) each callback saw.
PINS = {
    ("tokens", False): dict(
        counts="5ddae0a4c78eaeb6", assignments="7c5ad941f57b3c28",
        callback_assignments=[
            "60e20f6642ebe11a", "68d16f5f6eb09a2c", "a9a7f613eea51117",
            "e90d1f26b7b8ee6e", "d2e005f6ff6c79e2", "bef0dbcad3e82ab1",
            "98b3405dd64963c1", "8ff1625b7478acde", "bb274fddc9b4f87a",
            "16967a57953187dd", "c04f3ddec35e9bc0", "7c5ad941f57b3c28"],
        alpha=[12.5, 12.5, 12.5, 12.5], beta=0.01,
        callback_hyper="ce452930bd8143ed"),
    ("tokens", True): dict(
        counts="16b8c726693d39f2", assignments="ab43eac0884c5c70",
        callback_assignments=[
            "60e20f6642ebe11a", "68d16f5f6eb09a2c", "a9a7f613eea51117",
            "e90d1f26b7b8ee6e", "9815523c4c334580", "ffa676ff32d9d87c",
            "2bdeb76354bd0695", "ba213c2626b4c430", "f048b35a6afcc78f",
            "8f1a43bb681468ff", "4a0264bf56dfd769", "ab43eac0884c5c70"],
        alpha=[10.3575772436944, 13.861570456509586, 13.779702561510371,
               15.122045050308385],
        beta=0.5830870182030594, callback_hyper="94e714060c68aa83"),
    ("corpus", False): dict(
        counts="d3d50c62e2b6a26c", assignments="7c5ad941f57b3c28",
        callback_assignments=[
            "60e20f6642ebe11a", "68d16f5f6eb09a2c", "a9a7f613eea51117",
            "e90d1f26b7b8ee6e", "d2e005f6ff6c79e2", "bef0dbcad3e82ab1",
            "98b3405dd64963c1", "8ff1625b7478acde", "bb274fddc9b4f87a",
            "16967a57953187dd", "c04f3ddec35e9bc0", "7c5ad941f57b3c28"],
        alpha=[12.5, 12.5, 12.5, 12.5], beta=0.01,
        callback_hyper="ce452930bd8143ed"),
    ("corpus", True): dict(
        counts="8998d30cb3f06659", assignments="1638acdb23113c60",
        callback_assignments=[
            "60e20f6642ebe11a", "68d16f5f6eb09a2c", "a9a7f613eea51117",
            "e90d1f26b7b8ee6e", "f56ce542195b369b", "20d9eb515c6f3546",
            "75a4cd731775a410", "a39b4988ff14aca6", "51bd7d340f2a9c7c",
            "621fdcd3c312dbc9", "e737795000d7d729", "1638acdb23113c60"],
        alpha=[11.926489009639099, 13.692792237468684, 12.533541155379476,
               16.78046996361454],
        beta=0.3450305329810617, callback_hyper="a624baa38e0e5482"),
}


def fit(engine, source, hyperopt):
    """Fit LDA and record what every iteration callback observes."""
    config = LDAConfig(n_topics=4, n_iterations=12, seed=3, engine=engine,
                       **(HYPEROPT if hyperopt else {}))
    seen = []
    hyper = []

    def callback(iteration, state):
        seen.append(digest(state.assignments))
        hyper.append(np.append(state.alpha, state.beta))

    model = LatentDirichletAllocation(config)
    if source == "corpus":
        state = model.fit(corpus_input(), callback=callback)
    else:
        state = model.fit(token_docs(), vocabulary_size=N_WORDS, callback=callback)
    return state, seen, hyper


@pytest.mark.parametrize("hyperopt", [False, True], ids=["fixed", "hyperopt"])
@pytest.mark.parametrize("source", ["tokens", "corpus"])
@pytest.mark.parametrize("engine", ENGINES)
def test_lda_fit_matches_pinned_output(engine, source, hyperopt):
    state, seen, hyper = fit(engine, source, hyperopt)
    pin = PINS[source, hyperopt]
    assert state.vocabulary_size == (N_WORDS + 5 if source == "corpus" else N_WORDS)
    assert digest([state.topic_word_counts, state.doc_topic_counts,
                   state.topic_counts]) == pin["counts"]
    assert digest(state.assignments) == pin["assignments"]
    assert [len(a) for a in state.assignments] == [len(d) for d in token_docs()]
    assert seen == pin["callback_assignments"]
    assert [float(a) for a in state.alpha] == pin["alpha"]
    assert float(state.beta) == pin["beta"]
    assert digest(hyper, dtype=np.float64) == pin["callback_hyper"]


@pytest.mark.parametrize("engine", ENGINES)
def test_callbacks_see_current_token_assignments(engine):
    """Each callback's per-token assignments agree with the counts at that
    iteration (they are the live state, not the initial draw)."""
    docs = token_docs()

    def callback(iteration, state):
        for d, (doc, assign) in enumerate(zip(docs, state.assignments)):
            counts = np.bincount(np.asarray(assign, dtype=np.int64), minlength=4)
            np.testing.assert_array_equal(counts, state.doc_topic_counts[d])

    LatentDirichletAllocation(
        LDAConfig(n_topics=4, n_iterations=5, seed=3, engine=engine)
    ).fit(docs, vocabulary_size=N_WORDS, callback=callback)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("bad_id", [-1, 3])
def test_every_engine_rejects_out_of_range_token_ids(engine, bad_id):
    """Token ids outside ``[0, V)`` raise the same ``ValueError`` on every
    engine, for PhraseLDA and for LDA, before any count is touched."""
    config = PhraseLDAConfig(n_topics=2, n_iterations=2, seed=0, engine=engine)
    with pytest.raises(ValueError, match=r"token ids must be in \[0, 3\)"):
        PhraseLDA(config).fit([[(0,), (bad_id, 1)]], vocabulary_size=3)
    with pytest.raises(ValueError, match=r"token ids must be in \[0, 3\)"):
        LatentDirichletAllocation(config).fit([[0, bad_id]], vocabulary_size=3)
