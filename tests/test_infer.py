"""Fold-in inference: engine equivalence, determinism, and semantics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.infer import InferenceConfig, TopicInferencer
from repro.io.artifacts import ArtifactError, load_bundle, save_bundle
from repro.topicmodel import ckernel, gibbs
from repro.topicmodel.gibbs import resolve_engine

requires_c_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason=f"C kernel unavailable: {ckernel.load_error()}")

ENGINES = ["reference", pytest.param("c", marks=requires_c_kernel)]


@pytest.fixture(scope="module")
def inferencer(model_bundle):
    return model_bundle.inferencer()


@pytest.fixture(scope="module")
def unseen_texts():
    # Unseen documents leaning on distinct dblp-titles topics.
    return [
        "support vector machine training data and feature selection",
        "natural language processing for machine translation and speech recognition",
        "association rules and frequent itemsets for data mining over data streams",
        "source code generation for java programs in a programming language",
    ]


def test_fold_in_engines_resolve_through_resolve_engine():
    assert gibbs.ENGINES == ("auto", "c", "reference")
    assert InferenceConfig().engine == "auto"
    expected = "c" if ckernel.kernel_available() else "reference"
    assert resolve_engine("auto") == expected
    assert resolve_engine("reference") == "reference"
    if ckernel.kernel_available():
        assert resolve_engine("c") == "c"
    else:
        with pytest.raises(RuntimeError, match="kernel is unavailable"):
            resolve_engine("c")
    for engine in ("batch", "numpy", "cuda"):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(engine)


@requires_c_kernel
def test_engines_identical_under_fixed_seed(inferencer, unseen_texts):
    """Both fold-in engines must agree bit-for-bit under one seed."""
    fast, reference = (
        inferencer.infer_texts(
            unseen_texts, InferenceConfig(n_iterations=25, seed=3, engine=engine))
        for engine in ("c", "reference"))
    assert np.array_equal(fast.theta, reference.theta)
    for a, b in zip(fast.documents, reference.documents):
        assert np.array_equal(a.clique_topics, b.clique_topics)
        assert a.phrases == b.phrases


@requires_c_kernel
@pytest.mark.parametrize("chunk", [1, 40])
def test_chunked_uniform_draws_match_the_reference(inferencer, unseen_texts,
                                                   monkeypatch, chunk):
    """The C engine draws its uniforms a bounded chunk of whole sweeps at a
    time (one sweep per chunk at ``chunk=1``); chunk boundaries must not
    change the stream."""
    import repro.core.infer as infer_module

    monkeypatch.setattr(infer_module, "_UNIFORM_CHUNK", chunk)
    fast, reference = (
        inferencer.infer_texts(
            unseen_texts, InferenceConfig(n_iterations=7, seed=5, engine=engine))
        for engine in ("c", "reference"))
    assert np.array_equal(fast.theta, reference.theta)
    for a, b in zip(fast.documents, reference.documents):
        assert np.array_equal(a.clique_topics, b.clique_topics)


def test_grouped_inference_matches_solo_runs(inferencer, unseen_texts):
    """One batched multi-request pass must be bit-identical to running each
    request alone with its own seed (the micro-batching contract)."""
    groups = [unseen_texts[:2], unseen_texts[2:3], [], unseen_texts[3:]]
    seeds = [11, 22, 33, 44]
    config = InferenceConfig(n_iterations=20)
    grouped = inferencer.infer_texts_grouped(groups, seeds, config)
    assert len(grouped) == len(groups)
    for texts, seed, result in zip(groups, seeds, grouped):
        solo = inferencer.infer_texts(
            texts, InferenceConfig(n_iterations=20, seed=seed, engine="reference"))
        assert np.array_equal(result.theta, solo.theta)
        for a, b in zip(result.documents, solo.documents):
            assert np.array_equal(a.clique_topics, b.clique_topics)
            assert a.phrases == b.phrases
            assert a.n_unknown_tokens == b.n_unknown_tokens


def test_grouped_inference_validates_arguments(inferencer, unseen_texts):
    with pytest.raises(ValueError, match="groups but"):
        inferencer.infer_texts_grouped([unseen_texts], [1, 2])
    with pytest.raises(ValueError, match="unknown engine"):
        inferencer.infer_texts_grouped([unseen_texts], [1],
                                       InferenceConfig(engine="batch"))


def test_segment_texts_matches_infer_segmentation(inferencer, unseen_texts):
    """segment_texts must return exactly the segmentation fold-in uses."""
    phrases, unknown = inferencer.segment_texts(unseen_texts)
    result = inferencer.infer_texts(unseen_texts, InferenceConfig(seed=0))
    assert phrases == [doc.phrases for doc in result.documents]
    assert unknown == [doc.n_unknown_tokens for doc in result.documents]


def test_fold_in_exercises_multiword_cliques(inferencer, unseen_texts):
    result = inferencer.infer_texts(unseen_texts, InferenceConfig(seed=0))
    multiword = sum(1 for doc in result.documents
                    for phrase in doc.phrases if len(phrase) >= 2)
    assert multiword > 0, "test corpus should segment into multi-word cliques"


def test_deterministic_under_fixed_seed(inferencer, unseen_texts):
    config = InferenceConfig(n_iterations=20, seed=42)
    first = inferencer.infer_texts(unseen_texts, config)
    second = inferencer.infer_texts(unseen_texts, config)
    assert np.array_equal(first.theta, second.theta)
    for a, b in zip(first.documents, second.documents):
        assert np.array_equal(a.clique_topics, b.clique_topics)


def test_seed_changes_assignments(inferencer, unseen_texts):
    first = inferencer.infer_texts(unseen_texts, InferenceConfig(seed=1))
    second = inferencer.infer_texts(unseen_texts, InferenceConfig(seed=2))
    assert any(not np.array_equal(a.clique_topics, b.clique_topics)
               for a, b in zip(first.documents, second.documents))


def test_theta_shape_and_normalisation(model_bundle, inferencer, unseen_texts):
    result = inferencer.infer_texts(unseen_texts, InferenceConfig(seed=5))
    assert result.theta.shape == (len(unseen_texts), model_bundle.n_topics)
    assert np.allclose(result.theta.sum(axis=1), 1.0)
    assert (result.theta > 0).all()


def test_topical_documents_land_on_topical_topics(model_bundle, inferencer):
    """A document made of one topic's signature phrases should fold onto the
    topic that owns those phrases in the trained model."""
    visualization = model_bundle.visualization(n_phrases=10)
    # Pick the topic owning "data mining" (present in the dblp-titles spec).
    owners = [k for k, phrases in enumerate(visualization.top_phrases)
              if "data mining" in phrases]
    assert owners, "trained model should surface 'data mining' as a topical phrase"
    text = ("data mining association rules frequent itemsets. "
            "data mining time series data streams. " * 3)
    result = inferencer.infer_texts([text], InferenceConfig(n_iterations=40, seed=9))
    assert int(np.argmax(result.theta[0])) in owners


def test_rare_word_filtering_matches_training():
    """With min_word_frequency > 1, inference must drop the same rare words
    training dropped (they are in the vocabulary but not in the model)."""
    from repro import ModelBundle, ToPMine, ToPMineConfig
    from repro.text.preprocess import PreprocessConfig

    texts = ["alpha beta gamma delta"] * 15 + ["raretoken alpha beta"]
    config = ToPMineConfig(
        n_topics=2, min_support=3, n_iterations=5, seed=1,
        preprocess=PreprocessConfig(stem=False, remove_stop_words=False,
                                    min_word_frequency=2))
    result = ToPMine(config).fit(texts)
    bundle = ModelBundle.from_result(result, config)
    assert "raretoken" in bundle.vocabulary  # id exists, but trained as rare

    inference = bundle.infer_texts(["raretoken alpha beta"],
                                   InferenceConfig(n_iterations=5, seed=2))
    doc = inference.documents[0]
    assert doc.n_unknown_tokens == 1  # raretoken dropped, like in training
    token_ids = [w for phrase in doc.phrases for w in phrase]
    assert bundle.vocabulary.id_of("raretoken") not in token_ids


def test_unknown_tokens_are_dropped_and_counted(inferencer):
    result = inferencer.infer_texts(
        ["zzzunknownzzz qqqneverseenqqq data mining"], InferenceConfig(seed=0))
    doc = result.documents[0]
    assert doc.n_unknown_tokens == 2
    assert doc.phrases, "known tokens should still be segmented"


def test_fully_unknown_document_gets_prior_theta(model_bundle, inferencer):
    result = inferencer.infer_texts(
        ["zzzunknownzzz qqqneverseenqqq"], InferenceConfig(seed=0))
    doc = result.documents[0]
    assert doc.phrases == []
    alpha = np.asarray(model_bundle.alpha, dtype=float)
    assert np.allclose(doc.theta, alpha / alpha.sum())


def test_infer_segmented_matches_text_path(model_bundle, inferencer, unseen_texts):
    """Feeding the text path's segmentation back through infer_segmented must
    reproduce the same fold-in exactly."""
    config = InferenceConfig(n_iterations=15, seed=21)
    by_text = inferencer.infer_texts(unseen_texts, config)
    phrase_docs = [doc.phrases for doc in by_text.documents]
    by_segments = inferencer.infer_segmented(phrase_docs, config)
    assert np.array_equal(by_text.theta, by_segments.theta)


def test_top_topics_ordering(inferencer, unseen_texts):
    result = inferencer.infer_texts(unseen_texts, InferenceConfig(seed=4))
    for doc in result.documents:
        tops = doc.top_topics(3)
        probabilities = [p for _, p in tops]
        assert probabilities == sorted(probabilities, reverse=True)


@pytest.mark.parametrize("engine", ENGINES)
def test_underflowed_posterior_falls_back_uniformly_and_identically(engine):
    """A clique long enough to underflow Eq. 7 to exactly 0 must fall back
    to an unbiased uniform draw — identically in both engines."""
    from repro.topicmodel.lda import TopicModelState

    n_topics, vocabulary = 5, 10
    state = TopicModelState(
        topic_word_counts=np.zeros((vocabulary, n_topics), dtype=np.int64),
        doc_topic_counts=np.zeros((1, n_topics), dtype=np.int64),
        topic_counts=np.full(n_topics, 10**7, dtype=np.int64),
        alpha=np.full(n_topics, 0.5), beta=0.01)
    inferencer = TopicInferencer(state, segmenter=None)
    giant_clique = [[tuple([0] * 40)]]  # (0.01 / 1e7)^40 underflows to 0.0

    assigned = set()
    for seed in range(12):
        results = [
            inferencer.infer_segmented(
                giant_clique,
                InferenceConfig(n_iterations=3, seed=seed, engine=name))
            for name in ("reference", engine)
        ]
        for other in results[1:]:
            assert np.array_equal(results[0].documents[0].clique_topics,
                                  other.documents[0].clique_topics)
        assigned.add(int(results[0].documents[0].clique_topics[0]))
    assert len(assigned) > 1, "fallback must not be biased to one topic"


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.01), (np.nan, 0.01),
                                         (0.5, -0.01), (0.5, np.inf)])
def test_fold_in_sampler_rejects_degenerate_priors(model_bundle, alpha, beta):
    """The priors are frozen with the counts, so they are checked once, when
    the inferencer is built, for every engine alike."""
    state = model_bundle.state()
    state.alpha = np.full(model_bundle.n_topics, alpha)
    state.beta = beta
    with pytest.raises(ValueError, match="alpha > 0 and beta > 0"):
        TopicInferencer(state, segmenter=None)


def test_inferencer_rejects_a_vocabulary_larger_than_the_model(model_bundle):
    """Encoded text must never index outside the frozen V x K counts."""
    state = model_bundle.state()
    state.topic_word_counts = state.topic_word_counts[:-1]
    with pytest.raises(ValueError, match="vocabulary has"):
        TopicInferencer(state, model_bundle.segmenter(),
                        vocabulary=model_bundle.vocabulary)


@requires_c_kernel
def test_fold_in_sampler_rejects_out_of_range_tokens(model_bundle, inferencer):
    vocabulary_size = model_bundle.topic_word_counts.shape[0]
    with pytest.raises(ValueError, match="token ids must be in"):
        inferencer.infer_segmented([[(vocabulary_size + 5,)]],
                                   InferenceConfig(engine="c"))


def test_inferencer_without_vocabulary_rejects_raw_text(model_bundle):
    inferencer = TopicInferencer(model_bundle.state(), model_bundle.segmenter(),
                                 vocabulary=None)
    with pytest.raises(RuntimeError, match="without a vocabulary"):
        inferencer.infer_texts(["some text"])


# Loads the bundle at argv[1], swaps in the topic counts saved at argv[2]
# (load_bundle rejects negative and non-integer counts, so the hostile
# counts reach the engines in memory) and folds one text in with each
# engine in argv[3:], printing one JSON line per engine: the θ rows, or
# the ValueError message.
_HOSTILE_CHILD = """
import json, sys
import numpy as np
from repro.core.infer import InferenceConfig
from repro.io.artifacts import load_bundle

bundle = load_bundle(sys.argv[1])
with np.load(sys.argv[2]) as hostile:
    bundle.topic_word_counts = hostile["topic_word_counts"]
    bundle.topic_counts = hostile["topic_counts"]
for engine in sys.argv[3:]:
    try:
        result = bundle.infer_texts(
            ["support vector machine training data and feature selection"],
            InferenceConfig(n_iterations=5, seed=1, engine=engine))
    except ValueError as exc:
        print(json.dumps({"engine": engine, "error": str(exc)}))
    else:
        print(json.dumps({"engine": engine, "theta": result.theta.tolist()}))
"""


def _hostile_counts(case, topic_word, topic_totals):
    if case == "float":
        return topic_word.astype(np.float64), topic_totals
    if case == "fortran":
        return np.asfortranarray(topic_word), topic_totals
    if case == "negative":
        topic_word = topic_word.copy()
        topic_word[0, 0] = -(2 ** 40)
        return topic_word, topic_totals
    return topic_word + 2 ** 62, topic_totals + 2 ** 62  # "huge"


@pytest.mark.parametrize("case", ["float", "fortran", "negative", "huge"])
def test_hostile_bundle_counts_fold_in_safely(model_bundle, tmp_path, case):
    """Bundles with float, Fortran-order, negative or ~2^62 counts either
    fold in to a finite θ or raise ValueError; the process never dies by
    signal inside the kernel.  Float and negative counts are also
    rejected on load."""
    clean = tmp_path / "clean.npz"
    save_bundle(clean, model_bundle)
    with np.load(clean) as archive:
        arrays = dict(archive)
    arrays["topic_word_counts"], arrays["topic_counts"] = _hostile_counts(
        case, arrays["topic_word_counts"], arrays["topic_counts"])
    hostile = tmp_path / f"{case}.npz"
    np.savez(hostile, **arrays)
    if case in ("float", "negative"):
        with pytest.raises(ArtifactError, match="topic_word_counts"):
            load_bundle(hostile)
    else:
        load_bundle(hostile)

    engines = ["reference"] + (["c"] if ckernel.kernel_available() else [])
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _HOSTILE_CHILD, str(clean), str(hostile),
         *engines],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [reply["engine"] for reply in replies] == engines
    for reply in replies:
        if case in ("float", "negative"):
            assert "error" in reply
        else:
            assert np.isfinite(reply["theta"]).all()
    if case == "fortran":
        # Same counts in another memory order: the same mixtures.
        expected = model_bundle.infer_texts(
            ["support vector machine training data and feature selection"],
            InferenceConfig(n_iterations=5, seed=1)).theta.tolist()
        assert all(reply["theta"] == expected for reply in replies)
