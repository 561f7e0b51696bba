"""The C kernels: the training sweep on a corpus large enough to exercise
its prior-baked factors (many documents, so the per-document factor row is
rebuilt often; 3-4-token cliques, the j >= 1 Eq. 7 steps; Minka
hyper-parameter updates, factor re-derivation), the segmentation buffer
guard, and the build targets (native vs portable, the cache key, the
fallback)."""

import subprocess

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
    into a buffer it would overrun.  It returns the compacted partition."""
    from repro.text.flat import FlatChunks

    tables = ckernel.SegmentTables(
        word_id=np.array([0, 1, -1], dtype=np.int64),
        pair_keys=np.array([0 * 3 + 1], dtype=np.int64),
        pair_sigs=np.array([7.0]), pair_merged=np.array([2], dtype=np.int64),
        n_phrases=3)
    flat = FlatChunks.from_documents([[[0, 1, 0, 1, 5]], [[1]]])
    offsets, keys, chunk_first = ckernel.run_segment(
        tables, flat.tokens, flat.offsets, flat.longest_chunk, 5.0, 9)
    # (0 1) (0 1) (5) | (1): four cliques, the second chunk's from 3 on.
    assert offsets.tolist() == [0, 2, 4, 5, 6]
    assert chunk_first.tolist() == [0, 3, 4]
    # Table ids; the rare word 5 gets n_phrases + 5.
    assert keys.tolist() == [2, 2, 3 + 5, 1]
    with pytest.raises(ValueError, match="longest"):
        ckernel.run_segment(tables, flat.tokens, flat.offsets, 2, 5.0, 9)


def boundary_fold_in(n_docs=60, n_topics=7, n_words=50, seed=3):
    """One fold-in sweep whose every draw sits on a CDF boundary.

    The reference loop (the arithmetic of ``TopicInferencer``'s reference
    engine) picks, per clique, the smallest uniform ``u`` with ``u * total
    >= cum[k]`` for a chosen ``k``: where that product equals ``cum[k]``
    exactly, the draw is ``k``, and a kernel whose ``cum[k]`` came out one
    ulp lower draws ``k + 1``.  Returns the kernel's inputs and the
    reference's final assignments and counts.
    """
    from repro.topicmodel.gibbs import FlatPhraseCorpus

    rng = np.random.default_rng(seed)
    topic_word = rng.integers(0, 40, size=(n_words, n_topics))
    alpha = rng.uniform(0.05, 1.0, size=n_topics)
    beta = 0.01
    wfac = topic_word + beta
    tfac = topic_word.sum(axis=0) + beta * n_words
    flat = FlatPhraseCorpus.from_phrases([
        [tuple(rng.integers(0, n_words, size=int(rng.integers(1, 5))))
         for _ in range(int(rng.integers(1, 8)))] for _ in range(n_docs)])
    assign = rng.integers(0, n_topics, size=flat.n_cliques)
    doc_topic = np.zeros((n_docs, n_topics), dtype=np.int64)
    np.add.at(doc_topic, (np.repeat(flat.clique_doc, flat.clique_sizes()),
                          np.repeat(assign, flat.clique_sizes())), 1)

    expected_topic, expected = doc_topic.copy(), assign.copy()
    uniforms, exact = [], 0
    for g in range(flat.n_cliques):
        phrase = flat.tokens[flat.offsets[g]:flat.offsets[g + 1]]
        local = expected_topic[flat.clique_doc[g]]
        local[expected[g]] -= len(phrase)
        weights = np.ones(n_topics)
        for j, w in enumerate(phrase):
            weights *= alpha + local + j
            weights *= wfac[w]
            weights /= tfac + j
        cumulative = np.cumsum(weights)
        total, edge = cumulative[-1], cumulative[g % (n_topics - 1)]
        u = edge / total
        while u * total > edge:
            u = np.nextafter(u, 0.0)
        while u * total < edge:
            u = np.nextafter(u, 1.0)
        exact += u * total == edge
        uniforms.append(u)
        expected[g] = int(np.searchsorted(cumulative, u * total))
        local[expected[g]] += len(phrase)
    assert exact > 0.9 * flat.n_cliques
    inputs = (flat, alpha, wfac, tfac, doc_topic, assign, np.array(uniforms))
    return inputs, expected, expected_topic


def run_boundary_fold_in(inputs):
    flat, alpha, wfac, tfac, doc_topic, assign, uniforms = inputs
    doc_topic, assign = doc_topic.copy(), assign.copy()
    ckernel.run_fold_in(ckernel.FoldInTables(alpha, wfac, tfac), flat.tokens,
                        flat.offsets, flat.clique_doc, doc_topic, assign, 1,
                        uniforms)
    return assign, doc_topic


def test_fold_in_kernel_draws_on_the_references_cdf_boundaries():
    """The kernel's cumulative weights equal the reference's bit for bit:
    draws placed exactly on the boundaries land where the reference's do."""
    inputs, expected, expected_topic = boundary_fold_in()
    assign, doc_topic = run_boundary_fold_in(inputs)
    np.testing.assert_array_equal(assign, expected)
    np.testing.assert_array_equal(doc_topic, expected_topic)


# -- build targets -----------------------------------------------------------------------
CPUINFO = """processor\t: 0
model name\t: Example CPU @ 2.00GHz
flags\t\t: fpu sse2 {extra}

processor\t: 1
model name\t: Example CPU @ 2.00GHz
flags\t\t: fpu sse2 {extra}
"""


def _fresh_load(monkeypatch, build_dir, signature):
    """Load the kernel afresh from ``build_dir`` as if the host CPU's
    signature were ``signature``; monkeypatch restores this process's own
    kernel when the test ends."""
    monkeypatch.setenv("REPRO_KERNEL_BUILD_DIR", str(build_dir))
    monkeypatch.setattr(ckernel, "_cpu_signature", lambda: signature)
    for name, value in (("_lib", None), ("_target", "none"),
                        ("_load_attempted", False), ("_load_error", None)):
        monkeypatch.setattr(ckernel, name, value)
    return ckernel.load_kernel()


def test_cpu_signature_keys_the_native_build(tmp_path, monkeypatch):
    """The native build's cache key holds the first processor's model name
    and flags, so another CPU gets another library; the portable build's
    key does not depend on the CPU."""
    cpuinfo = tmp_path / "cpuinfo"
    monkeypatch.setattr(ckernel, "_CPU_INFO", cpuinfo)
    signatures, native, portable = [], set(), set()
    for extra in ("avx2", "avx2 avx512f"):
        cpuinfo.write_text(CPUINFO.format(extra=extra))
        signature = ckernel._cpu_signature()
        signatures.append(signature)
        native.add(ckernel._library_path(ckernel._NATIVE_FLAGS, signature))
        portable.add(ckernel._library_path(ckernel._PORTABLE_FLAGS))
    assert signatures[0] == ("flags: fpu sse2 avx2\n"
                             "model name: Example CPU @ 2.00GHz")
    assert len(native) == 2 and len(portable) == 1
    assert not native & portable

    cpuinfo.write_text("processor\t: 0\nBogoMIPS\t: 48.00\n")
    assert ckernel._cpu_signature() is None
    cpuinfo.unlink()
    assert ckernel._cpu_signature() is None


@pytest.mark.parametrize("signature", ["model name: Example CPU", None],
                         ids=["native-build-fails", "no-signature"])
def test_kernel_falls_back_to_the_portable_build(tmp_path, monkeypatch,
                                                 signature):
    """A native build that does not compile, or a host CPU that cannot be
    identified, leaves the portable build serving."""
    real_compile = ckernel._compile
    attempted = []

    def compile_(source, destination, flags):
        attempted.append(tuple(flags))
        if "-march=native" in flags:
            raise subprocess.CalledProcessError(
                1, ["cc", *flags], stderr="error: unknown target CPU")
        real_compile(source, destination, flags)

    monkeypatch.setattr(ckernel, "_compile", compile_)
    assert _fresh_load(monkeypatch, tmp_path, signature) is not None
    assert ckernel.kernel_target() == "portable"
    assert ckernel.load_error() is None
    expected = [ckernel._PORTABLE_FLAGS]
    if signature is not None:
        expected.insert(0, ckernel._NATIVE_FLAGS)
    assert attempted == expected
    assert [path.name for path in tmp_path.iterdir()] == \
        [ckernel._library_path(ckernel._PORTABLE_FLAGS).name]


def test_native_and_portable_builds_agree(tmp_path, monkeypatch):
    """Both builds give the pinned sweeps, fold-ins and segmentations, and
    the reference's boundary draws, bit for bit: wider vectors do the same
    IEEE operations per lane."""
    from test_phrase_path_pins import PINS, pipeline_digests

    signature = ckernel._cpu_signature()
    if signature is None:
        pytest.skip("the host CPU cannot be identified: no native build")
    inputs, expected, expected_topic = boundary_fold_in()
    digests = {}
    for target, build_signature in (("portable", None),
                                    ("native", signature)):
        _fresh_load(monkeypatch, tmp_path / target, build_signature)
        if ckernel.kernel_target() != target:
            pytest.skip(f"no {target} build here: {ckernel.load_error()}")
        digests[target] = pipeline_digests("c", tmp_path / target)
        assign, doc_topic = run_boundary_fold_in(inputs)
        np.testing.assert_array_equal(assign, expected)
        np.testing.assert_array_equal(doc_topic, expected_topic)
    assert digests["native"] == digests["portable"] == PINS
