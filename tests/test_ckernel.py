"""The C kernels: the training sweep on a corpus large enough to exercise
its prior-baked factors (many documents, so the per-document factor row is
rebuilt often; 3-4-token cliques, the j >= 1 Eq. 7 steps; Minka
hyper-parameter updates, factor re-derivation), the segmentation buffer
guard, draws placed on the reference's CDF boundaries (fold-in and the
training sweep's keeps and moves), the training sweep's buffer checks, and
the build targets (native vs portable, the cache key, the fallback)."""

import os
import subprocess
import sys
from pathlib import Path

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


def boundary_sweep(n_docs=80, n_topics=7, n_words=12, seed=4):
    """One training sweep whose every draw sits on a CDF boundary.

    Replays the reference's Eq. 7 clique by clique (the arithmetic of
    ``ReferencePhraseLDA._sweep``) and picks each uniform so that ``u *
    total`` lands exactly on ``cum[aim]``: the draw is ``aim`` there, and
    one ulp off in the kernel's weights moves it.  Even cliques aim at
    their own topic (keeps), odd ones elsewhere (moves); a small
    vocabulary makes repeated words inside a clique common.  ``aim ==
    K-1`` has no boundary of its own, so such a draw sits just above
    ``cum[K-2]``, and where no ``u`` hits ``cum[aim]`` exactly the draw
    sits just below it.  Returns the kernel's inputs and the replay's final
    assignments and counts.
    """
    from repro.topicmodel.gibbs import FlatPhraseCorpus, random_initialization

    rng = np.random.default_rng(seed)
    flat = FlatPhraseCorpus.from_phrases([
        [tuple(rng.integers(0, n_words, size=int(rng.choice([1, 2, 2, 3, 3]))))
         for _ in range(int(rng.integers(2, 9)))] for _ in range(n_docs)])
    alpha = rng.uniform(0.05, 1.0, size=n_topics)
    beta, beta_sum = 0.01, 0.01 * n_words
    initial = random_initialization(flat, n_topics, n_words, rng)

    topic_word, doc_topic, topic_totals, expected = (a.copy() for a in initial)
    uniforms, kinds, exact = [], set(), 0
    for g in range(flat.n_cliques):
        phrase = flat.tokens[flat.offsets[g]:flat.offsets[g + 1]].tolist()
        size, d, k_old = len(phrase), flat.clique_doc[g], expected[g]
        for w in phrase:
            topic_word[w, k_old] -= 1
        doc_topic[d, k_old] -= size
        topic_totals[k_old] -= size
        weights = np.ones(n_topics)
        for j, w in enumerate(phrase):
            weights *= alpha + doc_topic[d] + j
            weights *= beta + topic_word[w]
            weights /= beta_sum + topic_totals + j
        cumulative = np.cumsum(weights)
        total = cumulative[-1]
        aim = k_old if g % 2 == 0 else (k_old + 1 + g // 2 % (n_topics - 1)) % n_topics
        edge = cumulative[min(aim, n_topics - 2)]
        u = edge / total
        while u * total > edge:
            u = np.nextafter(u, 0.0)
        while u * total < edge:
            u = np.nextafter(u, 1.0)
        if aim == n_topics - 1:
            while u * total <= edge:
                u = np.nextafter(u, 1.0)
        elif u * total > edge:  # no u lands on it: the last one below
            u = np.nextafter(u, 0.0)
        exact += u * total == edge
        uniforms.append(u)
        k_new = int(np.searchsorted(cumulative, u * total))
        assert k_new == aim
        kinds.add((size, len(set(phrase)) < size, k_new == k_old))
        expected[g] = k_new
        for w in phrase:
            topic_word[w, k_new] += 1
        doc_topic[d, k_new] += size
        topic_totals[k_new] += size
    # Keeps and moves of 2- and 3-cliques, with and without repeated words.
    assert {(size, repeated, keep) for size in (2, 3)
            for repeated in (False, True) for keep in (False, True)} <= kinds
    assert exact > 0.75 * flat.n_cliques
    inputs = (flat, alpha, beta, beta_sum, initial, np.array(uniforms))
    return inputs, (expected, topic_word, doc_topic, topic_totals)


def test_sweep_kernel_draws_on_the_references_cdf_boundaries():
    """The training kernel's weights equal the reference's bit for bit on
    keeps and moves alike -- including the clique's own topic, whose
    removed-count weight the kernel derives without removing anything:
    draws placed exactly on the boundaries land where the reference's do,
    and the counts and factors end where the reference's counts put them."""
    inputs, expected = boundary_sweep()
    flat, alpha, beta, beta_sum, initial, uniforms = inputs
    topic_word, doc_topic, topic_totals, assign = (a.copy() for a in initial)
    wfac, tfac = beta + topic_word, beta_sum + topic_totals
    ckernel.run_sweep(ckernel.SweepBuffers(
        flat.tokens, flat.offsets, flat.clique_doc, alpha, beta, beta_sum,
        topic_word, doc_topic, topic_totals, wfac, tfac, assign, uniforms))
    for got, want in zip((assign, topic_word, doc_topic, topic_totals),
                         expected):
        np.testing.assert_array_equal(got, want)
    assert wfac.tobytes() == (beta + topic_word).tobytes()
    assert tfac.tobytes() == (beta_sum + topic_totals).tobytes()


# Fits PhraseLDA on the C engine over a hand-built partition with one
# buffer spoiled as argv[1] names, printing the ValueError it must raise.
_BAD_BUFFER_CHILD = """
import sys
import numpy as np
from repro.core.phrase_lda import PhraseLDA, PhraseLDAConfig
from repro.topicmodel.gibbs import FlatPhraseCorpus

tokens = np.array([0, 1, 2, 1, 0, 2, 2], dtype=np.int32)
offsets = np.array([0, 2, 3, 5, 7], dtype=np.int64)
doc_offsets = np.array([0, 2, 4], dtype=np.int64)
case = sys.argv[1]
if case == "int32-offsets":
    offsets = offsets.astype(np.int32)
elif case == "int64-tokens":
    tokens = tokens.astype(np.int64)
elif case == "strided-tokens":
    tokens = np.repeat(tokens, 2)[::2]
config = PhraseLDAConfig(n_topics=3, n_iterations=5, seed=0, engine="c")
try:
    PhraseLDA(config).fit(FlatPhraseCorpus(tokens, offsets, doc_offsets),
                          vocabulary_size=3)
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("case, buffer", [("int32-offsets", "offsets"),
                                          ("int64-tokens", "tokens"),
                                          ("strided-tokens", "tokens")])
def test_sweep_refuses_buffers_of_the_wrong_layout(case, buffer):
    """The C sweep reads raw pointers: int32 offsets made it read past
    the buffer (a segfault), and int64 tokens gave it the wrong ids.
    ``CKernelSampler`` checks every buffer once and raises instead.  A
    fresh interpreter runs each case, so a crash fails the test."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _BAD_BUFFER_CHILD, case],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.startswith(f"{buffer} must be a C-contiguous"), \
        proc.stdout


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
