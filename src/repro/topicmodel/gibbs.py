"""Flat-buffer collapsed Gibbs engine of PhraseLDA (and so of LDA).

The readable reference sampler in :mod:`repro.core.phrase_lda` walks nested
Python lists and pays NumPy's per-call overhead for every token.  LDA
(:mod:`repro.topicmodel.lda`) runs as PhraseLDA on all-singleton cliques,
so it uses the same engines.  The fast engine here restructures the
problem once at ``fit()`` time:

* :class:`FlatPhraseCorpus` flattens the corpus into contiguous buffers —
  token ids (int32), clique boundary offsets, and per-document clique
  ranges — so the sampler never touches Python object graphs in the hot
  loop;
* :class:`CKernelSampler` drives the C sweep kernel
  (:mod:`repro.topicmodel.ckernel`) over those buffers, and is bit-exact
  with the reference sampler.

The kernel consumes the random stream in exactly the same order as the
reference sampler — one ``rng.integers`` call per document at
initialisation, one uniform per clique per sweep — so a fixed seed produces
identical topic assignments on both engines (a property the test suite
asserts).

Engine selection: ``"auto"`` picks the C kernel when it loads and the
reference sampler otherwise; ``"c"`` and ``"reference"`` force one.
``"numpy"``, the name of a NumPy sampler that no longer exists, is a
deprecated alias of ``"auto"``.
"""

from __future__ import annotations

import warnings
from typing import List, Sequence, Tuple

import numpy as np

from repro.topicmodel import ckernel

ENGINES = ("auto", "c", "numpy", "reference")


def resolve_engine(engine: str) -> str:
    """Map an engine request onto a concrete engine name.

    ``"auto"`` resolves to ``"c"`` when the compiled kernel is available and
    to ``"reference"`` otherwise; ``"numpy"`` warns (``DeprecationWarning``)
    and resolves like ``"auto"``.  Asking for ``"c"`` without a working
    compiler raises immediately rather than silently running something
    slower.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "numpy":
        warnings.warn("PhraseLDA engine 'numpy' is deprecated and resolves "
                      "like 'auto'", DeprecationWarning, stacklevel=2)
        engine = "auto"
    if engine == "auto":
        return "c" if ckernel.kernel_available() else "reference"
    if engine == "c" and not ckernel.kernel_available():
        raise RuntimeError(
            f"engine='c' requested but the kernel is unavailable "
            f"({ckernel.load_error()}); use engine='auto' to fall back")
    return engine


def check_priors(alpha, beta: float, context: str, *, positive: bool,
                 hint: str = "") -> None:
    """Raise ``ValueError`` unless ``alpha`` and ``beta`` are finite and,
    with ``positive``, strictly positive.

    ``context`` names the caller in the message and ``hint`` is appended
    to it.  Training accepts zero priors on the reference engine; fold-in
    and the C sweep need positive ones, so that every clique posterior has
    positive mass.
    """
    values = np.append(np.asarray(alpha, dtype=np.float64), float(beta))
    if np.isfinite(values).all() and (not positive or (values > 0).all()):
        return
    bound = " > 0" if positive else ""
    raise ValueError(
        f"{context} requires finite alpha{bound} and beta{bound} (got alpha "
        f"min {float(np.min(alpha))}, beta {beta}){hint}")


class FlatPhraseCorpus:
    """A segmented corpus flattened into contiguous sampling buffers.

    Attributes
    ----------
    tokens:
        ``int32`` array of all token ids, document- then clique-major.
    offsets:
        ``int64`` array of length ``n_cliques + 1``; clique ``g`` covers
        ``tokens[offsets[g]:offsets[g + 1]]``.
    clique_doc:
        ``int32`` document index of every clique.
    doc_ranges:
        Per-document ``(first_clique, last_clique_exclusive)`` pairs.
    """

    __slots__ = ("tokens", "offsets", "clique_doc", "doc_ranges",
                 "n_cliques", "n_sampled", "n_docs")

    def __init__(self, phrase_docs: Sequence[Sequence[Sequence[int]]]) -> None:
        token_list: List[int] = []
        offset_list: List[int] = [0]
        clique_doc: List[int] = []
        doc_ranges: List[Tuple[int, int]] = []
        n_sampled = 0
        for d, phrases in enumerate(phrase_docs):
            start = len(offset_list) - 1
            for phrase in phrases:
                # Empty phrases keep their clique slot (so per-document
                # assignment arrays stay aligned with ``doc.phrases``) but
                # are never sampled, exactly like the reference sampler.
                token_list.extend(phrase)
                offset_list.append(len(token_list))
                clique_doc.append(d)
                if phrase:
                    n_sampled += 1
            doc_ranges.append((start, len(offset_list) - 1))
        self.tokens = np.asarray(token_list, dtype=np.int32)
        self.offsets = np.asarray(offset_list, dtype=np.int64)
        self.clique_doc = np.asarray(clique_doc, dtype=np.int32)
        self.doc_ranges = doc_ranges
        self.n_cliques = len(offset_list) - 1
        self.n_sampled = n_sampled
        self.n_docs = len(phrase_docs)

    def clique_sizes(self) -> np.ndarray:
        """Length of every clique, as an ``int64`` array."""
        return np.diff(self.offsets)


def random_initialization(flat: FlatPhraseCorpus, n_topics: int,
                          vocabulary_size: int, rng: np.random.Generator,
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw one topic per clique and build the count matrices.

    Consumes the random stream exactly like the reference sampler: one
    ``rng.integers(0, K, size=n_cliques_of_doc)`` call per document, in
    document order.  Counting is vectorized with ``np.add.at``/``bincount``
    over the flat buffers.

    Returns ``(topic_word, doc_topic, topic_totals, assign)`` with the same
    dtypes and layouts the reference sampler uses.
    """
    # np.add.at rejects ids >= V below, but negative ids would silently
    # wrap here and corrupt memory inside the C kernel — refuse both.
    _check_token_range(flat.tokens, vocabulary_size)
    assign = np.empty(flat.n_cliques, dtype=np.int64)
    for g0, g1 in flat.doc_ranges:
        assign[g0:g1] = rng.integers(0, n_topics, size=g1 - g0)

    sizes = flat.clique_sizes()
    token_topics = np.repeat(assign, sizes)
    token_docs = np.repeat(flat.clique_doc.astype(np.int64), sizes)

    topic_word = np.zeros((vocabulary_size, n_topics), dtype=np.int64)
    doc_topic = np.zeros((flat.n_docs, n_topics), dtype=np.int64)
    np.add.at(topic_word, (flat.tokens.astype(np.int64), token_topics), 1)
    np.add.at(doc_topic, (token_docs, token_topics), 1)
    topic_totals = np.bincount(token_topics, minlength=n_topics).astype(np.int64)
    return topic_word, doc_topic, topic_totals, assign


class CKernelSampler:
    """Gibbs sweeps via the compiled C kernel, mutating the count arrays
    (``int64``, shared with the caller's state object) in place.

    Beside the counts it keeps the prior-baked factors the kernel reads,
    ``wfac = beta + N_wk`` (V × K) and ``tfac = beta * V + N_k`` (K), as
    doubles; the kernel re-derives each one from its count whenever the
    count moves, so they always equal these expressions bit for bit.
    """

    def __init__(self, flat: FlatPhraseCorpus, topic_word: np.ndarray,
                 doc_topic: np.ndarray, topic_totals: np.ndarray,
                 assign: np.ndarray, alpha: np.ndarray, beta: float) -> None:
        # The kernel draws by inverse CDF without the reference sampler's
        # zero-total uniform fallback, which only degenerate priors reach.
        check_priors(alpha, beta, "engine 'c'", positive=True,
                     hint="; use engine='reference' for degenerate priors")
        self.flat = flat
        self.topic_word = topic_word
        self.doc_topic = doc_topic
        self.topic_totals = topic_totals
        self.assign = assign
        self.n_topics = topic_word.shape[1]
        self.vocabulary_size = topic_word.shape[0]
        self._scratch = np.empty(2 * self.n_topics, dtype=np.float64)
        self._uniforms = np.empty(flat.n_sampled, dtype=np.float64)
        self.rebuild(alpha, beta)

    def rebuild(self, alpha: np.ndarray, beta: float) -> None:
        """Adopt new hyper-parameters (after Minka fixed-point updates) and
        re-derive the factor arrays from the integer counts."""
        self.alpha = np.ascontiguousarray(alpha, dtype=np.float64)
        self.beta = float(beta)
        self.beta_sum = self.beta * self.vocabulary_size
        self.wfac = self.beta + self.topic_word
        self.tfac = self.beta_sum + self.topic_totals

    def sweep(self, rng: np.random.Generator) -> None:
        """One full Gibbs sweep over every clique."""
        if self.flat.n_sampled == 0:
            return
        rng.random(out=self._uniforms)
        ckernel.run_sweep(
            self.flat.tokens, self.flat.offsets, self.flat.clique_doc,
            self.n_topics, self.alpha, self.beta, self.beta_sum,
            self.topic_word, self.doc_topic, self.topic_totals,
            self.wfac, self.tfac, self.assign, self._uniforms, self._scratch)


def _check_token_range(tokens: np.ndarray, vocabulary_size: int) -> None:
    """Raise ``ValueError`` unless every token id lies in ``[0, V)``."""
    if tokens.size:
        lowest = int(tokens.min())
        highest = int(tokens.max())
        if lowest < 0 or highest >= vocabulary_size:
            raise ValueError(
                f"token ids must be in [0, {vocabulary_size}); "
                f"got range [{lowest}, {highest}]")


def validate_fold_in_input(flat: FlatPhraseCorpus, alpha: np.ndarray,
                           beta: float, vocabulary_size: int) -> None:
    """Reject degenerate priors and out-of-range token ids for fold-in.

    Run by :mod:`repro.core.infer` before either fold-in engine, so both
    are equally strict, and the C kernel never indexes outside the frozen
    ``V × K`` counts.

    Raises
    ------
    ValueError
        If ``beta`` or any ``alpha`` entry is non-positive or not finite (a
        clique posterior could then have zero or undefined mass), or if any
        token id falls outside ``[0, vocabulary_size)``.
    """
    check_priors(alpha, beta, "fold-in", positive=True,
                 hint=", so every clique posterior has positive mass")
    _check_token_range(flat.tokens, vocabulary_size)
