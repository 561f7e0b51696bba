"""Flat-buffer collapsed Gibbs engine of PhraseLDA (and so of LDA).

The readable reference sampler in :mod:`repro.core.phrase_lda` walks nested
Python lists and pays NumPy's per-call overhead for every token.  LDA
(:mod:`repro.topicmodel.lda`) runs as PhraseLDA on all-singleton cliques,
so it uses the same engines.  The fast engine here works on one flat
representation:

* :class:`FlatPhraseCorpus` is the phrase partition of a corpus in four
  contiguous arrays — token ids (int32), clique boundary offsets,
  per-document clique offsets and one phrase key per clique.  The C
  segmenter produces it directly, and PhraseLDA, fold-in and the Eq. 8
  topical-frequency count read it, so the sampler never touches Python
  object graphs;
* :class:`CKernelSampler` drives the C sweep kernel
  (:mod:`repro.topicmodel.ckernel`) over those buffers, and is bit-exact
  with the reference sampler.

The kernel consumes the random stream in exactly the same order as the
reference sampler — the initial topics of all cliques, in document and
clique order, then one uniform per clique per sweep — so a fixed seed
produces identical topic assignments on both engines (a property the test
suite asserts).  :func:`random_initialization` draws every initial topic in
one ``rng.integers`` call where the reference makes one call per document;
numpy's bounded 32-bit draws keep no state between calls, so the two are
the same draws (``tests/test_partition.py`` checks that property of numpy).

Engine selection: :data:`ENGINES` is the one vocabulary of the three
C-backed hot paths — PhraseLDA training, segmentation and fold-in — and
:func:`resolve_engine` resolves it for all of them.  ``"auto"`` picks the
C kernel when it loads and the reference implementation otherwise;
``"c"`` and ``"reference"`` force one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.topicmodel import ckernel

#: Engine names accepted by training, segmentation and fold-in.
ENGINES = ("auto", "c", "reference")

Phrase = Tuple[int, ...]


def resolve_engine(engine: str) -> str:
    """Map an engine request onto a concrete engine name.

    ``"auto"`` resolves to ``"c"`` when the compiled kernel is available and
    to ``"reference"`` otherwise.  Asking for ``"c"`` without a working
    compiler raises immediately rather than silently running something
    slower.

    Raises
    ------
    ValueError
        If ``engine`` is not one of :data:`ENGINES`.
    RuntimeError
        If ``"c"`` is requested but the kernel cannot be built or loaded.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
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
    """The phrase partition of a corpus, as four flat arrays.

    The single representation the segmenter produces and its consumers read:
    PhraseLDA training and fold-in sweep over it, the Eq. 8 topical
    frequencies count over its keys, and a segmentation bundle stores its
    arrays as they are.  Phrase tuples are only built on request
    (:meth:`phrases`, :meth:`documents`).

    Attributes
    ----------
    tokens:
        ``int32`` array of all token ids, document- then clique-major.
    offsets:
        ``int64`` array of length ``n_cliques + 1``; clique ``g`` covers
        ``tokens[offsets[g]:offsets[g + 1]]``.  An empty clique (an empty
        phrase) keeps its slot but is never sampled.
    doc_offsets:
        ``int64`` array of length ``n_docs + 1``; document ``d`` owns
        cliques ``doc_offsets[d]:doc_offsets[d + 1]``.
    keys:
        ``int64`` phrase key per clique: two cliques share a key exactly
        when they hold the same token sequence.  The C segmenter supplies
        phrase-table ids; otherwise keys are numbered on first access.
    clique_doc:
        ``int32`` document index of every clique (derived).
    """

    __slots__ = ("tokens", "offsets", "doc_offsets", "clique_doc",
                 "n_cliques", "n_docs", "_keys", "_n_sampled")

    def __init__(self, tokens: np.ndarray, offsets: np.ndarray,
                 doc_offsets: np.ndarray,
                 keys: Optional[np.ndarray] = None) -> None:
        self.tokens = tokens
        self.offsets = offsets
        self.doc_offsets = doc_offsets
        self._keys = keys
        self.n_cliques = len(offsets) - 1
        self.n_docs = len(doc_offsets) - 1
        self._n_sampled: Optional[int] = None
        self.clique_doc = np.repeat(np.arange(self.n_docs, dtype=np.int32),
                                    doc_offsets[1:] - doc_offsets[:-1])

    @classmethod
    def from_phrases(cls, phrase_docs: Sequence[Sequence[Sequence[int]]],
                     ) -> "FlatPhraseCorpus":
        """Flatten per-document phrase lists (the reference segmenter's and
        the caller-facing tuple form).  Empty phrases keep their clique."""
        token_list: List[int] = []
        offset_list: List[int] = [0]
        doc_list: List[int] = [0]
        for phrases in phrase_docs:
            for phrase in phrases:
                token_list.extend(phrase)
                offset_list.append(len(token_list))
            doc_list.append(len(offset_list) - 1)
        try:
            tokens = np.asarray(token_list, dtype=np.int32)
        except OverflowError as exc:
            raise ValueError(f"token ids must fit int32: {exc}") from None
        return cls(tokens, np.asarray(offset_list, dtype=np.int64),
                   np.asarray(doc_list, dtype=np.int64))

    @property
    def n_sampled(self) -> int:
        """Number of non-empty cliques (the ones a sweep samples)."""
        if self._n_sampled is None:
            self._n_sampled = int(np.count_nonzero(self.clique_sizes()))
        return self._n_sampled

    @property
    def keys(self) -> np.ndarray:
        """Phrase key per clique (numbered by first occurrence when the
        producer supplied none)."""
        if self._keys is None:
            ids: Dict[Phrase, int] = {}
            self._keys = np.fromiter(
                (ids.setdefault(phrase, len(ids)) for phrase in self.phrases()),
                dtype=np.int64, count=self.n_cliques)
        return self._keys

    def clique_sizes(self) -> np.ndarray:
        """Length of every clique, as an ``int64`` array."""
        return self.offsets[1:] - self.offsets[:-1]

    def phrases(self, first: int = 0, last: Optional[int] = None,
                ) -> List[Phrase]:
        """Cliques ``first:last`` (all by default) as tuples of word ids,
        in clique order."""
        offsets = self.offsets[first:(self.n_cliques if last is None
                                      else last) + 1]
        start = int(offsets[0])
        tokens = self.tokens[start:offsets[-1]].tolist()
        bounds = (offsets - start).tolist()
        return [tuple(tokens[a:b]) for a, b in zip(bounds, bounds[1:])]

    def documents(self) -> List[List[Phrase]]:
        """Per-document phrase lists (the inverse of :meth:`from_phrases`)."""
        phrases = self.phrases()
        bounds = self.doc_offsets.tolist()
        return [phrases[g0:g1] for g0, g1 in zip(bounds, bounds[1:])]


def random_initialization(flat: FlatPhraseCorpus, n_topics: int,
                          vocabulary_size: int, rng: np.random.Generator,
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw one topic per clique and build the count matrices.

    One ``rng.integers(0, K, size=n_cliques)`` call draws every clique's
    topic; it yields the same topics, and leaves the generator in the same
    state, as the reference sampler's one call per document in document
    order.  Counting is vectorized with ``bincount`` over the flat buffers.

    Returns ``(topic_word, doc_topic, topic_totals, assign)`` with the same
    dtypes and layouts the reference sampler uses.
    """
    # Out-of-range ids would index outside the counts here and inside the C
    # kernel — refuse them.
    _check_token_range(flat.tokens, vocabulary_size)
    assign = rng.integers(0, n_topics, size=flat.n_cliques)

    sizes = flat.clique_sizes()
    token_topics = np.repeat(assign, sizes)
    token_docs = np.repeat(flat.clique_doc.astype(np.int64), sizes)

    topic_word = _count_cells(flat.tokens.astype(np.int64), token_topics,
                              vocabulary_size, n_topics)
    doc_topic = _count_cells(token_docs, token_topics, flat.n_docs, n_topics)
    topic_totals = np.bincount(token_topics, minlength=n_topics).astype(np.int64)
    return topic_word, doc_topic, topic_totals, assign


def _count_cells(rows: np.ndarray, columns: np.ndarray, n_rows: int,
                 n_columns: int) -> np.ndarray:
    """An ``n_rows × n_columns`` ``int64`` matrix counting each
    ``(rows[i], columns[i])`` pair."""
    counts = np.bincount(rows * n_columns + columns,
                         minlength=n_rows * n_columns)
    return counts.astype(np.int64, copy=False).reshape(n_rows, n_columns)


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
        self._uniforms = np.empty(flat.n_sampled, dtype=np.float64)
        self.rebuild(alpha, beta)

    def rebuild(self, alpha: np.ndarray, beta: float) -> None:
        """Adopt new hyper-parameters (after Minka fixed-point updates) and
        re-derive the factor arrays from the integer counts.

        Every buffer the kernel touches is checked here
        (:class:`~repro.topicmodel.ckernel.SweepBuffers`), not per sweep:
        a corpus or count array of the wrong dtype, layout or size raises
        ``ValueError`` before any sweep runs.
        """
        self.alpha = np.ascontiguousarray(alpha, dtype=np.float64)
        self.beta = float(beta)
        self.beta_sum = self.beta * self.vocabulary_size
        self.wfac = self.beta + self.topic_word
        self.tfac = self.beta_sum + self.topic_totals
        flat = self.flat
        self._buffers = ckernel.SweepBuffers(
            flat.tokens, flat.offsets, flat.clique_doc, self.alpha, self.beta,
            self.beta_sum, self.topic_word, self.doc_topic, self.topic_totals,
            self.wfac, self.tfac, self.assign, self._uniforms)

    def sweep(self, rng: np.random.Generator) -> None:
        """One full Gibbs sweep over every clique."""
        if self.flat.n_sampled == 0:
            return
        rng.random(out=self._uniforms)
        ckernel.run_sweep(self._buffers)


def _check_token_range(tokens: np.ndarray, vocabulary_size: int) -> None:
    """Raise ``ValueError`` unless every token id lies in ``[0, V)``."""
    if tokens.size:
        lowest = int(tokens.min())
        highest = int(tokens.max())
        if lowest < 0 or highest >= vocabulary_size:
            raise ValueError(
                f"token ids must be in [0, {vocabulary_size}); "
                f"got range [{lowest}, {highest}]")
