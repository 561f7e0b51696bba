"""Flat-buffer collapsed Gibbs engines of PhraseLDA (and so of LDA).

The readable reference sampler in :mod:`repro.core.phrase_lda` walks nested
Python lists and pays NumPy's per-call overhead for every token.  LDA
(:mod:`repro.topicmodel.lda`) runs as PhraseLDA on all-singleton cliques,
so it uses the same engines.  The engines here restructure the
problem once at ``fit()`` time:

* :class:`FlatPhraseCorpus` flattens the corpus into contiguous buffers —
  token ids (int32), clique boundary offsets, and per-document clique
  ranges — so the samplers never touch Python object graphs in the hot
  loop;
* :class:`VectorizedGibbsSampler` is a pure-NumPy sampler that keeps the
  count matrices as *float factor arrays* with the Dirichlet priors baked
  in (``wfac = beta + N_wk``, the ``n_z_t`` idiom), computes each clique
  posterior with row gathers instead of per-token Python arithmetic, and
  draws topics by cumulative-sum inverse-CDF sampling against uniforms
  pre-drawn once per sweep;
* :class:`CKernelSampler` drives the optional C sweep kernel
  (:mod:`repro.topicmodel.ckernel`) over the same flat buffers, and is
  bit-exact with the reference sampler.

Both engines consume the random stream in exactly the same order as the
reference sampler — one ``rng.integers`` call per document at
initialisation, one uniform per clique per sweep — so a fixed seed produces
identical topic assignments across all engines (a property the test suite
asserts).

Engine selection: ``"auto"`` picks the C kernel when a compiler is
available and the NumPy sampler otherwise; ``"c"``, ``"numpy"`` and
``"reference"`` force a specific implementation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.topicmodel import ckernel

ENGINES = ("auto", "c", "numpy", "reference")


def resolve_engine(engine: str) -> str:
    """Map an engine request onto a concrete engine name.

    ``"auto"`` resolves to ``"c"`` when the compiled kernel is available and
    to ``"numpy"`` otherwise.  Explicit requests are validated: asking for
    ``"c"`` without a working compiler raises immediately rather than
    silently running something slower.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "auto":
        return "c" if ckernel.kernel_available() else "numpy"
    if engine == "c" and not ckernel.kernel_available():
        raise RuntimeError(
            f"engine='c' requested but the kernel is unavailable "
            f"({ckernel.load_error()}); use engine='auto' to fall back")
    return engine


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
                 "n_cliques", "n_sampled", "n_tokens", "n_docs",
                 "max_clique_size", "_token_list", "_offset_list")

    def __init__(self, phrase_docs: Sequence[Sequence[Sequence[int]]]) -> None:
        token_list: List[int] = []
        offset_list: List[int] = [0]
        clique_doc: List[int] = []
        doc_ranges: List[Tuple[int, int]] = []
        max_size = 0
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
                if len(phrase) > max_size:
                    max_size = len(phrase)
                if phrase:
                    n_sampled += 1
            doc_ranges.append((start, len(offset_list) - 1))
        self.tokens = np.asarray(token_list, dtype=np.int32)
        self.offsets = np.asarray(offset_list, dtype=np.int64)
        self.clique_doc = np.asarray(clique_doc, dtype=np.int32)
        self.doc_ranges = doc_ranges
        self.n_cliques = len(offset_list) - 1
        self.n_sampled = n_sampled
        self.n_tokens = len(token_list)
        self.n_docs = len(phrase_docs)
        self.max_clique_size = max_size
        self._token_list = None
        self._offset_list = None

    @property
    def token_list(self) -> List[int]:
        """Token ids as a Python list (lazy; only the NumPy sampler needs
        list-speed scalar access — the C engine never materialises this)."""
        if self._token_list is None:
            self._token_list = self.tokens.tolist()
        return self._token_list

    @property
    def offset_list(self) -> List[int]:
        """Clique offsets as a Python list (lazy, see :attr:`token_list`)."""
        if self._offset_list is None:
            self._offset_list = self.offsets.tolist()
        return self._offset_list

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

    name = "c"

    def __init__(self, flat: FlatPhraseCorpus, topic_word: np.ndarray,
                 doc_topic: np.ndarray, topic_totals: np.ndarray,
                 assign: np.ndarray, alpha: np.ndarray, beta: float) -> None:
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

    def sync_counts(self) -> None:
        """No-op: the kernel mutates the integer count arrays directly."""


class VectorizedGibbsSampler:
    """Pure-NumPy Gibbs sweeps over the flat buffers.

    The sampler keeps three float *factor* arrays with the priors baked in,
    mutated in place as cliques are reassigned (the copulaLDA idiom):

    * ``wfac[w, k] = beta + N_wk`` — gathered per clique as contiguous rows;
    * ``dfac[d, k] = alpha_k + N_dk``;
    * ``tfac[k] = beta * V + N_k``.

    Per document it maintains ``ratio = dfac[d] / tfac`` (and ``ratio1``,
    the same quantity shifted by one — the ``j = 1`` term of Eq. 7) so a
    singleton clique posterior is a single elementwise product and a
    two-token clique three products; topics are then drawn by inverse-CDF
    against a per-sweep batch of uniforms.  The integer count matrices of
    the caller's state are refreshed from the factor arrays on demand by
    :meth:`sync_counts`.
    """

    name = "numpy"

    def __init__(self, flat: FlatPhraseCorpus, topic_word: np.ndarray,
                 doc_topic: np.ndarray, topic_totals: np.ndarray,
                 assign: np.ndarray, alpha: np.ndarray, beta: float) -> None:
        self.flat = flat
        self.topic_word = topic_word
        self.doc_topic = doc_topic
        self.topic_totals = topic_totals
        self.assign = assign
        self.n_topics = topic_word.shape[1]
        self.vocabulary_size = topic_word.shape[0]
        self.rebuild(alpha, beta)

    def rebuild(self, alpha: np.ndarray, beta: float) -> None:
        """(Re)derive the float factor arrays from the integer counts."""
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.beta = float(beta)
        self.wfac = self.topic_word + self.beta
        self.dfac = self.doc_topic + self.alpha[None, :]
        self.tfac = self.topic_totals + self.beta * self.vocabulary_size

    def sync_counts(self) -> None:
        """Write the integer counts implied by the factor arrays back into
        the shared state arrays (rounded, so ulp drift cannot leak)."""
        np.copyto(self.topic_word, np.rint(self.wfac - self.beta),
                  casting="unsafe")
        np.copyto(self.doc_topic, np.rint(self.dfac - self.alpha[None, :]),
                  casting="unsafe")
        np.copyto(self.topic_totals,
                  np.rint(self.tfac - self.beta * self.vocabulary_size),
                  casting="unsafe")

    def sweep(self, rng: np.random.Generator) -> None:
        """One full Gibbs sweep over every clique.

        The loop is written for minimal per-clique overhead: all arrays are
        bound to locals, scalar bookkeeping uses Python lists where NumPy
        indexing would dominate, and every elementwise operation writes into
        a preallocated buffer.
        """
        flat = self.flat
        if flat.n_sampled == 0:
            return
        K = self.n_topics
        tokens = flat.token_list
        offsets = flat.offset_list
        wfac, dfac, tfac = self.wfac, self.dfac, self.tfac
        assign_list = self.assign.tolist()
        us = rng.random(flat.n_sampled).tolist()
        next_uniform = 0

        buf = np.empty(K)
        cum = np.empty(K)
        dbuf = np.empty(K)
        tbuf = np.empty(K)
        ratio1 = np.empty(K)
        mul = np.multiply
        div = np.divide
        add = np.add
        acc = np.add.accumulate
        last = K - 1

        for d, (g0, g1) in enumerate(flat.doc_ranges):
            if g0 == g1:
                continue
            dfr = dfac[d]
            ratio = div(dfr, tfac)
            add(dfr, 1.0, dbuf)
            add(tfac, 1.0, tbuf)
            div(dbuf, tbuf, ratio1)
            for g in range(g0, g1):
                t0 = offsets[g]
                size = offsets[g + 1] - t0
                k_old = assign_list[g]
                if size == 1:
                    # -- singleton fast path: one gather, one product -----
                    wfr = wfac[tokens[t0]]
                    wfr[k_old] -= 1.0
                    d_ko = dfr[k_old] - 1.0
                    t_ko = tfac[k_old] - 1.0
                    dfr[k_old] = d_ko
                    tfac[k_old] = t_ko
                    ratio[k_old] = d_ko / t_ko
                    ratio1[k_old] = (d_ko + 1.0) / (t_ko + 1.0)
                    mul(ratio, wfr, buf)
                    acc(buf, 0, None, cum)
                    k_new = int(cum.searchsorted(us[next_uniform] * cum[last]))
                    next_uniform += 1
                    wfr[k_new] += 1.0
                    d_kn = dfr[k_new] + 1.0
                    t_kn = tfac[k_new] + 1.0
                    dfr[k_new] = d_kn
                    tfac[k_new] = t_kn
                    ratio[k_new] = d_kn / t_kn
                    ratio1[k_new] = (d_kn + 1.0) / (t_kn + 1.0)
                    assign_list[g] = k_new
                elif size == 0:
                    # Empty clique: keeps its assignment slot, never sampled
                    # (mirrors the reference sampler's `continue`).
                    continue
                else:
                    # -- multi-token clique: Eq. 7 product via row views --
                    sf = float(size)
                    ws = tokens[t0:t0 + size]
                    for w in ws:
                        wfac[w, k_old] -= 1.0
                    d_ko = dfr[k_old] - sf
                    t_ko = tfac[k_old] - sf
                    dfr[k_old] = d_ko
                    tfac[k_old] = t_ko
                    ratio[k_old] = d_ko / t_ko
                    ratio1[k_old] = (d_ko + 1.0) / (t_ko + 1.0)
                    mul(ratio, wfac[ws[0]], buf)
                    mul(buf, ratio1, buf)
                    mul(buf, wfac[ws[1]], buf)
                    for j in range(2, size):
                        jf = float(j)
                        add(dfr, jf, dbuf)
                        mul(buf, dbuf, buf)
                        mul(buf, wfac[ws[j]], buf)
                        add(tfac, jf, tbuf)
                        div(buf, tbuf, buf)
                    acc(buf, 0, None, cum)
                    k_new = int(cum.searchsorted(us[next_uniform] * cum[last]))
                    next_uniform += 1
                    for w in ws:
                        wfac[w, k_new] += 1.0
                    d_kn = dfr[k_new] + sf
                    t_kn = tfac[k_new] + sf
                    dfr[k_new] = d_kn
                    tfac[k_new] = t_kn
                    ratio[k_new] = d_kn / t_kn
                    ratio1[k_new] = (d_kn + 1.0) / (t_kn + 1.0)
                    assign_list[g] = k_new
        self.assign[:] = assign_list


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
    alpha = np.asarray(alpha)
    if not (0 < beta < np.inf) or not np.all((alpha > 0) & (alpha < np.inf)):
        raise ValueError(
            f"fold-in requires finite alpha > 0 and beta > 0 (got alpha min "
            f"{float(np.min(alpha))}, beta {beta}), so every clique "
            f"posterior has positive mass")
    _check_token_range(flat.tokens, vocabulary_size)


def run_fit_loop(sampler, state, config, rng: np.random.Generator,
                 callback=None) -> None:
    """Drive a flat sampler through a full fit: sweeps, Minka hyper-parameter
    updates, and per-iteration callbacks.

    Used by :class:`~repro.core.phrase_lda.PhraseLDA` (and so by
    :class:`~repro.topicmodel.lda.LatentDirichletAllocation`, which runs as
    all-singleton PhraseLDA) for its flat engines.  ``config`` provides
    ``n_iterations``, ``optimize_hyperparameters``, ``burn_in``, and
    ``hyper_optimize_interval``; ``state`` holds the count matrices the
    sampler mutates (synchronised before every external observation).
    """
    from repro.topicmodel.hyperopt import (
        optimize_asymmetric_alpha,
        optimize_symmetric_beta,
    )

    for iteration in range(config.n_iterations):
        sampler.sweep(rng)
        if (config.optimize_hyperparameters
                and iteration >= config.burn_in
                and (iteration + 1) % config.hyper_optimize_interval == 0):
            sampler.sync_counts()
            state.alpha = optimize_asymmetric_alpha(state.doc_topic_counts, state.alpha)
            state.beta = optimize_symmetric_beta(state.topic_word_counts, state.beta)
            sampler.rebuild(state.alpha, state.beta)
        if callback is not None:
            sampler.sync_counts()
            callback(iteration, state)
    sampler.sync_counts()


_SAMPLERS = {"c": CKernelSampler, "numpy": VectorizedGibbsSampler}


def make_sampler(engine: str, flat: FlatPhraseCorpus, topic_word: np.ndarray,
                 doc_topic: np.ndarray, topic_totals: np.ndarray,
                 assign: np.ndarray, alpha: np.ndarray, beta: float):
    """Build the sampler for a resolved (non-reference) engine name.

    The flat samplers draw by inverse CDF without the reference sampler's
    zero-total uniform fallback, which is only reachable with degenerate
    priors — so strictly positive ``alpha`` and ``beta`` are required here
    (guaranteeing every clique posterior has positive mass).
    """
    if beta <= 0 or np.any(np.asarray(alpha) <= 0):
        raise ValueError(
            f"engine {engine!r} requires alpha > 0 and beta > 0 (got "
            f"alpha min {float(np.min(alpha))}, beta {beta}); use "
            f"engine='reference' for degenerate priors")
    try:
        cls = _SAMPLERS[engine]
    except KeyError:
        raise ValueError(f"no flat sampler for engine {engine!r}") from None
    return cls(flat, topic_word, doc_topic, topic_totals, assign, alpha, beta)
