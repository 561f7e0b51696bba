"""Flat-buffer collapsed Gibbs engines shared by LDA and PhraseLDA.

The readable reference samplers in :mod:`repro.topicmodel.lda` and
:mod:`repro.core.phrase_lda` walk nested Python lists and pay NumPy's
per-call overhead for every token.  The engines here restructure the
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
  bit-exact with the reference samplers.

Both engines consume the random stream in exactly the same order as the
reference samplers — one ``rng.integers`` call per document at
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

    @classmethod
    def from_token_docs(cls, token_docs: Sequence[Sequence[int]]) -> "FlatPhraseCorpus":
        """Build the all-singleton flattening of bag-of-words documents.

        Every token is its own clique, which makes the engines sample
        standard collapsed-Gibbs LDA ("LDA is a special case of PhraseLDA").
        """
        flat = cls.__new__(cls)
        token_list: List[int] = []
        doc_ranges: List[Tuple[int, int]] = []
        clique_doc: List[int] = []
        for d, doc in enumerate(token_docs):
            start = len(token_list)
            token_list.extend(int(w) for w in doc)
            doc_ranges.append((start, len(token_list)))
            clique_doc.extend([d] * (len(token_list) - start))
        flat.tokens = np.asarray(token_list, dtype=np.int32)
        flat.offsets = np.arange(len(token_list) + 1, dtype=np.int64)
        flat.clique_doc = np.asarray(clique_doc, dtype=np.int32)
        flat.doc_ranges = doc_ranges
        flat.n_cliques = len(token_list)
        flat.n_sampled = len(token_list)
        flat.n_tokens = len(token_list)
        flat.n_docs = len(token_docs)
        flat.max_clique_size = 1 if token_list else 0
        flat._token_list = None
        flat._offset_list = None
        return flat

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

    Consumes the random stream exactly like the reference samplers: one
    ``rng.integers(0, K, size=n_cliques_of_doc)`` call per document, in
    document order.  Counting is vectorized with ``np.add.at``/``bincount``
    over the flat buffers.

    Returns ``(topic_word, doc_topic, topic_totals, assign)`` with the same
    dtypes and layouts the reference samplers use.
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
    (``int64``, shared with the caller's state object) in place."""

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
        self.alpha = np.ascontiguousarray(alpha, dtype=np.float64)
        self.beta = float(beta)
        self._scratch = np.empty(self.n_topics, dtype=np.float64)

    def rebuild(self, alpha: np.ndarray, beta: float) -> None:
        """Adopt new hyper-parameters (after Minka fixed-point updates)."""
        self.alpha = np.ascontiguousarray(alpha, dtype=np.float64)
        self.beta = float(beta)

    def sweep(self, rng: np.random.Generator) -> None:
        """One full Gibbs sweep over every clique."""
        if self.flat.n_sampled == 0:
            return
        uniforms = rng.random(self.flat.n_sampled)
        ckernel.run_sweep(
            self.flat.tokens, self.flat.offsets, self.flat.clique_doc,
            self.n_topics, self.alpha, self.beta,
            self.beta * self.vocabulary_size,
            self.topic_word, self.doc_topic, self.topic_totals,
            self.assign, uniforms, self._scratch)

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

    The single validation shared by :class:`BatchFoldInSampler` and the
    reference fold-in loop in :mod:`repro.core.infer`, so both engines are
    equally strict and the error messages cannot drift.

    Raises
    ------
    ValueError
        If ``beta`` or any ``alpha`` entry is non-positive (a clique
        posterior could then have zero mass), or if any token id falls
        outside ``[0, vocabulary_size)``.
    """
    if beta <= 0 or np.any(np.asarray(alpha) <= 0):
        raise ValueError(
            f"fold-in requires alpha > 0 and beta > 0 (got alpha min "
            f"{float(np.min(alpha))}, beta {beta}), so every clique "
            f"posterior has positive mass")
    _check_token_range(flat.tokens, vocabulary_size)


class BatchFoldInSampler:
    """Cross-document vectorized Gibbs fold-in over a frozen topic model.

    Fold-in keeps the trained topic-word statistics fixed and resamples only
    the new documents' clique assignments, which is the standard way to
    estimate ``θ`` for held-out text without retraining (the clique-aware
    generalisation of :meth:`LatentDirichletAllocation.infer_document_topics`).
    The per-clique conditional is Eq. 7 with the word and topic-total factors
    frozen at their trained values::

        p(C_{d,g} = k) ∝ Π_{j=1}^{W_{d,g}}
            (α_k + n_{d,k} + j − 1) ·
            (β + N_{w_j,k}) / (Σ_x β_x + N_k + j − 1)

    where ``n_{d,k}`` counts only the *new* document's tokens.

    The reference fold-in (``TopicInferencer._fold_in_reference`` in
    :mod:`repro.core.infer`, the executable specification) walks one clique
    at a time in a Python loop.
    Fold-in documents are statistically *independent* of each other — only
    the per-document counts ``n_{d,k}`` change between sweeps, never the
    frozen topic-word statistics — so cliques of *different* documents can
    be resampled simultaneously.  This sampler exploits that: cliques are
    grouped into *slots* (slot ``s`` holds every document's ``s``-th
    non-empty clique), and each slot is resampled with one batched NumPy
    pass over all active documents.  Per sweep the Python-level work drops
    from ``O(total cliques)`` to ``O(max cliques per document)`` iterations,
    which is the measurable multi-document speedup behind the ``"batch"``
    inference engine and the serving layer's micro-batching scheduler.

    **Bit-exactness.**  Every elementwise operation is applied in the same
    order with the same operands as the reference fold-in (posterior
    products per Eq. 7, row-wise cumulative sums, inverse-CDF draws, the
    underflow fallback), and float64 elementwise NumPy ops are deterministic
    per element regardless of batching — so a slot-parallel sweep produces
    exactly the assignments the reference loop would.

    **Independent request streams.**  Documents are partitioned into
    *groups* (one per client request in the serving scenario); each group
    consumes its own :class:`numpy.random.Generator` exactly like a solo
    reference fold-in over just that group's documents (one
    ``integers`` draw per document at initialisation, one ``random`` batch
    of that group's non-empty-clique count per sweep).  A batched pass over
    many requests with per-request seeds is therefore bit-identical to
    running each request alone with its seed — the property the serving
    tests pin.

    Parameters
    ----------
    flat:
        Flattened unseen documents (already segmented with the frozen
        phrase table), covering *all* groups back to back.
    topic_word_counts, topic_counts:
        Trained ``V × K`` and length-``K`` count arrays; never mutated.
    alpha, beta:
        The trained model's Dirichlet hyper-parameters.
    group_doc_ranges:
        ``(doc_start, doc_end)`` per group, partitioning ``flat``'s
        documents in order.  Defaults to a single group covering everything
        (the single-request case of the ``"batch"`` engine).
    """

    name = "batch"

    def __init__(self, flat: FlatPhraseCorpus, topic_word_counts: np.ndarray,
                 topic_counts: np.ndarray, alpha: np.ndarray, beta: float,
                 group_doc_ranges: Sequence[Tuple[int, int]] = None) -> None:
        n_topics = topic_word_counts.shape[1]
        vocabulary_size = topic_word_counts.shape[0]
        validate_fold_in_input(flat, alpha, beta, vocabulary_size)
        if group_doc_ranges is None:
            group_doc_ranges = [(0, flat.n_docs)]
        self._validate_groups(group_doc_ranges, flat.n_docs)
        self.flat = flat
        self.n_topics = n_topics
        self.vocabulary_size = vocabulary_size
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.beta = float(beta)
        self.group_doc_ranges = [(int(a), int(b)) for a, b in group_doc_ranges]
        # Frozen factors of the trained model (never written).
        self.wfac = topic_word_counts + self.beta
        self.tfac = topic_counts + self.beta * vocabulary_size
        self.doc_topic = np.zeros((flat.n_docs, n_topics), dtype=np.int64)
        self.assign = np.empty(flat.n_cliques, dtype=np.int64)
        self._build_slots()

    @staticmethod
    def _validate_groups(ranges: Sequence[Tuple[int, int]], n_docs: int) -> None:
        """Require ``ranges`` to partition ``[0, n_docs)`` in order."""
        expected = 0
        for a, b in ranges:
            if a != expected or b < a:
                raise ValueError(
                    f"group_doc_ranges must partition [0, {n_docs}) in "
                    f"order; got {list(ranges)}")
            expected = b
        if expected != n_docs:
            raise ValueError(
                f"group_doc_ranges cover [0, {expected}) but the corpus has "
                f"{n_docs} documents")

    def _build_slots(self) -> None:
        """Precompute the slot structure driving the vectorized sweeps.

        Slot ``s`` gathers the ``s``-th *non-empty* clique of every document
        (documents with fewer cliques simply drop out), sorted by descending
        clique size so the per-token Eq. 7 loop can operate on shrinking
        contiguous prefixes instead of boolean masks.  Each clique also gets
        a precomputed index into the per-sweep uniform buffer: uniforms are
        drawn per *group* in document order, skipping empty cliques —
        exactly the order a solo reference fold-in over that group would
        consume them in.
        """
        flat = self.flat
        sizes = flat.clique_sizes()
        uniform_index = np.full(flat.n_cliques, -1, dtype=np.int64)
        group_sampled: List[int] = []
        group_starts: List[int] = []
        per_doc: List[List[int]] = [[] for _ in range(flat.n_docs)]
        base = 0
        for doc_start, doc_end in self.group_doc_ranges:
            group_starts.append(base)
            cursor = 0
            for d in range(doc_start, doc_end):
                g0, g1 = flat.doc_ranges[d]
                for g in range(g0, g1):
                    if sizes[g] == 0:
                        continue
                    uniform_index[g] = base + cursor
                    cursor += 1
                    per_doc[d].append(g)
            group_sampled.append(cursor)
            base += cursor
        self._group_sampled = group_sampled
        self._group_starts = group_starts
        self._total_sampled = base

        max_slots = max((len(cliques) for cliques in per_doc), default=0)
        slots = []
        for s in range(max_slots):
            ids = np.asarray([cliques[s] for cliques in per_doc
                              if len(cliques) > s], dtype=np.int64)
            slot_sizes = sizes[ids]
            order = np.argsort(-slot_sizes, kind="stable")
            ids = ids[order]
            slot_sizes = slot_sizes[order]
            # size_prefix[j] = number of cliques in this slot with > j tokens
            # (valid rows for the j-th factor of Eq. 7, given the sort).
            max_size = int(slot_sizes[0]) if len(slot_sizes) else 0
            size_prefix = [int(np.searchsorted(-slot_sizes, -j, side="left"))
                           for j in range(max_size + 1)]
            slots.append({
                "ids": ids,
                "docs": flat.clique_doc[ids].astype(np.int64),
                "sizes": slot_sizes,
                "first": flat.offsets[ids],
                "uniform": uniform_index[ids],
                "size_prefix": size_prefix,
                "max_size": max_size,
            })
        self._slots = slots

    def initialize(self, rngs: Sequence[np.random.Generator]) -> None:
        """Draw one topic per clique and (re)build the local document counts.

        Parameters
        ----------
        rngs:
            One generator per group, each consuming one ``integers`` draw
            per document of its group (the solo initialisation stream).
        """
        flat = self.flat
        if len(rngs) != len(self.group_doc_ranges):
            raise ValueError(f"expected {len(self.group_doc_ranges)} "
                             f"generators, got {len(rngs)}")
        for rng, (doc_start, doc_end) in zip(rngs, self.group_doc_ranges):
            for d in range(doc_start, doc_end):
                g0, g1 = flat.doc_ranges[d]
                self.assign[g0:g1] = rng.integers(0, self.n_topics, size=g1 - g0)
        sizes = flat.clique_sizes()
        token_topics = np.repeat(self.assign, sizes)
        token_docs = np.repeat(flat.clique_doc.astype(np.int64), sizes)
        self.doc_topic[:] = 0
        np.add.at(self.doc_topic, (token_docs, token_topics), 1)

    def sweep(self, rngs: Sequence[np.random.Generator]) -> None:
        """Resample every clique once, slot-parallel across documents.

        Per group, the sweep's uniforms are drawn up front from that group's
        generator (``rng.random(n_sampled)``, the solo stream); slots then
        consume them via the precomputed per-clique indices, so computation
        order never affects which uniform a clique sees.
        """
        if len(rngs) != len(self.group_doc_ranges):
            raise ValueError(f"expected {len(self.group_doc_ranges)} "
                             f"generators, got {len(rngs)}")
        if self._total_sampled == 0:
            return
        K = self.n_topics
        alpha, wfac, tfac = self.alpha, self.wfac, self.tfac
        tokens = self.flat.tokens
        local = self.doc_topic
        assign = self.assign

        uniforms = np.empty(self._total_sampled, dtype=np.float64)
        for rng, start, count in zip(rngs, self._group_starts,
                                     self._group_sampled):
            uniforms[start:start + count] = rng.random(count)

        for slot in self._slots:
            ids = slot["ids"]
            docs = slot["docs"]
            sizes = slot["sizes"]
            k_old = assign[ids]
            local[docs, k_old] -= sizes
            # Fresh float base per clique (the reference's ``alpha + local``
            # term), then the Eq. 7 factors in the reference loop's exact
            # elementwise order: numerator multiply, word-factor multiply,
            # denominator divide, per token.
            dfr = local[docs] + alpha[None, :]
            buf = dfr * wfac[tokens[slot["first"]]]
            buf /= tfac[None, :]
            prefix = slot["size_prefix"]
            for j in range(1, slot["max_size"]):
                nj = prefix[j]
                jf = float(j)
                active = buf[:nj]
                active *= dfr[:nj] + jf
                active *= wfac[tokens[slot["first"][:nj] + j]]
                active /= tfac[None, :] + jf
            cum = np.cumsum(buf, axis=1)
            total = cum[:, K - 1]
            u = uniforms[slot["uniform"]]
            k_new = np.sum(cum < (u * total)[:, None], axis=1)
            underflowed = ~(total > 0.0)
            if underflowed.any():
                # Same uniform fallback as the reference fold-in: an
                # underflowed posterior draws uniformly from the consumed u.
                k_new[underflowed] = np.minimum(
                    (u[underflowed] * K).astype(np.int64), K - 1)
            local[docs, k_new] += sizes
            assign[ids] = k_new

    def theta(self) -> np.ndarray:
        """Posterior ``θ̂`` for every folded-in document (all groups).

        Returns
        -------
        numpy.ndarray
            ``D × K`` row-normalised ``(α_k + n_{d,k}) / Σ_k (α_k + n_{d,k})``.
        """
        theta = self.doc_topic + self.alpha[None, :]
        return theta / theta.sum(axis=1, keepdims=True)


def run_fit_loop(sampler, state, config, rng: np.random.Generator,
                 callback=None) -> None:
    """Drive a flat sampler through a full fit: sweeps, Minka hyper-parameter
    updates, and per-iteration callbacks.

    Shared by :class:`~repro.topicmodel.lda.LatentDirichletAllocation` and
    :class:`~repro.core.phrase_lda.PhraseLDA` so the sweep/hyperopt/callback
    choreography exists in exactly one place.  ``config`` provides
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
