"""On-demand compilation and loading of the repository's C kernels.

``phrase_lda_kernel.c`` (same directory) is a dependency-free C99 file with
three entry points: ``phrase_lda_sweep``, one PhraseLDA training sweep over
the flattened corpus (:func:`run_sweep`); ``phrase_lda_fold_in``, a chunk of
fold-in sweeps against a frozen model (:func:`run_fold_in`); and
``phrase_segment``, Algorithm 2's seed scoring and merge cascade over every
chunk of a flat chunk buffer (:func:`run_segment`).  This module compiles
the file with the system C compiler into one small shared library, caches
the build keyed by a hash of the source, the compile flags and (for a
native build) the host CPU's signature, and exposes it through
:mod:`ctypes`, which releases the GIL for the duration of each call.
Nothing here is required: when no compiler is available, training,
fold-in and segmentation fall back to their readable reference loops
(:mod:`repro.core.phrase_lda`, :mod:`repro.core.infer` and
:mod:`repro.core.phrase_construction`), so the kernel is a strictly
optional accelerator.

Build targets
-------------
The kernel is built for the host CPU (``-march=native``) whenever the
host's signature can be read (:func:`_cpu_signature`: on Linux the
``model name`` and ``flags`` lines of ``/proc/cpuinfo``).  The signature is
part of the cache key, so a checkout or build directory moved to another
CPU builds afresh instead of running instructions that CPU lacks.  Without
a signature, or when the native build fails to compile or load, the
portable build (the compiler's baseline ISA) is used instead;
:func:`kernel_target` says which one loaded.  Both builds give the same
results bit for bit: see ``_PORTABLE_FLAGS``.

Environment variables
---------------------
``REPRO_KERNEL_BUILD_DIR``
    Override the build cache directory (default: ``_build/`` next to this
    file).
``REPRO_DISABLE_C_KERNEL``
    Set to any non-empty value to pretend no compiler exists (useful for
    exercising the no-compiler fallbacks).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

_SOURCE_PATH = Path(__file__).with_name("phrase_lda_kernel.c")
# -O3 lets the compiler vectorise the kernels' per-topic Eq. 7 loops.  That
# stays bit-exact: each lane does the same IEEE operations in the same order
# as the scalar code, and no flag here permits reassociation (the cumulative
# sum stays a serial loop).
# -ffp-contract=off keeps the compiler from fusing a multiply and an add into
# one FMA, which would round once instead of twice and break bit-equality
# with the reference sampler.
_PORTABLE_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# Wider vectors for the same loops; the two rules above hold per lane, so
# the native build is bit-identical to the portable one.
_NATIVE_FLAGS = ("-march=native", *_PORTABLE_FLAGS)
_CPU_INFO = Path("/proc/cpuinfo")

_lib: Optional[ctypes.CDLL] = None
_target = "none"
_load_attempted = False
_load_error: Optional[str] = None


def _build_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_BUILD_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "_build"


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cpu_signature() -> Optional[str]:
    """The host CPU's model name and feature flags, or ``None`` when they
    cannot be read (no ``/proc/cpuinfo``, or neither line in it)."""
    try:
        text = _CPU_INFO.read_text(errors="replace")
    except OSError:
        return None
    found = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key in ("model name", "flags") and key not in found:
            found[key] = value.strip()
            if len(found) == 2:  # the first processor's lines are enough
                break
    if not found:
        return None
    return "\n".join(f"{key}: {value}" for key, value in sorted(found.items()))


def _compile(source: Path, destination: Path,
             flags: Sequence[str]) -> None:
    """Compile ``source`` with ``flags`` into the shared library
    ``destination``.

    Builds into a temporary file in the destination directory and renames it
    into place so concurrent builders never observe a half-written library.
    """
    compiler = _compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    destination.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=destination.parent)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *flags, str(source), "-o", tmp_name],
            check=True, capture_output=True, text=True, timeout=120,
        )
        os.replace(tmp_name, destination)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _library_path(flags: Sequence[str], signature: str = "") -> Path:
    # The flags and the CPU signature are part of the key: a flag change
    # must never reuse a stale build, nor a native build run on another CPU.
    hasher = hashlib.sha256(_SOURCE_PATH.read_bytes())
    hasher.update(" ".join(flags).encode("ascii"))
    hasher.update(signature.encode("utf-8"))
    digest = hasher.hexdigest()[:16]
    return _build_dir() / f"phrase_lda_kernel_{digest}.so"


def _open_library(flags: Sequence[str], signature: str) -> ctypes.CDLL:
    """Load the build for ``flags`` (and ``signature``), compiling it first
    when the cache lacks it, and declare every entry point's signature."""
    path = _library_path(flags, signature)
    if not path.exists():
        _compile(_SOURCE_PATH, path, flags)
    lib = ctypes.CDLL(str(path))
    # Every pointer is declared c_void_p and passed as ``arr.ctypes.data``
    # (a plain int): no per-call ctypes pointer objects.  The Python
    # wrappers below check dtypes, contiguity and sizes instead.
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    for name, argtypes in (
        # tokens, offsets, clique_doc, n_cliques, n_topics, alpha,
        # beta, beta_sum, topic_word, doc_topic, topic_totals, wfac,
        # tfac, assign, uniforms, scratch
        ("phrase_lda_sweep", [ptr, ptr, ptr, i64, i64, ptr, f64, f64,
                              ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr]),
        # tokens, offsets, clique_doc, n_cliques, n_topics, alpha, wfac,
        # tfac, doc_topic, assign, n_sweeps, uniforms, scratch
        ("phrase_lda_fold_in", [ptr, ptr, ptr, i64, i64, ptr, ptr, ptr,
                                ptr, ptr, i64, ptr, ptr]),
        # tokens, offsets, n_chunks, word_id, vocab_bound, pair_keys,
        # pair_sigs, pair_merged, n_pairs, n_phrases, threshold,
        # max_words, out, out_size
        ("phrase_segment", [ptr, ptr, i64, ptr, i64, ptr, ptr, ptr, i64,
                            i64, f64, i64, ptr, i64]),
    ):
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = argtypes
    lib.phrase_segment.restype = i64
    return lib


def load_kernel() -> Optional[ctypes.CDLL]:
    """Return the compiled kernel library, building it if necessary.

    Tries the native build when the host CPU's signature can be read and
    the portable build after it (see the module docstring).  Returns
    ``None`` (and remembers why in :func:`load_error`) when neither can be
    built or loaded; training, fold-in and segmentation then run their
    reference loops.
    """
    global _lib, _target, _load_attempted, _load_error
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_DISABLE_C_KERNEL"):
        _load_error = "disabled via REPRO_DISABLE_C_KERNEL"
        return None
    signature = _cpu_signature()
    builds = [("portable", _PORTABLE_FLAGS, "")]
    if signature is not None:
        builds.insert(0, ("native", _NATIVE_FLAGS, signature))
    errors = []
    for target, flags, build_signature in builds:
        try:
            _lib = _open_library(flags, build_signature)
        except Exception as exc:  # missing compiler, failed build, bad .so, ...
            errors.append(f"{target} build: {type(exc).__name__}: {exc}")
            continue
        _target = target
        return _lib
    _load_error = "; ".join(errors)
    return None


def kernel_available() -> bool:
    """True when the C kernels can be compiled and loaded."""
    return load_kernel() is not None


def load_error() -> Optional[str]:
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    load_kernel()
    return _load_error


def kernel_target() -> str:
    """Which build serves: ``"native"``, ``"portable"`` or ``"none"``."""
    load_kernel()
    return _target


def _kernel() -> ctypes.CDLL:
    lib = load_kernel()
    if lib is None:
        raise RuntimeError(f"C kernel unavailable: {_load_error}")
    return lib


def run_sweep(tokens: np.ndarray, offsets: np.ndarray, clique_doc: np.ndarray,
              n_topics: int, alpha: np.ndarray, beta: float, beta_sum: float,
              topic_word: np.ndarray, doc_topic: np.ndarray,
              topic_totals: np.ndarray, wfac: np.ndarray, tfac: np.ndarray,
              assign: np.ndarray, uniforms: np.ndarray,
              scratch: np.ndarray) -> None:
    """Invoke one C sweep over all cliques (arrays must be C-contiguous).

    ``wfac`` must hold ``beta + topic_word`` and ``tfac`` ``beta_sum +
    topic_totals`` on entry; the kernel keeps both equal to those
    expressions as it moves counts.  ``scratch`` holds ``2 * n_topics``
    doubles.
    """
    _require("wfac", wfac, np.float64, topic_word.size)
    _require("tfac", tfac, np.float64, n_topics)
    _require("scratch", scratch, np.float64, 2 * n_topics)
    _kernel().phrase_lda_sweep(
        tokens.ctypes.data, offsets.ctypes.data, clique_doc.ctypes.data,
        len(offsets) - 1, n_topics, alpha.ctypes.data, beta, beta_sum,
        topic_word.ctypes.data, doc_topic.ctypes.data,
        topic_totals.ctypes.data, wfac.ctypes.data, tfac.ctypes.data,
        assign.ctypes.data, uniforms.ctypes.data, scratch.ctypes.data)


def _require(name: str, array: np.ndarray, dtype, size: int) -> None:
    if (array.dtype != dtype or not array.flags.c_contiguous
            or array.size != size):
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} "
                         f"array of {size} elements")


def run_fold_in(tokens: np.ndarray, offsets: np.ndarray,
                clique_doc: np.ndarray, alpha: np.ndarray, wfac: np.ndarray,
                tfac: np.ndarray, doc_topic: np.ndarray, assign: np.ndarray,
                n_sweeps: int, uniforms: np.ndarray) -> None:
    """Run ``n_sweeps`` fold-in sweeps in C, mutating only ``doc_topic``
    and ``assign``.

    ``wfac`` (V x K) must hold ``beta + topic_word`` and ``tfac`` (K)
    ``beta * V + topic_totals`` of the frozen model, as for
    :func:`run_sweep`.  Buffer dtypes, contiguity and sizes are checked
    here; the caller guarantees the index ranges the kernel trusts (token
    ids in ``[0, V)``, assignments in ``[0, K)``, ``clique_doc`` rows of
    ``doc_topic``) and one uniform per non-empty clique per sweep.
    """
    n_words, n_topics = wfac.shape
    n_cliques = len(offsets) - 1
    _require("tokens", tokens, np.int32, tokens.size)
    _require("offsets", offsets, np.int64, n_cliques + 1)
    _require("clique_doc", clique_doc, np.int32, n_cliques)
    _require("alpha", alpha, np.float64, n_topics)
    _require("wfac", wfac, np.float64, n_words * n_topics)
    _require("tfac", tfac, np.float64, n_topics)
    _require("doc_topic", doc_topic, np.int64, doc_topic.shape[0] * n_topics)
    _require("assign", assign, np.int64, n_cliques)
    n_sampled = int(np.count_nonzero(np.diff(offsets)))
    _require("uniforms", uniforms, np.float64, n_sweeps * n_sampled)
    scratch = np.empty(2 * n_topics, dtype=np.float64)
    _kernel().phrase_lda_fold_in(
        tokens.ctypes.data, offsets.ctypes.data, clique_doc.ctypes.data,
        n_cliques, n_topics, alpha.ctypes.data, wfac.ctypes.data,
        tfac.ctypes.data, doc_topic.ctypes.data, assign.ctypes.data,
        n_sweeps, uniforms.ctypes.data, scratch.ctypes.data)


class SegmentTables:
    """The significance tables ``phrase_segment`` reads, checked once.

    Wraps the arrays :class:`~repro.core.significance.IndexedSignificanceScorer`
    precomputes: ``word_id`` (token id -> unigram phrase id, ids ``>=
    len(word_id) - 1`` read its last entry) and the sorted ``pair_keys``
    (``left_id * n_phrases + right_id``) with their ``pair_sigs`` and
    ``pair_merged`` ids.  Their addresses are taken here, once per model,
    rather than on every :func:`run_segment` call.
    """

    def __init__(self, word_id: np.ndarray, pair_keys: np.ndarray,
                 pair_sigs: np.ndarray, pair_merged: np.ndarray,
                 n_phrases: int) -> None:
        n_pairs = len(pair_keys)
        _require("word_id", word_id, np.int64, word_id.size)
        _require("pair_keys", pair_keys, np.int64, n_pairs)
        _require("pair_sigs", pair_sigs, np.float64, n_pairs)
        _require("pair_merged", pair_merged, np.int64, n_pairs)
        self._arrays = (word_id, pair_keys, pair_sigs, pair_merged)
        self._args = (word_id.ctypes.data, word_id.size - 1,
                      pair_keys.ctypes.data, pair_sigs.ctypes.data,
                      pair_merged.ctypes.data, n_pairs, n_phrases)

    def __reduce__(self):
        # A copy (pickle, deepcopy) re-takes the addresses of its own arrays.
        return (SegmentTables, (*self._arrays, self._args[-1]))


def run_segment(tables: SegmentTables, tokens: np.ndarray,
                offsets: np.ndarray, longest: int, threshold: float,
                max_words: int) -> Tuple[np.ndarray, np.ndarray]:
    """Run Algorithm 2 over every chunk of a flat chunk buffer in C.

    ``longest`` is the token count of the longest chunk: it sizes the
    kernel's scratch, and the kernel refuses a buffer it would overrun.
    ``max_words`` caps the words per phrase (pass a value above
    ``longest`` for no cap).  The caller guarantees every token id is
    non-negative.

    Returns
    -------
    (length, key)
        ``int64`` arrays over token positions.  The span headed at
        position ``p`` covers ``tokens[p:p + length[p]]``; ``length`` is 0
        at every position that is not a span head, and every chunk's first
        position is one.  ``key[p]`` is that span's phrase key: its id in
        the phrase table, or ``n_phrases + token id`` for a unigram the
        table lacks (``key`` is meaningless at other positions).
    """
    n_chunks = len(offsets) - 1
    _require("offsets", offsets, np.int64, n_chunks + 1)
    n_pos = int(offsets[-1])
    _require("tokens", tokens, np.int32, n_pos)
    # Results, then six eight-byte scratch slots per token of the longest
    # chunk, in one buffer (see the kernel's comment).
    out = np.empty(2 * n_pos + 6 * longest, dtype=np.int64)
    needed = _kernel().phrase_segment(
        tokens.ctypes.data, offsets.ctypes.data, n_chunks, *tables._args,
        threshold, max_words, out.ctypes.data, out.size)
    if needed:
        raise ValueError(f"longest={longest} is below the longest chunk: "
                         f"the kernel needs {needed} slots, got {out.size}")
    return out[:n_pos], out[n_pos:2 * n_pos]
