"""On-demand compilation and loading of the PhraseLDA C kernels.

``phrase_lda_kernel.c`` (same directory) is a dependency-free C99 file with
two entry points over the flattened corpus: ``phrase_lda_sweep``, one
training sweep (:func:`run_sweep`), and ``phrase_lda_fold_in``, a chunk of
fold-in sweeps against frozen counts (:func:`run_fold_in`).  This module
compiles it with the system C compiler into a small shared library, caches
the build keyed by a hash of the source and the compile flags, and exposes
it through :mod:`ctypes`, which releases the GIL for the duration of each
call.  Nothing here is required: when no compiler is available, training
falls back to the pure-NumPy vectorized sampler
(:class:`repro.topicmodel.gibbs.VectorizedGibbsSampler`) and fold-in to the
reference loop in :mod:`repro.core.infer`, so the kernel is a strictly
optional accelerator.

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
from typing import Optional

import numpy as np

_SOURCE_PATH = Path(__file__).with_name("phrase_lda_kernel.c")
# -O3 lets the compiler vectorise the kernels' per-topic Eq. 7 loops.  That
# stays bit-exact: each lane does the same IEEE operations in the same order
# as the scalar code, and no flag here permits reassociation (the cumulative
# sum stays a serial loop).
# -ffp-contract=off keeps the compiler from fusing a multiply and an add into
# one FMA, which would round once instead of twice and break bit-equality
# with the reference sampler.
_COMPILE_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_lib: Optional[ctypes.CDLL] = None
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


def _compile(source: Path, destination: Path) -> None:
    """Compile ``source`` into the shared library ``destination``.

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
            [compiler, *_COMPILE_FLAGS, str(source), "-o", tmp_name],
            check=True, capture_output=True, text=True, timeout=120,
        )
        os.replace(tmp_name, destination)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _library_path() -> Path:
    # The flags are part of the key: a flag change must never reuse a stale
    # build.
    hasher = hashlib.sha256(_SOURCE_PATH.read_bytes())
    hasher.update(" ".join(_COMPILE_FLAGS).encode("ascii"))
    digest = hasher.hexdigest()[:16]
    return _build_dir() / f"phrase_lda_kernel_{digest}.so"


def load_kernel() -> Optional[ctypes.CDLL]:
    """Return the compiled kernel library, building it if necessary.

    Returns ``None`` (and remembers why in :func:`load_error`) when the
    kernel cannot be built or loaded; callers should then use the NumPy
    sampler.
    """
    global _lib, _load_attempted, _load_error
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_DISABLE_C_KERNEL"):
        _load_error = "disabled via REPRO_DISABLE_C_KERNEL"
        return None
    try:
        path = _library_path()
        if not path.exists():
            _compile(_SOURCE_PATH, path)
        lib = ctypes.CDLL(str(path))
        fn = lib.phrase_lda_sweep
        fn.restype = None
        fn.argtypes = [
            ctypes.POINTER(ctypes.c_int32),   # tokens
            ctypes.POINTER(ctypes.c_int64),   # offsets
            ctypes.POINTER(ctypes.c_int32),   # clique_doc
            ctypes.c_int64,                   # n_cliques
            ctypes.c_int64,                   # n_topics
            ctypes.POINTER(ctypes.c_double),  # alpha
            ctypes.c_double,                  # beta
            ctypes.c_double,                  # beta_sum
            ctypes.POINTER(ctypes.c_int64),   # topic_word
            ctypes.POINTER(ctypes.c_int64),   # doc_topic
            ctypes.POINTER(ctypes.c_int64),   # topic_totals
            ctypes.POINTER(ctypes.c_double),  # wfac
            ctypes.POINTER(ctypes.c_double),  # tfac
            ctypes.POINTER(ctypes.c_int64),   # assign
            ctypes.POINTER(ctypes.c_double),  # uniforms
            ctypes.POINTER(ctypes.c_double),  # scratch
        ]
        fn = lib.phrase_lda_fold_in
        fn.restype = None
        fn.argtypes = [
            ctypes.POINTER(ctypes.c_int32),   # tokens
            ctypes.POINTER(ctypes.c_int64),   # offsets
            ctypes.POINTER(ctypes.c_int32),   # clique_doc
            ctypes.c_int64,                   # n_cliques
            ctypes.c_int64,                   # n_topics
            ctypes.POINTER(ctypes.c_double),  # alpha
            ctypes.c_double,                  # beta
            ctypes.c_double,                  # beta_sum
            ctypes.POINTER(ctypes.c_int64),   # topic_word (const)
            ctypes.POINTER(ctypes.c_int64),   # topic_totals (const)
            ctypes.POINTER(ctypes.c_int64),   # doc_topic
            ctypes.POINTER(ctypes.c_int64),   # assign
            ctypes.c_int64,                   # n_sweeps
            ctypes.POINTER(ctypes.c_double),  # uniforms
            ctypes.POINTER(ctypes.c_double),  # scratch
        ]
        _lib = lib
    except Exception as exc:  # missing compiler, failed build, bad .so, ...
        _load_error = f"{type(exc).__name__}: {exc}"
        _lib = None
    return _lib


def kernel_available() -> bool:
    """True when the C kernels can be compiled and loaded."""
    return load_kernel() is not None


def load_error() -> Optional[str]:
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    load_kernel()
    return _load_error


def _i32(array: np.ndarray):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_int32))


def _i64(array: np.ndarray):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def _f64(array: np.ndarray):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


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
        _i32(tokens), _i64(offsets), _i32(clique_doc),
        ctypes.c_int64(len(offsets) - 1), ctypes.c_int64(n_topics),
        _f64(alpha), ctypes.c_double(beta), ctypes.c_double(beta_sum),
        _i64(topic_word), _i64(doc_topic), _i64(topic_totals),
        _f64(wfac), _f64(tfac), _i64(assign), _f64(uniforms), _f64(scratch),
    )


def _require(name: str, array: np.ndarray, dtype, size: int) -> None:
    if (array.dtype != dtype or not array.flags.c_contiguous
            or array.size != size):
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} "
                         f"array of {size} elements")


def run_fold_in(tokens: np.ndarray, offsets: np.ndarray,
                clique_doc: np.ndarray, alpha: np.ndarray, beta: float,
                beta_sum: float, topic_word: np.ndarray,
                topic_totals: np.ndarray, doc_topic: np.ndarray,
                assign: np.ndarray, n_sweeps: int,
                uniforms: np.ndarray) -> None:
    """Run ``n_sweeps`` fold-in sweeps in C, mutating only ``doc_topic``
    and ``assign``.

    Buffer dtypes, contiguity and sizes are checked here; the caller
    guarantees the index ranges the kernel trusts (token ids in ``[0, V)``,
    assignments in ``[0, K)``, ``clique_doc`` rows of ``doc_topic``) and
    one uniform per non-empty clique per sweep.
    """
    n_words, n_topics = topic_word.shape
    n_cliques = len(offsets) - 1
    _require("tokens", tokens, np.int32, tokens.size)
    _require("offsets", offsets, np.int64, n_cliques + 1)
    _require("clique_doc", clique_doc, np.int32, n_cliques)
    _require("alpha", alpha, np.float64, n_topics)
    _require("topic_word", topic_word, np.int64, n_words * n_topics)
    _require("topic_totals", topic_totals, np.int64, n_topics)
    _require("doc_topic", doc_topic, np.int64, doc_topic.shape[0] * n_topics)
    _require("assign", assign, np.int64, n_cliques)
    n_sampled = int(np.count_nonzero(np.diff(offsets)))
    _require("uniforms", uniforms, np.float64, n_sweeps * n_sampled)
    _kernel().phrase_lda_fold_in(
        _i32(tokens), _i64(offsets), _i32(clique_doc),
        ctypes.c_int64(n_cliques), ctypes.c_int64(n_topics),
        _f64(alpha), ctypes.c_double(beta), ctypes.c_double(beta_sum),
        _i64(topic_word), _i64(topic_totals), _i64(doc_topic),
        _i64(assign), ctypes.c_int64(n_sweeps), _f64(uniforms),
        _f64(np.empty(n_topics, dtype=np.float64)),
    )
