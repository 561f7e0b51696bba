"""Versioned model-artifact bundles (``.npz`` + embedded JSON manifest).

A bundle is a single uncompressed NumPy archive whose arrays carry the bulk
numeric state and whose ``manifest`` entry is a JSON document describing
format, version, kind, configurations, and array shapes.  Two kinds exist:

``"segmentation"``
    The output of the phrase-mining half of ToPMine (Algorithms 1 + 2):
    frozen vocabulary, significant-phrase table, segmenter parameters, and
    the training corpus' bag-of-phrases segmentation.  ``repro fit``
    consumes this to run PhraseLDA without re-mining.

``"model"``
    A fully fitted model: everything inference needs (vocabulary, phrase
    table, segmenter and preprocessing parameters) plus the PhraseLDA count
    matrices, final hyper-parameters, per-topic topical-frequency tables
    (Eq. 8), and engine metadata.  ``repro topics`` and ``repro infer``
    consume this.

Format guarantees
-----------------
* **Versioning** — every bundle records ``format`` (``"repro.topmine"``)
  and an integer ``version``.  Readers accept any version up to their own
  :data:`FORMAT_VERSION` and reject newer bundles with
  :class:`ArtifactVersionError`; within a version, writers may only add
  optional manifest fields (readers ignore unknown keys).  Array names,
  dtypes, and shape relations are frozen per version.
* **Validation** — structural invariants (manifest presence, kind, array
  set, offset monotonicity, shape cross-consistency) are checked on load;
  violations raise :class:`ArtifactError` with a message naming the defect.
* **Round-trips** — saving and loading a model bundle preserves the topic
  tables exactly: the decoded top topical phrases and unigram rankings of
  the reloaded bundle are identical to the in-memory training run's,
  regardless of which sampling engine produced the fit (asserted by
  ``tests/test_artifacts.py``).

Only the *most frequent* surface form of each stem is persisted (that is
all unstemming ever consults); minority surface spellings are not.

Zero-copy loading
-----------------
Bundles are written **uncompressed** (``np.savez``) so every array member
sits contiguously inside the ``.npz`` zip container.  :func:`load_bundle`
memory-maps the whole file read-only and builds each array directly over
the mapping (``np.frombuffer`` at the member's data offset) — no array
payload is ever copied into private process memory.  Because the mapping
is shared and read-only, N serving worker processes that load the same
bundle share **one** physical copy of its arrays through the OS page
cache; this is what lets the multi-process serve fleet
(:mod:`repro.serve.fleet`) scale out without multiplying model memory.
Compressed bundles written by older versions still load (the reader
falls back to materializing them) — they just aren't shareable.
"""

from __future__ import annotations

import io
import itertools
import json
import mmap
import tokenize
import zipfile
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.frequent_phrases import FrequentPhraseMiningResult
from repro.core.infer import InferenceConfig, TopicInferencer
from repro.core.phrase_construction import PhraseConstructionConfig
from repro.core.phrase_lda import PhraseLDAState
from repro.core.segmentation import CorpusSegmenter, SegmentedCorpus
from repro.core.visualization import TopicVisualization, build_visualization
from repro.text.preprocess import PreprocessConfig
from repro.text.vocabulary import Vocabulary
from repro.topicmodel.gibbs import ENGINES, FlatPhraseCorpus
from repro.utils.counter import HashCounter
from repro.utils.files import atomic_write

Phrase = Tuple[int, ...]

FORMAT_NAME = "repro.topmine"
FORMAT_VERSION = 1
KINDS = ("segmentation", "model")

_COMMON_ARRAYS = (
    "vocab_words", "vocab_frequencies", "vocab_surface",
    "phrase_tokens", "phrase_offsets", "phrase_counts",
)
_SEGMENTATION_ARRAYS = _COMMON_ARRAYS + (
    "seg_tokens", "seg_phrase_offsets", "seg_doc_offsets",
)
_MODEL_ARRAYS = _COMMON_ARRAYS + (
    "topic_word_counts", "doc_topic_counts", "topic_counts", "alpha",
    "topical_tokens", "topical_offsets", "topical_counts",
)

#: What the zip and npy readers raise on a corrupt container besides
#: ``ValueError``/``OSError``: zipfile raises ``NotImplementedError`` for an
#: unknown compression method or zip version, ``RuntimeError`` for a member
#: flagged as encrypted and ``zlib.error``/``EOFError`` for a mangled
#: deflate stream, and numpy's fallback npy-header parser raises
#: ``tokenize.TokenError`` (or a ``SyntaxError``) on a mangled header dict.
_UNREADABLE = (zipfile.BadZipFile, ValueError, OSError, KeyError, EOFError,
               NotImplementedError, RuntimeError, SyntaxError,
               tokenize.TokenError, zlib.error)


class ArtifactError(Exception):
    """A bundle file is missing, corrupt, or violates the schema."""


class ArtifactVersionError(ArtifactError):
    """A bundle was written by an incompatible (newer) format version."""


# -- low-level container --------------------------------------------------------------
def _write_npz(path: Union[str, Path], header: Dict[str, Any],
               arrays: Dict[str, np.ndarray], compress: bool = False,
               header_name: str = "manifest") -> Path:
    """Atomically write a JSON header plus arrays as one ``.npz`` container.

    The container shared by model bundles (header member ``manifest``) and
    stream statistics files (``meta``): every array is one ``.npy`` member
    and the header is a 0-d string array holding sorted-key JSON.
    Uncompressed by default: only stored (``ZIP_STORED``) members can be
    memory-mapped by the zero-copy loader; ``compress=True`` trades that
    away for a smaller file.

    The commit goes through :func:`repro.utils.files.atomic_write`, so the
    new file gets a fresh inode: processes still holding the old file
    memory-mapped keep reading a consistent old version instead of
    crashing on truncated pages — the invariant the hot-swapping serve
    fleet relies on when a model is republished under traffic.
    """
    payload = dict(arrays)
    payload[header_name] = np.array(json.dumps(header, sort_keys=True))
    writer = np.savez_compressed if compress else np.savez
    # A file handle keeps numpy from appending ".npz" to the requested path.
    with atomic_write(path) as handle:
        writer(handle, **payload)
    return Path(path)


#: Fixed part of a zip local file header; the variable filename/extra
#: lengths sit at offsets 26 and 28 (PKZIP appnote 4.3.7).
_ZIP_LOCAL_HEADER_SIZE = 30

_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def mmap_backing(array: np.ndarray) -> Optional[mmap.mmap]:
    """Return the ``mmap`` ultimately backing ``array``, or ``None``.

    Walks the ``base`` chain of views down to the owning buffer.  Serving
    tests use this to assert that registry-loaded bundle arrays really are
    page-cache-shared mappings rather than private writable copies.
    """
    base = array
    while base is not None:
        if isinstance(base, mmap.mmap):
            return base
        if isinstance(base, memoryview):
            base = base.obj
            continue
        base = getattr(base, "base", None)
    return None


def _map_member(mapped: mmap.mmap, info: zipfile.ZipInfo,
                path: Path) -> np.ndarray:
    """Build a read-only array over one stored ``.npy`` member in place.

    The member's CRC-32 is checked over a view of the map (no copy), as
    :mod:`zipfile` does on a materializing read.
    """
    header = info.header_offset
    name_length = int.from_bytes(
        mapped[header + 26:header + 28], "little")
    extra_length = int.from_bytes(
        mapped[header + 28:header + 30], "little")
    data_offset = header + _ZIP_LOCAL_HEADER_SIZE + name_length + extra_length
    with memoryview(mapped) as view:
        crc = zlib.crc32(view[data_offset:data_offset + info.file_size])
    if crc != info.CRC:
        raise ArtifactError(f"{path}: bad CRC-32 for member {info.filename}")
    prefix = io.BytesIO(mapped[data_offset:data_offset
                               + min(info.file_size, 4096)])
    try:
        version = np.lib.format.read_magic(prefix)
        reader = _NPY_HEADER_READERS.get(version)
        if reader is None:
            raise ValueError(f"unsupported npy format version {version}")
        shape, fortran_order, dtype = reader(prefix)
    except _UNREADABLE as exc:
        raise ArtifactError(
            f"{path}: member {info.filename} is not a valid npy array: "
            f"{exc}") from exc
    if dtype.hasobject:
        raise ArtifactError(
            f"{path}: member {info.filename} contains Python objects")
    count = 1
    for dimension in shape:
        count *= dimension
    array = np.frombuffer(mapped, dtype=dtype, count=count,
                          offset=data_offset + prefix.tell())
    return array.reshape(shape, order="F" if fortran_order else "C")


def _map_npz_arrays(path: Path) -> Optional[Dict[str, np.ndarray]]:
    """Memory-map every array member of an uncompressed bundle, zero-copy.

    Returns ``{member_stem: read-only array}`` — each array a view over
    one shared, read-only ``mmap`` of the whole file (kept alive through
    the arrays' ``base`` chain), so concurrent processes mapping the same
    bundle share a single physical copy via the OS page cache.  Returns
    ``None`` when any member is compressed (older ``savez_compressed``
    bundles), signalling the caller to fall back to a materializing load.
    """
    with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
        members = archive.infolist()
        if any(info.compress_type != zipfile.ZIP_STORED for info in members):
            return None
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    return {info.filename.removesuffix(".npy"): _map_member(mapped, info, path)
            for info in members}


def _read_container(path: Union[str, Path], header_name: str = "manifest",
                    noun: str = "bundle", mapped: bool = True,
                    header_only: bool = False,
                    ) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Read a container written by :func:`_write_npz`; return (header, arrays).

    Every way a damaged container fails to open or decode (see
    :data:`_UNREADABLE`) and a missing or non-JSON header raise
    :class:`ArtifactError` whose message names the file as a ``noun``.
    With ``mapped=True`` the arrays of an uncompressed container are
    zero-copy views over a shared read-only memory map; compressed
    containers (and ``mapped=False``) materialize private copies.  With
    ``header_only=True`` only the header member is read (no array payload
    byte is touched) and the returned arrays are empty.
    """
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"{noun} not found: {path}")
    try:
        data = _map_npz_arrays(path) if mapped and not header_only else None
        if data is None:
            with zipfile.ZipFile(path) as archive:
                names = archive.namelist()
                if header_only:
                    names = [name for name in names
                             if name == f"{header_name}.npy"]
                data = {}
                for name in names:
                    with archive.open(name) as handle:
                        data[name.removesuffix(".npy")] = \
                            np.lib.format.read_array(handle, allow_pickle=False)
    except _UNREADABLE as exc:
        raise ArtifactError(f"{path} is not a readable {noun}: {exc}") from exc
    if header_name not in data:
        raise ArtifactError(f"{path} has no {header_name} entry — not a {noun}")
    try:
        header = json.loads(str(data.pop(header_name)[()]))
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            f"{path}: corrupt {header_name} JSON: {exc}") from exc
    return header, data


def _read_npz(path: Union[str, Path],
              mapped: bool = True) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Load and structurally validate a bundle; return (manifest, arrays)."""
    manifest, data = _read_container(path, mapped=mapped)
    _validate_manifest(manifest, Path(path))
    _validate_arrays(manifest, data, Path(path))
    return manifest, data


def _validate_manifest(manifest: Any, path: Path) -> None:
    """Check format, version, and kind of a decoded manifest."""
    if not isinstance(manifest, dict):
        raise ArtifactError(f"{path}: manifest is not a JSON object")
    if manifest.get("format") != FORMAT_NAME:
        raise ArtifactError(
            f"{path}: format is {manifest.get('format')!r}, expected {FORMAT_NAME!r}")
    version = manifest.get("version")
    if not isinstance(version, int) or version < 1:
        raise ArtifactError(f"{path}: invalid format version {version!r}")
    if version > FORMAT_VERSION:
        raise ArtifactVersionError(
            f"{path}: bundle version {version} is newer than this reader "
            f"(supports up to {FORMAT_VERSION}); upgrade topmine-repro to load it")
    if manifest.get("kind") not in KINDS:
        raise ArtifactError(
            f"{path}: unknown bundle kind {manifest.get('kind')!r}; "
            f"expected one of {KINDS}")
    mining = manifest.get("mining")
    if not isinstance(mining, dict) or not all(
            isinstance(mining.get(key), int)
            for key in ("total_tokens", "min_support", "iterations")):
        raise ArtifactError(
            f"{path}: manifest is missing a valid 'mining' section "
            f"(total_tokens/min_support/iterations)")
    if mining["total_tokens"] < 1:
        raise ArtifactError(f"{path}: mining.total_tokens must be positive")
    for section in ("construction", "preprocess", "metadata", "corpus"):
        if not isinstance(manifest.get(section, {}), dict):
            raise ArtifactError(
                f"{path}: manifest section {section!r} is not a JSON object")
    construction = manifest.get("construction", {})
    if construction.get("engine", "auto") not in ENGINES:
        raise ArtifactError(
            f"{path}: unknown construction engine "
            f"{construction.get('engine')!r}; expected one of {ENGINES}")
    threshold = construction.get("significance_threshold", 0.0)
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ArtifactError(
            f"{path}: construction.significance_threshold {threshold!r} "
            f"is not a number")
    if manifest["kind"] == "model":
        model = manifest.get("model")
        if not isinstance(model, dict) or \
                not isinstance(model.get("beta"), (int, float)):
            raise ArtifactError(
                f"{path}: manifest is missing a valid 'model' section (beta)")


def _validate_arrays(manifest: Dict[str, Any], arrays: Dict[str, np.ndarray],
                     path: Path) -> None:
    """Check the array set and cross-array shape invariants."""
    required = (_SEGMENTATION_ARRAYS if manifest["kind"] == "segmentation"
                else _MODEL_ARRAYS)
    missing = [name for name in required if name not in arrays]
    if missing:
        raise ArtifactError(f"{path}: bundle is missing arrays {missing}")

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise ArtifactError(f"{path}: {message}")

    n_words = len(arrays["vocab_words"])
    check(len(arrays["vocab_frequencies"]) == n_words
          and len(arrays["vocab_surface"]) == n_words,
          "vocabulary arrays disagree in length")

    def check_token_ids(name: str) -> None:
        tokens = arrays[name]
        check(np.issubdtype(tokens.dtype, np.integer),
              f"{name} must have an integer dtype")
        if tokens.size and (int(tokens.min()) < 0
                            or int(tokens.max()) >= n_words):
            raise ArtifactError(
                f"{path}: {name} contains ids outside the vocabulary "
                f"[0, {n_words})")

    def check_counts(name: str, minimum: int) -> None:
        counts = arrays[name]
        check(np.issubdtype(counts.dtype, np.integer),
              f"{name} must have an integer dtype")
        check(not counts.size or int(counts.min()) >= minimum,
              f"{name} must be >= {minimum}")

    check_token_ids("phrase_tokens")
    _check_offsets(arrays["phrase_offsets"], len(arrays["phrase_tokens"]),
                   "phrase_offsets", check)
    check(len(arrays["phrase_counts"]) == len(arrays["phrase_offsets"]) - 1,
          "phrase_counts length does not match phrase_offsets")
    check_counts("phrase_counts", 1)

    if manifest["kind"] == "segmentation":
        check_token_ids("seg_tokens")
        _check_offsets(arrays["seg_phrase_offsets"], len(arrays["seg_tokens"]),
                       "seg_phrase_offsets", check)
        _check_offsets(arrays["seg_doc_offsets"],
                       len(arrays["seg_phrase_offsets"]) - 1,
                       "seg_doc_offsets", check)
    else:
        topic_word = arrays["topic_word_counts"]
        check(topic_word.ndim == 2, "topic_word_counts must be 2-D")
        n_topics = topic_word.shape[1]
        check(topic_word.shape[0] == n_words,
              "topic_word_counts rows do not match the vocabulary")
        check(arrays["topic_counts"].shape == (n_topics,),
              "topic_counts length does not match n_topics")
        check_counts("topic_word_counts", 0)
        check_counts("topic_counts", 0)
        check(arrays["alpha"].shape == (n_topics,),
              "alpha length does not match n_topics")
        check(arrays["doc_topic_counts"].ndim == 2
              and arrays["doc_topic_counts"].shape[1] == n_topics,
              "doc_topic_counts columns do not match n_topics")
        check_token_ids("topical_tokens")
        _check_offsets(arrays["topical_offsets"], len(arrays["topical_tokens"]),
                       "topical_offsets", check)
        check(arrays["topical_counts"].shape ==
              (len(arrays["topical_offsets"]) - 1, n_topics),
              "topical_counts shape does not match topical_offsets / n_topics")


def _check_offsets(offsets: np.ndarray, n_items: int, name: str, check) -> None:
    """Validate an offsets array: integer, starts at 0, monotone, ends at
    ``n_items``."""
    check(offsets.ndim == 1 and len(offsets) >= 1, f"{name} must be 1-D and non-empty")
    check(np.issubdtype(offsets.dtype, np.integer),
          f"{name} must have an integer dtype")
    check(int(offsets[0]) == 0, f"{name} must start at 0")
    check(int(offsets[-1]) == n_items, f"{name} must end at {n_items}")
    check(bool(np.all(np.diff(offsets) >= 0)), f"{name} must be non-decreasing")


# -- packing helpers ------------------------------------------------------------------
def _pack_ragged(sequences: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten variable-length int sequences into (tokens, offsets) arrays."""
    offsets = np.zeros(len(sequences) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, sequences), dtype=np.int64,
                          count=len(sequences)), out=offsets[1:])
    tokens = np.fromiter(itertools.chain.from_iterable(sequences),
                         dtype=np.int32, count=int(offsets[-1]))
    return tokens, offsets


def _unpack_ragged(tokens: np.ndarray, offsets: np.ndarray) -> List[Phrase]:
    """Invert :func:`_pack_ragged` into a list of word-id tuples."""
    token_list = tokens.tolist()
    offset_list = offsets.tolist()
    return [tuple(token_list[a:b]) for a, b in zip(offset_list, offset_list[1:])]


def _pack_vocabulary(vocabulary: Vocabulary) -> Dict[str, np.ndarray]:
    """Serialise a vocabulary into string/int arrays (id order preserved)."""
    entries = vocabulary.export_entries()
    return {
        "vocab_words": np.asarray([word for word, _, _ in entries]),
        "vocab_frequencies": np.asarray([freq for _, freq, _ in entries],
                                        dtype=np.int64),
        "vocab_surface": np.asarray([surface for _, _, surface in entries]),
    }


def _unpack_vocabulary(arrays: Dict[str, np.ndarray]) -> Vocabulary:
    """Rebuild a vocabulary from the arrays written by :func:`_pack_vocabulary`."""
    return Vocabulary.from_entries(zip(arrays["vocab_words"].tolist(),
                                       arrays["vocab_frequencies"].tolist(),
                                       arrays["vocab_surface"].tolist()))


def _pack_phrase_table(counter: HashCounter,
                       prefix: str = "phrase") -> Dict[str, np.ndarray]:
    """Serialise a phrase counter as ``<prefix>_tokens``/``_offsets``/
    ``_counts`` arrays (phrase-sorted for byte-determinism)."""
    items = sorted(counter.items())
    tokens, offsets = _pack_ragged([phrase for phrase, _ in items])
    return {
        f"{prefix}_tokens": tokens,
        f"{prefix}_offsets": offsets,
        f"{prefix}_counts": np.asarray([count for _, count in items],
                                       dtype=np.int64),
    }


def _unpack_phrase_table(arrays: Dict[str, np.ndarray],
                         prefix: str = "phrase") -> HashCounter:
    """Invert :func:`_pack_phrase_table`."""
    phrases = _unpack_ragged(arrays[f"{prefix}_tokens"],
                             arrays[f"{prefix}_offsets"])
    counts = arrays[f"{prefix}_counts"].tolist()
    return HashCounter(dict(zip(phrases, counts)))


def _config_dict(config: Any) -> Dict[str, Any]:
    """Dataclass config → plain JSON-serialisable dict."""
    return asdict(config)


def _config_from_dict(cls, payload: Dict[str, Any]):
    """Rebuild a config dataclass, ignoring unknown (forward-compat) keys."""
    known = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in payload.items() if key in known})


# -- bundles --------------------------------------------------------------------------
@dataclass
class SegmentationBundle:
    """Persisted output of the phrase-mining half of ToPMine.

    Attributes
    ----------
    mining:
        Frozen significant-phrase table with its support metadata.
    segmented:
        The training corpus' bag-of-phrases segmentation (carries the
        vocabulary and corpus name).
    construction:
        Segmenter parameters (threshold α, phrase-length cap).
    preprocess:
        Preprocessing options the corpus was built with.
    metadata:
        Free-form extras (seed, dataset name, …) stored in the manifest.
    """

    mining: FrequentPhraseMiningResult
    segmented: SegmentedCorpus
    construction: PhraseConstructionConfig = field(
        default_factory=PhraseConstructionConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    metadata: Dict[str, Any] = field(default_factory=dict)

    kind = "segmentation"

    @property
    def vocabulary(self) -> Vocabulary:
        """The frozen training vocabulary."""
        return self.segmented.vocabulary

    def segmenter(self) -> CorpusSegmenter:
        """Rebuild the frozen-table segmenter for unseen text."""
        return CorpusSegmenter(self.mining, self.construction)


@dataclass
class ModelBundle:
    """A fully fitted, self-contained ToPMine model.

    Carries everything ``repro topics`` and ``repro infer`` need: the frozen
    phrase-mining state (vocabulary, phrase table, segmenter parameters,
    preprocessing options) plus the fitted PhraseLDA counts,
    hyper-parameters, and the per-topic topical-frequency tables of Eq. 8.

    Attributes
    ----------
    vocabulary:
        Frozen training vocabulary.
    mining:
        Frozen significant-phrase table with support metadata.
    construction, preprocess:
        Segmenter and preprocessing parameters (must match training for
        unseen text to be encoded consistently).
    topic_word_counts, doc_topic_counts, topic_counts:
        Final PhraseLDA count matrices (``V × K``, ``D × K``, ``K``).
    alpha, beta:
        Final Dirichlet hyper-parameters (α per topic, β symmetric).
    topical_frequencies:
        ``topical_frequencies[k]`` maps phrase → number of phrase instances
        assigned to topic ``k`` in the final sweep (all lengths ≥ 1).
    metadata:
        Engine, seed, iteration count, corpus name, and other provenance.
    """

    vocabulary: Vocabulary
    mining: FrequentPhraseMiningResult
    construction: PhraseConstructionConfig
    preprocess: PreprocessConfig
    topic_word_counts: np.ndarray
    doc_topic_counts: np.ndarray
    topic_counts: np.ndarray
    alpha: np.ndarray
    beta: float
    topical_frequencies: List[Dict[Phrase, int]] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    kind = "model"

    @property
    def n_topics(self) -> int:
        """Number of topics ``K``."""
        return int(self.topic_word_counts.shape[1])

    def state(self) -> PhraseLDAState:
        """Reconstruct a :class:`~repro.core.phrase_lda.PhraseLDAState`.

        Per-token and per-clique assignments of the training corpus are not
        persisted (the topical-frequency tables already aggregate them), so
        the returned state has empty assignment lists.
        """
        return PhraseLDAState(topic_word_counts=self.topic_word_counts,
                              doc_topic_counts=self.doc_topic_counts,
                              topic_counts=self.topic_counts,
                              alpha=self.alpha, beta=self.beta,
                              assignments=[], clique_assignments=[])

    def segmenter(self) -> CorpusSegmenter:
        """Rebuild the frozen-table segmenter for unseen text."""
        return CorpusSegmenter(self.mining, self.construction)

    def visualization(self, n_unigrams: int = 10, n_phrases: int = 10,
                      min_phrase_length: int = 2) -> TopicVisualization:
        """Rebuild the topic visualisation from the persisted tables."""
        return build_visualization(self.state(), self.topical_frequencies,
                                   self.vocabulary, n_unigrams=n_unigrams,
                                   n_phrases=n_phrases,
                                   min_phrase_length=min_phrase_length)

    def render_topics(self, n_rows: int = 10, title: str = None) -> str:
        """Render the per-topic unigram/phrase tables (paper Tables 1, 4-6)."""
        return self.visualization(n_unigrams=n_rows, n_phrases=n_rows).render(
            n_rows=n_rows, title=title)

    def inferencer(self) -> TopicInferencer:
        """Build a :class:`~repro.core.infer.TopicInferencer` for unseen text."""
        return TopicInferencer(self.state(), self.segmenter(),
                               vocabulary=self.vocabulary,
                               preprocess=self.preprocess)

    def infer_texts(self, texts: Sequence[str],
                    config: InferenceConfig = None):
        """Convenience shortcut: fold unseen raw documents into the model."""
        return self.inferencer().infer_texts(texts, config)

    @classmethod
    def from_fit(cls, segmented: SegmentedCorpus, state: PhraseLDAState,
                 mining: FrequentPhraseMiningResult,
                 construction: PhraseConstructionConfig,
                 preprocess: PreprocessConfig,
                 metadata: Dict[str, Any] = None) -> "ModelBundle":
        """Assemble a bundle from a fitted state plus the mining-half pieces.

        The single place where the bundle contract (field mapping, dtype
        normalisation, Eq. 8 topical-frequency tables computed at
        ``min_phrase_length=1``) is realised — both :meth:`from_result` and
        the ``repro fit`` CLI go through here.

        Parameters
        ----------
        segmented:
            The training segmentation the state was fitted on (supplies the
            vocabulary and the phrase instances behind Eq. 8).
        state:
            The fitted :class:`~repro.core.phrase_lda.PhraseLDAState`.
        mining, construction, preprocess:
            The frozen phrase-mining state and the parameters it was
            produced with (must be the training run's, or unseen text will
            be segmented/encoded inconsistently).
        metadata:
            Provenance stored in the manifest.
        """
        from repro.core.visualization import TopicVisualizer

        topical = TopicVisualizer(segmented, state).topical_frequencies(
            min_phrase_length=1)
        return cls(vocabulary=segmented.vocabulary,
                   mining=mining,
                   construction=construction,
                   preprocess=preprocess,
                   topic_word_counts=state.topic_word_counts,
                   doc_topic_counts=state.doc_topic_counts,
                   topic_counts=state.topic_counts,
                   alpha=np.asarray(state.alpha, dtype=np.float64),
                   beta=float(state.beta),
                   topical_frequencies=topical,
                   metadata=dict(metadata or {}))

    @classmethod
    def from_result(cls, result, config,
                    metadata: Dict[str, Any] = None) -> "ModelBundle":
        """Build a bundle from a finished :class:`~repro.core.topmine.ToPMineResult`.

        Parameters
        ----------
        result:
            The pipeline output (provides mining result, segmentation,
            vocabulary, and fitted state).
        config:
            The :class:`~repro.core.topmine.ToPMineConfig` the run actually
            used — required, because it supplies the segmenter and
            preprocessing parameters that must match training for the
            bundle's inference path to be consistent (and they are not
            recoverable from ``result``).
        metadata:
            Extra provenance merged into the bundle metadata.
        """
        merged = {
            "corpus_name": result.corpus.name,
            "n_documents": len(result.corpus),
            "seed": config.seed,
            "n_iterations": config.n_iterations,
        }
        merged.update(metadata or {})
        return cls.from_fit(result.segmented_corpus, result.topic_model,
                            result.mining_result,
                            construction=config.construction_config(),
                            preprocess=config.preprocess,
                            metadata=merged)


Bundle = Union[SegmentationBundle, ModelBundle]


# -- save / load ----------------------------------------------------------------------
def save_bundle(path: Union[str, Path], bundle: Bundle) -> Path:
    """Serialise a bundle to a single ``.npz`` file.

    Parameters
    ----------
    path:
        Destination file (written exactly as given; parent directories are
        created).
    bundle:
        A :class:`SegmentationBundle` or :class:`ModelBundle`.  Its arrays
        are stored uncompressed, so :func:`load_bundle` can map them
        zero-copy and serving worker processes share one physical copy.

    Returns
    -------
    pathlib.Path
        The written path.
    """
    from repro import __version__ as package_version

    manifest: Dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": bundle.kind,
        "created_by": f"topmine-repro {package_version}",
        "mining": {
            "total_tokens": int(bundle.mining.total_tokens),
            "min_support": int(bundle.mining.min_support),
            "iterations": int(bundle.mining.iterations),
        },
        # The engine is an execution preference of the machine that *mined*
        # the bundle, not part of the model: persisting it would pin every
        # later consumer (inference, serving) to the miner's engine choice.
        # "auto" resolves per consumer (and still degrades to the reference
        # engine whenever the configuration requires it).
        "construction": {**_config_dict(bundle.construction),
                         "engine": "auto"},
        "preprocess": _config_dict(bundle.preprocess),
        "metadata": dict(bundle.metadata),
    }
    arrays: Dict[str, np.ndarray] = {}
    arrays.update(_pack_phrase_table(bundle.mining.counter))

    if isinstance(bundle, SegmentationBundle):
        arrays.update(_pack_vocabulary(bundle.segmented.vocabulary))
        partition = bundle.segmented.partition
        arrays["seg_tokens"] = partition.tokens
        arrays["seg_phrase_offsets"] = partition.offsets
        arrays["seg_doc_offsets"] = partition.doc_offsets
        manifest["corpus"] = {
            "name": bundle.segmented.name,
            "n_documents": len(bundle.segmented.documents),
        }
    elif isinstance(bundle, ModelBundle):
        arrays.update(_pack_vocabulary(bundle.vocabulary))
        arrays["topic_word_counts"] = np.asarray(bundle.topic_word_counts,
                                                 dtype=np.int64)
        arrays["doc_topic_counts"] = np.asarray(bundle.doc_topic_counts,
                                                dtype=np.int64)
        arrays["topic_counts"] = np.asarray(bundle.topic_counts, dtype=np.int64)
        arrays["alpha"] = np.asarray(bundle.alpha, dtype=np.float64)
        all_phrases = sorted({phrase
                              for topic in bundle.topical_frequencies
                              for phrase in topic})
        topical_tokens, topical_offsets = _pack_ragged(all_phrases)
        counts = np.zeros((len(all_phrases), bundle.n_topics), dtype=np.int64)
        index = {phrase: row for row, phrase in enumerate(all_phrases)}
        for k, topic in enumerate(bundle.topical_frequencies):
            for phrase, count in topic.items():
                counts[index[phrase], k] = count
        arrays["topical_tokens"] = topical_tokens
        arrays["topical_offsets"] = topical_offsets
        arrays["topical_counts"] = counts
        manifest["model"] = {
            "n_topics": bundle.n_topics,
            "beta": float(bundle.beta),
        }
    else:
        raise TypeError(f"cannot save object of type {type(bundle).__name__}")
    return _write_npz(path, manifest, arrays)


def load_bundle(path: Union[str, Path], mapped: bool = True) -> Bundle:
    """Load a bundle of either kind from ``path``.

    Parameters
    ----------
    path:
        The bundle file.
    mapped:
        Zero-copy load (the default): array payloads of an uncompressed
        bundle become read-only views over one shared memory map of the
        file, so concurrent processes loading the same bundle share a
        single physical copy through the page cache.  Compressed bundles
        fall back to materializing transparently.  ``False`` forces
        private (writable) copies.

    Returns
    -------
    SegmentationBundle or ModelBundle
        Depending on the bundle's ``kind``.

    Raises
    ------
    ArtifactError
        If the file is missing, unreadable, or violates the schema.
    ArtifactVersionError
        If the bundle was written by a newer format version.
    """
    manifest, arrays = _read_npz(path, mapped=mapped)
    mining = FrequentPhraseMiningResult(
        counter=_unpack_phrase_table(arrays),
        total_tokens=int(manifest["mining"]["total_tokens"]),
        min_support=int(manifest["mining"]["min_support"]),
        iterations=int(manifest["mining"]["iterations"]))
    construction = _config_from_dict(PhraseConstructionConfig,
                                     manifest.get("construction", {}))
    preprocess = _config_from_dict(PreprocessConfig, manifest.get("preprocess", {}))
    vocabulary = _unpack_vocabulary(arrays)
    metadata = dict(manifest.get("metadata", {}))

    if manifest["kind"] == "segmentation":
        partition = FlatPhraseCorpus(
            np.ascontiguousarray(arrays["seg_tokens"], dtype=np.int32),
            np.ascontiguousarray(arrays["seg_phrase_offsets"], dtype=np.int64),
            np.ascontiguousarray(arrays["seg_doc_offsets"], dtype=np.int64))
        corpus_info = manifest.get("corpus", {})
        segmented = SegmentedCorpus(vocabulary=vocabulary,
                                    name=corpus_info.get("name", "corpus"),
                                    partition=partition)
        return SegmentationBundle(mining=mining, segmented=segmented,
                                  construction=construction,
                                  preprocess=preprocess, metadata=metadata)

    topical_phrases = _unpack_ragged(arrays["topical_tokens"],
                                     arrays["topical_offsets"])
    counts = arrays["topical_counts"]
    n_topics = counts.shape[1]
    topical: List[Dict[Phrase, int]] = [{} for _ in range(n_topics)]
    for row, phrase in enumerate(topical_phrases):
        for k in range(n_topics):
            count = int(counts[row, k])
            if count:
                topical[k][phrase] = count
    return ModelBundle(vocabulary=vocabulary, mining=mining,
                       construction=construction, preprocess=preprocess,
                       topic_word_counts=arrays["topic_word_counts"],
                       doc_topic_counts=arrays["doc_topic_counts"],
                       topic_counts=arrays["topic_counts"],
                       alpha=arrays["alpha"],
                       beta=float(manifest["model"]["beta"]),
                       topical_frequencies=topical, metadata=metadata)


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate only a bundle's embedded JSON manifest.

    Reads just the ``manifest.npy`` zip member — **no array payload bytes
    are read or decompressed** — so callers that only need *metadata* (the
    serving model registry's ``/v1/models`` listing, directory scans) can
    describe a bundle in microseconds rather than loading megabytes of
    counts.  A bundle whose array members are truncated or corrupt still
    yields its manifest (``tests/test_artifacts.py`` pins this).

    Returns
    -------
    dict
        The validated manifest (``format``, ``version``, ``kind``,
        ``mining``, configurations, ``metadata``, …).

    Raises
    ------
    ArtifactError
        If the file is missing, unreadable, or the manifest violates the
        schema.
    ArtifactVersionError
        If the bundle was written by a newer format version.
    """
    manifest, _ = _read_container(path, header_only=True)
    _validate_manifest(manifest, Path(path))
    return manifest


def describe_bundle(path: Union[str, Path]) -> Dict[str, Any]:
    """Cheaply describe one bundle file for listings (``repro models``).

    Combines the manifest-only read of :func:`read_manifest` with the
    file's stat information; none of the array payloads are decompressed.
    Unreadable or non-bundle files are reported with an ``"error"`` field
    instead of raising, so a directory listing never fails wholesale on
    one stray file.

    Returns
    -------
    dict
        ``name`` (file stem), ``path``, ``size_bytes``, ``mtime`` plus —
        for readable bundles — ``kind``, ``schema_version``, ``created_by``
        and ``metadata`` (and ``n_topics`` for model bundles), or
        ``error`` for unreadable ones.
    """
    path = Path(path)
    info: Dict[str, Any] = {"name": path.stem, "path": str(path)}
    try:
        stat = path.stat()
    except OSError as exc:
        info["error"] = f"cannot stat: {exc}"
        return info
    info["size_bytes"] = stat.st_size
    info["mtime"] = stat.st_mtime
    try:
        manifest = read_manifest(path)
    except ArtifactError as exc:
        info["error"] = str(exc)
        return info
    info["kind"] = manifest["kind"]
    info["schema_version"] = manifest["version"]
    info["created_by"] = manifest.get("created_by", "")
    info["metadata"] = dict(manifest.get("metadata", {}))
    if manifest["kind"] == "model":
        info["n_topics"] = manifest.get("model", {}).get("n_topics")
    return info


def describe_directory(root: Union[str, Path]) -> List[Dict[str, Any]]:
    """Describe every ``*.npz`` bundle under ``root`` (non-recursive).

    Returns one :func:`describe_bundle` entry per file, sorted by name —
    the listing behind ``repro models`` (and handy for watching a stream's
    ``models/`` directory fill with published versions).
    """
    root = Path(root)
    if not root.is_dir():
        raise ArtifactError(f"model directory not found: {root}")
    return [describe_bundle(path) for path in sorted(root.glob("*.npz"))]


def load_segmentation(path: Union[str, Path]) -> SegmentationBundle:
    """Load a bundle and require it to be a segmentation bundle."""
    bundle = load_bundle(path)
    if not isinstance(bundle, SegmentationBundle):
        raise ArtifactError(
            f"{path} is a {bundle.kind!r} bundle, expected 'segmentation' "
            f"(did you pass a fitted model to `repro fit`?)")
    return bundle


def load_model(path: Union[str, Path]) -> ModelBundle:
    """Load a bundle and require it to be a fitted model bundle."""
    bundle = load_bundle(path)
    if not isinstance(bundle, ModelBundle):
        raise ArtifactError(
            f"{path} is a {bundle.kind!r} bundle, expected 'model' "
            f"(run `repro fit` on it first)")
    return bundle
