"""Stream state machine: ingest shards, merge statistics, publish bundles.

:class:`TopicStream` ties the pieces of :mod:`repro.stream` into one
on-disk state machine under a single directory::

    stream/
      stream.json            # config (frozen at create) + published version
      log/                   # the append-only document log (repro.stream.log)
      stats/shard-*.npz      # per-shard tokenized docs + raw phrase counts
      vocabulary.json        # shared vocabulary, full surface-form fidelity
      counts.npz             # accumulated raw counts over all shards
      models/
        model-v00001.npz     # every published version, immutable
        current.npz          # stable serving path, atomically replaced

**Ingest** is O(delta): a document batch is deduplicated and appended to
the log, tokenized once against the shared growing vocabulary, counted
once (Algorithm 1 at support 1), and merged into ``counts.npz``.  Old
shards are never re-read, re-tokenized, or re-counted.

**Refresh** rebuilds the model over the accumulated snapshot: the merged
counts are filtered into a miner-equivalent result
(:meth:`~repro.stream.counters.AccumulatedCounts.mining_result`),
segmentation and PhraseLDA re-run deterministically (fixed config seed),
and the fitted bundle is written to a new immutable version file, then
*published* by atomically replacing ``models/current.npz`` — the stable
path a live :class:`~repro.serve.registry.ModelRegistry` hot-reloads from
without a restart.

**Determinism contract** — a refresh over ``N`` ingested documents
produces a bundle whose vocabulary, phrase table, and topic tables are
bit-identical to running the offline ``mine``/``fit`` pipeline on those
same ``N`` documents (log-replay order) with the same configuration and
seed.  The contract is what makes streamed models auditable: any
published version can be reproduced from a corpus snapshot alone.

Crash consistency: the log manifest is the commit point for ingest, and
the derived state files are written in the fixed order *stats →
vocabulary → counts* with the vocabulary recording which shards it has
absorbed.  :meth:`TopicStream._recover` can therefore always finish a
half-done ingest: shards the vocabulary has not absorbed are re-encoded
from the log (the only case any text is re-read), and shards absorbed but
not yet merged re-merge from their stats file.  Writers are single-process
by design (one ingester at a time); concurrent *readers* — refreshes,
model servers — are always safe.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.phrase_construction import PhraseConstructionConfig
from repro.core.phrase_lda import PhraseLDA, PhraseLDAConfig
from repro.core.segmentation import CorpusSegmenter
from repro.core.topmine import ToPMineConfig
from repro.io.artifacts import ModelBundle, save_bundle
from repro.obs.shards import ShardWriter
from repro.stream.counters import (
    AccumulatedCounts,
    ShardStats,
    StreamStatsError,
    encode_texts,
)
from repro.stream.log import AppendResult, DocumentLog, write_json_atomic
from repro.text.corpus import Corpus
from repro.text.flat import FlatChunks
from repro.text.preprocess import PreprocessConfig, Preprocessor
from repro.text.vocabulary import Vocabulary
from repro.utils.timing import Stopwatch

STREAM_FORMAT = "repro.stream"
STREAM_VERSION = 1

_STREAM_FILE = "stream.json"
_LOG_DIR = "log"
_STATS_DIR = "stats"
_VOCAB_FILE = "vocabulary.json"
_COUNTS_FILE = "counts.npz"
_MODELS_DIR = "models"
CURRENT_MODEL = "current.npz"


class StreamError(Exception):
    """The stream directory is missing, corrupt, or was misused."""


def _dataclass_from_dict(cls, payload: Dict[str, Any]):
    """Rebuild a flat dataclass, ignoring unknown (forward-compat) keys."""
    known = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in payload.items() if key in known})


@dataclass
class StreamConfig:
    """Frozen-at-create configuration of a topic stream.

    The model half mirrors ``repro fit`` and the mining half mirrors
    ``repro mine``; fixing both (plus the seed) at stream creation is what
    makes every refresh deterministic and offline-reproducible.

    Parameters
    ----------
    n_topics, n_iterations, alpha, beta, optimize_hyperparameters:
        PhraseLDA parameters (as in
        :class:`~repro.core.phrase_lda.PhraseLDAConfig`).
    seed:
        The seed every refresh runs with.
    min_support:
        Fixed mining support ε; ``None`` rescales with the snapshot's
        token count on every refresh (the offline default).
    significance_threshold:
        Segmentation merge threshold α.
    max_phrase_length:
        Cap on mined/constructed phrase length (also caps the raw
        per-shard counting).
    engine:
        Mining/segmentation engine (``"auto"``, ``"numpy"``,
        ``"reference"``).
    lda_engine:
        PhraseLDA sampling engine.
    n_jobs:
        Segmentation worker processes at refresh.
    preprocess:
        Preprocessing options; ``min_word_frequency`` must stay ≤ 1 —
        corpus-global rare-word dropping is a two-pass operation that
        cannot be computed incrementally.
    refresh_min_documents:
        Refresh policy: a (non-forced) refresh runs only once at least
        this many documents are pending since the last published version.
    source:
        Label recorded in published bundle metadata.
    """

    n_topics: int = 10
    n_iterations: int = 100
    alpha: Optional[float] = None
    beta: float = 0.01
    optimize_hyperparameters: bool = False
    seed: int = 7
    min_support: Optional[int] = None
    significance_threshold: float = 5.0
    max_phrase_length: Optional[int] = None
    engine: str = "auto"
    lda_engine: str = "auto"
    n_jobs: int = 1
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    refresh_min_documents: int = 1
    source: str = "stream"

    def validate(self) -> None:
        """Raise :class:`StreamError` on configurations streams cannot honour."""
        if self.refresh_min_documents < 1:
            raise StreamError("refresh_min_documents must be >= 1")
        if self.min_support is not None and self.min_support < 1:
            raise StreamError("min_support must be >= 1 when fixed")
        if self.preprocess.min_word_frequency > 1:
            raise StreamError(
                "streams cannot use preprocess.min_word_frequency > 1: "
                "corpus-global rare-word dropping needs a second pass over "
                "all documents, which incremental ingestion never performs")

    def construction_config(self) -> PhraseConstructionConfig:
        """Segmenter parameters for refreshes (matches ``repro mine``)."""
        return PhraseConstructionConfig(
            significance_threshold=self.significance_threshold,
            max_phrase_words=self.max_phrase_length,
            engine=self.engine, n_jobs=self.n_jobs)

    def phrase_lda_config(self) -> PhraseLDAConfig:
        """PhraseLDA parameters for refreshes (matches ``repro fit``)."""
        return PhraseLDAConfig(
            n_topics=self.n_topics, alpha=self.alpha, beta=self.beta,
            n_iterations=self.n_iterations,
            optimize_hyperparameters=self.optimize_hyperparameters,
            seed=self.seed, engine=self.lda_engine)

    def topmine_config(self) -> ToPMineConfig:
        """The equivalent offline pipeline configuration.

        Feeding the stream's logged documents through
        :class:`~repro.core.topmine.ToPMine` under this configuration (and
        PhraseLDA under :meth:`phrase_lda_config`) reproduces a refresh
        bit for bit — the determinism contract's offline side.
        """
        return ToPMineConfig(
            n_topics=self.n_topics, min_support=self.min_support,
            significance_threshold=self.significance_threshold,
            max_phrase_length=self.max_phrase_length,
            n_iterations=self.n_iterations, alpha=self.alpha, beta=self.beta,
            optimize_hyperparameters=self.optimize_hyperparameters,
            preprocess=self.preprocess, seed=self.seed,
            mining_engine=self.engine, n_jobs=self.n_jobs)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (stored in ``stream.json``)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StreamConfig":
        """Rebuild a config, tolerating unknown forward-compat keys."""
        payload = dict(payload)
        preprocess = _dataclass_from_dict(PreprocessConfig,
                                          payload.pop("preprocess", {}) or {})
        config = _dataclass_from_dict(cls, payload)
        config.preprocess = preprocess
        return config


@dataclass
class IngestReport:
    """Outcome of one :meth:`TopicStream.ingest` call.

    Attributes
    ----------
    shard:
        Name of the created shard, or ``None`` when the whole batch was
        duplicates.
    n_documents, n_duplicates:
        Appended vs. dropped document counts.
    n_tokens:
        Chunked tokens tokenized and counted (the O(delta) work done).
    vocabulary_size:
        Vocabulary size after the ingest.
    pending_documents:
        Documents ingested since the last published version.
    seconds:
        Wall-clock of the ingest.
    """

    shard: Optional[str]
    n_documents: int
    n_duplicates: int
    n_tokens: int
    vocabulary_size: int
    pending_documents: int
    seconds: float


@dataclass
class RefreshReport:
    """Outcome of one successful :meth:`TopicStream.refresh`.

    Attributes
    ----------
    version:
        The published stream version (1-based, monotonic).
    path:
        The immutable versioned bundle file.
    current_path:
        The stable serving path the version was published to.
    n_documents:
        Snapshot size the model was fitted on.
    seconds:
        Wall-clock of the whole refresh.
    timings:
        Per-stage seconds (``mining_merge``, ``segmentation``,
        ``topic_modeling``, ``publish``).
    """

    version: int
    path: Path
    current_path: Path
    n_documents: int
    seconds: float
    timings: Dict[str, float] = field(default_factory=dict)


class TopicStream:
    """An incrementally-updatable ToPMine model rooted at one directory.

    Use :meth:`create` once, then any number of :meth:`ingest` /
    :meth:`refresh` cycles (across processes — every instance reads the
    on-disk state fresh).  Writers must not run concurrently; readers may.

    Parameters
    ----------
    root:
        The stream directory.
    metrics:
        Optional shared :class:`~repro.obs.shards.ShardWriter`;
        ingest/refresh counters and latencies are recorded into it.
    """

    def __init__(self, root: Union[str, Path],
                 metrics: Optional[ShardWriter] = None) -> None:
        self.root = Path(root)
        self.metrics = metrics or ShardWriter()
        self.config = StreamConfig()
        self.published_version = 0
        self.published_documents = 0
        self.log: Optional[DocumentLog] = None

    # -- lifecycle ---------------------------------------------------------------------
    @classmethod
    def exists(cls, root: Union[str, Path]) -> bool:
        """Return whether ``root`` holds a stream."""
        return (Path(root) / _STREAM_FILE).exists()

    @classmethod
    def create(cls, root: Union[str, Path],
               config: Optional[StreamConfig] = None,
               metrics: Optional[ShardWriter] = None) -> "TopicStream":
        """Initialise a new stream at ``root`` with a frozen ``config``."""
        root = Path(root)
        if cls.exists(root):
            raise StreamError(f"a stream already exists at {root}")
        stream = cls(root, metrics=metrics)
        stream.config = config or StreamConfig()
        stream.config.validate()
        root.mkdir(parents=True, exist_ok=True)
        stream.log = DocumentLog.create(root / _LOG_DIR)
        (root / _STATS_DIR).mkdir(exist_ok=True)
        (root / _MODELS_DIR).mkdir(exist_ok=True)
        stream._write_stream_file()
        return stream

    @classmethod
    def open(cls, root: Union[str, Path],
             metrics: Optional[ShardWriter] = None) -> "TopicStream":
        """Open an existing stream (reads config + published state only)."""
        root = Path(root)
        stream = cls(root, metrics=metrics)
        path = root / _STREAM_FILE
        if not path.exists():
            raise StreamError(f"no stream at {root} (missing {_STREAM_FILE}); "
                              f"create one with `repro ingest` or "
                              f"TopicStream.create()")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StreamError(f"{path}: unreadable stream file: {exc}") from exc
        if payload.get("format") != STREAM_FORMAT:
            raise StreamError(f"{path}: not a {STREAM_FORMAT} file")
        if int(payload.get("version", 0)) > STREAM_VERSION:
            raise StreamError(
                f"{path}: stream version {payload.get('version')} is newer "
                f"than this reader (supports up to {STREAM_VERSION})")
        stream.config = StreamConfig.from_dict(payload.get("config", {}))
        published = payload.get("published", {})
        stream.published_version = int(published.get("version", 0))
        stream.published_documents = int(published.get("n_documents", 0))
        stream.log = DocumentLog.open(root / _LOG_DIR)
        return stream

    def _write_stream_file(self) -> None:
        write_json_atomic(self.root / _STREAM_FILE, {
            "format": STREAM_FORMAT,
            "version": STREAM_VERSION,
            "config": self.config.as_dict(),
            "published": {"version": self.published_version,
                          "n_documents": self.published_documents},
        })

    # -- paths -------------------------------------------------------------------------
    @property
    def models_dir(self) -> Path:
        """Directory holding every published bundle version."""
        return self.root / _MODELS_DIR

    @property
    def current_model_path(self) -> Path:
        """The stable serving path (atomically replaced on publish)."""
        return self.models_dir / CURRENT_MODEL

    def version_path(self, version: int) -> Path:
        """The immutable bundle path of one published version."""
        return self.models_dir / f"model-v{version:05d}.npz"

    def _stats_path(self, shard_name: str) -> Path:
        return self.root / _STATS_DIR / f"{shard_name}.npz"

    # -- derived-state persistence -----------------------------------------------------
    def _load_vocabulary(self) -> tuple:
        """Return ``(vocabulary, absorbed_shard_names)`` from disk."""
        path = self.root / _VOCAB_FILE
        if not path.exists():
            return Vocabulary(), []
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StreamError(f"{path}: unreadable vocabulary state: "
                              f"{exc}") from exc
        vocabulary = Vocabulary.from_state(
            (row[0], row[1], [(form, count) for form, count in row[2]])
            for row in payload.get("entries", []))
        return vocabulary, [str(s) for s in payload.get("shards", [])]

    def _save_vocabulary(self, vocabulary: Vocabulary,
                         shard_names: List[str]) -> None:
        write_json_atomic(self.root / _VOCAB_FILE, {
            "format": "repro.stream.vocabulary",
            "version": 1,
            "shards": list(shard_names),
            "entries": [[word, frequency, [[form, count]
                                           for form, count in forms]]
                        for word, frequency, forms
                        in vocabulary.export_state()],
        })

    def _load_counts(self) -> AccumulatedCounts:
        """Load the accumulated counts, treating corruption as absence.

        ``counts.npz`` is derived state: every merged shard's stats file
        still exists, so an unreadable archive (e.g. disk truncation) is
        rebuilt by the recovery re-merge rather than wedging the stream.
        """
        path = self.root / _COUNTS_FILE
        if not path.exists():
            return AccumulatedCounts()
        try:
            return AccumulatedCounts.load(path)
        except StreamStatsError:
            return AccumulatedCounts()

    # -- recovery ----------------------------------------------------------------------
    def _recover(self, persist: bool = True) -> tuple:
        """Finish any half-done ingest; return ``(vocabulary, counts)``.

        The log manifest is the commit point, so recovery replays forward:
        logged shards the vocabulary has not absorbed are re-encoded from
        the log (the only case any text is re-read), and absorbed shards
        the accumulated counts miss are re-merged from their stats files.

        Parameters
        ----------
        persist:
            Write the recovered derived state back to disk.  Only the
            *ingest* path persists: refreshes (including the background
            supervisor's, which may run in a different process) recover in
            memory only, so the single on-disk writer stays the ingester —
            a supervisor poll landing inside an external ingest's commit
            window must never race it file for file.

        Returns
        -------
        (vocabulary, counts, recovered_documents)
            The up-to-date vocabulary and accumulated counts, plus the
            encoded documents of any shard that was recovered during this
            call, keyed by shard name — with ``persist=False`` those exist
            *only* here, so snapshot builders must consult the mapping
            before reaching for the stats files.
        """
        assert self.log is not None
        self.log.reload()
        vocabulary, absorbed = self._load_vocabulary()
        counts = self._load_counts()
        logged = self.log.shard_names()
        if absorbed != logged[:len(absorbed)]:
            raise StreamError(
                f"stream state at {self.root} is corrupt: vocabulary "
                f"absorbed shards {absorbed} but the log holds {logged}")
        if counts.shard_names != absorbed[:len(counts.shard_names)]:
            raise StreamError(
                f"stream state at {self.root} is corrupt: counts merged "
                f"{counts.shard_names} but the vocabulary absorbed {absorbed}")

        # Merge order must follow the log, so first catch counts up to the
        # shards the vocabulary already absorbed, then replay the rest.
        for name in absorbed[len(counts.shard_names):]:
            counts.merge_shard(ShardStats.load(self._stats_path(name)))
            if persist:
                counts.save(self.root / _COUNTS_FILE)
        preprocessor = None
        recovered_documents: Dict[str, List[List[List[int]]]] = {}
        for name in logged[len(absorbed):]:
            # The vocabulary predates this shard, so re-encoding from the
            # logged text reproduces the interrupted ingest exactly.
            if preprocessor is None:
                preprocessor = Preprocessor(self.config.preprocess)
            documents = encode_texts(self.log.read_shard(name), preprocessor,
                                     vocabulary)
            stats = ShardStats.compute(name, documents,
                                       self.config.max_phrase_length,
                                       self.config.engine)
            absorbed.append(name)
            counts.merge_shard(stats)
            recovered_documents[name] = documents
            if persist:
                stats.save(self._stats_path(name))
                self._save_vocabulary(vocabulary, absorbed)
                counts.save(self.root / _COUNTS_FILE)
        return vocabulary, counts, recovered_documents

    # -- ingest ------------------------------------------------------------------------
    @property
    def n_documents(self) -> int:
        """Total distinct documents ingested."""
        assert self.log is not None
        return self.log.n_documents

    @property
    def pending_documents(self) -> int:
        """Documents ingested since the last published version."""
        return self.n_documents - self.published_documents

    def ingest(self, texts: Sequence[str], source: str = "") -> IngestReport:
        """Append a document batch and absorb its statistics (O(delta)).

        Parameters
        ----------
        texts:
            Raw document strings.
        source:
            Provenance label stored on the log shard.

        Returns
        -------
        IngestReport
            Appended/duplicate counts and the delta work performed.
        """
        assert self.log is not None
        start = time.perf_counter()
        vocabulary, counts, _recovered = self._recover()
        result: AppendResult = self.log.append(texts, source=source)
        self.metrics.inc_counter("stream_duplicate_documents_total",
                               result.n_duplicates)
        n_tokens = 0
        if result.shard is not None:
            preprocessor = Preprocessor(self.config.preprocess)
            documents = encode_texts(self.log.read_shard(result.shard.name),
                                     preprocessor, vocabulary)
            stats = ShardStats.compute(result.shard.name, documents,
                                       self.config.max_phrase_length,
                                       self.config.engine)
            n_tokens = stats.total_tokens
            # Commit order (stats → vocabulary → counts) matches _recover.
            stats.save(self._stats_path(result.shard.name))
            self._save_vocabulary(vocabulary, self.log.shard_names())
            counts.merge_shard(stats)
            counts.save(self.root / _COUNTS_FILE)
            self.metrics.inc_counter("stream_ingested_documents_total",
                                   result.n_appended)
            self.metrics.inc_counter("stream_ingest_tokens_total", n_tokens)
        seconds = time.perf_counter() - start
        self.metrics.observe("stream_ingest_seconds", seconds)
        return IngestReport(
            shard=result.shard.name if result.shard else None,
            n_documents=result.n_appended,
            n_duplicates=result.n_duplicates,
            n_tokens=n_tokens,
            vocabulary_size=len(vocabulary),
            pending_documents=self.pending_documents,
            seconds=seconds)

    # -- refresh -----------------------------------------------------------------------
    def should_refresh(self) -> bool:
        """Whether the refresh policy is currently satisfied."""
        return self.pending_documents >= self.config.refresh_min_documents

    def refresh(self, force: bool = False) -> Optional[RefreshReport]:
        """Re-fit over the accumulated snapshot and publish a new version.

        Parameters
        ----------
        force:
            Run even when the refresh policy is not satisfied (pending
            documents below ``refresh_min_documents``).  A refresh with
            *zero* ingested documents is an error either way.

        Returns
        -------
        RefreshReport or None
            ``None`` when the policy declined (and ``force`` was off).
        """
        assert self.log is not None
        start = time.perf_counter()
        if not force and not self.should_refresh():
            return None
        # Read-only recovery: the refresh may run concurrently with an
        # external ingester (the serve --stream supervisor does), so it
        # must never write the ingest-owned state files.
        vocabulary, counts, recovered = self._recover(persist=False)
        if counts.n_documents == 0:
            raise StreamError(f"stream at {self.root} has no documents; "
                              f"ingest before refreshing")

        watch = Stopwatch()
        corpus = Corpus(vocabulary=vocabulary, name=self.config.source)
        for name in self.log.shard_names():
            documents = recovered.get(name)
            if documents is None:
                documents = ShardStats.load(self._stats_path(name)).documents
            for chunks in documents:
                corpus.add_document(chunks)

        with watch.measure("mining_merge"):
            mining = counts.mining_result(
                FlatChunks.from_corpus(corpus),
                min_support=self.config.min_support,
                max_length=self.config.max_phrase_length)
        with watch.measure("segmentation"):
            segmenter = CorpusSegmenter(mining, self.config.construction_config())
            segmented = segmenter.segment(corpus)
        with watch.measure("topic_modeling"):
            state = PhraseLDA(self.config.phrase_lda_config()).fit(segmented)

        version = self._next_version()
        bundle = ModelBundle.from_fit(
            segmented, state, mining,
            construction=self.config.construction_config(),
            preprocess=self.config.preprocess,
            metadata={"source": self.config.source,
                      "seed": self.config.seed,
                      "n_iterations": self.config.n_iterations,
                      "stream_version": version,
                      "n_documents": counts.n_documents,
                      # Publish timestamp: servers compute the publish-to-
                      # resident swap lag from it (registry_swap_lag_seconds
                      # and /v1/models' swap_lag_seconds).  Metadata only —
                      # the determinism contract compares functional
                      # manifest sections, never metadata.
                      "published_at": time.time()})
        with watch.measure("publish"):
            path = save_bundle(self.version_path(version), bundle)
            self._publish(path)
            self.published_version = version
            self.published_documents = counts.n_documents
            self._write_stream_file()

        seconds = time.perf_counter() - start
        self.metrics.inc_counter("stream_refreshes_total")
        self.metrics.observe("stream_refresh_seconds", seconds)
        return RefreshReport(version=version, path=path,
                             current_path=self.current_model_path,
                             n_documents=counts.n_documents,
                             seconds=seconds, timings=watch.as_dict())

    def _next_version(self) -> int:
        """The next unused version number.

        Derived from both ``stream.json`` *and* the version files on disk:
        a crash between writing ``model-v000NN.npz`` and recording version
        ``NN`` (or a competing refresher) must never lead to an existing —
        immutable — version file being overwritten.
        """
        highest = self.published_version
        for path in self.models_dir.glob("model-v*.npz"):
            suffix = path.stem.rpartition("-v")[2]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
        return highest + 1

    def _publish(self, versioned_path: Path) -> None:
        """Atomically point ``current.npz`` at the new version.

        A copy of the immutable version file is moved into place with
        ``os.replace``, so concurrent readers (a serving registry
        mid-``np.load``) see either the old or the new bundle in full —
        never a torn file.  The registry's stat-based hot-reload picks the
        change up on its next request.
        """
        temporary = self.current_model_path.with_name(CURRENT_MODEL + ".tmp")
        shutil.copyfile(versioned_path, temporary)
        os.replace(temporary, self.current_model_path)

    # -- introspection -----------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """JSON-friendly stream summary (used by the CLI)."""
        assert self.log is not None
        return {
            "root": str(self.root),
            "n_documents": self.n_documents,
            "n_shards": self.log.n_shards,
            "published_version": self.published_version,
            "published_documents": self.published_documents,
            "pending_documents": self.pending_documents,
            "current_model": str(self.current_model_path)
            if self.current_model_path.exists() else None,
            "config": self.config.as_dict(),
        }
