"""Stream state machine: ingest shards, merge statistics, publish bundles.

:class:`TopicStream` ties the pieces of :mod:`repro.stream` into one
on-disk state machine under a single directory::

    stream/
      stream.json            # config (frozen at create) + published version
      log/                   # the append-only document log (repro.stream.log)
      stats/shard-*.npz      # per-shard tokenized docs + raw phrase counts
      vocabulary.json        # shared vocabulary, full surface-form fidelity
      models/
        model-v00001.npz     # every published version, immutable
        current.npz          # stable serving path, atomically replaced

**Ingest** is O(delta): a document batch is deduplicated and appended to
the log, tokenized once against the shared growing vocabulary, and counted
once (Algorithm 1 at support 1) into its own stats file.  Old shards are
never re-read, re-tokenized, re-counted, or rewritten.

**Refresh** rebuilds the model over the accumulated snapshot: the shard
counters are merged in log order — a :class:`StatsCache` keeps the merge
and the shards' documents, so a refresh loads only the stats files it has
not seen — and the merged counts are filtered into a miner-equivalent result
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
vocabulary* with the vocabulary recording which shards it has absorbed.
:meth:`TopicStream._recover` can therefore always finish a half-done
ingest: shards the vocabulary has not absorbed are re-encoded from the log
(the only case an ingest re-reads text).  A missing or unreadable stats
file of an absorbed shard is re-derived from the log by the refresh that
needs it.  Writers are single-process by design (one ingester at a time);
concurrent *readers* — refreshes, model servers — are always safe.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.frequent_phrases import resolve_mining_engine
from repro.core.phrase_construction import PhraseConstructionConfig
from repro.core.phrase_lda import PhraseLDA, PhraseLDAConfig
from repro.core.segmentation import CorpusSegmenter
from repro.core.topmine import ToPMineConfig
from repro.io.artifacts import ModelBundle, _config_from_dict, save_bundle
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
from repro.topicmodel.gibbs import resolve_engine
from repro.utils.files import TEMP_SUFFIX, copy_file_atomic
from repro.utils.timing import Stopwatch

STREAM_FORMAT = "repro.stream"
STREAM_VERSION = 1

_STREAM_FILE = "stream.json"
_LOG_DIR = "log"
_STATS_DIR = "stats"
_VOCAB_FILE = "vocabulary.json"
_MODELS_DIR = "models"
CURRENT_MODEL = "current.npz"


class StreamError(Exception):
    """The stream directory is missing, corrupt, or was misused."""


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
        ``"reference"``; see :class:`~repro.core.topmine.ToPMineConfig`).
    lda_engine:
        PhraseLDA sampling engine (one of
        :data:`~repro.topicmodel.gibbs.ENGINES`).  A ``stream.json`` that
        an older release wrote with ``"numpy"`` opens as ``"auto"``.
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
        # Every ingest and refresh resolves both names; fail before the
        # stream exists rather than after a batch is logged.
        try:
            resolve_mining_engine(self.engine)
            resolve_engine(self.lda_engine)
        except (ValueError, RuntimeError) as exc:
            raise StreamError(str(exc)) from exc

    def construction_config(self) -> PhraseConstructionConfig:
        """Segmenter parameters for refreshes (matches ``repro mine``)."""
        return self.topmine_config().construction_config()

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
            mining_engine=self.engine)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (stored in ``stream.json``)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StreamConfig":
        """Rebuild a config, tolerating unknown forward-compat keys.

        Older releases accepted ``"lda_engine": "numpy"`` (a name for
        ``"auto"``) and stored a segmentation worker count; both still
        open.
        """
        payload = dict(payload)
        if payload.get("lda_engine") == "numpy":
            payload["lda_engine"] = "auto"
        preprocess = _config_from_dict(PreprocessConfig,
                                          payload.pop("preprocess", {}) or {})
        config = _config_from_dict(cls, payload)
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
        Per-stage seconds (``load``, ``mining_merge``, ``segmentation``,
        ``topic_modeling``, ``publish``).  ``load`` covers recovery, the
        shard-stats load and merge, and assembling the snapshot corpus.
    """

    version: int
    path: Path
    current_path: Path
    n_documents: int
    seconds: float
    timings: Dict[str, float] = field(default_factory=dict)


FileIdentity = Optional[Tuple[int, int, int]]


def _file_identity(path: Path) -> FileIdentity:
    """``(size, mtime_ns, inode)`` of ``path``, or ``None`` when it is absent."""
    try:
        info = os.stat(path)
    except FileNotFoundError:
        return None
    return info.st_size, info.st_mtime_ns, info.st_ino


@dataclass
class StatsCache:
    """A refresher's merge of one stream's committed shard stats.

    Stats files are write-once, so the merge over a log prefix stays valid
    for as long as every file in the prefix keeps its identity.  ``keys``
    holds ``(shard name, stats-file identity)`` for that prefix, in log
    order; ``documents`` each shard's encoded documents; ``counts`` the
    merged counter (per-shard counters are dropped once merged).  Every
    :class:`TopicStream` has one; a long-lived refresher that re-opens
    the stream (:class:`~repro.stream.supervisor.StreamSupervisor`) passes
    the same one to each :meth:`TopicStream.open`.
    """

    keys: List[Tuple[str, FileIdentity]] = field(default_factory=list)
    documents: List[List[List[List[int]]]] = field(default_factory=list)
    counts: AccumulatedCounts = field(default_factory=AccumulatedCounts)
    lock: threading.Lock = field(default_factory=threading.Lock)


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
    stats_cache:
        Optional :class:`StatsCache` to refresh from, kept by a caller
        that re-opens the stream; by default the instance starts its own.
    """

    def __init__(self, root: Union[str, Path],
                 metrics: Optional[ShardWriter] = None,
                 stats_cache: Optional[StatsCache] = None) -> None:
        self.root = Path(root)
        self.metrics = metrics or ShardWriter()
        self.stats_cache = stats_cache or StatsCache()
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
             metrics: Optional[ShardWriter] = None,
             stats_cache: Optional[StatsCache] = None) -> "TopicStream":
        """Open an existing stream (reads config + published state only)."""
        root = Path(root)
        stream = cls(root, metrics=metrics, stats_cache=stats_cache)
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

    # -- recovery ----------------------------------------------------------------------
    def _recover(self, persist: bool = True) -> tuple:
        """Finish any half-done ingest; return the vocabulary and shards.

        The log manifest is the commit point, so recovery replays forward:
        logged shards the vocabulary has not absorbed are re-encoded from
        the log and counted.

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
        (vocabulary, absorbed, recovered)
            The up-to-date vocabulary; the shards it had absorbed before
            this call (each has a committed stats file), in log order; and
            the :class:`ShardStats` of every shard recovered during this
            call, in log order — with ``persist=False`` those exist *only*
            here, so snapshot builders must take them from this list.
        """
        assert self.log is not None
        self.log.reload()
        vocabulary, absorbed = self._load_vocabulary()
        logged = self.log.shard_names()
        if absorbed != logged[:len(absorbed)]:
            raise StreamError(
                f"stream state at {self.root} is corrupt: vocabulary "
                f"absorbed shards {absorbed} but the log holds {logged}")

        recovered: List[ShardStats] = []
        preprocessor = None
        for name in logged[len(absorbed):]:
            # The vocabulary predates this shard, so re-encoding from the
            # logged text reproduces the interrupted ingest exactly.
            if preprocessor is None:
                preprocessor = Preprocessor(self.config.preprocess)
            stats = self._compute_stats(name, preprocessor, vocabulary)
            recovered.append(stats)
            if persist:
                stats.save(self._stats_path(name))
                self._save_vocabulary(vocabulary, absorbed + [
                    shard.name for shard in recovered])
        return vocabulary, absorbed, recovered

    def _compute_stats(self, name: str, preprocessor: Preprocessor,
                       vocabulary: Vocabulary, grow: bool = True) -> ShardStats:
        """Encode and count one logged shard (see :func:`encode_texts`)."""
        documents = encode_texts(self.log.read_shard(name), preprocessor,
                                 vocabulary, grow=grow)
        return ShardStats.compute(name, documents,
                                  self.config.max_phrase_length,
                                  self.config.engine)

    def _load_stats(self, name: str, vocabulary: Vocabulary) -> ShardStats:
        """Load an absorbed shard's stats, re-deriving them if damaged.

        Stats files are derived state: a missing or unreadable one is
        re-encoded from the logged text against the vocabulary that
        already absorbed it (lookups only), which reproduces it exactly.
        """
        try:
            return ShardStats.load(self._stats_path(name))
        except StreamStatsError:
            try:
                return self._compute_stats(
                    name, Preprocessor(self.config.preprocess), vocabulary,
                    grow=False)
            except KeyError as exc:
                raise StreamError(
                    f"stream state at {self.root} is corrupt: stats of "
                    f"{name} are unreadable and the vocabulary lacks "
                    f"{exc} from its text") from None

    def _snapshot(self) -> Tuple[Corpus, AccumulatedCounts]:
        """Recover in memory; return the snapshot corpus and merged counts.

        Absorbed shards come from :attr:`stats_cache`: it is rebuilt from
        scratch when any cached stats file changed identity, else extended
        by the shards it has not seen.  Shards recovered in this call are
        merged into a copy, never into the cache — their stats are not
        committed.  The caller holds the cache's lock.
        """
        cache = self.stats_cache
        vocabulary, absorbed, recovered = self._recover(persist=False)
        keys = [(name, _file_identity(self._stats_path(name)))
                for name in absorbed]
        if cache.keys != keys[:len(cache.keys)]:
            cache.keys, cache.documents = [], []
            cache.counts = AccumulatedCounts()
        for name, identity in keys[len(cache.keys):]:
            stats = self._load_stats(name, vocabulary)
            cache.counts.merge_shard(stats)
            cache.documents.append(stats.documents)
            cache.keys.append((name, identity))

        counts = cache.counts
        if recovered:
            counts = counts.copy()
            for stats in recovered:
                counts.merge_shard(stats)
        corpus = Corpus(vocabulary=vocabulary, name=self.config.source)
        for shard_documents in cache.documents + [
                stats.documents for stats in recovered]:
            for chunks in shard_documents:
                corpus.add_document(chunks)
        return corpus, counts

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
        vocabulary, _absorbed, _recovered = self._recover()
        result: AppendResult = self.log.append(texts, source=source)
        self.metrics.inc_counter("stream_duplicate_documents_total",
                               result.n_duplicates)
        n_tokens = 0
        if result.shard is not None:
            stats = self._compute_stats(
                result.shard.name, Preprocessor(self.config.preprocess),
                vocabulary)
            n_tokens = stats.total_tokens
            # Commit order (stats → vocabulary) matches _recover.
            stats.save(self._stats_path(result.shard.name))
            self._save_vocabulary(vocabulary, self.log.shard_names())
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
        watch = Stopwatch()
        # The cached counter must not grow while this refresh filters it.
        with self.stats_cache.lock:
            with watch.measure("load"):
                corpus, counts = self._snapshot()
            n_documents = counts.n_documents
            if n_documents == 0:
                raise StreamError(f"stream at {self.root} has no documents; "
                                  f"ingest before refreshing")
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
                      "n_documents": n_documents,
                      # Publish timestamp: servers compute the publish-to-
                      # resident swap lag from it (registry_swap_lag_seconds
                      # and /v1/models' swap_lag_seconds).  Metadata only —
                      # the determinism contract compares functional
                      # manifest sections, never metadata.
                      "published_at": time.time()})
        with watch.measure("publish"):
            version, path = self._save_version(version, bundle)
            self._publish(path)
            self.published_version = version
            self.published_documents = n_documents
            self._write_stream_file()

        seconds = time.perf_counter() - start
        self.metrics.inc_counter("stream_refreshes_total")
        self.metrics.observe("stream_refresh_seconds", seconds)
        for stage, stage_seconds in watch.as_dict().items():
            self.metrics.observe(f"stream_refresh_{stage}_seconds",
                                 stage_seconds)
        return RefreshReport(version=version, path=path,
                             current_path=self.current_model_path,
                             n_documents=n_documents,
                             seconds=seconds, timings=watch.as_dict())

    def _next_version(self) -> int:
        """The next unused version number.

        Derived from both ``stream.json`` *and* the version files on disk,
        so a crash between writing ``model-v000NN.npz`` and recording
        version ``NN`` does not reuse ``NN``.  A competing refresher can
        still take the same number; :meth:`_save_version` settles that.
        """
        highest = self.published_version
        for path in self.models_dir.glob("model-v*.npz"):
            suffix = path.stem.rpartition("-v")[2]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
        return highest + 1

    def _save_version(self, version: int,
                      bundle: ModelBundle) -> Tuple[int, Path]:
        """Save ``bundle`` as the first version from ``version`` on whose
        file does not exist yet; return that version and its path.

        The bundle is committed to a temp and hard-linked to its version
        name, which fails when the name exists.  So of two refreshers that
        took the same number, the second moves on to the next one (its
        ``stream_version`` re-stamped) instead of overwriting an immutable
        version file.
        """
        path = self.version_path(version)
        staged = path.with_name(f"{path.name}{TEMP_SUFFIX}-{os.urandom(4).hex()}")
        try:
            while True:
                bundle.metadata["stream_version"] = version
                save_bundle(staged, bundle)
                try:
                    os.link(staged, path)
                    return version, path
                except FileExistsError:
                    version += 1
                    path = self.version_path(version)
        finally:
            staged.unlink(missing_ok=True)

    def _publish(self, versioned_path: Path) -> None:
        """Atomically point ``current.npz`` at the new version.

        A copy of the immutable version file is committed with
        :func:`~repro.utils.files.copy_file_atomic`, so concurrent readers
        (a serving registry mid-``np.load``) see either the old or the new
        bundle in full — never a torn file — and concurrent publishers
        leave one complete file, the last one committed.  The registry's
        stat-based hot-reload picks the change up on its next request.
        """
        copy_file_atomic(versioned_path, self.current_model_path)

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
