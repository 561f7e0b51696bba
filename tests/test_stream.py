"""repro.stream: log append/dedup/replay, mergeable mining statistics, the
refresh determinism contract, incremental-cost instrumentation, recovery,
the background supervisor, and the stream → serve hot-swap loop."""

import json
import os
import shutil
import threading
import time
import warnings
import zipfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.frequent_phrases import FrequentPhraseMiner, PhraseMiningConfig
from repro.core.phrase_lda import PhraseLDA
from repro.core.topmine import ToPMine
from repro.io.artifacts import ModelBundle, _read_npz, read_manifest, save_bundle
from repro.stream import (
    AccumulatedCounts,
    DocumentLog,
    ShardStats,
    StatsCache,
    StreamConfig,
    StreamError,
    StreamLogError,
    StreamSupervisor,
    TopicStream,
)
from repro.stream.counters import StreamStatsError, encode_texts
from repro.stream.log import write_json_atomic
from repro.text.flat import FlatChunks
from repro.text.preprocess import PreprocessConfig, Preprocessor
from repro.text.vocabulary import Vocabulary
from repro.datasets.registry import load_dataset

N_DOCS = 420
SEED = 7


@pytest.fixture(scope="module")
def titles():
    """Raw dblp titles split into three ingest batches."""
    texts = load_dataset("dblp-titles", n_documents=N_DOCS, seed=SEED).texts
    third = N_DOCS // 3
    return texts[:third], texts[third:2 * third], texts[2 * third:]


def _stream_config(**overrides):
    defaults = dict(n_topics=4, n_iterations=10, alpha=0.5, seed=SEED,
                    source="dblp-titles")
    defaults.update(overrides)
    return StreamConfig(**defaults)


# -- document log -----------------------------------------------------------------------
def test_log_append_dedup_and_replay(tmp_path):
    log = DocumentLog.create(tmp_path / "log")
    first = log.append(["alpha beta", "gamma", "alpha beta"], source="t")
    assert first.n_appended == 2          # in-batch duplicate dropped
    assert first.n_duplicates == 1
    assert first.doc_ids == [0, 1]
    second = log.append(["gamma", "delta epsilon"])
    assert second.n_appended == 1         # cross-batch duplicate dropped
    assert second.n_duplicates == 1
    assert log.n_documents == 3
    assert log.shard_names() == ["shard-00001", "shard-00002"]
    # Replay order is shard order x line order; random access agrees.
    assert list(log.iter_texts()) == ["alpha beta", "gamma", "delta epsilon"]
    assert log.get(2) == "delta epsilon"
    with pytest.raises(IndexError):
        log.get(3)
    # A reopened (cross-process) log sees the same state.
    reopened = DocumentLog.open(tmp_path / "log")
    assert list(reopened.iter_texts()) == list(log.iter_texts())
    assert reopened.known_hashes() == log.known_hashes()


def test_log_all_duplicates_creates_no_shard(tmp_path):
    log = DocumentLog.create(tmp_path / "log")
    log.append(["one", "two"])
    result = log.append(["two", "one"])
    assert result.shard is None
    assert result.n_appended == 0 and result.n_duplicates == 2
    assert log.n_shards == 1


def test_log_validation_errors(tmp_path):
    with pytest.raises(StreamLogError, match="no document log"):
        DocumentLog.open(tmp_path / "missing")
    log = DocumentLog.create(tmp_path / "log")
    log.append(["a"])
    with pytest.raises(StreamLogError, match="already exists"):
        DocumentLog.create(tmp_path / "log")
    manifest_path = tmp_path / "log" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StreamLogError, match="newer than this reader"):
        DocumentLog.open(tmp_path / "log")
    manifest_path.write_text("{not json")
    with pytest.raises(StreamLogError, match="unreadable manifest"):
        DocumentLog.open(tmp_path / "log")


# -- mergeable mining statistics ----------------------------------------------------------
def test_shard_stats_round_trip(tmp_path, titles):
    vocabulary = Vocabulary()
    documents = encode_texts(list(titles[0]) + [""],  # plus an empty doc
                             Preprocessor(), vocabulary)
    stats = ShardStats.compute("shard-00001", documents)
    path = stats.save(tmp_path / "stats.npz")
    loaded = ShardStats.load(path)
    assert loaded.name == stats.name
    assert loaded.documents == stats.documents
    assert loaded.documents[-1] == []     # the empty doc kept its slot
    assert loaded.counter.as_dict() == stats.counter.as_dict()
    assert loaded.total_tokens == stats.total_tokens


@pytest.mark.parametrize("engine", ["numpy", "reference"])
def test_merged_shard_counts_equal_offline_miner(titles, engine):
    """Counting shards separately and merging == mining the whole snapshot,
    bit for bit: phrases, counts, total_tokens, support, iterations."""
    snapshot = [text for batch in titles for text in batch]
    corpus = Preprocessor().build_corpus(snapshot, name="x")
    offline = FrequentPhraseMiner(
        PhraseMiningConfig.scaled_to_corpus(corpus, engine=engine)).mine(corpus)

    vocabulary = Vocabulary()
    preprocessor = Preprocessor()
    accumulated = AccumulatedCounts()
    documents = []
    for index, batch in enumerate(titles):
        encoded = encode_texts(batch, preprocessor, vocabulary)
        documents.extend(encoded)
        accumulated.merge_shard(
            ShardStats.compute(f"s{index}", encoded, engine=engine))
    merged = accumulated.mining_result(FlatChunks.from_documents(documents))

    assert merged.min_support == offline.min_support
    assert merged.total_tokens == offline.total_tokens
    assert merged.counter.as_dict() == offline.counter.as_dict()
    assert merged.iterations == offline.iterations
    # Vocabulary ids were never remapped: shard-by-shard growth assigns the
    # same ids (and frequencies) as the offline single pass.
    assert vocabulary.export_entries() == corpus.vocabulary.export_entries()


def test_merged_counts_with_cap_and_fixed_support(titles):
    snapshot = [text for batch in titles for text in batch]
    corpus = Preprocessor().build_corpus(snapshot, name="x")
    offline = FrequentPhraseMiner(PhraseMiningConfig(
        min_support=4, max_phrase_length=2)).mine(corpus)
    vocabulary, preprocessor = Vocabulary(), Preprocessor()
    accumulated = AccumulatedCounts()
    documents = []
    for index, batch in enumerate(titles):
        encoded = encode_texts(batch, preprocessor, vocabulary)
        documents.extend(encoded)
        accumulated.merge_shard(
            ShardStats.compute(f"s{index}", encoded, max_length=2))
    merged = accumulated.mining_result(FlatChunks.from_documents(documents),
                                       min_support=4, max_length=2)
    assert merged.counter.as_dict() == offline.counter.as_dict()
    assert merged.iterations == offline.iterations == 2


def test_accumulated_counts_round_trip_and_double_merge(tmp_path, titles):
    vocabulary, preprocessor = Vocabulary(), Preprocessor()
    accumulated = AccumulatedCounts()
    stats = ShardStats.compute(
        "s0", encode_texts(titles[0], preprocessor, vocabulary))
    accumulated.merge_shard(stats)
    with pytest.raises(Exception, match="already merged"):
        accumulated.merge_shard(stats)
    path = accumulated.save(tmp_path / "counts.npz")
    loaded = AccumulatedCounts.load(path)
    assert loaded.counter.as_dict() == accumulated.counter.as_dict()
    assert loaded.total_tokens == accumulated.total_tokens
    assert loaded.shard_names == ["s0"]


# -- the determinism contract -------------------------------------------------------------
def _functional_sections(manifest):
    return {key: manifest[key] for key in
            ("format", "version", "kind", "mining", "construction",
             "preprocess", "model")}


@pytest.mark.parametrize("engine,lda_engine", [
    ("auto", "auto"),
    ("reference", "reference"),
])
def test_stream_refresh_matches_offline_pipeline(tmp_path, titles, engine,
                                                 lda_engine):
    """A stream-triggered refresh is bit-identical — every array (topic
    tables, vocabulary, phrase table) and the functional manifest payload —
    to the offline mine/fit pipeline on the equivalent corpus snapshot."""
    config = _stream_config(engine=engine, lda_engine=lda_engine)
    stream = TopicStream.create(tmp_path / "stream", config)
    for batch in titles:
        stream.ingest(batch)
    report = stream.refresh(force=True)
    assert report.version == 1

    snapshot = list(stream.log.iter_texts())  # the log's replay order
    pipeline = ToPMine(config.topmine_config())
    corpus = pipeline.preprocess(snapshot, name="dblp-titles")
    mining = pipeline.mine_phrases(corpus)
    segmented = pipeline.segment(corpus, mining)
    state = PhraseLDA(config.phrase_lda_config()).fit(segmented)
    offline = ModelBundle.from_fit(
        segmented, state, mining,
        construction=config.construction_config(),
        preprocess=config.preprocess, metadata={})
    offline_path = tmp_path / "offline.npz"
    save_bundle(offline_path, offline)

    stream_manifest, stream_arrays = _read_npz(report.path)
    offline_manifest, offline_arrays = _read_npz(offline_path)
    assert set(stream_arrays) == set(offline_arrays)
    for name in sorted(stream_arrays):
        assert np.array_equal(stream_arrays[name], offline_arrays[name]), \
            f"array {name!r} differs from the offline pipeline's"
    assert _functional_sections(stream_manifest) == \
        _functional_sections(offline_manifest)
    # The published current.npz is byte-identical to the versioned file.
    assert stream.current_model_path.read_bytes() == report.path.read_bytes()


@pytest.mark.parametrize("old_keys", [
    {"engine": "numpy", "lda_engine": "numpy"},
    {"n_jobs": 4},
], ids=["lda-engine-numpy", "n-jobs"])
def test_old_stream_json_still_publishes(tmp_path, titles, old_keys):
    """A stream.json written by an older release, with ``"lda_engine":
    "numpy"`` (then a name for ``"auto"``) or an ``"n_jobs"`` key, opens
    without a warning, refreshes and publishes the same model arrays as a
    default (``auto``) stream."""
    TopicStream.create(tmp_path / "default", _stream_config()).ingest(
        titles[0])
    shutil.copytree(tmp_path / "default", tmp_path / "old")
    stream_file = tmp_path / "old" / "stream.json"
    payload = json.loads(stream_file.read_text())
    payload["config"].update(old_keys)
    stream_file.write_text(json.dumps(payload))

    published = {}
    for name in ("old", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = TopicStream.open(tmp_path / name)
            report = stream.refresh(force=True)
        assert stream.config.lda_engine == "auto"
        assert report.version == 1
        assert stream.current_model_path.read_bytes() == \
            report.path.read_bytes()
        published[name] = _read_npz(report.path)[1]
    assert set(published["old"]) == set(published["default"])
    for array in published["old"]:
        assert np.array_equal(published["old"][array],
                              published["default"][array])


def test_refresh_is_reproducible_across_reopen(tmp_path, titles):
    """Re-opening the stream and refreshing again (same snapshot, same
    seed) publishes a new version with identical model arrays."""
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    stream.ingest(titles[0])
    first = stream.refresh(force=True)
    second = TopicStream.open(tmp_path / "stream").refresh(force=True)
    assert second.version == first.version + 1
    _, first_arrays = _read_npz(first.path)
    _, second_arrays = _read_npz(second.path)
    for name in first_arrays:
        assert np.array_equal(first_arrays[name], second_arrays[name])


# -- incremental cost ---------------------------------------------------------------------
def test_ingest_tokenizes_only_the_delta(tmp_path, titles, monkeypatch):
    """Ingesting shard N+1 preprocesses only the new documents, and a
    refresh preprocesses none — old shards are never re-tokenized."""
    calls = {"n": 0}
    original = Preprocessor.process_text

    def counting(self, text):
        calls["n"] += 1
        return original(self, text)

    monkeypatch.setattr(Preprocessor, "process_text", counting)
    stream = TopicStream.create(tmp_path / "stream", _stream_config())

    report_one = stream.ingest(titles[0])
    assert calls["n"] == report_one.n_documents
    after_one = calls["n"]

    report_two = stream.ingest(titles[1])
    assert calls["n"] == after_one + report_two.n_documents
    after_two = calls["n"]

    # Duplicates are dropped by the hash index before any tokenization.
    stream.ingest(titles[0])
    assert calls["n"] == after_two

    stream.refresh(force=True)
    assert calls["n"] == after_two, "refresh must not re-tokenize anything"

    # The metrics agree: every token was counted exactly once at ingest.
    expected_tokens = report_one.n_tokens + report_two.n_tokens
    assert stream.metrics.value("stream_ingest_tokens_total") == \
        expected_tokens
    assert stream.metrics.value("stream_ingested_documents_total") == \
        report_one.n_documents + report_two.n_documents


# -- policy, versions, publishing -----------------------------------------------------------
def test_refresh_policy_and_version_sequence(tmp_path, titles):
    config = _stream_config(refresh_min_documents=10_000)
    stream = TopicStream.create(tmp_path / "stream", config)
    stream.ingest(titles[0])
    assert not stream.should_refresh()
    assert stream.refresh() is None       # policy declines
    report = stream.refresh(force=True)   # force overrides
    assert report.version == 1
    assert stream.pending_documents == 0
    assert stream.version_path(1).exists()
    assert stream.current_model_path.exists()
    stream.ingest(titles[1])
    assert stream.refresh() is None       # still below the threshold
    forced = stream.refresh(force=True)
    assert forced.version == 2
    assert {p.name for p in stream.models_dir.glob("model-v*.npz")} == \
        {"model-v00001.npz", "model-v00002.npz"}


def test_refresh_requires_documents(tmp_path):
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    with pytest.raises(StreamError, match="no documents"):
        stream.refresh(force=True)


@pytest.mark.parametrize("engines", [
    {"lda_engine": "bogus"}, {"lda_engine": "numpy"}, {"engine": "c"},
], ids=["lda-engine-bogus", "lda-engine-numpy", "mining-engine-c"])
def test_create_rejects_engines_no_refresh_can_run(tmp_path, titles,
                                                   engines):
    """Both engine names are resolved when the stream is created, so an
    unknown one fails before any document is logged."""
    root = tmp_path / "stream"
    with pytest.raises(StreamError, match="unknown"):
        TopicStream.create(root, _stream_config(**engines)).ingest(titles[0])
    assert not (root / "log").exists()
    assert not TopicStream.exists(root)


def test_stream_create_open_and_validation(tmp_path):
    with pytest.raises(StreamError, match="no stream"):
        TopicStream.open(tmp_path / "missing")
    with pytest.raises(StreamError, match="min_word_frequency"):
        TopicStream.create(tmp_path / "bad", StreamConfig(
            preprocess=PreprocessConfig(min_word_frequency=3)))
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    with pytest.raises(StreamError, match="already exists"):
        TopicStream.create(tmp_path / "stream", _stream_config())
    reopened = TopicStream.open(tmp_path / "stream")
    assert reopened.config.n_topics == stream.config.n_topics
    assert reopened.config.seed == SEED
    description = reopened.describe()
    assert description["published_version"] == 0
    assert description["n_documents"] == 0


# -- crash recovery -------------------------------------------------------------------------
def test_recovery_finishes_half_done_ingest(tmp_path, titles):
    """A shard committed to the log but missing its derived state (the
    crash window) is recovered on the next operation, bit-identically to a
    clean ingest."""
    clean = TopicStream.create(tmp_path / "clean", _stream_config())
    clean.ingest(titles[0])
    clean.ingest(titles[1])
    clean_report = clean.refresh(force=True)

    crashed = TopicStream.create(tmp_path / "crashed", _stream_config())
    crashed.ingest(titles[0])
    # Simulate a crash right after the log commit: the shard is logged but
    # no stats/vocabulary/counts were written.
    crashed.log.append(titles[1])
    recovered_report = TopicStream.open(tmp_path / "crashed").refresh(
        force=True)
    _, clean_arrays = _read_npz(clean_report.path)
    _, recovered_arrays = _read_npz(recovered_report.path)
    for name in clean_arrays:
        assert np.array_equal(clean_arrays[name], recovered_arrays[name])


def _deflate_offset(path, member):
    """Offset of the first deflate byte of one zip member of ``path``."""
    data = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        header = archive.getinfo(member).header_offset
    name_length = int.from_bytes(data[header + 26:header + 28], "little")
    extra_length = int.from_bytes(data[header + 28:header + 30], "little")
    return header + 30 + name_length + extra_length


def _set_reserved_block_type(path):
    """Flip the first deflate block of tokens.npy to the reserved type 3
    (zlib.error "invalid block type" while inflating)."""
    data = bytearray(path.read_bytes())
    data[_deflate_offset(path, "tokens.npy")] |= 0b110
    path.write_bytes(bytes(data))


def _unclose_npy_header(path):
    """Rewrite the archive with tokens.npy's header dict left unclosed (a
    valid zip whose npy header numpy cannot parse: tokenize.TokenError)."""
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: archive.read(info)
                   for info in archive.infolist()}
    members["tokens.npy"] = members["tokens.npy"].replace(b"}", b" ", 1)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, member in members.items():
            archive.writestr(name, member)


STATS_DAMAGE = {
    "delete": os.remove,
    "truncate": lambda path: path.write_bytes(path.read_bytes()[:40]),
    "deflate-block-type": _set_reserved_block_type,
    "npy-header-unclosed": _unclose_npy_header,
}


@pytest.mark.parametrize("damage", sorted(STATS_DAMAGE))
def test_recovery_rebuilds_missing_or_corrupt_shard_stats(tmp_path, titles,
                                                          damage):
    """Losing or corrupting an absorbed shard's stats file re-derives them
    from the logged text (read-only, against the vocabulary that absorbed
    it) instead of wedging the stream, and the refresh writes nothing."""
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    stream.ingest(titles[0])
    stream.ingest(titles[1])
    baseline = stream.refresh(force=True)
    stats_path = tmp_path / "stream" / "stats" / "shard-00001.npz"
    STATS_DAMAGE[damage](stats_path)
    with pytest.raises(StreamStatsError):
        ShardStats.load(stats_path)
    damaged_bytes = stats_path.read_bytes() if stats_path.exists() else None
    vocabulary_before = (tmp_path / "stream" / "vocabulary.json").read_bytes()
    report = TopicStream.open(tmp_path / "stream").refresh(force=True)
    _, baseline_arrays = _read_npz(baseline.path)
    _, recovered_arrays = _read_npz(report.path)
    for name in baseline_arrays:
        assert np.array_equal(baseline_arrays[name], recovered_arrays[name])
    assert (stats_path.read_bytes() if stats_path.exists() else None) == \
        damaged_bytes
    assert (tmp_path / "stream" / "vocabulary.json").read_bytes() == \
        vocabulary_before


def test_refresh_never_writes_ingest_owned_state(tmp_path, titles):
    """Refreshes recover in memory only: the ingester stays the single
    writer of log/stats/vocabulary, so a supervisor refresh can never race
    an external ingest's commit window file for file."""
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    stream.ingest(titles[0])
    stream.log.append(titles[1])  # crash-simulated: logged, nothing derived
    vocabulary_before = (tmp_path / "stream" / "vocabulary.json").read_bytes()
    TopicStream.open(tmp_path / "stream").refresh(force=True)
    assert not (tmp_path / "stream" / "stats" / "shard-00002.npz").exists()
    assert (tmp_path / "stream" / "vocabulary.json").read_bytes() == \
        vocabulary_before
    # The next ingest persists the recovery (it owns the state files).
    TopicStream.open(tmp_path / "stream").ingest([])
    assert (tmp_path / "stream" / "stats" / "shard-00002.npz").exists()


def _file_states(root):
    """``relative path -> (size, mtime_ns, inode)`` of every file under root."""
    states = {}
    for path in root.rglob("*"):
        if path.is_file():
            info = path.stat()
            states[str(path.relative_to(root))] = (
                info.st_size, info.st_mtime_ns, info.st_ino)
    return states


def test_ingest_writes_only_its_delta_files(tmp_path, titles):
    """An ingest creates or replaces exactly its log shard, the log
    manifest, its stats file and vocabulary.json — no O(corpus) file such
    as an accumulated counts archive."""
    root = tmp_path / "stream"
    stream = TopicStream.create(root, _stream_config())
    stream.ingest(titles[0])
    stream.refresh(force=True)
    before = _file_states(root)
    time.sleep(0.01)  # let a rewrite show in mtime_ns on coarse clocks
    stream.ingest(titles[1])
    after = _file_states(root)
    assert set(before) <= set(after)
    touched = {name for name in after if before.get(name) != after[name]}
    assert touched == {"log/shards/shard-00002.jsonl", "log/manifest.json",
                       "stats/shard-00002.npz", "vocabulary.json"}
    assert not (root / "counts.npz").exists()


def test_leftover_counts_file_is_ignored(tmp_path, titles):
    """A counts.npz left by an older stream layout is neither read nor
    rewritten: refreshes derive the merge from the shard stats."""
    clean = TopicStream.create(tmp_path / "clean", _stream_config())
    clean.ingest(titles[0])
    clean.ingest(titles[1])
    clean_report = clean.refresh(force=True)

    old = TopicStream.create(tmp_path / "old", _stream_config())
    old.ingest(titles[0])
    leftover = tmp_path / "old" / "counts.npz"
    leftover.write_bytes(b"not an archive")
    old.ingest(titles[1])
    report = TopicStream.open(tmp_path / "old").refresh(force=True)
    assert leftover.read_bytes() == b"not an archive"
    _, clean_arrays = _read_npz(clean_report.path)
    _, old_arrays = _read_npz(report.path)
    for name in clean_arrays:
        assert np.array_equal(clean_arrays[name], old_arrays[name])


# -- the refresher's shard-stats cache ------------------------------------------------------
def test_warm_refresh_loads_only_new_shard_stats(tmp_path, titles,
                                                 monkeypatch):
    """A StatsCache kept across re-opens (as the supervisor keeps one)
    holds the merged shard stats: after k new ingests a refresh loads
    exactly k stats files, and one with no new ingest loads none."""
    loaded = []
    original = ShardStats.load

    def counting(path):
        loaded.append(os.path.basename(path))
        return original(path)

    monkeypatch.setattr(ShardStats, "load", counting)
    root = tmp_path / "stream"
    cache = StatsCache()
    stream = TopicStream.create(root, _stream_config())
    stream.ingest(titles[0])
    TopicStream.open(root, stats_cache=cache).refresh(force=True)
    assert loaded == ["shard-00001.npz"]
    stream.ingest(titles[1])
    stream.ingest(titles[2])
    loaded.clear()
    TopicStream.open(root, stats_cache=cache).refresh(force=True)
    assert loaded == ["shard-00002.npz", "shard-00003.npz"]
    loaded.clear()
    TopicStream.open(root, stats_cache=cache).refresh(force=True)
    assert loaded == []
    # A stats file that changed identity invalidates the cached prefix.
    stats_path = root / "stats" / "shard-00002.npz"
    stats_path.write_bytes(stats_path.read_bytes())
    os.utime(stats_path, ns=(1, 1))
    TopicStream.open(root, stats_cache=cache).refresh(force=True)
    assert loaded == ["shard-00001.npz", "shard-00002.npz", "shard-00003.npz"]


def test_cached_refresh_matches_cold_refresh(tmp_path, titles):
    """A refresh served from a warm cache publishes the same functional
    bundle as a cold TopicStream.open(...).refresh of the same snapshot."""
    root = tmp_path / "stream"
    stream = TopicStream.create(root, _stream_config())
    stream.ingest(titles[0])
    stream.refresh(force=True)
    stream.ingest(titles[1])
    stream.ingest(titles[2])
    warm = stream.refresh(force=True)  # the instance's cache holds shard 1
    cold = TopicStream.open(root).refresh(force=True)
    warm_manifest, warm_arrays = _read_npz(warm.path)
    cold_manifest, cold_arrays = _read_npz(cold.path)
    assert set(warm_arrays) == set(cold_arrays)
    for name in warm_arrays:
        assert np.array_equal(warm_arrays[name], cold_arrays[name]), name
    assert _functional_sections(warm_manifest) == \
        _functional_sections(cold_manifest)


def test_refresh_never_reuses_a_version_number(tmp_path, titles):
    """A crash between writing model-vNNNNN.npz and recording the version
    (or a competing refresher) must not overwrite the immutable file: the
    next version is derived from disk as well as stream.json."""
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    stream.ingest(titles[0])
    stream.refresh(force=True)
    v1_bytes = stream.version_path(1).read_bytes()
    # Crash-simulate: the version file landed but stream.json did not.
    stream_file = tmp_path / "stream" / "stream.json"
    payload = json.loads(stream_file.read_text())
    payload["published"] = {"version": 0, "n_documents": 0}
    stream_file.write_text(json.dumps(payload))
    reopened = TopicStream.open(tmp_path / "stream")
    assert reopened.published_version == 0
    report = reopened.refresh(force=True)
    assert report.version == 2
    assert stream.version_path(1).read_bytes() == v1_bytes  # untouched


def test_concurrent_refreshes_take_distinct_versions(tmp_path, monkeypatch):
    """Two refreshers that both pick the next version number before either
    commits (``repro serve --stream``'s supervisor and a manual ``repro
    refresh``, say) publish two versions: the second moves to the next
    number instead of overwriting the first's immutable file."""
    root = tmp_path / "stream"
    stream = TopicStream.create(root, _stream_config())
    stream.ingest(load_dataset("dblp-titles", n_documents=300, seed=SEED).texts)
    barrier = threading.Barrier(2, timeout=60)
    real_next_version = TopicStream._next_version

    def gated_next_version(self):
        version = real_next_version(self)
        barrier.wait()
        return version

    monkeypatch.setattr(TopicStream, "_next_version", gated_next_version)
    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(lambda: TopicStream.open(root).refresh(force=True))
                   for _ in range(2)]
        reports = [future.result(timeout=120) for future in futures]

    assert sorted(report.version for report in reports) == [1, 2]
    assert sorted(path.name for path in stream.models_dir.iterdir()) == [
        "current.npz", "model-v00001.npz", "model-v00002.npz"]
    for report in reports:
        assert report.path == stream.version_path(report.version)
        assert read_manifest(report.path)["metadata"]["stream_version"] \
            == report.version


# -- supervisor -----------------------------------------------------------------------------
def test_supervisor_publishes_in_background(tmp_path, titles):
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    supervisor = StreamSupervisor(tmp_path / "stream", poll_interval=0.05)
    supervisor.start()
    try:
        stream.ingest(titles[0])
        supervisor.notify()
        assert supervisor.wait_for_version(1, timeout=60)
        stream.ingest(titles[1])
        supervisor.notify()
        assert supervisor.wait_for_version(2, timeout=60)
        assert supervisor.last_report is not None
        assert supervisor.last_report.version == 2
        assert supervisor.last_error is None
        # One stats cache outlives the per-poll re-opens.  (Shard 2 may
        # have been merged as an in-memory recovery, outside the cache, if
        # a poll landed inside the ingest's commit window.)
        assert supervisor._stats_cache.keys[0][0] == "shard-00001"
    finally:
        supervisor.stop()
    assert TopicStream.open(tmp_path / "stream").published_version == 2


def test_supervisor_survives_refresh_errors(tmp_path):
    supervisor = StreamSupervisor(tmp_path / "nonexistent",
                                  poll_interval=0.01)
    supervisor.start()
    try:
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and \
                supervisor.metrics.value("stream_refresh_errors_total") == 0:
            time.sleep(0.01)
        assert supervisor.metrics.value("stream_refresh_errors_total") > 0
        assert "cannot open stream" in (supervisor.last_error or "")
    finally:
        supervisor.stop()


def test_supervisor_backs_off_after_consecutive_errors(tmp_path):
    """Consecutive failures grow the poll delay (capped); notify() and a
    clean poll reset it."""
    supervisor = StreamSupervisor(tmp_path / "nonexistent",
                                  poll_interval=0.05, max_backoff=5.0)
    assert supervisor._poll_delay() == 0.05
    delays = []
    for _ in range(8):
        supervisor._poll_once()  # cannot open stream → error
        delays.append(supervisor._poll_delay())
    assert supervisor._consecutive_errors == 8
    assert delays == sorted(delays)          # monotone growth
    assert delays[-1] > 1.0                  # well past the base interval
    assert max(delays) <= 5.0                # capped at max_backoff
    with pytest.raises(ValueError, match="max_backoff"):
        StreamSupervisor(tmp_path, poll_interval=1.0, max_backoff=0.5)


def test_supervisor_recovers_and_says_so(tmp_path):
    """The first clean poll after errors emits the recovery counter and
    resets the backoff."""
    root = tmp_path / "stream"
    supervisor = StreamSupervisor(root, poll_interval=0.01)
    supervisor.start()
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and \
                supervisor.metrics.value(
                    "stream_refresh_errors_total") == 0:
            time.sleep(0.01)
        assert supervisor._consecutive_errors > 0
        TopicStream.create(root, _stream_config())  # the stream appears
        supervisor.notify()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and \
                supervisor.metrics.value(
                    "stream_refresh_recoveries_total") == 0:
            supervisor.notify()
            time.sleep(0.01)
        assert supervisor.metrics.value(
            "stream_refresh_recoveries_total") == 1
        assert supervisor._consecutive_errors == 0
        assert supervisor._poll_delay() == 0.01  # backoff reset
    finally:
        supervisor.stop()


# -- the closed loop: stream publish -> live server hot-swap ---------------------------------
def test_stream_publish_hot_swaps_live_server_under_load(tmp_path, titles):
    """Zero-downtime proof over the real stack: a server under concurrent
    /v1/infer load across a stream publish returns no errors and switches
    model versions."""
    from repro.serve import ModelRegistry, ReproServer, ServeClient, ServeConfig

    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    stream.ingest(titles[0])
    stream.refresh(force=True)

    registry = ModelRegistry()
    registry.register("stream", stream.current_model_path)
    server = ReproServer(registry, ServeConfig(port=0, batch_delay=0.001))
    server.start_background()
    errors = []
    stop = threading.Event()

    def hammer(index):
        client = ServeClient(server.url, timeout=30)
        while not stop.is_set():
            try:
                reply = client.infer(["frequent pattern mining"],
                                     seed=index, iterations=3)
                assert len(reply["documents"]) == 1
            except Exception as exc:  # any error fails the zero-downtime claim
                errors.append(exc)
                return

    try:
        with ThreadPoolExecutor(3) as pool:
            workers = [pool.submit(hammer, index) for index in range(3)]
            time.sleep(0.3)           # steady-state traffic on v1
            stream.ingest(titles[1])
            report = stream.refresh(force=True)   # atomic publish of v2
            assert report.version == 2
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and \
                    server.metrics.value("registry_reloads_total") == 0:
                time.sleep(0.02)
            time.sleep(0.2)           # keep hammering across the swap
            stop.set()
            for worker in workers:
                worker.result(timeout=30)
        assert not errors, f"requests failed across the swap: {errors[:3]}"
        # The server switched versions (exactly one single-flight reload)...
        assert server.metrics.value("registry_reloads_total") == 1
        served = registry.get("stream")
        assert served.bundle.metadata["stream_version"] == 2
    finally:
        stop.set()
        server.stop()


def test_cli_serve_stream_runs_initial_refresh(tmp_path, titles, capsys):
    """`repro serve --stream` on a stream with documents but no published
    model refreshes once before binding (checked without a real socket)."""
    import repro.serve as serve_module
    from repro.cli import main as cli_main

    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    stream.ingest(titles[0])

    class _Boom(Exception):
        pass

    def _no_server(*args, **kwargs):
        raise _Boom

    original = serve_module.ReproServer
    serve_module.ReproServer = _no_server
    try:
        with pytest.raises(_Boom):
            cli_main(["serve", "--stream", str(tmp_path / "stream")])
    finally:
        serve_module.ReproServer = original
    assert TopicStream.open(tmp_path / "stream").published_version == 1
    assert "initial refresh" in capsys.readouterr().out


def test_cli_serve_stream_rejects_empty_stream(tmp_path, capsys):
    from repro.cli import main as cli_main

    TopicStream.create(tmp_path / "stream", _stream_config())
    assert cli_main(["serve", "--stream", str(tmp_path / "stream")]) == 2
    assert "no documents" in capsys.readouterr().err


def test_publish_is_atomic_for_concurrent_readers(tmp_path, titles):
    """current.npz swaps inode-atomically: a reader holding the old file
    open keeps a consistent view while the name moves to the new version."""
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    stream.ingest(titles[0])
    stream.refresh(force=True)
    before = stream.current_model_path.read_bytes()
    copy = tmp_path / "held-open.npz"
    shutil.copyfile(stream.current_model_path, copy)
    stream.ingest(titles[1])
    stream.refresh(force=True)
    after = stream.current_model_path.read_bytes()
    assert before != after
    assert copy.read_bytes() == before
    _, arrays = _read_npz(stream.current_model_path)
    assert arrays  # the new file is a complete, loadable bundle


# -- concurrent writers -------------------------------------------------------------------
def _race(write, inputs, target, monkeypatch, rounds=40):
    """Call ``write(input)`` for every input from its own thread, ``rounds``
    times.  Each commit to ``target`` waits until every writer has written
    its bytes (the interleaving in which writers sharing a temp file
    collide).  No call may raise, after each round ``target`` must equal
    one input's bytes exactly, and no temp file may be left behind."""
    barrier = threading.Barrier(len(inputs), timeout=30)
    real_replace = os.replace

    def gated_replace(source, destination):
        if os.fspath(destination) == os.fspath(target):
            barrier.wait()
        real_replace(source, destination)

    monkeypatch.setattr(os, "replace", gated_replace)
    expected = set(inputs.values())
    with ThreadPoolExecutor(len(inputs)) as pool:
        for _ in range(rounds):
            for future in [pool.submit(write, item) for item in inputs]:
                future.result()
            assert target.read_bytes() in expected
    assert sorted(path.name for path in target.parent.iterdir()
                  if path.name.startswith(target.name)) == [target.name]


def test_concurrent_publishes_leave_one_complete_bundle(tmp_path, monkeypatch):
    """Two publishers to one current.npz (a supervisor refresh and
    ``repro refresh``, say) leave one complete file, the last committed."""
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    stream.models_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)
    inputs = {}
    for name, size in (("a.npz", 4 << 20), ("b.npz", 3 << 20)):
        source = tmp_path / name
        source.write_bytes(rng.bytes(size))
        inputs[source] = source.read_bytes()
    _race(stream._publish, inputs, stream.current_model_path, monkeypatch)


def test_concurrent_json_writes_never_tear_the_file(tmp_path, monkeypatch):
    target = tmp_path / "stream.json"
    payloads = [{"writer": name, "rows": [[name, index] for index in
                                          range(rows)]}
                for name, rows in (("a", 2_000), ("b", 3_000))]
    inputs = {index: (json.dumps(payload, sort_keys=True, indent=1)
                      + "\n").encode("utf-8")
              for index, payload in enumerate(payloads)}
    _race(lambda index: write_json_atomic(target, payloads[index]),
          inputs, target, monkeypatch)
