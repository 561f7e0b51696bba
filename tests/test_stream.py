"""repro.stream: log append/dedup/replay, mergeable mining statistics, the
refresh determinism contract, incremental-cost instrumentation, recovery,
the background supervisor, and the stream → serve hot-swap loop."""

import json
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.frequent_phrases import FrequentPhraseMiner, PhraseMiningConfig
from repro.core.phrase_lda import PhraseLDA
from repro.core.topmine import ToPMine
from repro.io.artifacts import ModelBundle, _read_npz, save_bundle
from repro.stream import (
    AccumulatedCounts,
    DocumentLog,
    ShardStats,
    StreamConfig,
    StreamError,
    StreamLogError,
    StreamSupervisor,
    TopicStream,
)
from repro.stream.counters import encode_texts
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


@pytest.mark.parametrize("damage", ["delete", "truncate"])
def test_recovery_remerges_missing_or_corrupt_counts(tmp_path, titles,
                                                     damage):
    """Losing or corrupting the accumulated counts (crash during the final
    state write) re-merges them from the per-shard stats files instead of
    wedging the stream."""
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    stream.ingest(titles[0])
    stream.ingest(titles[1])
    baseline = stream.refresh(force=True)
    counts_path = tmp_path / "stream" / "counts.npz"
    if damage == "delete":
        os.remove(counts_path)
    else:
        counts_path.write_bytes(counts_path.read_bytes()[:40])
    report = TopicStream.open(tmp_path / "stream").refresh(force=True)
    _, baseline_arrays = _read_npz(baseline.path)
    _, recovered_arrays = _read_npz(report.path)
    for name in baseline_arrays:
        assert np.array_equal(baseline_arrays[name], recovered_arrays[name])


def test_refresh_never_writes_ingest_owned_state(tmp_path, titles):
    """Refreshes recover in memory only: the ingester stays the single
    writer of log/stats/vocabulary/counts, so a supervisor refresh can
    never race an external ingest's commit window file for file."""
    stream = TopicStream.create(tmp_path / "stream", _stream_config())
    stream.ingest(titles[0])
    stream.log.append(titles[1])  # crash-simulated: logged, nothing derived
    vocabulary_before = (tmp_path / "stream" / "vocabulary.json").read_bytes()
    counts_before = (tmp_path / "stream" / "counts.npz").read_bytes()
    TopicStream.open(tmp_path / "stream").refresh(force=True)
    assert not (tmp_path / "stream" / "stats" / "shard-00002.npz").exists()
    assert (tmp_path / "stream" / "vocabulary.json").read_bytes() == \
        vocabulary_before
    assert (tmp_path / "stream" / "counts.npz").read_bytes() == counts_before
    # The next ingest persists the recovery (it owns the state files).
    TopicStream.open(tmp_path / "stream").ingest([])
    assert (tmp_path / "stream" / "stats" / "shard-00002.npz").exists()


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
