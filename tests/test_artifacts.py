"""Artifact round-trips, schema validation, and cross-engine reload identity."""

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.phrase_lda import PhraseLDA, PhraseLDAConfig
from repro.core.visualization import TopicVisualizer
from repro.io.artifacts import (
    FORMAT_VERSION,
    ArtifactError,
    ArtifactVersionError,
    ModelBundle,
    SegmentationBundle,
    _pack_ragged,
    _unpack_ragged,
    load_bundle,
    load_model,
    load_segmentation,
    mmap_backing,
    read_manifest,
    save_bundle,
)
from repro.topicmodel import ckernel

SRC = Path(__file__).resolve().parent.parent / "src"


def _segmentation_bundle(fitted_pipeline):
    config, result = fitted_pipeline
    return SegmentationBundle(mining=result.mining_result,
                              segmented=result.segmented_corpus,
                              construction=config.construction_config(),
                              preprocess=config.preprocess,
                              metadata={"seed": config.seed})


def _tamper(path: Path, out: Path, manifest_edit=None, drop=None,
            arrays_edit=None) -> Path:
    """Rewrite a bundle with a modified manifest and/or modified arrays."""
    with np.load(path, allow_pickle=False) as archive:
        data = {name: archive[name] for name in archive.files}
    manifest = json.loads(str(data.pop("manifest")))
    if manifest_edit:
        manifest_edit(manifest)
    if drop:
        data.pop(drop)
    if arrays_edit:
        arrays_edit(data)
    data["manifest"] = np.array(json.dumps(manifest))
    with open(out, "wb") as handle:
        np.savez_compressed(handle, **data)
    return out


# -- segmentation bundle ---------------------------------------------------------------
def test_segmentation_round_trip(fitted_pipeline, tmp_path):
    bundle = _segmentation_bundle(fitted_pipeline)
    path = save_bundle(tmp_path / "seg.npz", bundle)
    loaded = load_segmentation(path)

    assert loaded.mining.counter.as_dict() == bundle.mining.counter.as_dict()
    assert loaded.mining.total_tokens == bundle.mining.total_tokens
    assert loaded.mining.min_support == bundle.mining.min_support
    assert loaded.construction == bundle.construction
    assert loaded.preprocess == bundle.preprocess
    assert loaded.metadata["seed"] == bundle.metadata["seed"]
    assert loaded.segmented.name == bundle.segmented.name
    assert len(loaded.segmented) == len(bundle.segmented)
    for original, restored in zip(bundle.segmented, loaded.segmented):
        assert restored.phrases == [tuple(p) for p in original.phrases]

    vocab, loaded_vocab = bundle.vocabulary, loaded.vocabulary
    assert loaded_vocab.id_to_word == vocab.id_to_word
    for word_id in range(len(vocab)):
        assert loaded_vocab.frequency_of(word_id) == vocab.frequency_of(word_id)
        assert loaded_vocab.unstem_id(word_id) == vocab.unstem_id(word_id)


def test_bundles_do_not_persist_execution_preferences(fitted_pipeline, tmp_path):
    """The engine describes the mining machine, not the model: a bundle
    mined with ``--engine reference`` must not pin every later consumer to
    the slow reference segmenter.  Manifests carry no ``n_jobs``, and one
    written with ``"n_jobs": 4`` by an older release still loads."""
    bundle = _segmentation_bundle(fitted_pipeline)
    bundle.construction.engine = "reference"
    path = save_bundle(tmp_path / "seg.npz", bundle)
    assert "n_jobs" not in read_manifest(path)["construction"]
    loaded = load_segmentation(path)
    assert loaded.construction.engine == "auto"
    assert (loaded.construction.significance_threshold
            == bundle.construction.significance_threshold)

    older = _tamper(path, tmp_path / "older.npz",
                    manifest_edit=lambda m: m["construction"].update(n_jobs=4))
    assert load_segmentation(older).construction == loaded.construction


def test_segmentation_bundle_refits_identically(fitted_pipeline, tmp_path):
    """PhraseLDA over a reloaded segmentation matches fitting the original."""
    config, result = fitted_pipeline
    path = save_bundle(tmp_path / "seg.npz", _segmentation_bundle(fitted_pipeline))
    loaded = load_segmentation(path)
    lda_config = PhraseLDAConfig(n_topics=3, alpha=0.5, n_iterations=5, seed=11)
    state_a = PhraseLDA(lda_config).fit(result.segmented_corpus)
    state_b = PhraseLDA(lda_config).fit(loaded.segmented)
    assert np.array_equal(state_a.topic_word_counts, state_b.topic_word_counts)
    for a, b in zip(state_a.clique_assignments, state_b.clique_assignments):
        assert np.array_equal(a, b)


# -- model bundle ----------------------------------------------------------------------
def _pack_ragged_loop(sequences):
    """The per-token loop _pack_ragged replaced, kept as its reference."""
    tokens, offsets = [], [0]
    for seq in sequences:
        tokens.extend(int(w) for w in seq)
        offsets.append(len(tokens))
    return (np.asarray(tokens, dtype=np.int32),
            np.asarray(offsets, dtype=np.int64))


@pytest.mark.parametrize("seed", range(5))
def test_pack_ragged_matches_the_loop_byte_for_byte(seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 6, size=int(rng.integers(0, 300)))
    sequences = [tuple(int(w) for w in rng.integers(0, 2**31, size=n))
                 for n in lengths] + [()]
    for packed, expected in zip(_pack_ragged(sequences),
                                _pack_ragged_loop(sequences)):
        assert packed.dtype == expected.dtype
        assert packed.shape == expected.shape
        assert packed.tobytes() == expected.tobytes()
    assert _unpack_ragged(*_pack_ragged(sequences)) == sequences
    assert [a.tobytes() for a in _pack_ragged([])] == \
        [a.tobytes() for a in _pack_ragged_loop([])]


def test_model_round_trip_exact(model_bundle, tmp_path):
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    loaded = load_model(path)

    assert np.array_equal(loaded.topic_word_counts, model_bundle.topic_word_counts)
    assert np.array_equal(loaded.doc_topic_counts, model_bundle.doc_topic_counts)
    assert np.array_equal(loaded.topic_counts, model_bundle.topic_counts)
    assert np.array_equal(loaded.alpha, model_bundle.alpha)
    assert loaded.beta == model_bundle.beta
    assert loaded.topical_frequencies == model_bundle.topical_frequencies
    assert loaded.render_topics(n_rows=10) == model_bundle.render_topics(n_rows=10)


@pytest.mark.parametrize("engine", ["reference", "c"])
def test_model_reload_reproduces_top_phrases_per_engine(fitted_pipeline, tmp_path,
                                                        engine):
    """Acceptance gate: a reloaded bundle reproduces the trained model's top
    topical phrases exactly, for every available engine."""
    if engine == "c" and not ckernel.kernel_available():
        pytest.skip("C kernel unavailable")
    config, result = fitted_pipeline
    lda_config = PhraseLDAConfig(n_topics=4, alpha=0.5, n_iterations=15,
                                 seed=13, engine=engine)
    state = PhraseLDA(lda_config).fit(result.segmented_corpus)
    topical = TopicVisualizer(result.segmented_corpus, state).topical_frequencies(
        min_phrase_length=1)
    bundle = ModelBundle(vocabulary=result.corpus.vocabulary,
                         mining=result.mining_result,
                         construction=config.construction_config(),
                         preprocess=config.preprocess,
                         topic_word_counts=state.topic_word_counts,
                         doc_topic_counts=state.doc_topic_counts,
                         topic_counts=state.topic_counts,
                         alpha=np.asarray(state.alpha, dtype=np.float64),
                         beta=float(state.beta),
                         topical_frequencies=topical,
                         metadata={"engine": engine})
    rendered = bundle.render_topics(n_rows=10)
    path = save_bundle(tmp_path / f"model-{engine}.npz", bundle)
    loaded = load_model(path)
    assert loaded.render_topics(n_rows=10) == rendered
    viz_before = bundle.visualization()
    viz_after = loaded.visualization()
    assert viz_after.top_phrases == viz_before.top_phrases
    assert viz_after.top_unigrams == viz_before.top_unigrams


def test_model_reload_in_fresh_process(model_bundle, tmp_path):
    """The acceptance criterion's fresh-process check, verbatim."""
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    expected = model_bundle.render_topics(n_rows=5)
    script = ("from repro.io.artifacts import load_model; "
              f"print(load_model({str(path)!r}).render_topics(n_rows=5))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip("\n") == expected.rstrip("\n")


# -- validation ------------------------------------------------------------------------
def test_missing_file_rejected(tmp_path):
    with pytest.raises(ArtifactError, match="not found"):
        load_bundle(tmp_path / "nope.npz")


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"this is not a bundle at all")
    with pytest.raises(ArtifactError, match="not a readable bundle"):
        load_bundle(path)


def test_truncated_bundle_rejected(model_bundle, tmp_path):
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ArtifactError):
        load_bundle(path)


def test_newer_version_rejected(model_bundle, tmp_path):
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    newer = _tamper(path, tmp_path / "newer.npz",
                    manifest_edit=lambda m: m.update(version=FORMAT_VERSION + 1))
    with pytest.raises(ArtifactVersionError, match="newer than this reader"):
        load_bundle(newer)


def test_foreign_format_rejected(model_bundle, tmp_path):
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    foreign = _tamper(path, tmp_path / "foreign.npz",
                      manifest_edit=lambda m: m.update(format="someone.else"))
    with pytest.raises(ArtifactError, match="format"):
        load_bundle(foreign)


def test_out_of_vocabulary_token_ids_rejected(fitted_pipeline, model_bundle,
                                              tmp_path):
    """Token arrays referencing ids outside the vocabulary fail at load time
    with ArtifactError, not deep inside fit/topics with a raw traceback."""
    def corrupt(name):
        def edit_arrays(arrays):
            tokens = arrays[name].copy()
            tokens[0] = len(arrays["vocab_words"]) + 5
            arrays[name] = tokens
        return edit_arrays

    seg_path = save_bundle(tmp_path / "seg.npz",
                           _segmentation_bundle(fitted_pipeline))
    model_path = save_bundle(tmp_path / "model.npz", model_bundle)
    for path, array in ((seg_path, "seg_tokens"), (seg_path, "phrase_tokens"),
                        (model_path, "topical_tokens")):
        bad = _tamper(path, tmp_path / f"bad-{array}.npz",
                      arrays_edit=corrupt(array))
        with pytest.raises(ArtifactError, match="outside the vocabulary"):
            load_bundle(bad)


def test_missing_manifest_section_rejected(model_bundle, tmp_path):
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    no_mining = _tamper(path, tmp_path / "no-mining.npz",
                        manifest_edit=lambda m: m.pop("mining"))
    with pytest.raises(ArtifactError, match="mining"):
        load_bundle(no_mining)
    no_model = _tamper(path, tmp_path / "no-model.npz",
                       manifest_edit=lambda m: m.pop("model"))
    with pytest.raises(ArtifactError, match="'model' section"):
        load_bundle(no_model)


def test_missing_array_rejected(model_bundle, tmp_path):
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    broken = _tamper(path, tmp_path / "broken.npz", drop="topic_counts")
    with pytest.raises(ArtifactError, match="missing arrays"):
        load_bundle(broken)


def test_unknown_manifest_keys_ignored(model_bundle, tmp_path):
    """Forward compatibility: additive manifest fields must not break loads."""
    path = save_bundle(tmp_path / "model.npz", model_bundle)

    def add_fields(manifest):
        manifest["future_field"] = {"nested": True}
        manifest["preprocess"]["future_option"] = 42

    extended = _tamper(path, tmp_path / "extended.npz", manifest_edit=add_fields)
    loaded = load_model(extended)
    assert loaded.render_topics(n_rows=5) == model_bundle.render_topics(n_rows=5)


# -- zero-copy loading -----------------------------------------------------------------
def test_loaded_model_arrays_are_mmap_backed(model_bundle, tmp_path):
    """Bundle arrays come back as read-only views over one shared mmap of
    the file — page-cache-shared across processes, not writable copies."""
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    loaded = load_model(path)
    for name in ("topic_word_counts", "doc_topic_counts", "topic_counts",
                 "alpha"):
        array = getattr(loaded, name)
        assert mmap_backing(array) is not None, f"{name} not mmap-backed"
        assert not array.flags.writeable, f"{name} must be read-only"
        with pytest.raises(ValueError):
            array[...] = 0
    assert np.array_equal(loaded.topic_word_counts,
                          model_bundle.topic_word_counts)


def test_republish_keeps_prior_mapping_readable(model_bundle, tmp_path):
    """save_bundle publishes atomically (tempfile + os.replace), so a
    process still mapping the previous file keeps reading valid pages
    instead of crashing with SIGBUS on truncated storage."""
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    loaded = load_model(path)
    before = loaded.topic_word_counts.copy()
    save_bundle(path, model_bundle)  # republish over the mapped file
    assert np.array_equal(loaded.topic_word_counts, before)
    assert load_model(path).render_topics(n_rows=5) == \
        model_bundle.render_topics(n_rows=5)


def test_compressed_npz_falls_back_to_materialized_arrays(model_bundle,
                                                          tmp_path):
    """Deflated members cannot be mapped; the loader transparently falls
    back to materialized (but equal) arrays for compressed bundles."""
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    compressed = _tamper(path, tmp_path / "compressed.npz")  # savez_compressed
    loaded = load_model(compressed)
    assert mmap_backing(loaded.topic_word_counts) is None
    assert np.array_equal(loaded.topic_word_counts,
                          model_bundle.topic_word_counts)


def test_wrong_kind_rejected(fitted_pipeline, model_bundle, tmp_path):
    seg_path = save_bundle(tmp_path / "seg.npz",
                           _segmentation_bundle(fitted_pipeline))
    model_path = save_bundle(tmp_path / "model.npz", model_bundle)
    with pytest.raises(ArtifactError, match="expected 'model'"):
        load_model(seg_path)
    with pytest.raises(ArtifactError, match="expected 'segmentation'"):
        load_segmentation(model_path)


# -- corrupt containers and unservable bundles -----------------------------------------
def _patch_bytes(path: Path, out: Path, locate, value: bytes) -> Path:
    """Copy ``path`` to ``out`` with ``value`` written at ``locate(data)``."""
    data = bytearray(path.read_bytes())
    offset = locate(bytes(data))
    data[offset:offset + len(value)] = value
    out.write_bytes(bytes(data))
    return out


def _central_directory(data: bytes) -> int:
    """Offset of the zip central directory, read from its end record."""
    end = data.rfind(b"PK\x05\x06")
    return int.from_bytes(data[end + 16:end + 20], "little")


def _first_npy_header_close(data: bytes) -> int:
    """Offset of the closing brace of the first member's npy header dict."""
    name_length = int.from_bytes(data[26:28], "little")
    extra_length = int.from_bytes(data[28:30], "little")
    return data.index(b"}", 30 + name_length + extra_length)


def _flip_bit(path: Path, out: Path, locate, bit: int) -> Path:
    """Copy ``path`` to ``out`` with one bit of byte ``locate(data)`` flipped."""
    data = bytearray(path.read_bytes())
    data[locate(bytes(data))] ^= 1 << bit
    out.write_bytes(bytes(data))
    return out


def _payload_offset(data: bytes, member: str) -> int:
    """Offset of the first array byte of a stored npy (v1.0) member."""
    header = data.index(member.encode()) - 30  # its local file header
    name_length = int.from_bytes(data[header + 26:header + 28], "little")
    extra_length = int.from_bytes(data[header + 28:header + 30], "little")
    npy = header + 30 + name_length + extra_length
    return npy + 10 + int.from_bytes(data[npy + 8:npy + 10], "little")


def _npy_file(path: Path, out: Path) -> Path:
    """Write a bare ``.npy`` array (no zip container) to ``out``."""
    buffer = io.BytesIO()
    np.save(buffer, np.arange(3))
    out.write_bytes(buffer.getvalue())
    return out


def _edit_array(name, value):
    def edit(arrays):
        array = arrays[name].copy()
        array.flat[0] = value
        arrays[name] = array
    return edit


# Each entry turns a saved model bundle into one that must fail to load.
CORRUPTIONS = {
    # zipfile raises NotImplementedError for these two.
    "compression-method-99": lambda path, out: _patch_bytes(
        path, out, lambda data: _central_directory(data) + 10,
        (99).to_bytes(2, "little")),
    "zip-version-9.9": lambda path, out: _patch_bytes(
        path, out, lambda data: _central_directory(data) + 6, bytes([99])),
    # numpy's fallback header parser raises tokenize.TokenError.
    "npy-header-unclosed": lambda path, out: _patch_bytes(
        path, out, _first_npy_header_close, b" "),
    # Adds 2**38 to one count: a valid array that only the CRC-32 catches.
    "payload-bit-flip": lambda path, out: _flip_bit(
        path, out,
        lambda data: _payload_offset(data, "topic_word_counts.npy") + 4, 6),
    # A bare .npy file: np.load returns an ndarray, not an archive.
    "npy-not-zip": _npy_file,
    "construction-not-object": lambda path, out: _tamper(
        path, out, manifest_edit=lambda m: m.update(construction="fast")),
    "metadata-not-object": lambda path, out: _tamper(
        path, out, manifest_edit=lambda m: m.update(metadata="seed 7")),
    # The rest load and then fail in bundle.inferencer() unless rejected.
    "negative-topic-word-count": lambda path, out: _tamper(
        path, out, arrays_edit=_edit_array("topic_word_counts", -1)),
    "negative-topic-count": lambda path, out: _tamper(
        path, out, arrays_edit=_edit_array("topic_counts", -3)),
    "zero-phrase-count": lambda path, out: _tamper(
        path, out, arrays_edit=_edit_array("phrase_counts", 0)),
    "unknown-construction-engine": lambda path, out: _tamper(
        path, out, manifest_edit=lambda m: m["construction"].update(
            engine="turbo")),
    "non-numeric-threshold": lambda path, out: _tamper(
        path, out, manifest_edit=lambda m: m["construction"].update(
            significance_threshold="5.0")),
    "zero-total-tokens": lambda path, out: _tamper(
        path, out, manifest_edit=lambda m: m["mining"].update(
            total_tokens=0)),
}


@pytest.fixture
def corrupted(model_bundle, tmp_path, request):
    path = save_bundle(tmp_path / "model.npz", model_bundle)
    return CORRUPTIONS[request.param](path, tmp_path / "bad.npz")


@pytest.mark.parametrize("corrupted", sorted(CORRUPTIONS), indirect=True)
def test_corrupt_or_unservable_bundle_rejected_at_load(corrupted):
    with pytest.raises(ArtifactError, match=re.escape(str(corrupted))):
        load_bundle(corrupted)
    with pytest.raises(ArtifactError, match=re.escape(str(corrupted))):
        load_bundle(corrupted, mapped=False)


@pytest.mark.parametrize("corrupted", ["zip-version-9.9",
                                       "construction-not-object",
                                       "unknown-construction-engine"],
                         indirect=True)
def test_corrupt_manifest_rejected_by_read_manifest(corrupted):
    with pytest.raises(ArtifactError, match=re.escape(str(corrupted))):
        read_manifest(corrupted)


@pytest.mark.parametrize("corrupted", sorted(CORRUPTIONS), indirect=True)
def test_cli_reports_corrupt_bundles_without_traceback(corrupted, capsys):
    for argv in (["topics", "--model", str(corrupted)],
                 ["infer", "--model", str(corrupted), "--dataset",
                  "dblp-titles", "--n-docs", "2"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
