"""`python -m repro` CLI: the mine → fit → topics → infer workflow."""

import json

import pytest

from repro.cli import main
from repro.io.artifacts import load_model, load_segmentation


@pytest.fixture(scope="module")
def pipeline_artifacts(tmp_path_factory):
    """Run the CI smoke pipeline once: mine → fit, returning both paths."""
    root = tmp_path_factory.mktemp("cli")
    seg = root / "seg.npz"
    model = root / "model.npz"
    assert main(["mine", "--smoke", "--seed", "7", "--output", str(seg)]) == 0
    assert main(["fit", "--smoke", "--segmentation", str(seg), "--seed", "7",
                 "--output", str(model)]) == 0
    return seg, model


def test_mine_writes_valid_segmentation_bundle(pipeline_artifacts):
    seg, _ = pipeline_artifacts
    bundle = load_segmentation(seg)
    assert len(bundle.segmented) > 0
    assert bundle.mining.num_frequent_phrases() > 0
    assert sum(d.num_multiword_phrases for d in bundle.segmented) > 0


def test_fit_writes_valid_model_bundle(pipeline_artifacts):
    _, model = pipeline_artifacts
    bundle = load_model(model)
    assert bundle.n_topics == 5  # the --smoke default
    assert bundle.metadata["engine"] in ("numpy", "c")
    assert any(bundle.topical_frequencies)


def test_topics_command_renders_tables(pipeline_artifacts, capsys):
    _, model = pipeline_artifacts
    assert main(["topics", "--model", str(model), "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "1-grams" in out and "n-grams" in out
    assert "Topic 1" in out


def test_infer_command_writes_mixtures(pipeline_artifacts, tmp_path, capsys):
    _, model = pipeline_artifacts
    mixtures = tmp_path / "mixtures.json"
    assert main(["infer", "--smoke", "--model", str(model), "--seed", "11",
                 "--output", str(mixtures)]) == 0
    out = capsys.readouterr().out
    assert "folded in" in out

    payload = json.loads(mixtures.read_text())
    assert payload["n_topics"] == 5
    assert len(payload["documents"]) == 20  # the --smoke default
    for document in payload["documents"]:
        assert len(document["theta"]) == 5
        assert abs(sum(document["theta"]) - 1.0) < 1e-3


def test_infer_is_deterministic_across_invocations(pipeline_artifacts, tmp_path):
    _, model = pipeline_artifacts
    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["infer", "--smoke", "--model", str(model), "--seed", "5",
                     "--output", str(out)]) == 0
        payloads.append(json.loads(out.read_text()))
    assert payloads[0]["documents"] == payloads[1]["documents"]


def test_infer_from_input_file(pipeline_artifacts, tmp_path, capsys):
    _, model = pipeline_artifacts
    docs = tmp_path / "docs.txt"
    docs.write_text("data mining association rules\n"
                    "machine translation speech recognition\n")
    assert main(["infer", "--model", str(model), "--input", str(docs),
                 "--iterations", "10", "--seed", "3"]) == 0
    assert "folded in 2 documents" in capsys.readouterr().out


def test_infer_reads_jsonl_from_stdin(pipeline_artifacts, tmp_path,
                                      monkeypatch, capsys):
    """`--input -` consumes JSONL documents (strings or {"text": ...})."""
    import io

    _, model = pipeline_artifacts
    jsonl = ('"data mining association rules"\n'
             '\n'
             '{"text": "machine translation speech recognition"}\n')
    monkeypatch.setattr("sys.stdin", io.StringIO(jsonl))
    out_path = tmp_path / "stdin-mixtures.json"
    assert main(["infer", "--model", str(model), "--input", "-",
                 "--iterations", "5", "--seed", "3",
                 "--output", str(out_path)]) == 0
    assert "folded in 2 documents from stdin" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert len(payload["documents"]) == 2


def test_infer_stdin_rejects_invalid_jsonl(pipeline_artifacts, monkeypatch):
    import io

    _, model = pipeline_artifacts
    monkeypatch.setattr("sys.stdin", io.StringIO("not json at all\n"))
    with pytest.raises(SystemExit, match="line 1 is not valid JSON"):
        main(["infer", "--model", str(model), "--input", "-"])
    monkeypatch.setattr("sys.stdin", io.StringIO('{"no_text_field": 1}\n'))
    with pytest.raises(SystemExit, match="JSON string or an"):
        main(["infer", "--model", str(model), "--input", "-"])


def test_serve_requires_a_model_source(capsys):
    assert main(["serve"]) == 2
    assert "nothing to serve" in capsys.readouterr().err


def test_serve_command_serves_saved_bundle(pipeline_artifacts):
    """`repro serve` answers /healthz and /v1/infer for a CLI-trained bundle."""
    import threading

    from repro.serve import ModelRegistry, ReproServer, ServeClient, ServeConfig

    _, model = pipeline_artifacts
    # Drive the same stack cmd_serve wires up, on an ephemeral port (the
    # foreground serve_forever loop itself is exercised by the CI smoke).
    registry = ModelRegistry(capacity=2)
    registry.register("model", model)
    server = ReproServer(registry, ServeConfig(port=0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(server.url)
        assert client.health()["status"] == "ok"
        reply = client.infer(["data mining association rules"], seed=5,
                             iterations=5)
        assert len(reply["documents"][0]["theta"]) == 5
    finally:
        server.stop()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_fit_rejects_conflicting_source_with_segmentation(pipeline_artifacts,
                                                          tmp_path, capsys):
    seg, _ = pipeline_artifacts
    code = main(["fit", "--segmentation", str(seg), "--dataset", "dblp-titles",
                 "--output", str(tmp_path / "o.npz")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--dataset" in err and "inline mining" in err


def test_fit_rejects_model_bundle_as_segmentation(pipeline_artifacts, tmp_path,
                                                  capsys):
    _, model = pipeline_artifacts
    code = main(["fit", "--segmentation", str(model),
                 "--output", str(tmp_path / "out.npz")])
    assert code == 2
    assert "expected 'segmentation'" in capsys.readouterr().err


def test_topics_rejects_missing_bundle(tmp_path, capsys):
    code = main(["topics", "--model", str(tmp_path / "missing.npz")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_smoke_does_not_override_explicit_values(pipeline_artifacts, tmp_path):
    seg, _ = pipeline_artifacts
    out = tmp_path / "explicit.npz"
    assert main(["fit", "--smoke", "--segmentation", str(seg), "--topics", "7",
                 "--iterations", "2", "--seed", "1", "--output", str(out)]) == 0
    assert load_model(out).n_topics == 7


def test_fit_unavailable_engine_fails_cleanly(pipeline_artifacts, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    seg, _ = pipeline_artifacts
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "fit", "--segmentation", str(seg),
         "--engine", "c", "--iterations", "1", "--output",
         str(tmp_path / "m.npz")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src),
             "REPRO_DISABLE_C_KERNEL": "1"})
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "mine" in capsys.readouterr().out


def test_bench_subcommand_forwards(tmp_path, capsys):
    code = main(["bench", "--smoke", "--stages", "phrase_mining",
                 "--sizes", "40", "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "BENCH_phrase_mining.json").exists()


# -- streaming subcommands ------------------------------------------------------------
def test_ingest_refresh_models_workflow(tmp_path, capsys):
    """The full streaming CLI loop: create-on-first-ingest, frozen config,
    policy-gated refresh, forced refresh, and the models listing."""
    stream = tmp_path / "stream"
    assert main(["ingest", "--stream", str(stream), "--dataset",
                 "dblp-titles", "--n-docs", "150", "--seed", "7",
                 "--topics", "4", "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    assert "created stream" in out and "ingested 150 document(s)" in out

    # The configuration froze at creation: later config flags are errors.
    assert main(["ingest", "--stream", str(stream), "--dataset",
                 "dblp-titles", "--n-docs", "10", "--topics", "6"]) == 2
    assert "--topics" in capsys.readouterr().err

    # Ingest fresh documents and refresh in one go.
    assert main(["ingest", "--stream", str(stream), "--dataset",
                 "dblp-titles", "--n-docs", "100", "--seed", "9",
                 "--refresh"]) == 0
    out = capsys.readouterr().out
    assert "published version 1" in out
    assert "hot-swap" in out

    # Nothing pending: the policy declines, --force overrides.
    assert main(["refresh", "--stream", str(stream)]) == 0
    assert "policy not satisfied" in capsys.readouterr().out
    assert main(["refresh", "--stream", str(stream), "--force"]) == 0
    assert "published version 2" in capsys.readouterr().out

    # The models listing sees current.npz plus both immutable versions.
    assert main(["models", str(stream / "models")]) == 0
    table = capsys.readouterr().out
    for name in ("current", "model-v00001", "model-v00002"):
        assert name in table
    assert main(["models", str(stream / "models"), "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert {entry["name"] for entry in listing} == \
        {"current", "model-v00001", "model-v00002"}
    assert all(entry["kind"] == "model" for entry in listing)
    assert listing[0]["metadata"]["stream_version"] == 2


def test_ingest_all_duplicates_reports_nothing_new(tmp_path, capsys):
    stream = tmp_path / "stream"
    assert main(["ingest", "--stream", str(stream), "--dataset",
                 "dblp-titles", "--n-docs", "50", "--seed", "7",
                 "--topics", "4", "--iterations", "5"]) == 0
    capsys.readouterr()
    assert main(["ingest", "--stream", str(stream), "--dataset",
                 "dblp-titles", "--n-docs", "50", "--seed", "7"]) == 0
    assert "ingested nothing" in capsys.readouterr().out


def test_models_handles_junk_and_missing_directories(tmp_path, capsys):
    bundles = tmp_path / "bundles"
    bundles.mkdir()
    (bundles / "junk.npz").write_bytes(b"not a bundle")
    assert main(["models", str(bundles)]) == 0
    assert "junk" in capsys.readouterr().out
    assert main(["models", str(tmp_path / "empty-nonexistent")]) == 2
    assert "not found" in capsys.readouterr().err
    (tmp_path / "empty").mkdir()
    assert main(["models", str(tmp_path / "empty")]) == 0
    assert "no .npz bundles" in capsys.readouterr().out
