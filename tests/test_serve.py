"""repro.serve: registry residency/hot-reload (single-flight under
concurrency), micro-batching determinism, the JSON-over-HTTP endpoints, and
the client's bounded connection-error retry."""

import io
import json
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.infer import InferenceConfig
from repro.io.artifacts import (
    ArtifactError,
    ModelBundle,
    read_manifest,
    save_bundle,
)
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.serve.registry import UnknownModelError

UNSEEN = [
    "support vector machine training data and feature selection",
    "natural language processing for machine translation",
    "association rules and frequent itemsets for data mining",
    "source code generation for java programming language",
    "query processing over relational database systems",
    "neural networks for pattern recognition and classification",
]


@pytest.fixture(scope="module")
def bundle_path(model_bundle, tmp_path_factory):
    """The session model bundle saved to disk once for the serving tests."""
    path = tmp_path_factory.mktemp("serve") / "model.npz"
    save_bundle(path, model_bundle)
    return path


@pytest.fixture(scope="module")
def server(bundle_path):
    """One live ReproServer (ephemeral port) shared by the HTTP tests."""
    registry = ModelRegistry()
    registry.register("model", bundle_path)
    server = ReproServer(registry, ServeConfig(port=0, batch_delay=0.01))
    server.start_background()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url)


# -- registry -------------------------------------------------------------------------
def test_registry_loads_and_caches(bundle_path):
    registry = ModelRegistry()
    registry.register("m", bundle_path)
    first = registry.get("m")
    assert first.kind == "model"
    assert first.n_topics == 5
    assert registry.get("m") is first  # unchanged file → same object
    assert registry.metrics.value("registry_loads_total") == 1
    assert registry.metrics.value("registry_hits_total") == 1


def test_registry_unknown_name(bundle_path):
    registry = ModelRegistry()
    with pytest.raises(UnknownModelError, match="unknown model"):
        registry.get("missing")


def test_registry_missing_file(tmp_path):
    registry = ModelRegistry()
    registry.register("ghost", tmp_path / "ghost.npz")
    with pytest.raises(ArtifactError, match="not found"):
        registry.get("ghost")


def test_registry_hot_reload(model_bundle, tmp_path):
    path = tmp_path / "model.npz"
    save_bundle(path, model_bundle)
    registry = ModelRegistry()
    registry.register("m", path)
    first = registry.get("m")
    # Rewrite the bundle and force a different stat signature even on
    # coarse-mtime filesystems.
    save_bundle(path, model_bundle)
    os.utime(path, ns=(1, 1))
    second = registry.get("m")
    assert second is not first
    assert registry.metrics.value("registry_reloads_total") == 1


def test_registry_lru_eviction(model_bundle, tmp_path):
    paths = []
    for name in ("a", "b", "c"):
        path = tmp_path / f"{name}.npz"
        save_bundle(path, model_bundle)
        paths.append((name, path))
    registry = ModelRegistry(capacity=2)
    for name, path in paths:
        registry.register(name, path)
    registry.get("a")
    registry.get("b")
    registry.get("a")          # touch: b is now least-recently used
    registry.get("c")          # exceeds capacity → evicts b
    assert registry.loaded_names() == ["a", "c"]
    assert registry.metrics.value("registry_evictions_total") == 1
    assert "b" in registry.names()  # still registered, just not resident


def test_registry_directory_and_describe(model_bundle, tmp_path):
    save_bundle(tmp_path / "one.npz", model_bundle)
    save_bundle(tmp_path / "two.npz", model_bundle)
    registry = ModelRegistry()
    assert registry.register_directory(tmp_path) == ["one", "two"]
    registry.get("one")
    descriptions = {d["name"]: d for d in registry.describe_all()}
    assert descriptions["one"]["loaded"] is True
    assert descriptions["two"]["loaded"] is False
    assert descriptions["two"]["kind"] == "model"  # via cheap manifest read


def test_describe_all_reflects_published_file_for_stale_residents(
        model_bundle, tmp_path):
    """After a new bundle is published over a resident model's file,
    /v1/models must describe the *file's* version (an observer polling the
    listing sees the publish land), even before any request hot-swaps the
    resident copy."""
    path = tmp_path / "model.npz"
    stamped = ModelBundle(**{**model_bundle.__dict__,
                             "metadata": {"release": 1}})
    save_bundle(path, stamped)
    registry = ModelRegistry()
    registry.register("m", path)
    registry.get("m")  # make it resident
    assert registry.describe_all()[0]["metadata"]["release"] == 1
    stamped.metadata = {"release": 2}
    save_bundle(path, stamped)
    os.utime(path, ns=(3, 3))
    description = registry.describe_all()[0]
    assert description["metadata"]["release"] == 2
    assert description["loaded"] is True
    assert description["stale"] is True
    registry.get("m")  # the next request swaps the new version in
    description = registry.describe_all()[0]
    assert description["metadata"]["release"] == 2
    assert "stale" not in description


def test_read_manifest_is_validated(bundle_path, tmp_path):
    manifest = read_manifest(bundle_path)
    assert manifest["kind"] == "model"
    assert manifest["model"]["n_topics"] == 5
    junk = tmp_path / "junk.npz"
    junk.write_bytes(b"not a bundle")
    with pytest.raises(ArtifactError):
        read_manifest(junk)


def test_registry_single_flight_reload_serves_stale_copy(model_bundle,
                                                         tmp_path,
                                                         monkeypatch):
    """While one thread swaps a changed bundle in, concurrent requests are
    answered from the previous version — exactly one reload happens."""
    import repro.serve.registry as registry_module

    path = tmp_path / "model.npz"
    save_bundle(path, model_bundle)
    registry = ModelRegistry()
    registry.register("m", path)
    first = registry.get("m")
    save_bundle(path, model_bundle)
    os.utime(path, ns=(2, 2))

    original_load = registry_module.load_bundle
    loading = threading.Event()

    def slow_load(bundle_path):
        loading.set()
        time.sleep(0.3)  # widen the swap window for the stale readers
        return original_load(bundle_path)

    monkeypatch.setattr(registry_module, "load_bundle", slow_load)

    def get(_index):
        return registry.get("m")

    with ThreadPoolExecutor(6) as pool:
        results = list(pool.map(get, range(6)))
    assert registry.metrics.value("registry_reloads_total") == 1
    assert registry.metrics.value("registry_stale_hits_total") >= 1
    swapped = registry.get("m")
    assert swapped is not first
    for result in results:  # every request got a usable model, old or new
        assert result is first or result is swapped


def test_registry_single_flight_cold_load(model_bundle, tmp_path,
                                          monkeypatch):
    """Concurrent first-use requests share one load: waiters block on the
    in-flight event instead of loading duplicates."""
    import repro.serve.registry as registry_module

    path = tmp_path / "model.npz"
    save_bundle(path, model_bundle)
    registry = ModelRegistry()
    registry.register("m", path)
    original_load = registry_module.load_bundle

    def slow_load(bundle_path):
        time.sleep(0.2)
        return original_load(bundle_path)

    monkeypatch.setattr(registry_module, "load_bundle", slow_load)
    with ThreadPoolExecutor(5) as pool:
        results = list(pool.map(lambda _i: registry.get("m"), range(5)))
    assert registry.metrics.value("registry_loads_total") == 1
    assert all(result is results[0] for result in results)


# -- micro-batcher --------------------------------------------------------------------
def test_batcher_concurrent_requests_bit_identical(bundle_path, model_bundle):
    """Concurrent batched requests must reproduce solo runs bit-for-bit."""
    registry = ModelRegistry()
    registry.register("m", bundle_path)
    batcher = MicroBatcher(registry, max_batch_size=16, max_delay=0.05)
    batcher.start()
    barrier = threading.Barrier(len(UNSEEN))

    def fire(index):
        barrier.wait()  # release all requests into one batching window
        return index, batcher.submit("m", [UNSEEN[index]], seed=100 + index,
                                     n_iterations=15)

    try:
        with ThreadPoolExecutor(len(UNSEEN)) as pool:
            replies = dict(pool.map(fire, range(len(UNSEEN))))
    finally:
        batcher.stop()

    inferencer = model_bundle.inferencer()
    for index, result in replies.items():
        solo = inferencer.infer_texts(
            [UNSEEN[index]],
            InferenceConfig(n_iterations=15, seed=100 + index, engine="reference"))
        assert np.array_equal(result.theta, solo.theta)
    # The barrier guarantees co-arrival: requests must actually coalesce.
    assert batcher.metrics.value("infer_batches_total") \
        < batcher.metrics.value("infer_requests_total")


def test_batcher_delivers_errors_per_request(bundle_path):
    registry = ModelRegistry()
    registry.register("m", bundle_path)
    batcher = MicroBatcher(registry, max_delay=0.0)
    batcher.start()
    try:
        with pytest.raises(UnknownModelError):
            batcher.submit("missing", ["text"], seed=1, n_iterations=5)
        # The worker must survive a failed batch and keep serving.
        result = batcher.submit("m", ["data mining"], seed=1, n_iterations=5)
        assert result.n_documents == 1
    finally:
        batcher.stop()


def test_batcher_rejects_after_stop(bundle_path):
    registry = ModelRegistry()
    registry.register("m", bundle_path)
    batcher = MicroBatcher(registry)
    batcher.start()
    batcher.stop()
    with pytest.raises(RuntimeError, match="not running"):
        batcher.submit("m", ["text"], seed=1, n_iterations=5)


# -- HTTP endpoints -------------------------------------------------------------------
def test_healthz(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["models"] == ["model"]
    assert health["uptime_seconds"] >= 0


def test_models_listing(client):
    models = client.models()
    assert len(models) == 1
    assert models[0]["name"] == "model"
    assert models[0]["kind"] == "model"


def test_infer_endpoint_matches_solo_run(client, model_bundle):
    reply = client.infer(UNSEEN[:2], seed=42, iterations=15)
    assert reply["model"] == "model"
    assert reply["n_topics"] == model_bundle.n_topics
    solo = model_bundle.inferencer().infer_texts(
        UNSEEN[:2], InferenceConfig(n_iterations=15, seed=42, engine="reference"))
    for doc, solo_doc in zip(reply["documents"], solo.documents):
        # JSON floats round-trip float64 exactly → bit-identical mixtures.
        assert doc["theta"] == [float(p) for p in solo_doc.theta]
        assert doc["n_phrases"] == len(solo_doc.phrases)


def test_concurrent_http_infer_deterministic(client, model_bundle):
    inferencer = model_bundle.inferencer()

    def fire(index):
        return index, client.infer([UNSEEN[index]], seed=7 * index,
                                   iterations=10)

    with ThreadPoolExecutor(len(UNSEEN)) as pool:
        replies = dict(pool.map(fire, range(len(UNSEEN))))
    for index, reply in replies.items():
        solo = inferencer.infer_texts(
            [UNSEEN[index]],
            InferenceConfig(n_iterations=10, seed=7 * index, engine="reference"))
        assert reply["documents"][0]["theta"] == \
            [float(p) for p in solo.documents[0].theta]


def test_segment_endpoint(client, model_bundle):
    reply = client.segment(["support vector machine zzzunknownzzz"])
    document = reply["documents"][0]
    assert document["n_unknown_tokens"] == 1
    assert any(len(phrase) >= 2 for phrase in document["phrases"])
    assert all(isinstance(surface, str)
               for surface in document["surface_phrases"])


def test_topics_endpoint(client, model_bundle):
    reply = client.topics(n=4)
    assert reply["n_topics"] == model_bundle.n_topics
    assert len(reply["topics"]) == model_bundle.n_topics
    for topic in reply["topics"]:
        assert len(topic["unigrams"]) == 4


def test_metrics_endpoint(client):
    client.health()
    text = client.metrics_text()
    assert "# TYPE repro_http_requests_total counter" in text
    assert "repro_registry_loads_total" in text


def test_http_error_paths(client):
    with pytest.raises(ServeError) as missing_model:
        client.infer(["text"], model="missing")
    assert missing_model.value.status == 404
    with pytest.raises(ServeError) as bad_route:
        client._request("/v1/nonsense")
    assert bad_route.value.status == 404
    with pytest.raises(ServeError) as wrong_method:
        client._request("/v1/infer")  # GET on a POST-only endpoint
    assert wrong_method.value.status == 405
    with pytest.raises(ServeError) as empty_documents:
        client.infer([])
    assert empty_documents.value.status == 400
    with pytest.raises(ServeError) as bad_iterations:
        client.infer(["text"], iterations=0)
    assert bad_iterations.value.status == 400


def test_http_invalid_json_body(server):
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        server.url + "/v1/infer", data=b"{not json",
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as error:
        urllib.request.urlopen(request, timeout=10)
    assert error.value.code == 400
    assert "invalid JSON" in json.load(error.value)["error"]


def test_server_hot_reload_via_http(model_bundle, tmp_path):
    """Rewriting a served bundle goes live without a restart."""
    path = tmp_path / "hot.npz"
    save_bundle(path, model_bundle)
    registry = ModelRegistry()
    registry.register("hot", path)
    server = ReproServer(registry, ServeConfig(port=0, batch_delay=0.0))
    server.start_background()
    try:
        client = ServeClient(server.url)
        client.infer(["data mining"], seed=1, iterations=5)
        save_bundle(path, model_bundle)
        os.utime(path, ns=(1, 1))
        client.infer(["data mining"], seed=1, iterations=5)
        assert registry.metrics.value("registry_reloads_total") == 1
    finally:
        server.stop()


def test_segmentation_bundle_segments_but_rejects_inference(fitted_pipeline,
                                                            tmp_path):
    """A segmentation-kind bundle serves /v1/segment (cached inferencer,
    no trained state) but /v1/infer and /v1/topics reject it with 400."""
    from repro.io.artifacts import SegmentationBundle

    config, result = fitted_pipeline
    seg_bundle = SegmentationBundle(
        mining=result.mining_result, segmented=result.segmented_corpus,
        construction=config.construction_config(),
        preprocess=config.preprocess)
    path = tmp_path / "seg.npz"
    save_bundle(path, seg_bundle)
    registry = ModelRegistry()
    registry.register("seg", path)
    server = ReproServer(registry, ServeConfig(port=0, batch_delay=0.0))
    server.start_background()
    try:
        client = ServeClient(server.url)
        reply = client.segment(["support vector machine training"])
        assert reply["documents"][0]["phrases"]
        with pytest.raises(ServeError) as infer_rejected:
            client.infer(["text"], seed=1, iterations=5)
        assert infer_rejected.value.status == 400
        with pytest.raises(ServeError) as topics_rejected:
            client.topics()
        assert topics_rejected.value.status == 400
    finally:
        server.stop()


# -- ServeConfig / typed API ----------------------------------------------------------
def test_serve_config_defaults_replace_and_dict():
    config = ServeConfig()
    assert (config.port, config.workers, config.max_batch_size) == (8765, 1, 32)
    fleet = config.replace(workers=4, port=0)
    assert (fleet.workers, fleet.port) == (4, 0)
    assert config.workers == 1  # frozen: replace() never mutates the original
    assert fleet.as_dict()["workers"] == 4


@pytest.mark.parametrize("bad", [
    {"host": ""},
    {"port": -1},
    {"port": 70000},
    {"workers": 0},
    {"max_batch_size": 0},
    {"batch_delay": -0.001},
    {"default_iterations": 0},
    {"registry_capacity": 0},
    {"health_interval": 0.0},
    {"restart_backoff": -1.0},
    {"shutdown_timeout": 0.0},
])
def test_serve_config_validates_fields(bad):
    with pytest.raises(ValueError):
        ServeConfig(**bad)
    with pytest.raises(ValueError):  # replace() re-runs validation
        ServeConfig().replace(**bad)


def test_server_takes_config_not_legacy_kwargs(bundle_path):
    registry = ModelRegistry()
    registry.register("m", bundle_path)
    server = ReproServer(registry, ServeConfig(port=0, batch_delay=0.01))
    try:
        assert server.config.batch_delay == 0.01
        assert server.default_iterations == server.config.default_iterations
    finally:
        server.server_close()
    with pytest.raises(TypeError, match="unexpected keyword"):
        ReproServer(registry, port=0)


def test_worker_identity_in_health_and_models(bundle_path):
    """/healthz and every /v1/models entry carry the answering worker's id,
    and resident entries expose the loaded copy's version — the fields a
    fleet observer needs to tell per-worker hot-swap states apart."""
    registry = ModelRegistry()
    registry.register("model", bundle_path)
    server = ReproServer(registry, ServeConfig(port=0, batch_delay=0.0),
                         worker_id=3)
    server.start_background()
    try:
        client = ServeClient(server.url)
        assert client.health()["worker_id"] == 3
        client.infer(["data mining"], seed=1, iterations=5)  # make resident
        entry = client.models()[0]
        assert entry["worker_id"] == 3
        assert entry["loaded"] is True
        assert "resident_signature" in entry
        assert entry["resident_version"] is None  # bundle has no stream stamp
    finally:
        server.stop()


# -- client retry ---------------------------------------------------------------------
class _CannedReply:
    """Minimal context-manager reply standing in for urlopen's result."""

    def __init__(self, body: bytes) -> None:
        self._body = body
        self.headers = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self) -> bytes:
        return self._body


def test_client_retries_connection_errors(monkeypatch):
    attempts = {"n": 0}

    def flaky(request, timeout=None):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise urllib.error.URLError(ConnectionRefusedError("refused"))
        return _CannedReply(b'{"status": "ok"}')

    monkeypatch.setattr(urllib.request, "urlopen", flaky)
    client = ServeClient("http://127.0.0.1:1", retries=2, retry_delay=0.0)
    assert client.health() == {"status": "ok"}
    assert attempts["n"] == 3


def test_client_retry_exhaustion_reports_attempts(monkeypatch):
    attempts = {"n": 0}

    def refused(request, timeout=None):
        attempts["n"] += 1
        raise urllib.error.URLError(ConnectionRefusedError("refused"))

    monkeypatch.setattr(urllib.request, "urlopen", refused)
    client = ServeClient("http://127.0.0.1:1", retries=1, retry_delay=0.0)
    with pytest.raises(ServeError) as unreachable:
        client.health()
    assert unreachable.value.status == 0
    assert "2 attempt" in str(unreachable.value)
    assert attempts["n"] == 2


def test_client_never_retries_http_errors(monkeypatch):
    """The server answered: re-sending would double-submit, so HTTP error
    replies surface immediately, retries or not."""
    attempts = {"n": 0}

    def bad_request(request, timeout=None):
        attempts["n"] += 1
        raise urllib.error.HTTPError(
            "http://127.0.0.1:1/v1/infer", 400, "bad request", None,
            io.BytesIO(b'{"error": "nope"}'))

    monkeypatch.setattr(urllib.request, "urlopen", bad_request)
    client = ServeClient("http://127.0.0.1:1", retries=5, retry_delay=0.0)
    with pytest.raises(ServeError) as rejected:
        client.infer(["text"])
    assert rejected.value.status == 400
    assert "nope" in str(rejected.value)
    assert attempts["n"] == 1


def test_client_rejects_invalid_retry_settings():
    with pytest.raises(ValueError, match="retries"):
        ServeClient("http://127.0.0.1:1", retries=-1)
    with pytest.raises(ValueError, match="retry_delay"):
        ServeClient("http://127.0.0.1:1", retry_delay=-0.5)


def test_serve_model_spec_parsing(model_bundle, tmp_path, monkeypatch):
    """--model accepts bare paths (even containing '=') and NAME=PATH."""
    from repro.serve import ModelRegistry

    weird_dir = tmp_path / "runs" / "lr=0.1"
    weird_dir.mkdir(parents=True)
    weird = weird_dir / "model.npz"
    save_bundle(weird, model_bundle)
    plain = tmp_path / "plain.npz"
    save_bundle(plain, model_bundle)

    registered = {}
    monkeypatch.setattr(ModelRegistry, "register",
                        lambda self, name, path: registered.__setitem__(
                            name, str(path)))
    monkeypatch.setattr(ModelRegistry, "names",
                        lambda self: list(registered))
    from repro.cli import main as cli_main
    import repro.serve as serve_module

    class _Boom(Exception):
        pass

    def _no_server(*args, **kwargs):
        raise _Boom  # registration checked; never actually bind a socket

    monkeypatch.setattr(serve_module, "ReproServer", _no_server)
    with pytest.raises(_Boom):
        cli_main(["serve", "--model", str(weird),
                  "--model", f"alias={plain}"])
    assert registered[str(weird.stem)] == str(weird)  # '=' path kept whole
    assert registered["alias"] == str(plain)
    registry = ModelRegistry()
    registry.register("m", bundle_path)
    server = ReproServer(registry, ServeConfig(port=0))
    server.start_background()
    client = ServeClient(server.url, timeout=5)
    assert client.health()["status"] == "ok"
    server.stop()
    with pytest.raises(ServeError) as unreachable:
        ServeClient(server.url, timeout=2).health()
    assert unreachable.value.status in (0, 404)  # connection refused
