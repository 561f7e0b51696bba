"""repro.replicate: log shipping and health-gated rollout, faults included.

The shipping tests pin the tentpole guarantee — a replica's log converges
byte-identical to the primary's manifest snapshot — under clean networks,
torn (truncated) shard bodies, partial-file resume, and a SIGKILLed
follower process restarting mid-replay.  The rollout tests drive two live
servers through a canary-first promotion and through a rollback forced by
a deliberately corrupt canary bundle.  All synchronization is
deadline-polling on observable state; no sleeps-as-coordination.
"""

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.io.artifacts import save_bundle
from repro.obs import collect_shards, parse_prometheus, render_fleet, sample_value
from repro.replicate import (
    LogFollower,
    ReplicationError,
    RolloutCoordinator,
    RolloutTarget,
)
from repro.serve import ModelRegistry, ReproServer, ServeClient, ServeConfig
from repro.stream.log import DocumentLog
from repro.testing import Fault, FaultInjector, FaultyProxy, kill_process
from repro.utils.retry import RetryPolicy

SRC = Path(__file__).resolve().parent.parent / "src"

BATCH_1 = ["frequent pattern mining in large databases",
           "topic models for short text corpora"]
BATCH_2 = ["support vector machines for classification",
           "query optimization in relational systems",
           "neural network training dynamics"]
BATCH_3 = ["phrase extraction with significance scores"]


def _build_primary_log(root):
    """A primary document log with two shards and an extra section."""
    log = DocumentLog.create(root)
    log.append(BATCH_1, source="batch-1")
    log.append(BATCH_2, source="batch-2")
    log.set_extra(owner="primary")
    return log


def _tree_bytes(root: Path):
    """Relative-path → bytes map of every file under ``root``."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _serve_log(log_root, registry=None):
    """A live ReproServer publishing ``log_root`` on an ephemeral port."""
    config = ServeConfig(port=0, log_root=str(log_root))
    server = ReproServer(registry or ModelRegistry(), config)
    server.start_background()
    return server


def _poll(condition, timeout=30.0, interval=0.01):
    """Deadline-poll ``condition()`` (bounded wait, not a blind sleep)."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            raise TimeoutError("condition not reached in time")
        time.sleep(interval)


# -- log endpoints ---------------------------------------------------------------------
def test_log_endpoints_serve_verified_ranges(tmp_path):
    log = _build_primary_log(tmp_path / "log")
    server = _serve_log(tmp_path / "log")
    try:
        client = ServeClient(server.url)
        body, headers = client.log_manifest()
        assert body == (tmp_path / "log" / "manifest.json").read_bytes()
        import hashlib
        assert headers["X-Content-SHA256"] == \
            hashlib.sha256(body).hexdigest()

        name = log.shards[0].name
        shard_bytes = log.shard_file_path(name).read_bytes()
        chunk, headers = client.log_shard_range(name, offset=3, length=10)
        assert chunk == shard_bytes[3:13]
        assert headers["X-Content-Offset"] == "3"
        assert int(headers["X-Shard-Size"]) == len(shard_bytes)
        digest = client.log_shard_digest(name)
        assert digest["size"] == len(shard_bytes)
        assert digest["sha256"] == hashlib.sha256(shard_bytes).hexdigest()

        reply = client.models_reply()
        assert reply["log"] == {"n_documents": 5, "n_shards": 2}
    finally:
        server.stop()


def test_log_endpoints_reject_bad_requests(tmp_path):
    from repro.serve import ServeError

    _build_primary_log(tmp_path / "log")
    server = _serve_log(tmp_path / "log")
    try:
        client = ServeClient(server.url, retries=0)
        with pytest.raises(ServeError) as info:
            client.log_shard_range("no-such-shard")
        assert info.value.status == 404
        with pytest.raises(ServeError) as info:
            client.log_shard_range("shard-00001", offset=10_000_000)
        assert info.value.status == 416
        with pytest.raises(ServeError) as info:
            client._request("/v1/log/shard/..%2fescape")
        assert info.value.status in (400, 404)
    finally:
        server.stop()


def test_log_endpoints_404_when_unconfigured(tmp_path):
    from repro.serve import ServeError

    server = ReproServer(ModelRegistry(), ServeConfig(port=0))
    server.start_background()
    try:
        with pytest.raises(ServeError) as info:
            ServeClient(server.url, retries=0).log_manifest()
        assert info.value.status == 404
    finally:
        server.stop()


# -- shipping --------------------------------------------------------------------------
def test_follower_replicates_byte_identically(tmp_path):
    _build_primary_log(tmp_path / "primary")
    server = _serve_log(tmp_path / "primary")
    try:
        follower = LogFollower(server.url, tmp_path / "replica")
        report = follower.sync_once()
        assert report.converged
        assert report.n_shards_fetched == 2
        assert report.n_documents_fetched == 5
        assert report.lag_documents == 0
        assert _tree_bytes(tmp_path / "replica") == \
            _tree_bytes(tmp_path / "primary")
    finally:
        server.stop()


def test_follower_is_incremental_and_idempotent(tmp_path):
    log = _build_primary_log(tmp_path / "primary")
    server = _serve_log(tmp_path / "primary")
    try:
        follower = LogFollower(server.url, tmp_path / "replica")
        assert follower.sync_once().n_shards_fetched == 2
        # Nothing new: a second cycle ships zero bytes.
        repeat = follower.sync_once()
        assert repeat.n_shards_fetched == 0
        assert repeat.n_bytes_fetched == 0
        assert repeat.converged
        # The primary appends; only the tail shard ships.
        log.append(BATCH_3, source="batch-3")
        tail = follower.sync_once()
        assert tail.n_shards_fetched == 1
        assert tail.n_documents_fetched == 1
        assert tail.converged
        assert _tree_bytes(tmp_path / "replica") == \
            _tree_bytes(tmp_path / "primary")
    finally:
        server.stop()


def test_follower_small_chunks_assemble_resumably(tmp_path):
    """Multi-range assembly (tiny chunk_bytes) and resume from a partial."""
    log = _build_primary_log(tmp_path / "primary")
    server = _serve_log(tmp_path / "primary")
    try:
        follower = LogFollower(server.url, tmp_path / "replica",
                               chunk_bytes=16)
        # Simulate a dead follower that got the first 10 bytes of shard 0.
        shard = log.shards[0]
        shard_bytes = log.shard_file_path(shard.name).read_bytes()
        partial = (tmp_path / "replica" / "shards" /
                   (shard.name + ".jsonl.partial"))
        partial.parent.mkdir(parents=True)
        partial.write_bytes(shard_bytes[:10])
        report = follower.sync_once()
        assert report.converged
        # Resume skipped the bytes already on disk.
        total = sum(len(log.shard_file_path(s.name).read_bytes())
                    for s in log.shards)
        assert report.n_bytes_fetched == total - 10
        assert _tree_bytes(tmp_path / "replica") == \
            _tree_bytes(tmp_path / "primary")
    finally:
        server.stop()


def test_follower_detects_divergence(tmp_path):
    _build_primary_log(tmp_path / "primary")
    divergent = DocumentLog.create(tmp_path / "replica")
    divergent.append(["a completely different document"], source="other")
    server = _serve_log(tmp_path / "primary")
    try:
        follower = LogFollower(server.url, tmp_path / "replica")
        with pytest.raises(ReplicationError, match="diverges"):
            follower.sync_once()
    finally:
        server.stop()


def test_truncated_shard_is_refetched_never_torn(tmp_path):
    """Chaos: the first shard body is cut mid-flight; the follower retries
    and converges, and at no commit point is the replica's manifest torn."""
    _build_primary_log(tmp_path / "primary")
    server = _serve_log(tmp_path / "primary")
    # Connection order for a 2-shard sync: 0 = manifest, 1 = shard-0 range
    # (truncated after the headers + a few body bytes), then retries.
    injector = FaultInjector(plan={1: Fault("truncate", after_bytes=200)})
    proxy = FaultyProxy("127.0.0.1", server.server_port, injector)
    proxy.start()
    commits = []

    def on_shard(shard):
        # At every commit the replica must reopen cleanly: no torn state.
        reopened = DocumentLog.open(tmp_path / "replica")
        commits.append((shard.name, reopened.n_documents))

    try:
        follower = LogFollower(
            proxy.url, tmp_path / "replica",
            retry=RetryPolicy(retries=5, base_delay=0.01, max_delay=0.05),
            on_shard=on_shard)
        report = follower.sync_once()
        assert report.converged
        assert follower.metrics.value("shipping_retries_total") >= 1
        assert commits == [("shard-00001", 2), ("shard-00002", 5)]
        assert _tree_bytes(tmp_path / "replica") == \
            _tree_bytes(tmp_path / "primary")
    finally:
        proxy.stop()
        server.stop()


def test_sigkilled_follower_restarts_and_converges(tmp_path):
    """Chaos: SIGKILL the follower process mid-replay (after shard 0
    committed, while shard 1 is in flight), then restart — the replica
    must converge byte-identical, never exposing a torn manifest."""
    _build_primary_log(tmp_path / "primary")
    server = _serve_log(tmp_path / "primary")
    # Connections 0-2 complete shard 0 (manifest, range, digest); the
    # shard-1 range fetch (index 3) freezes until released — the
    # deterministic point where the SIGKILL lands.
    injector = FaultInjector(plan={3: Fault("hold")})
    proxy = FaultyProxy("127.0.0.1", server.server_port, injector)
    proxy.start()
    replica = tmp_path / "replica"
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "replicate",
         "--primary", proxy.url, "--root", str(replica), "--once"],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        _poll(lambda: injector.connections >= 4, timeout=60.0)
        kill_process(child)
        assert child.returncode == -9
    finally:
        proxy.stop()

    # Mid-crash state is consistent: shard 0 committed, nothing torn.
    interrupted = DocumentLog.open(replica)
    assert interrupted.n_shards == 1
    assert interrupted.n_documents == 2

    try:
        follower = LogFollower(server.url, replica)
        report = follower.sync_once()
        assert report.converged
        assert report.n_shards_fetched == 1  # only the missing tail
        assert _tree_bytes(replica) == _tree_bytes(tmp_path / "primary")
    finally:
        server.stop()


# -- rollout ---------------------------------------------------------------------------
@pytest.fixture()
def fleet(model_bundle, tmp_path):
    """Two live serve targets, each watching its own publish path."""
    servers = []
    targets = []
    old = tmp_path / "model-v00001.npz"
    bundle_v1 = dataclasses.replace(
        model_bundle, metadata={**model_bundle.metadata, "stream_version": 1})
    save_bundle(old, bundle_v1)
    for name in ("alpha", "beta"):
        publish = tmp_path / name / "current.npz"
        publish.parent.mkdir()
        publish.write_bytes(old.read_bytes())
        registry = ModelRegistry()
        registry.register("m", publish)
        server = ReproServer(registry, ServeConfig(port=0))
        server.start_background()
        servers.append(server)
        targets.append(RolloutTarget(name=name, url=server.url,
                                     publish_path=str(publish)))
    yield targets, old, tmp_path
    for server in servers:
        server.stop()


def test_rollout_happy_path_promotes_whole_fleet(model_bundle, fleet):
    targets, _, tmp_path = fleet
    new = tmp_path / "model-v00002.npz"
    bundle_v2 = dataclasses.replace(
        model_bundle, metadata={**model_bundle.metadata, "stream_version": 2})
    save_bundle(new, bundle_v2)

    coordinator = RolloutCoordinator(targets, health_timeout=30.0,
                                     poll_interval=0.05)
    report = coordinator.rollout(new)
    assert report.succeeded and report.state == "done"
    assert [t.name for t in report.targets] == ["alpha", "beta"]
    assert all(t.promoted and t.healthy and not t.rolled_back
               for t in report.targets)
    for target in targets:
        publish = Path(target.publish_path)
        assert publish.read_bytes() == new.read_bytes()
        assert not publish.with_name(publish.name + ".rollback").exists()
        entry = ServeClient(target.url).models()[0]
        assert entry.get("error") is None
        assert entry["metadata"]["stream_version"] == 2
    assert coordinator.metrics.value("rollout_promotions_total") == 2
    assert coordinator.metrics.value("rollout_state") == 3  # done


def test_rollout_broken_canary_rolls_back_cleanly(fleet):
    targets, old, tmp_path = fleet
    broken = tmp_path / "model-v00002.npz"
    broken.write_bytes(b"this is not an npz bundle")

    coordinator = RolloutCoordinator(targets, health_timeout=1.0,
                                     poll_interval=0.05)
    report = coordinator.rollout(broken)
    assert not report.succeeded and report.state == "rolled_back"
    # Only the canary was ever promoted; the fleet never fanned out.
    assert [t.name for t in report.targets] == ["alpha"]
    canary = report.targets[0]
    assert canary.promoted and canary.rolled_back and canary.healthy
    assert "model error" in canary.error
    # Every target is back on (or never left) the old bundle and serves.
    for target in targets:
        assert Path(target.publish_path).read_bytes() == old.read_bytes()
        entry = ServeClient(target.url).models()[0]
        assert entry.get("error") is None
        reply = ServeClient(target.url).infer(["a probe document"],
                                              iterations=2)
        assert reply["documents"][0]["theta"]
    assert coordinator.metrics.value("rollout_rollbacks_total") == 1
    assert coordinator.metrics.value("rollout_state") == 4  # rolled_back


def test_rollout_rejects_bad_specs():
    with pytest.raises(ValueError, match="name=url=publish_path"):
        RolloutTarget.parse("only-a-name")
    target = RolloutTarget.parse("a=http://x:1=/tmp/current.npz")
    assert (target.name, target.url) == ("a", "http://x:1")
    with pytest.raises(ValueError, match="duplicate"):
        RolloutCoordinator([target, target])
    with pytest.raises(ValueError, match="canary"):
        RolloutCoordinator([target], canary="ghost")


def test_rollout_missing_version_raises():
    from repro.replicate import RolloutError

    target = RolloutTarget("a", "http://127.0.0.1:1", "/tmp/current.npz")
    coordinator = RolloutCoordinator([target])
    with pytest.raises(RolloutError, match="not found"):
        coordinator.rollout("/nonexistent/model-v00009.npz")


# -- metrics surface -------------------------------------------------------------------
def test_shipping_metrics_appear_in_a_scrape(tmp_path):
    """The replication families flow through the standard exposition."""
    _build_primary_log(tmp_path / "primary")
    server = _serve_log(tmp_path / "primary")
    try:
        follower = LogFollower(server.url, tmp_path / "replica")
        follower.sync_once()
        families = parse_prometheus(render_fleet(
            collect_shards(inline=[("0", follower.metrics)])))
        assert sample_value(families, "repro_shipping_shards_total") == 2.0
        assert sample_value(families, "repro_replica_lag_docs") == 0.0
        assert sample_value(families,
                            "repro_shipping_sync_seconds_count") == 1.0
    finally:
        server.stop()


# -- request-id propagation ------------------------------------------------------------
def test_client_extra_headers_reach_the_server(tmp_path, model_bundle):
    """``ServeClient(extra_headers=...)`` stamps every request: the
    server honours and echoes the supplied X-Request-Id."""
    bundle = tmp_path / "model.npz"
    save_bundle(bundle, model_bundle)
    registry = ModelRegistry()
    registry.register("m", bundle)
    server = ReproServer(registry, ServeConfig(port=0, batch_delay=0.0))
    server.start_background()
    try:
        client = ServeClient(server.url,
                             extra_headers={"X-Request-Id": "ship-42"})
        reply = client.infer(["phrase mining"], seed=1, iterations=2)
        assert reply["request_id"] == "ship-42"
        client.extra_headers["X-Request-Id"] = "ship-43"  # dict stays live
        reply = client.infer(["phrase mining"], seed=1, iterations=2)
        assert reply["request_id"] == "ship-43"
    finally:
        server.stop()


def test_follower_mints_one_request_id_per_sync(tmp_path):
    """Every sync cycle gets a fresh correlation id, stamped onto every
    HTTP call of that cycle via the client's live header dict."""
    _build_primary_log(tmp_path / "primary")
    server = _serve_log(tmp_path / "primary")
    try:
        follower = LogFollower(server.url, tmp_path / "replica")
        assert follower.request_id is None
        follower.sync_once()
        first = follower.request_id
        assert first is not None
        assert follower.client.extra_headers["X-Request-Id"] == first
        follower.sync_once()
        second = follower.request_id
        assert second is not None and second != first
        assert follower.client.extra_headers["X-Request-Id"] == second
    finally:
        server.stop()


def test_rollout_mints_request_id_and_slo_gate_passes_no_data(
        model_bundle, fleet):
    """A promotion carries one correlation id, and the SLO gate lets
    targets without history (no verdicts) through unchanged."""
    targets, _, tmp_path = fleet
    new = tmp_path / "model-v00002.npz"
    bundle_v2 = dataclasses.replace(
        model_bundle, metadata={**model_bundle.metadata, "stream_version": 2})
    save_bundle(new, bundle_v2)

    coordinator = RolloutCoordinator(targets, health_timeout=30.0,
                                     poll_interval=0.05, slo_gate=True)
    assert coordinator.request_id is None
    report = coordinator.rollout(new)
    assert report.succeeded
    assert coordinator.request_id is not None


def test_rollout_slo_gate_blocks_breaching_target(model_bundle, tmp_path):
    """A target actively burning error budget fails its health probe with
    an ``SLO breach`` reason and the canary rolls back."""
    from repro.obs import ShardWriter, shard_path

    old = tmp_path / "model-v00001.npz"
    save_bundle(old, dataclasses.replace(
        model_bundle,
        metadata={**model_bundle.metadata, "stream_version": 1}))
    publish = tmp_path / "publish" / "current.npz"
    publish.parent.mkdir()
    publish.write_bytes(old.read_bytes())
    registry = ModelRegistry()
    registry.register("m", publish)
    metrics_dir = tmp_path / "metrics"
    server = ReproServer(registry, ServeConfig(
        port=0, batch_delay=0.0, metrics_dir=str(metrics_dir),
        history_interval_seconds=0.1))
    server.start_background()
    try:
        # A sibling shard burns error budget hard — ~100% of requests
        # error, far over the 5% objective — and keeps burning through
        # the gated rollout so the breach never decays out of the fast
        # window mid-probe.
        import threading

        burner = ShardWriter(shard_path(metrics_dir, "9"))
        stop_burning = threading.Event()

        def burn():
            while not stop_burning.is_set():
                burner.inc_counter("http_requests_total", 100)
                burner.inc_counter("http_errors_total", 100)
                burner.flush()
                time.sleep(0.05)

        burning = threading.Thread(target=burn, daemon=True)
        burning.start()
        try:
            client = ServeClient(server.url)
            _poll(lambda: any(
                verdict["name"] == "http_error_ratio" and
                verdict["status"] == "breach"
                for verdict in client.health().get("slo") or []),
                timeout=30.0)

            new = tmp_path / "model-v00002.npz"
            save_bundle(new, dataclasses.replace(
                model_bundle,
                metadata={**model_bundle.metadata, "stream_version": 2}))
            target = RolloutTarget(name="only", url=server.url,
                                   publish_path=str(publish))
            gated = RolloutCoordinator([target], health_timeout=2.0,
                                       poll_interval=0.05, slo_gate=True)
            report = gated.rollout(new)
            assert not report.succeeded
            assert "SLO breach: http_error_ratio" in \
                report.targets[0].error
            assert publish.read_bytes() == old.read_bytes()  # rolled back
        finally:
            stop_burning.set()
            burning.join(timeout=10)
            burner.close()

        # The same fleet state passes without the gate: opt-in only.
        ungated = RolloutCoordinator([target], health_timeout=30.0,
                                     poll_interval=0.05)
        assert ungated.rollout(new).succeeded
    finally:
        server.stop()
