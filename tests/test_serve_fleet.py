"""repro.serve.fleet: N SO_REUSEPORT worker processes behind one address.

Covers the fleet's three contracts: replies are bit-identical to a
single-process server (any worker, any kernel load-balancing), model
memory is shared read-only via mmap (not per-worker copies), and the
supervisor keeps the address serving through worker crashes — including
a crash injected mid-hot-swap under concurrent inference load, after
which every worker must converge on the newly published version.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.infer import InferenceConfig
from repro.io.artifacts import ModelBundle, mmap_backing, save_bundle
from repro.serve import (
    ModelRegistry,
    ServeClient,
    ServeConfig,
    ServeFleet,
)

UNSEEN = [
    "support vector machine training data and feature selection",
    "natural language processing for machine translation",
    "association rules and frequent itemsets for data mining",
    "query processing over relational database systems",
]


@pytest.fixture(scope="module")
def bundle_path(model_bundle, tmp_path_factory):
    """The session model bundle saved once for the fleet tests."""
    path = tmp_path_factory.mktemp("fleet") / "model.npz"
    save_bundle(path, model_bundle)
    return path


def test_registry_load_is_mmap_backed(bundle_path):
    """The serving path's arrays are read-only views over a file mapping —
    the property that lets N worker processes share one physical copy of
    every model through the page cache."""
    registry = ModelRegistry()
    registry.register("m", bundle_path)
    model = registry.get("m")
    for name in ("topic_word_counts", "doc_topic_counts", "topic_counts",
                 "alpha"):
        array = getattr(model.bundle, name)
        assert mmap_backing(array) is not None, f"{name} not mmap-backed"
        assert not array.flags.writeable, f"{name} must be read-only"


def test_fleet_requires_sources_and_resolves_port(bundle_path):
    with pytest.raises(ValueError, match="at least one model"):
        ServeFleet(ServeConfig(port=0, workers=1), {})
    fleet = ServeFleet(ServeConfig(port=0, workers=1),
                       {"model": bundle_path})
    with fleet:
        assert fleet.config.port != 0  # ephemeral port pinned at start
        assert fleet.url.endswith(str(fleet.config.port))
        fleet.wait_until_ready(timeout=30)
    assert fleet.alive_workers() == []  # stop() reaped every worker


def test_fleet_replies_bit_identical_to_solo_runs(model_bundle, bundle_path):
    """Whichever worker the kernel picks, a seeded request reproduces the
    solo single-process inference bit-for-bit."""
    config = ServeConfig(port=0, workers=2)
    with ServeFleet(config, {"model": bundle_path}) as fleet:
        fleet.wait_until_ready(timeout=30)
        client = ServeClient(fleet.url, retries=2)
        inferencer = model_bundle.inferencer()
        for index, text in enumerate(UNSEEN):
            reply = client.infer([text], seed=31 * index + 1, iterations=10)
            solo = inferencer.infer_texts(
                [text], InferenceConfig(n_iterations=10, seed=31 * index + 1,
                                        engine="reference"))
            assert reply["documents"][0]["theta"] == \
                [float(p) for p in solo.documents[0].theta]


def test_fleet_worker_crash_mid_hot_swap_under_load(model_bundle, tmp_path):
    """Kill one worker right as a new bundle version is published, while
    concurrent /v1/infer traffic is in flight: the address keeps serving
    (clients may retry connection errors, never see wrong answers), the
    supervisor restarts the dead worker, and /v1/models converges — every
    worker ends up resident on the new version."""
    path = tmp_path / "model.npz"
    stamped = ModelBundle(**{**model_bundle.__dict__,
                             "metadata": {"stream_version": 1}})
    save_bundle(path, stamped)
    config = ServeConfig(port=0, workers=2, health_interval=0.1,
                         restart_backoff=0.1)
    errors = []
    stop_load = threading.Event()

    def load_loop(thread_id):
        client = ServeClient(fleet.url, retries=4, retry_delay=0.05)
        while not stop_load.is_set():
            try:
                reply = client.infer([UNSEEN[thread_id % len(UNSEEN)]],
                                     seed=thread_id, iterations=5)
                assert reply["documents"]
            except Exception as exc:  # noqa: BLE001 — recorded, asserted below
                errors.append(exc)
                return

    with ServeFleet(config, {"model": path}) as fleet:
        fleet.wait_until_ready(timeout=30)
        threads = [threading.Thread(target=load_loop, args=(i,), daemon=True)
                   for i in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)  # let traffic reach both workers

        first_pid = fleet.worker_pid(0)
        stamped.metadata = {"stream_version": 2}
        save_bundle(path, stamped)      # atomic republish (os.replace)
        os.utime(path, ns=(9, 9))       # force a new stat signature
        fleet.kill_worker(0)            # crash injection mid-swap

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if fleet.alive_workers() == [0, 1] \
                    and fleet.worker_pid(0) != first_pid:
                break
            time.sleep(0.1)
        assert fleet.alive_workers() == [0, 1], "worker 0 was not restarted"
        assert fleet.worker_pid(0) != first_pid
        assert fleet.restarts >= 1

        # Convergence: sample /v1/models (each fresh connection lands on a
        # kernel-chosen worker) until both workers answer with the new
        # version resident.
        observer = ServeClient(fleet.url, retries=4, retry_delay=0.05)
        versions = {}
        while time.monotonic() < deadline:
            entry = observer.models()[0]
            versions[entry["worker_id"]] = entry.get("resident_version")
            if versions.get(0) == 2 and versions.get(1) == 2:
                break
            time.sleep(0.05)
        assert versions == {0: 2, 1: 2}, \
            f"fleet did not converge on v2: {versions}"

        stop_load.set()
        for thread in threads:
            thread.join(timeout=10)
    assert not errors, f"requests failed during crash/hot-swap: {errors[:3]}"


def test_fleet_worker_ids_cover_configured_range(bundle_path):
    """wait_until_ready(require_all=True) really saw every worker."""
    config = ServeConfig(port=0, workers=2)
    with ServeFleet(config, {"model": bundle_path}) as fleet:
        seen = fleet.wait_until_ready(timeout=30)
        assert seen == {0, 1}
