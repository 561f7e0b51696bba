"""repro.serve.batching: the scheduling invariants of MicroBatcher.

At most one batch runs at a time, a failed batch never wedges the
scheduler, ``stop()`` lets a running batch finish while failing the queued
requests, ``submit(timeout=)`` raises ``concurrent.futures.TimeoutError``,
and every read-path span is observed.
"""

import concurrent.futures
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.infer import InferenceConfig
from repro.io.artifacts import save_bundle
from repro.obs.tracing import SPAN_NAMES, RequestTrace, span_metric
from repro.serve import MicroBatcher, ModelRegistry

TEXTS = [
    "support vector machine training data and feature selection",
    "natural language processing for machine translation",
    "association rules and frequent itemsets for data mining",
    "query processing over relational database systems",
]


@pytest.fixture(scope="module")
def bundle_path(model_bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("batching") / "model.npz"
    save_bundle(path, model_bundle)
    return path


@pytest.fixture
def registry(bundle_path):
    registry = ModelRegistry()
    registry.register("m", bundle_path)
    return registry


class HeldGet:
    """Wraps ``registry.get``: the first call blocks until ``release``."""

    def __init__(self, registry, fail_first: bool = False) -> None:
        self.real_get = registry.get
        self.fail_first = fail_first
        self.running = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, name):
        self.calls += 1
        if self.calls == 1:
            self.running.set()
            assert self.release.wait(30)
            if self.fail_first:
                raise ValueError("first batch fails")
        return self.real_get(name)


def wait_for_requests(batcher, count: int) -> None:
    deadline = time.monotonic() + 30
    while (batcher.metrics.value("infer_requests_total") < count
           and time.monotonic() < deadline):
        time.sleep(0.005)
    assert batcher.metrics.value("infer_requests_total") >= count


def solo_theta(model_bundle, text, seed, iterations=5):
    return model_bundle.inferencer().infer_texts(
        [text], InferenceConfig(n_iterations=iterations, seed=seed,
                                engine="reference")).theta


def test_submit_before_start_is_rejected(registry):
    batcher = MicroBatcher(registry)
    with pytest.raises(RuntimeError, match="not running"):
        batcher.submit("m", ["text"], seed=1, n_iterations=5)


def test_concurrent_submitters_never_run_two_batches_at_once(
        registry, model_bundle, monkeypatch):
    real_get = registry.get
    lock = threading.Lock()
    in_flight, peak = [0], [0]

    def counting_get(name):
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        try:
            time.sleep(0.002)  # widen the window an overlap would show in
            return real_get(name)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(registry, "get", counting_get)
    batcher = MicroBatcher(registry, max_batch_size=3)
    batcher.start()
    barrier = threading.Barrier(8)

    def fire(index):
        barrier.wait()
        return [batcher.submit("m", [TEXTS[(index + i) % len(TEXTS)]],
                               seed=10 * index + i, n_iterations=5).theta
                for i in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often to expose a race
    try:
        with ThreadPoolExecutor(8) as pool:
            replies = list(pool.map(fire, range(8)))
    finally:
        sys.setswitchinterval(interval)
        batcher.stop()
    assert peak[0] == 1
    assert batcher.metrics.value("infer_requests_total") == 32
    for index, thetas in enumerate(replies):
        for i, theta in enumerate(thetas):
            expected = solo_theta(model_bundle, TEXTS[(index + i) % len(TEXTS)],
                                  10 * index + i)
            assert np.array_equal(theta, expected)


def test_queued_requests_beyond_the_cap_form_the_next_batches(
        registry, model_bundle, monkeypatch):
    held = HeldGet(registry)
    monkeypatch.setattr(registry, "get", held)
    batcher = MicroBatcher(registry, max_batch_size=2)
    batcher.start()
    try:
        with ThreadPoolExecutor(6) as pool:
            first = pool.submit(batcher.submit, "m", [TEXTS[0]], 100, 5)
            assert held.running.wait(30)
            rest = [pool.submit(batcher.submit, "m", [TEXTS[i % 4]], 100 + i, 5)
                    for i in range(1, 6)]
            wait_for_requests(batcher, 6)
            held.release.set()
            results = [first.result(30)] + [f.result(30) for f in rest]
    finally:
        held.release.set()
        batcher.stop()
    # One batch alone, then the five followers two at a time.
    assert batcher.metrics.value("infer_batches_total") == 4
    for index, result in enumerate(results):
        assert np.array_equal(result.theta,
                              solo_theta(model_bundle, TEXTS[index % 4],
                                         100 + index))


def test_stop_during_a_batch_finishes_it_and_fails_the_queue(
        registry, monkeypatch):
    held = HeldGet(registry)
    monkeypatch.setattr(registry, "get", held)
    batcher = MicroBatcher(registry)
    batcher.start()
    try:
        with ThreadPoolExecutor(5) as pool:
            first = pool.submit(batcher.submit, "m", [TEXTS[0]], 1, 5)
            assert held.running.wait(30)
            followers = [pool.submit(batcher.submit, "m", [TEXTS[1]], i, 5)
                         for i in range(3)]
            wait_for_requests(batcher, 4)
            stopper = pool.submit(batcher.stop)
            for follower in followers:
                with pytest.raises(RuntimeError,
                                   match="inference scheduler stopped"):
                    follower.result(30)
            assert not first.done()  # the running batch is not cut short
            held.release.set()
            assert first.result(30).n_documents == 1
            stopper.result(30)
    finally:
        held.release.set()
        batcher.stop()
    with pytest.raises(RuntimeError, match="not running"):
        batcher.submit("m", ["text"], seed=1, n_iterations=5)


def test_a_failed_batch_does_not_wedge_the_scheduler(registry, monkeypatch):
    held = HeldGet(registry, fail_first=True)
    monkeypatch.setattr(registry, "get", held)
    batcher = MicroBatcher(registry)
    batcher.start()
    try:
        with ThreadPoolExecutor(2) as pool:
            first = pool.submit(batcher.submit, "m", [TEXTS[0]], 1, 5)
            assert held.running.wait(30)
            follower = pool.submit(batcher.submit, "m", [TEXTS[1]], 2, 5)
            wait_for_requests(batcher, 2)
            held.release.set()
            with pytest.raises(ValueError, match="first batch fails"):
                first.result(30)
            assert follower.result(30).n_documents == 1
        assert batcher.submit("m", [TEXTS[2]], seed=3,
                              n_iterations=5).n_documents == 1
    finally:
        held.release.set()
        batcher.stop()


def test_an_interrupted_batch_fails_its_requests_and_releases_the_lead(
        registry, monkeypatch):
    # The window closes once both requests are in, so they share a batch.
    batcher = MicroBatcher(registry, max_batch_size=2, max_delay=5.0)
    real_observe = batcher.metrics.observe
    failures = []

    def failing_observe(name, value):
        if not failures:  # the first batch dies outside the per-partition guard
            failures.append(name)
            raise OSError("metrics shard unavailable")
        real_observe(name, value)

    monkeypatch.setattr(batcher.metrics, "observe", failing_observe)
    batcher.start()

    outcomes = []

    def submit(index):
        try:
            batcher.submit("m", [TEXTS[index]], seed=index, n_iterations=5)
        except Exception as exc:  # the outcome under test
            outcomes.append(repr(exc))
        else:
            outcomes.append("ok")

    threads = [threading.Thread(target=submit, args=(i,), daemon=True)
               for i in range(2)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(outcomes) == [
            "OSError('metrics shard unavailable')",
            "RuntimeError('inference batch was interrupted')"]
        assert batcher.submit("m", [TEXTS[2]], seed=3,
                              n_iterations=5).n_documents == 1
    finally:
        batcher.stop()


def test_submit_timeout_raises_futures_timeout_error(registry, monkeypatch):
    held = HeldGet(registry)
    monkeypatch.setattr(registry, "get", held)
    batcher = MicroBatcher(registry)
    batcher.start()
    try:
        with ThreadPoolExecutor(1) as pool:
            first = pool.submit(batcher.submit, "m", [TEXTS[0]], 1, 5)
            assert held.running.wait(30)
            with pytest.raises(concurrent.futures.TimeoutError) as caught:
                batcher.submit("m", [TEXTS[1]], seed=2, n_iterations=5,
                               timeout=0.05)
            assert type(caught.value) is concurrent.futures.TimeoutError
            held.release.set()
            assert first.result(30).n_documents == 1
        assert batcher.submit("m", [TEXTS[2]], seed=3,
                              n_iterations=5).n_documents == 1
    finally:
        held.release.set()
        batcher.stop()


def test_every_span_is_observed(registry):
    batcher = MicroBatcher(registry)
    batcher.start()
    trace = RequestTrace(request_id="spans", route="/v1/infer")
    try:
        batcher.submit("m", TEXTS[:2], seed=4, n_iterations=5, trace=trace)
    finally:
        batcher.stop()
    entries = batcher.metrics.read()
    # The first and last spans (request_read, reply) belong to the HTTP
    # handler; every span in between is the batcher's.
    batch_spans = SPAN_NAMES[1:-1]
    for span in batch_spans:
        assert entries[span_metric(span)].count == 1, span
    assert set(trace.as_dict()["spans_ms"]) == set(batch_spans)
