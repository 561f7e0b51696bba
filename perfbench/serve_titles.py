"""``serve-titles``: closed-loop inference against one ``repro serve`` process.

One connection sends a seeded sequence of ``/v1/infer`` requests back to
back, each 1-4 held-out titles, for the whole window: every op's latency is
the service time a lone client sees, with no queueing behind other requests
(on a shared 2-vCPU VM, an open-loop schedule let a few percent of host
slowdown turn into tens of percent of queueing).  The bundle is fitted once
from 3000 titles before any timer starts.  Fold-in, segmentation and the
micro-batcher's window dominate; there is no training or disk write on this
path.  ``drive`` is the open-loop generator the reads of ``ingest-serve``
use.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence

from common import (HTTP_ERRORS, Arrival, Context, Http, Outcome, StealWindow, Timing,
                    histogram_mean_ms, infer_body, latency_summary, median, metrics_delta,
                    request_sequence, start_server, valid_infer_reply, wait_first_infer)

N_TRAIN = 3000
N_HELD_OUT = 600
SETUPS = 9
PROBE = "perfbench-probe"


def fit_bundle(texts: Sequence[str], path, seed: int) -> None:
    """Train the served bundle (input preparation: never timed)."""
    from repro import ToPMine, ToPMineConfig
    from repro.io.artifacts import ModelBundle, save_bundle

    config = ToPMineConfig(n_topics=20, min_support=None, n_iterations=100, seed=seed)
    result = ToPMine(config).fit(list(texts), name="dblp-titles")
    save_bundle(path, ModelBundle.from_fit(
        result.segmented_corpus, result.topic_model, result.mining_result,
        construction=config.construction_config(), preprocess=config.preprocess,
        metadata={"source": "dblp-titles", "seed": seed}))


def probe(client: Http, pool: Sequence[str]) -> bytes:
    """A fixed request whose reply bytes must never change."""
    status, body = client.request("POST", "/v1/infer", infer_body(pool[:3], 11),
                                  {"X-Request-Id": PROBE})
    return body if valid_infer_reply(status, body, 3) else b""


def drive(url: str, schedule: Sequence[Arrival], pool: Sequence[str], seed: int,
          connections: int, trace: bool, stop: Optional[threading.Event] = None) -> List[tuple]:
    """Send ``schedule`` open-loop; returns ``(arrival index, Timing)`` pairs.

    Each connection's thread takes the next arrival in schedule order and
    sends it at its due time, or as soon as the thread is free when it is
    already late.  With ``trace`` every second request carries an
    ``X-Request-Id``, the traced half the overhead is measured against.
    Setting ``stop`` ends the run early.
    """
    stop = stop or threading.Event()
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    results: List[tuple] = []
    window = time.perf_counter()

    def worker() -> None:
        client = Http(url)
        try:
            while not stop.is_set():
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                arrival = schedule[index]
                due = window + arrival.offset
                if stop.wait(max(0.0, due - time.perf_counter())):
                    return
                documents = [pool[i] for i in arrival.documents]
                headers = {"X-Request-Id": f"perfbench-{index}"} if trace and index % 2 else None
                sent = time.perf_counter()
                try:
                    status, body = client.request("POST", "/v1/infer",
                                                  infer_body(documents, seed + index), headers)
                    ok = valid_infer_reply(status, body, len(documents))
                except HTTP_ERRORS:
                    client = Http(url)
                    ok = False
                results.append((index, Timing(due, sent, time.perf_counter(), ok)))
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(results, key=lambda pair: pair[0])


def server_layers(delta: dict, timings: Sequence[Timing]) -> dict:
    """Per-request read-path layers from a ``/metrics`` window delta.

    The server observes ``queue_wait`` once per request and the other spans
    once per batch, which every request in the batch waits through, so each
    span's mean per observation is its per-request share.  The client gap
    is what the client saw beyond the server's own request time.
    """
    server = histogram_mean_ms(delta, "repro_http_v1_infer_seconds")
    spans = {
        "serve.batching.queue_wait_ms": histogram_mean_ms(delta, "repro_span_queue_wait_seconds"),
        "serve.batching.assembly_ms": histogram_mean_ms(delta, "repro_span_batch_assembly_seconds"),
        "serve.registry.model_load_ms": histogram_mean_ms(delta, "repro_span_model_load_seconds"),
        "core.infer.segmentation_ms": histogram_mean_ms(delta, "repro_span_segmentation_seconds"),
        "core.infer.fold_in_ms": histogram_mean_ms(delta, "repro_span_fold_in_seconds"),
    }
    batches = delta.get("repro_infer_batch_size_count", 0.0)
    client = 1000.0 * sum(t.done - t.sent for t in timings) / len(timings)
    return dict(spans, **{
        "serve.batching.requests_per_batch":
            delta.get("repro_infer_batch_size_sum", 0.0) / batches if batches else 0.0,
        "serve.http.server_ms": server,
        "serve.http.unattributed_ms": server - sum(spans.values()),
        "serve.client_gap_ms": client - server,
    })


def tracing_overhead(results: Sequence[tuple]) -> float:
    """% by which traced (odd) requests were slower than untraced ones."""
    traced = [t.latency for i, t in results if i % 2]
    untraced = [t.latency for i, t in results if not i % 2]
    return 100.0 * (median(traced) / median(untraced) - 1.0)


def closed_loop(url: str, pool: Sequence[str], seed: int, seconds: float,
                trace: bool) -> List[tuple]:
    """Send seeded requests back to back on one connection for ``seconds``.

    Returns ``(request index, Timing)`` pairs; a closed-loop op is due when
    it is sent.  With ``trace`` every second request carries an
    ``X-Request-Id``, the traced half the overhead is measured against.
    """
    client = Http(url)
    results: List[tuple] = []
    end = time.perf_counter() + seconds
    try:
        for index, chosen in enumerate(request_sequence(seed, len(pool))):
            sent = time.perf_counter()
            if sent >= end:
                break
            documents = [pool[i] for i in chosen]
            headers = {"X-Request-Id": f"perfbench-{index}"} if trace and index % 2 else None
            try:
                status, body = client.request("POST", "/v1/infer",
                                              infer_body(documents, seed + index), headers)
                ok = valid_infer_reply(status, body, len(documents))
            except HTTP_ERRORS:
                client = Http(url)
                ok = False
            results.append((index, Timing(sent, sent, time.perf_counter(), ok)))
    finally:
        client.close()
    return results


def run(ctx: Context) -> Outcome:
    from repro.datasets.registry import load_dataset

    titles = load_dataset("dblp-titles", n_documents=N_TRAIN + N_HELD_OUT, seed=ctx.seed).texts
    pool = titles[N_TRAIN:]
    bundle = ctx.work / "titles.npz"
    fit_bundle(titles[:N_TRAIN], bundle, ctx.seed)

    setups, setups_wall = [], []
    for index in range(SETUPS):
        window = StealWindow()
        server, url = start_server(ctx.repo, ctx.work / f"serve-{index}.log",
                                   ["--model", str(bundle)])
        try:
            client = wait_first_infer(url, pool[:2])
        except BaseException:
            server.stop()
            raise
        wall, unstolen = window.seconds()
        setups_wall.append(wall)
        setups.append(unstolen)
        if index < SETUPS - 1:
            client.close()
            server.stop()

    try:
        first_probe = probe(client, pool)
        before = client.metrics()
        # One closed-loop op first, so no timer covers a cold first request.
        closed_loop(url, pool, ctx.seed + 1, 0.5, False)
        cpu_start = server.cpu()
        window = StealWindow()
        results = closed_loop(url, pool, ctx.seed, ctx.seconds, ctx.trace)
        steal = window.share()
        cpu = server.cpu() - cpu_start
        after = client.metrics()
        last_probe = probe(client, pool)
        rss = server.peak_rss()
        client.close()
    finally:
        server.stop()

    timings = [t for _, t in results]
    failed = sum(not t.ok for t in timings) + (not first_probe or first_probe != last_probe)
    summary = latency_summary(timings, "op")
    metrics = {"setup_s": median(setups), "op_p50_ms": summary["op_p50_ms"] * (1.0 - steal),
               "cpu_ms_per_op": 1000.0 * cpu / len(timings), "peak_rss_mb": rss}
    detail = dict(summary, setup_s=setups, setup_wall_s=setups_wall, steal_share=steal,
                  probe_identical=first_probe == last_probe)
    layers = {}
    if ctx.trace:
        layers = server_layers(metrics_delta(before, after), timings)
        layers["bench.tracing_overhead_pct"] = tracing_overhead(results)
    return Outcome(len(timings) + 2, failed, metrics, layers, detail)
