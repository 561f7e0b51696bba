"""``ingest-serve``: stream writes beside reads, as the docs deploy it.

``repro serve --stream DIR --stream-poll 0.05`` refreshes inside the server
process while one long-lived ingester (``ingest_worker.py``) calls
``TopicStream.ingest`` with a 100-title batch every ``INTERVAL`` seconds on
top of a 2000-title base; the interval leaves about 2x headroom over
ingest + refresh at the final corpus size.  Light open-loop reads
(``READ_RATE`` req/s on one connection) keep hitting ``/v1/infer``
throughout.

One op is one batch, timed from its due time until ``/v1/models`` reports a
resident model that contains it (freshness).  The registry swaps a
published model in on the next read, so the polling connection sends that
read itself as soon as it sees one.  The reads measure how much the write
path slows the read path.
"""

from __future__ import annotations

import json
import threading
import time

from common import (Context, Outcome, StealWindow, Timing, histogram_mean_ms, infer_body,
                    latency_summary, median, metrics_delta, poisson_schedule, start_server,
                    start_worker, steal_share, valid_infer_reply, vcpu_jiffies,
                    wait_first_infer)
from serve_titles import drive, server_layers

N_BASE = 2000
BATCH = 100
INTERVAL = 2.0
READ_RATE = 8.0
N_READ_POOL = 400
SETUPS = 5
POLL = 0.02
STREAM_CONFIG = {"n_topics": 20, "n_iterations": 100}


def make_inputs(seed: int, n_batches: int) -> dict:
    """Distinct titles (the log drops duplicates) split into base, batches
    and a read pool."""
    from repro.datasets.registry import load_dataset

    need = N_BASE + n_batches * BATCH + N_READ_POOL
    titles = list(dict.fromkeys(load_dataset("dblp-titles", n_documents=need * 11 // 10,
                                             seed=seed).texts))
    if len(titles) < need:
        raise RuntimeError(f"only {len(titles)} distinct titles, need {need}")
    batches = [titles[N_BASE + i * BATCH:N_BASE + (i + 1) * BATCH] for i in range(n_batches)]
    return {"base": titles[:N_BASE], "batches": batches, "pool": titles[need - N_READ_POOL:need],
            "config": dict(STREAM_CONFIG, seed=seed)}


def resident_documents(models: dict) -> int:
    """``n_documents`` of the resident (not merely published) stream model."""
    for entry in models.get("models", []):
        if entry.get("loaded") and not entry.get("stale"):
            return int(entry.get("metadata", {}).get("n_documents", 0))
    return 0


def published_documents(models: dict) -> int:
    """``n_documents`` of the newest stream model on disk, resident or not."""
    return max((int(entry.get("metadata", {}).get("n_documents", 0))
                for entry in models.get("models", [])), default=0)


def set_up(ctx: Context, inputs_path, index: int):
    """Ingester + server from launch to the first version answering reads.

    Returns the set-up's ``(wall seconds, seconds with steal taken out)``
    first, then the running processes.
    """
    window = StealWindow()
    root = ctx.work / f"stream-{index}"
    ingester = start_worker(ctx.repo, ctx.work / f"ingest-{index}.log", "ingest_worker.py",
                            str(inputs_path), str(root))
    server = None
    try:
        ingester.call({"op": "create"}, timeout=170)
        server, url = start_server(ctx.repo, ctx.work / f"serve-{index}.log",
                                   ["--stream", str(root), "--stream-poll", "0.05"])
        client = wait_first_infer(url, ["warm up"])
    except BaseException:
        ingester.stop()
        if server is not None:
            server.stop()
        raise
    return window.seconds(), ingester, server, url, client


def run(ctx: Context) -> Outcome:
    n_batches = max(1, int(ctx.seconds // INTERVAL))
    inputs = make_inputs(ctx.seed, n_batches)
    inputs_path = ctx.work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    pool = inputs["pool"]
    # Reads run until the last batch is resident, so the schedule outlasts it.
    reads = poisson_schedule(ctx.seed, READ_RATE, ctx.seconds + 120.0, len(pool))

    setups, setups_wall = [], []
    for index in range(SETUPS):
        (wall, unstolen), ingester, server, url, client = set_up(ctx, inputs_path, index)
        setups_wall.append(wall)
        setups.append(unstolen)
        if index < SETUPS - 1:
            client.close()
            ingester.stop()
            server.stop()

    stop = threading.Event()
    read_results = []
    reader = threading.Thread(target=lambda: read_results.extend(
        drive(url, reads, pool, ctx.seed, 1, ctx.trace, stop)))
    acks, fresh, fresh_unstolen, due_jiffies, swap_reads = [], [], [], [], []
    try:
        before = client.metrics()
        cpu_start = server.cpu() + ingester.cpu()
        reader.start()
        window = StealWindow()
        due = [window.start + i * INTERVAL for i in range(n_batches)]
        sent = 0
        deadline = due[-1] + 60.0
        while len(fresh) < n_batches or len(acks) < n_batches:
            now = time.perf_counter()
            if now > deadline:
                raise TimeoutError(f"{len(fresh)}/{n_batches} batches resident in time")
            if sent < n_batches and now >= due[sent]:
                ingester.send({"op": "ingest", "batch": sent, "trace": ctx.trace and sent % 2 == 1})
                due_jiffies.append(vcpu_jiffies())
                sent += 1
            while len(acks) < sent and ingester.has_reply():
                acks.append(ingester.reply())
            if len(fresh) < sent:
                models = client.get_json("/v1/models")
                seen, jiffies = time.perf_counter(), vcpu_jiffies()
                resident = resident_documents(models)
                while len(fresh) < sent and resident >= N_BASE + (len(fresh) + 1) * BATCH:
                    timing = Timing(due[len(fresh)], due[len(fresh)], seen, True)
                    share = steal_share(due_jiffies[len(fresh)], jiffies)
                    fresh.append(timing)
                    fresh_unstolen.append(timing.latency * 1000.0 * (1.0 - share))
                if published_documents(models) > resident:
                    # The registry swaps a published version in on the next
                    # read; send it now instead of waiting for the reader's
                    # next arrival, so freshness does not depend on it.
                    status, body = client.request("POST", "/v1/infer", infer_body(pool[:1], 1))
                    swap_reads.append(valid_infer_reply(status, body, 1))
            time.sleep(POLL if sent == n_batches else min(POLL, max(0.0, due[sent] - now)))
        stop.set()
        reader.join()
        steal = window.share()
        cpu = server.cpu() + ingester.cpu() - cpu_start
        after = client.metrics()
        final = resident_documents(client.get_json("/v1/models"))
        rss = server.peak_rss() + ingester.peak_rss()
        refreshes = (ingester.call({"op": "refresh_copy", "repeats": 3}, timeout=170)["refreshes"]
                     if ctx.trace else [])
        client.close()
    finally:
        stop.set()
        if reader.is_alive():
            reader.join()
        ingester.stop()
        server.stop()

    read_timings = [t for _, t in read_results]
    bad_acks = sum(a["n_documents"] != BATCH or a["n_duplicates"] != 0 for a in acks)
    failed = (sum(not t.ok for t in read_timings) + bad_acks + swap_reads.count(False)
              + (final != N_BASE + n_batches * BATCH))
    fresh_ms = [t.latency * 1000.0 for t in fresh]
    metrics = {"setup_s": median(setups), "op_p50_ms": median(fresh_unstolen),
               "cpu_ms_per_op": 1000.0 * cpu / n_batches, "peak_rss_mb": rss}
    detail = dict(latency_summary(read_timings, "read"), setup_s=setups,
                  setup_wall_s=setups_wall, freshness_ms=fresh_unstolen,
                  freshness_wall_ms=fresh_ms, steal_share=steal, swap_reads=len(swap_reads),
                  ingest_p50_ms=median([a["wall_s"] * 1000.0 for a in acks]),
                  ingest_ms=[a["wall_s"] * 1000.0 for a in acks],
                  final_documents=final, op_tail="omitted: fewer than 10 batches beyond any "
                                                 "tail percentile")
    layers = {}
    if ctx.trace:
        layers = server_layers(metrics_delta(before, after), read_timings)
        layers.update(write_layers(acks, refreshes, metrics_delta(before, after)))
        layers["bench.tracing_overhead_pct"] = 100.0 * (
            median([a["wall_s"] for a in acks if "spans_ms" in a])
            / median([a["wall_s"] for a in acks if "spans_ms" not in a]) - 1.0)
    return Outcome(n_batches + len(read_timings) + len(swap_reads) + 1, failed, metrics,
                   layers, detail)


def write_layers(acks, refreshes, delta) -> dict:
    """Ingest self times (traced batches), refresh stages, swap histograms."""
    traced = [a for a in acks if "spans_ms" in a]

    def mean_span(name: str) -> float:
        return sum(a["spans_ms"].get(name, 0.0) for a in traced) / len(traced)

    def refresh_stage(name: str) -> float:
        return median([1000.0 * r["timings"][name] for r in refreshes])

    preprocess = mean_span("text.preprocess")
    tokens = sum(a["n_tokens"] for a in traced) / len(traced)
    stages = ("mining_merge", "segmentation", "topic_modeling", "publish")
    layers = {
        "text.preprocess.ms": preprocess,
        "text.preprocess.tokens_per_s": tokens / (preprocess / 1000.0),
        "stream.log.append_ms": mean_span("stream.log.append"),
        "stream.log.read_shard_ms": mean_span("stream.log.read_shard"),
        "stream.counters.compute_ms": mean_span("stream.counters.compute"),
        "stream.counters.save_ms": mean_span("stream.counters.save"),
        "stream.ingest.unattributed_ms": mean_span("stream.ingest.unattributed"),
        "stream.bytes_written_per_ingest": median([a["bytes_written"] for a in acks]),
        "stream.refresh.unattributed_ms": median(
            [1000.0 * (r["seconds"] - sum(r["timings"].values())) for r in refreshes]),
        "stream.refresh.server_ms": histogram_mean_ms(delta, "repro_stream_refresh_seconds"),
        "serve.registry.reload_ms": histogram_mean_ms(delta, "repro_registry_load_seconds"),
        "serve.registry.swap_lag_ms": histogram_mean_ms(delta, "repro_registry_swap_lag_seconds"),
    }
    layers.update({f"stream.refresh.{stage}_ms": refresh_stage(stage) for stage in stages})
    return layers
