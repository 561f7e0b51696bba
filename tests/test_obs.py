"""repro.obs: metric shards, fleet aggregation, tracing, structured logs.

The tentpole contracts under test:

* shard files take concurrent writers (threads in one process, and real
  sibling processes) without losing a single count;
* any scrape aggregates every live shard — per-``worker_id`` series plus
  fleet totals, with reaped (dead-worker) shards preserved in the
  totals;
* a two-worker fleet under load answers a single ``/metrics`` scrape
  whose fleet-total ``repro_http_requests_total`` equals the sum of the
  per-worker series, and every ``/v1/infer`` reply carries a request id
  whose span timings appear in the same scrape;
* ``METRIC_CATALOG`` is authoritative: a live scrape emits no family the
  catalog does not list.
"""

import io
import json
import math
import multiprocessing
import os
import re
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.io.artifacts import save_bundle
from repro.obs import (
    METRIC_CATALOG,
    REAPED_SHARD_NAME,
    SPAN_NAMES,
    ShardWriter,
    build_info,
    collect_shards,
    log_event,
    parse_prometheus,
    parse_shard_name,
    reap_stale_shards,
    render_fleet,
    sample_value,
    sanitize_request_id,
    shard_path,
    span_metric,
)
from repro.obs.shards import (KIND_LATENCY, KIND_SIZE, bucket_bounds,
                               bucket_index)
from repro.obs.tracing import RequestTrace, new_request_id
from repro.serve import ModelRegistry, ReproServer, ServeConfig, ServeFleet
from repro.serve.client import ServeClient
from repro.topicmodel import ckernel


@pytest.fixture(scope="module")
def bundle_path(model_bundle, tmp_path_factory):
    """The session model bundle saved once for the scrape tests."""
    path = tmp_path_factory.mktemp("obs") / "model.npz"
    save_bundle(path, model_bundle)
    return path


# -- shard files -----------------------------------------------------------------------
def test_shard_counter_and_histogram_roundtrip(tmp_path):
    path = shard_path(tmp_path, "0")
    writer = ShardWriter(path)
    writer.inc_counter("requests_total", 3)
    writer.inc_counter("requests_total", 2)
    for seconds in (0.001, 0.01, 0.1):
        writer.observe("http_healthz_seconds", seconds)
    writer.observe("infer_batch_size", 4)
    writer.flush()

    entries = {name: entry for name, entry in
               collect_shards(tmp_path).workers["0"].items()}
    assert entries["requests_total"].value == 5.0
    latency = entries["http_healthz_seconds"]
    assert latency.count == 3
    assert latency.sum == pytest.approx(0.111)
    assert sum(latency.bucket_counts) == 3  # every sample fell in a bucket
    assert entries["infer_batch_size"].count == 1
    writer.close()


@pytest.mark.parametrize("kind", [KIND_LATENCY, KIND_SIZE])
def test_bucket_index_matches_searchsorted(kind):
    bounds = bucket_bounds(kind)
    midpoints = [(low + high) / 2 for low, high in zip(bounds, bounds[1:])]
    values = [*bounds, *midpoints, 0.0, -0.0, -1.0, -1e9, bounds[-1] * 2,
              math.inf, -math.inf, math.nan, np.float64(bounds[0]),
              np.float64(math.nan)]
    for value in values:
        assert bucket_index(bounds, value) == \
            int(np.searchsorted(bounds, value, side="left")), value
    # observe() files each sample in that bucket.
    writer = ShardWriter()
    name = "probe_seconds" if kind == KIND_LATENCY else "probe_size"
    with np.errstate(invalid="ignore"):  # the sum slot sees inf + -inf
        for value in values:
            writer.observe(name, value)
    counts = writer.read()[name].bucket_counts
    expected = np.bincount(np.searchsorted(bounds, values, side="left"),
                           minlength=len(bounds) + 1)
    assert counts.tolist() == expected.tolist()


def test_shard_reopen_accumulates(tmp_path):
    """Reopening an existing shard file reindexes it: counts continue."""
    path = shard_path(tmp_path, "0")
    first = ShardWriter(path)
    first.inc_counter("requests_total", 7)
    first.observe("http_healthz_seconds", 0.02)
    first.close()

    second = ShardWriter(path)
    second.inc_counter("requests_total", 5)
    second.observe("http_healthz_seconds", 0.03)
    second.flush()
    sample = collect_shards(tmp_path)
    assert sample.workers["0"]["requests_total"].value == 12.0
    assert sample.workers["0"]["http_healthz_seconds"].count == 2
    second.close()


def test_shard_name_parse_roundtrip(tmp_path):
    path = shard_path(tmp_path, "stream", pid=4242)
    parsed = parse_shard_name(Path(path).name)
    assert parsed == ("stream", 4242)
    assert parse_shard_name("not-a-shard.txt") is None


def test_concurrent_thread_writers_lose_nothing(tmp_path):
    """8 threads hammering one writer: counter totals stay exact.

    The shard is the only metrics store, so a lost update would be a lost
    count everywhere; a tiny switch interval makes thread switches land
    between as many bytecodes as possible."""
    writer = ShardWriter(shard_path(tmp_path, "0"))
    n_threads, per_thread = 8, 400

    def hammer(thread_id: int) -> None:
        for i in range(per_thread):
            writer.inc_counter("requests_total")
            writer.observe("http_healthz_seconds", 0.001 * (i % 7 + 1))

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    writer.flush()

    entries = collect_shards(tmp_path).workers["0"]
    assert entries["requests_total"].value == n_threads * per_thread
    latency = entries["http_healthz_seconds"]
    assert latency.count == n_threads * per_thread
    assert sum(latency.bucket_counts) == n_threads * per_thread
    writer.close()


def _process_writer(directory: str, label: str, n: int) -> None:
    """Entry point of one sibling writer process."""
    writer = ShardWriter(shard_path(directory, label))
    for i in range(n):
        writer.inc_counter("requests_total")
        writer.observe("span_fold_in_seconds", 0.002)
    writer.flush()
    writer.close()


def test_two_process_writers_aggregate_exactly(tmp_path):
    """Two real processes write their own shards; the scrape-side view
    sums them exactly — the fleet's one-scrape-sees-everything property."""
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    counts = {"a": 300, "b": 500}
    processes = [context.Process(target=_process_writer,
                                 args=(str(tmp_path), label, n))
                 for label, n in counts.items()]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0

    sample = collect_shards(tmp_path)
    assert set(sample.workers) == {"a", "b"}
    for label, n in counts.items():
        assert sample.workers[label]["requests_total"].value == n
        assert sample.workers[label]["span_fold_in_seconds"].count == n
    totals = sample.totals()
    assert totals["requests_total"].value == sum(counts.values())
    merged = totals["span_fold_in_seconds"]
    assert merged.count == sum(counts.values())
    assert merged.sum == pytest.approx(0.002 * sum(counts.values()))
    assert sum(merged.bucket_counts) == merged.count


def test_reap_preserves_totals(tmp_path):
    """Reaping a dead worker's shard removes its per-worker series but
    keeps every count in the fleet totals — counters never go backwards."""
    live = ShardWriter(shard_path(tmp_path, "0"))
    live.inc_counter("requests_total", 3)
    live.flush()
    dead = ShardWriter(shard_path(tmp_path, "1", pid=99999999))
    dead.inc_counter("requests_total", 4)
    dead.observe("span_fold_in_seconds", 0.01)
    dead.flush()
    dead.close()

    reaped = reap_stale_shards(tmp_path, live_pids=[os.getpid()])
    assert reaped, "the dead shard should have been reaped"
    assert not Path(shard_path(tmp_path, "1", pid=99999999)).exists()
    assert (Path(tmp_path) / REAPED_SHARD_NAME).exists()

    sample = collect_shards(tmp_path)
    assert "1" not in sample.workers  # stale per-worker series gone
    totals = sample.totals()
    assert totals["requests_total"].value == 7.0  # 3 live + 4 reaped
    assert totals["span_fold_in_seconds"].count == 1
    live.close()


def test_shard_gauge_overwrites_and_max_merges(tmp_path):
    """Gauges are set-not-add per worker; fleet totals take the max.

    Replication lag is the motivating family: the fleet's lag is the
    worst worker's lag, not the sum of everyone's."""
    from repro.obs.shards import KIND_GAUGE

    fast = ShardWriter(shard_path(tmp_path, "0"))
    fast.set_gauge("replica_lag_docs", 5.0)
    fast.set_gauge("replica_lag_docs", 2.0)  # overwrite, no accumulation
    fast.flush()
    slow = ShardWriter(shard_path(tmp_path, "1", pid=os.getpid()))
    slow.set_gauge("replica_lag_docs", 7.0)
    slow.flush()

    sample = collect_shards(tmp_path)
    assert sample.workers["0"]["replica_lag_docs"].value == 2.0
    assert sample.workers["1"]["replica_lag_docs"].value == 7.0
    total = sample.totals()["replica_lag_docs"]
    assert total.kind == KIND_GAUGE
    assert total.value == 7.0  # max across workers, not 9.0
    fast.close()
    slow.close()


def test_reap_drops_gauges_but_keeps_counters(tmp_path):
    """A dead worker's last gauge sample is stale information: the reaper
    folds its counters into the accumulator and drops its gauges."""
    dead = ShardWriter(shard_path(tmp_path, "9", pid=99999999))
    dead.inc_counter("shipping_shards_total", 4)
    dead.set_gauge("replica_lag_docs", 9.0)
    dead.flush()
    dead.close()

    assert reap_stale_shards(tmp_path, live_pids=[os.getpid()])
    totals = collect_shards(tmp_path).totals()
    assert totals["shipping_shards_total"].value == 4.0
    assert "replica_lag_docs" not in totals


def test_reaping_is_idempotent_and_additive(tmp_path):
    """Two successive reaps fold both dead shards into one accumulator."""
    for label, pid, count in (("1", 111111111, 2), ("2", 222222222, 5)):
        writer = ShardWriter(shard_path(tmp_path, label, pid=pid))
        writer.inc_counter("requests_total", count)
        writer.flush()
        writer.close()
        reap_stale_shards(tmp_path, live_pids=[])
    reap_stale_shards(tmp_path, live_pids=[])  # nothing left: a no-op
    totals = collect_shards(tmp_path).totals()
    assert totals["requests_total"].value == 7.0


# -- rendering + parsing ---------------------------------------------------------------
def test_render_fleet_per_worker_and_totals(tmp_path):
    for label, n in (("0", 3), ("1", 2)):
        writer = ShardWriter(shard_path(tmp_path, label, pid=1000 + int(label)))
        writer.inc_counter("http_requests_total", n)
        writer.observe("span_fold_in_seconds", 0.004)
        writer.flush()
        writer.close()
    text = render_fleet(collect_shards(tmp_path), build_info=build_info())
    families = parse_prometheus(text)

    assert sample_value(families, "repro_http_requests_total",
                        {"worker_id": "0"}) == 3.0
    assert sample_value(families, "repro_http_requests_total",
                        {"worker_id": "1"}) == 2.0
    assert sample_value(families, "repro_http_requests_total") == 5.0
    assert sample_value(families, "repro_span_fold_in_seconds_count") == 2.0
    buckets = families["repro_span_fold_in_seconds_bucket"]
    values = [value for labels, value in buckets if labels["le"] == "+Inf"]
    assert values == [2.0]  # cumulative +Inf bucket == fleet count
    build = next(labels for labels, _ in families["repro_build_info"])
    assert build["version"] == build_info()["version"]
    assert build["kernel_target"] == ckernel.kernel_target()
    assert build["kernel_target"] in ("native", "portable", "none")
    assert "# TYPE repro_http_requests_total counter" in text
    assert "# TYPE repro_span_fold_in_seconds histogram" in text


def test_render_fleet_emits_gauge_families(tmp_path):
    for label, lag in (("0", 3.0), ("1", 11.0)):
        writer = ShardWriter(shard_path(tmp_path, label, pid=2000 + int(label)))
        writer.set_gauge("replica_lag_docs", lag)
        writer.flush()
        writer.close()
    text = render_fleet(collect_shards(tmp_path), build_info=build_info())
    families = parse_prometheus(text)

    assert "# TYPE repro_replica_lag_docs gauge" in text
    assert sample_value(families, "repro_replica_lag_docs",
                        {"worker_id": "0"}) == 3.0
    assert sample_value(families, "repro_replica_lag_docs",
                        {"worker_id": "1"}) == 11.0
    assert sample_value(families, "repro_replica_lag_docs") == 11.0


def test_shard_gauge_value_roundtrip():
    shard = ShardWriter()
    assert shard.value("rollout_state") == 0.0  # never set
    shard.set_gauge("rollout_state", 2.0)
    shard.set_gauge("rollout_state", 3.0)  # last write wins
    assert shard.value("rollout_state") == 3.0
    shard.observe("rollout_promote_seconds", 0.5)
    with pytest.raises(TypeError, match="histogram"):
        shard.value("rollout_promote_seconds")
    text = render_fleet(collect_shards(inline=[("0", shard)]))
    assert "# TYPE repro_rollout_state gauge" in text
    assert "repro_rollout_state 3\n" in text


def test_parse_prometheus_round_trips_escaped_label_values(tmp_path):
    """Pin the escape/unescape pair: label values containing ``\\``,
    ``\"`` and newlines survive a render -> parse round trip exactly.

    A sequential ``str.replace`` unescape chain corrupts adjacent
    escapes (``\\\\n`` reads back as a newline instead of ``\\n``); this
    test holds the single-pass parser to the exact inverse of the
    renderer's escaping."""
    writer = ShardWriter(shard_path(tmp_path, "0", pid=3000))
    writer.inc_counter("http_requests_total", 1)
    writer.flush()
    writer.close()
    tricky = {
        "version": 'quote " backslash \\ newline \n done',
        "adjacent": "\\n",          # literal backslash-n, NOT a newline
        "trailing": "ends with \\",
    }
    text = render_fleet(collect_shards(tmp_path), build_info=tricky)
    families = parse_prometheus(text)
    parsed = next(labels for labels, _ in families["repro_build_info"])
    assert parsed == tricky


def test_parse_prometheus_handles_foreign_exposition():
    text = ('# HELP up Scrape health\n'
            '# TYPE up gauge\n'
            'up{job="api",instance="a:1"} 1\n'
            'not a sample line\n'
            'plain_total 41\n')
    families = parse_prometheus(text)
    assert sample_value(families, "up",
                        {"job": "api", "instance": "a:1"}) == 1.0
    assert sample_value(families, "plain_total") == 41.0
    assert sample_value(families, "absent") is None


# -- tracing + logging -----------------------------------------------------------------
def test_request_id_sanitize_and_mint():
    assert sanitize_request_id("abc-123.X_z") == "abc-123.X_z"
    assert sanitize_request_id("bad id\n") is None
    assert sanitize_request_id("x" * 200) is None
    assert sanitize_request_id(None) is None
    minted = new_request_id()
    assert sanitize_request_id(minted) == minted


def test_request_trace_accumulates_spans():
    trace = RequestTrace(request_id="req-1", route="/v1/infer")
    trace.record("fold_in", 0.25)
    trace.record("fold_in", 0.25)
    report = trace.as_dict()
    assert report["request_id"] == "req-1"
    assert report["spans_ms"]["fold_in"] == pytest.approx(500.0)
    assert report["total_ms"] >= 0.0
    assert span_metric("fold_in") == "span_fold_in_seconds"


def test_log_event_emits_one_json_line():
    stream = io.StringIO()
    line = log_event("slow_request", file=stream, request_id="r-1",
                     total_ms=12.5)
    parsed = json.loads(stream.getvalue())
    assert parsed == json.loads(line)
    assert parsed["event"] == "slow_request"
    assert parsed["request_id"] == "r-1"
    assert isinstance(parsed["ts"], float)


# -- live scrapes ----------------------------------------------------------------------
_SUFFIX = re.compile(r"_(bucket|sum|count)$")


def _catalog_base(family: str) -> str:
    """Map a rendered family name back to its METRIC_CATALOG key."""
    name = family[len("repro_"):]
    if name in METRIC_CATALOG:
        return name
    return _SUFFIX.sub("", name)


def test_single_server_scrape_is_catalog_clean(bundle_path):
    """A solo server's scrape: worker_id=\"0\" labels everywhere, build
    info present, and no family outside METRIC_CATALOG."""
    registry = ModelRegistry()
    registry.register("m", bundle_path)
    server = ReproServer(registry, ServeConfig(port=0, batch_delay=0.0))
    server.start_background()
    try:
        client = ServeClient(server.url)
        client.infer(["frequent pattern mining over data streams"], seed=3)
        families = parse_prometheus(client.metrics_text())
    finally:
        server.stop()

    assert sample_value(families, "repro_http_requests_total",
                        {"worker_id": "0"}) >= 1.0
    assert sample_value(families, "repro_http_requests_total") >= 1.0
    build = next(labels for labels, _ in families["repro_build_info"])
    assert build["version"] == build_info()["version"]
    assert build["kernel_target"] == build_info()["kernel_target"]
    for family in families:
        assert family.startswith("repro_")
        assert _catalog_base(family) in METRIC_CATALOG, \
            f"{family} not in METRIC_CATALOG"


def test_server_has_one_metrics_store(bundle_path):
    """``/metrics`` renders the server's shard and nothing else: every
    counter's fleet total equals ``server.metrics.value`` and every span
    histogram count equals the shard entry's count."""
    registry = ModelRegistry()
    registry.register("m", bundle_path)
    server = ReproServer(registry, ServeConfig(port=0, batch_delay=0.0))
    server.start_background()
    try:
        client = ServeClient(server.url)
        for seed in range(3):
            client.infer(["frequent pattern mining over data streams"],
                         seed=seed, iterations=3)
            client.models()
        families = parse_prometheus(client.metrics_text())
        entries = server.metrics.read()
        counters = [name for name, (kind, _) in METRIC_CATALOG.items()
                    if kind == "counter" and name in entries]
        assert {"http_requests_total", "infer_requests_total",
                "registry_loads_total"} <= set(counters)
        for name in counters:
            assert sample_value(families, f"repro_{name}") \
                == server.metrics.value(name), name
        assert server.metrics.value("infer_requests_total") == 3
        for span in SPAN_NAMES:
            name = span_metric(span)
            assert sample_value(families, f"repro_{name}_count") \
                == entries[name].count, name
    finally:
        server.stop()


def test_fleet_scrape_aggregates_and_traces(bundle_path):
    """The PR's acceptance bar, asserted: a 2-worker fleet under load
    answers one scrape whose fleet-total requests equal the sum of the
    per-worker series, and every infer reply carries a request id whose
    span series appear in that same scrape."""
    config = ServeConfig(port=0, workers=2, batch_delay=0.0)
    with ServeFleet(config, {"m": bundle_path}) as fleet:
        fleet.wait_until_ready(timeout=60)
        client = ServeClient(fleet.url)
        request_ids = []
        for i in range(8):
            reply = client.infer(["mining frequent phrase patterns"],
                                 seed=i, iterations=3)
            request_ids.append(reply.get("request_id"))
        # A custom X-Request-Id is honoured and echoed on the reply.
        request = urllib.request.Request(
            fleet.url + "/v1/infer",
            data=json.dumps({"documents": ["topic models"],
                             "seed": 1}).encode(),
            headers={"Content-Type": "application/json",
                     "X-Request-Id": "obs-test-42"})
        with urllib.request.urlopen(request, timeout=30) as reply:
            echoed = reply.headers.get("X-Request-Id")
            body = json.loads(reply.read())
        families = parse_prometheus(client.metrics_text())

    assert all(request_ids), "every /v1/infer reply must carry request_id"
    assert echoed == "obs-test-42"
    assert body["request_id"] == "obs-test-42"

    per_worker = [(labels["worker_id"], value) for labels, value in
                  families["repro_http_requests_total"]
                  if "worker_id" in labels]
    assert {wid for wid, _ in per_worker} == {"0", "1"}, \
        "scrape must carry series for both workers"
    fleet_total = sample_value(families, "repro_http_requests_total")
    assert fleet_total == pytest.approx(sum(v for _, v in per_worker))
    # The traced requests' span timings landed in the same scrape.
    for span in ("segmentation", "fold_in", "queue_wait"):
        count = sample_value(families,
                             f"repro_{span_metric(span)}_count")
        assert count and count >= 1.0, f"span {span} missing from scrape"
    assert sample_value(families, "repro_infer_requests_total") >= 9.0


def test_status_cli_renders_fleet_report(bundle_path, capsys):
    """``repro status`` digests a live scrape into the health table."""
    from repro.cli import main

    registry = ModelRegistry()
    registry.register("m", bundle_path)
    server = ReproServer(registry, ServeConfig(port=0, batch_delay=0.0))
    server.start_background()
    try:
        client = ServeClient(server.url)
        client.infer(["data mining"], seed=7, iterations=3)
        assert main(["status", "--url", server.url, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["status", "--url", server.url]) == 0
        table = capsys.readouterr().out
    finally:
        server.stop()

    assert report["workers"][0]["worker_id"] == "0"
    assert report["fleet"]["requests"] >= 1.0
    assert {row["span"] for row in report["spans"]} >= {"fold_in"}
    assert report["models"][0]["name"] == "m"
    assert report["build"]["version"] == build_info()["version"]
    assert "WORKER" in table and "fleet" in table and "SPAN" in table


def test_status_cli_unreachable_server_fails_cleanly(capsys):
    from repro.cli import main

    assert main(["status", "--url", "http://127.0.0.1:9",
                 "--timeout", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


# -- docs pinning ----------------------------------------------------------------------
def test_every_catalog_metric_documented():
    """docs/observability.md lists every exported metric family (and the
    catalog lists nothing undocumented) — the table cannot drift."""
    doc = (Path(__file__).resolve().parents[1] /
           "docs" / "observability.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"`repro_([a-z0-9_]+)`", doc))
    catalog = set(METRIC_CATALOG)
    assert catalog - documented == set(), "catalog metrics missing from docs"
    for span in SPAN_NAMES:
        assert f"`{span}`" in doc, f"span {span} missing from glossary"
