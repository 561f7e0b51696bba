"""Fleet-wide observability: metric shards, request tracing, rendering.

The serving fleet is multi-process (``SO_REUSEPORT`` workers plus a stream
supervisor), so observability must survive two failure modes that a
single-process ``/metrics`` endpoint cannot: a scrape that lands on one
random worker must still describe the whole fleet, and a worker crash must
not silently zero its counters.  This package provides the pieces:

* :mod:`repro.obs.shards` — mmap-backed per-process metric shard files
  (stdlib ``mmap`` + NumPy), scrape-time aggregation, and stale-shard
  reaping that preserves dead workers' totals;
* :mod:`repro.obs.render` — Prometheus text rendering of per-worker plus
  fleet-total series, and a scrape parser for ``repro status``;
* :mod:`repro.obs.tracing` — request ids and per-request span timings
  (queue wait, batch assembly, model load, segmentation, fold-in);
* :mod:`repro.obs.logging` — structured JSON event lines for slow
  requests and stream refresh failures;
* :mod:`repro.obs.history` — an append-only, crash-safe ring of sampled
  fleet totals (the :class:`HistoryRecorder` thread) with windowed
  rate/delta/quantile queries;
* :mod:`repro.obs.slo` — declarative SLOs evaluated over history windows
  into fast/slow burn rates, exported as ``repro_slo_*`` gauges and
  ``/healthz`` verdicts;
* :mod:`repro.obs.profile` — a stdlib sampling profiler producing
  collapsed-stack flamegraph text (``GET /debug/profile``).

:data:`METRIC_CATALOG` is the authoritative list of every metric the
package exports — ``docs/observability.md`` is pinned to it by the docs
test suite, and a live scrape may only emit families listed here.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.obs.history import (
    HistoryRecorder,
    HistoryWindow,
    history_dir,
    read_history,
    read_window,
)
from repro.obs.logging import log_event
from repro.obs.profile import SamplingProfiler, capture_profile, profiled
from repro.obs.render import parse_prometheus, render_fleet, sample_value
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLOSpec,
    SLOVerdict,
    evaluate_slos,
    render_slo_gauges,
)
from repro.obs.shards import (
    FleetSample,
    LATENCY_BUCKETS,
    REAPED_SHARD_NAME,
    SIZE_BUCKETS,
    ShardEntry,
    ShardWriter,
    collect_shards,
    parse_shard_name,
    read_shard_bytes,
    read_shard_file,
    reap_stale_shards,
    shard_path,
)
from repro.obs.tracing import (
    SPAN_NAMES,
    RequestTrace,
    new_request_id,
    sanitize_request_id,
    span_metric,
)

__all__ = [
    "DEFAULT_SLOS", "FleetSample", "HistoryRecorder", "HistoryWindow",
    "LATENCY_BUCKETS", "METRIC_CATALOG", "REAPED_SHARD_NAME",
    "RequestTrace", "SIZE_BUCKETS", "SLOSpec", "SLOVerdict", "SPAN_NAMES",
    "SamplingProfiler", "ShardEntry", "ShardWriter", "build_info",
    "capture_profile", "collect_shards", "evaluate_slos", "history_dir",
    "log_event", "new_request_id", "parse_prometheus", "parse_shard_name",
    "profiled", "read_history", "read_shard_bytes", "read_shard_file",
    "read_window", "reap_stale_shards", "render_fleet",
    "render_slo_gauges", "sample_value", "sanitize_request_id",
    "shard_path", "span_metric",
]

#: Every metric family the package exports, as ``name -> (type, help)``.
#: Names are pre-prefix (rendered as ``repro_<name>``).  The docs table in
#: ``docs/observability.md`` and live scrapes are both pinned to this dict
#: by the test suite, so it cannot drift from the implementation.
METRIC_CATALOG: Dict[str, Tuple[str, str]] = {
    "build_info": ("gauge", "Version, engine defaults and kernel build target of the serving build"),
    # HTTP front door ----------------------------------------------------
    "http_requests_total": ("counter", "HTTP requests accepted, any route"),
    "http_errors_total": ("counter", "HTTP requests answered with an error"),
    "slow_requests_total": (
        "counter", "Requests slower than ServeConfig.slow_request_seconds"),
    "http_healthz_seconds": ("histogram", "GET /healthz latency"),
    "http_metrics_seconds": ("histogram", "GET /metrics latency"),
    "http_v1_models_seconds": ("histogram", "GET /v1/models latency"),
    "http_v1_infer_seconds": ("histogram", "POST /v1/infer latency"),
    "http_v1_segment_seconds": ("histogram", "POST /v1/segment latency"),
    "http_v1_topics_seconds": ("histogram", "GET /v1/topics latency"),
    "http_v1_log_manifest_seconds": (
        "histogram", "GET /v1/log/manifest latency"),
    "http_v1_log_shard_seconds": (
        "histogram", "GET /v1/log/shard/<name> latency"),
    "http_debug_profile_seconds": (
        "histogram", "GET /debug/profile latency (includes the capture)"),
    "http_unmatched_seconds": ("histogram", "Latency of unknown routes"),
    # Micro-batching scheduler -------------------------------------------
    "infer_requests_total": ("counter", "Inference requests submitted"),
    "infer_documents_total": ("counter", "Documents folded in, all requests"),
    "infer_batches_total": ("counter", "Grouped fold-in batches executed"),
    "infer_batch_seconds": ("histogram", "Wall-clock per executed batch"),
    "infer_batch_size": ("histogram", "Requests coalesced per batch"),
    # Request spans ------------------------------------------------------
    "span_queue_wait_seconds": (
        "histogram", "Submit to batch-execution start, per request"),
    "span_batch_assembly_seconds": (
        "histogram", "Batch partitioning and seed derivation, per batch"),
    "span_model_load_seconds": (
        "histogram", "Registry fetch inside a batch (usually a cache hit)"),
    "span_segmentation_seconds": (
        "histogram", "Batched phrase segmentation half of a batch"),
    "span_fold_in_seconds": (
        "histogram", "Gibbs fold-in sampling half of a batch"),
    # Model registry -----------------------------------------------------
    "registry_loads_total": ("counter", "Cold bundle loads"),
    "registry_reloads_total": ("counter", "Hot reloads of changed bundles"),
    "registry_evictions_total": ("counter", "LRU evictions"),
    "registry_hits_total": ("counter", "Requests served by a resident bundle"),
    "registry_stale_hits_total": (
        "counter", "Requests answered from the previous version mid-swap"),
    "registry_load_seconds": ("histogram", "Bundle load wall-clock"),
    "registry_swap_lag_seconds": (
        "histogram", "Publish to resident-swap lag of stream bundles"),
    # Stream ingestion / refresh -----------------------------------------
    "stream_ingested_documents_total": (
        "counter", "Documents appended to the stream log"),
    "stream_duplicate_documents_total": (
        "counter", "Documents dropped by ingest dedup"),
    "stream_ingest_tokens_total": ("counter", "Tokens ingested"),
    "stream_ingest_seconds": ("histogram", "Wall-clock per ingest call"),
    "stream_refreshes_total": ("counter", "Stream refreshes published"),
    "stream_refresh_seconds": ("histogram", "Wall-clock per stream refresh"),
    "stream_refresh_load_seconds": (
        "histogram", "Refresh stage: recovery, shard-stats load and merge, "
                     "snapshot assembly"),
    "stream_refresh_mining_merge_seconds": (
        "histogram", "Refresh stage: filter the merged counts into the "
                     "mining result"),
    "stream_refresh_segmentation_seconds": (
        "histogram", "Refresh stage: phrase segmentation of the snapshot"),
    "stream_refresh_topic_modeling_seconds": (
        "histogram", "Refresh stage: PhraseLDA fit"),
    "stream_refresh_publish_seconds": (
        "histogram", "Refresh stage: write the version file and publish it"),
    "stream_refresh_errors_total": (
        "counter", "Stream refresh attempts that raised"),
    "stream_refresh_recoveries_total": (
        "counter", "Refresh successes after one or more consecutive errors"),
    # Log shipping (repro.replicate follower) ----------------------------
    "replica_lag_docs": (
        "gauge", "Documents the primary holds that this follower has not "
                 "yet committed"),
    "shipping_shards_total": (
        "counter", "Shards fully fetched, verified, and committed"),
    "shipping_bytes_total": (
        "counter", "Shard bytes fetched over HTTP, including retried ranges"),
    "shipping_retries_total": (
        "counter", "Shipping network calls retried after a failure"),
    "shipping_verify_failures_total": (
        "counter", "Fetched shard data rejected by SHA-256 or offset "
                   "verification"),
    "shipping_fetch_seconds": (
        "histogram", "Wall-clock per shard-range fetch"),
    "shipping_sync_seconds": (
        "histogram", "Wall-clock per follower sync cycle"),
    # Rollout coordinator ------------------------------------------------
    "rollout_state": (
        "gauge", "Coordinator state (0 idle, 1 canary, 2 fanout, 3 done, "
                 "4 rolled back)"),
    "rollout_promotions_total": (
        "counter", "Targets successfully promoted to a new version"),
    "rollout_rollbacks_total": (
        "counter", "Rollouts aborted and rolled back to the previous "
                   "version"),
    "rollout_promote_seconds": (
        "histogram", "Publish-to-healthy wall-clock per promoted target"),
    # SLO engine (evaluated over metrics history) ------------------------
    "slo_objective": (
        "gauge", "Declared objective of each SLO (label slo=<name>)"),
    "slo_value": (
        "gauge", "Observed value of each SLO over the slow window"),
    "slo_burn_rate_fast": (
        "gauge", "Fast-window burn rate (observed / objective; >1 burns "
                 "budget)"),
    "slo_burn_rate_slow": (
        "gauge", "Slow-window burn rate (observed / objective; >1 burns "
                 "budget)"),
    "slo_healthy": (
        "gauge", "1 unless the SLO is breaching in both windows"),
}


def build_info() -> Dict[str, str]:
    """Labels for the ``repro_build_info`` gauge: version, engine defaults
    and the C kernel's build target (``native``, ``portable`` or ``none``).

    The engine resolver loads the C kernel, building it when no cached
    build exists, as the first inference request would anyway.
    """
    from repro import __version__
    from repro.core.frequent_phrases import resolve_mining_engine
    from repro.topicmodel.ckernel import kernel_target
    from repro.topicmodel.gibbs import resolve_engine

    return {
        "version": __version__,
        "inference_engine": resolve_engine("auto"),
        "mining_engine": resolve_mining_engine("auto"),
        "kernel_target": kernel_target(),
    }
