"""The benchmark's workloads and metric names, units and bounds.

``BENCHMARK.json`` at the repository root mirrors this file (a test keeps
the two equal).  Every run prints every metric of its mode: per-layer
metrics of layers a workload never enters read 0 on that workload.
"""

from __future__ import annotations

WORKLOADS = {
    "fit-abstracts": "closed-loop ToPMine.fit + save_bundle of 2000 long abstracts: "
                     "preprocessing, mining and the PhraseLDA sampler, no HTTP or stream",
    "serve-titles": "closed-loop /v1/infer of 1-4 held-out titles, back to back on one "
                    "connection to one repro serve: batching window, segmentation, fold-in",
    "ingest-serve": "100-title TopicStream.ingest batches every 2 s into repro serve "
                    "--stream under 8 req/s reads: log, counters, refresh, hot-swap",
}

# name -> (unit, bound): the share of the parent's median by which a change
# may worsen the metric.  Every end-to-end metric is lower-is-better.
END_TO_END = {
    "setup_s": ("s", 0.25),
    "op_p50_ms": ("ms", 0.25),
    "cpu_ms_per_op": ("ms", 0.25),
    "peak_rss_mb": ("MiB", 0.1),
}

# The end-to-end times are reported at a reference host speed: multiplied by
# REFERENCE_QUANTUM_MS over the median CPU time that hostprobe.py measured
# for its fixed quantum during the run.  Wall times have the hypervisor's
# steal taken out first (common.StealWindow).  The raw values are printed too.
HOST_SCALED = {"setup_s", "op_p50_ms", "cpu_ms_per_op"}
REFERENCE_QUANTUM_MS = 4.0

# name -> (unit, better)
PER_LAYER = {
    # fit-abstracts: the public ToPMine stages, wrapped in the fit process.
    "text.preprocess.ms": ("ms", "lower"),
    "text.preprocess.tokens_per_s": ("1/s", "higher"),
    "core.mining.ms": ("ms", "lower"),
    "core.mining.frequent_phrases": ("count", "higher"),
    "core.segmentation.ms": ("ms", "lower"),
    "core.phrase_lda.ms": ("ms", "lower"),
    "core.phrase_lda.ms_per_sweep": ("ms", "lower"),
    "core.visualization.ms": ("ms", "lower"),
    "io.save_bundle.ms": ("ms", "lower"),
    "io.bundle_bytes": ("bytes", "lower"),
    "fit.unattributed_ms": ("ms", "lower"),
    # serve-titles and the reads of ingest-serve: the server's own span
    # histograms, diffed over the measured window (means per request).
    "core.infer.fold_in_ms": ("ms", "lower"),
    "core.infer.segmentation_ms": ("ms", "lower"),
    "serve.batching.queue_wait_ms": ("ms", "lower"),
    "serve.batching.assembly_ms": ("ms", "lower"),
    "serve.batching.requests_per_batch": ("count", "higher"),
    "serve.registry.model_load_ms": ("ms", "lower"),
    "serve.http.server_ms": ("ms", "lower"),
    "serve.http.unattributed_ms": ("ms", "lower"),
    "serve.client_gap_ms": ("ms", "lower"),
    # ingest-serve: the write path, wrapped in the ingester process ...
    "stream.log.append_ms": ("ms", "lower"),
    "stream.log.read_shard_ms": ("ms", "lower"),
    "stream.counters.compute_ms": ("ms", "lower"),
    "stream.counters.save_ms": ("ms", "lower"),
    "stream.ingest.unattributed_ms": ("ms", "lower"),
    "stream.bytes_written_per_ingest": ("bytes", "lower"),
    # ... refresh stages from refreshes of a copy at the final size ...
    "stream.refresh.mining_merge_ms": ("ms", "lower"),
    "stream.refresh.segmentation_ms": ("ms", "lower"),
    "stream.refresh.topic_modeling_ms": ("ms", "lower"),
    "stream.refresh.publish_ms": ("ms", "lower"),
    "stream.refresh.unattributed_ms": ("ms", "lower"),
    # ... and the server's refresh and hot-swap histograms.
    "stream.refresh.server_ms": ("ms", "lower"),
    "serve.registry.reload_ms": ("ms", "lower"),
    "serve.registry.swap_lag_ms": ("ms", "lower"),
    # Every workload: ops alternate traced/untraced in a traced run.
    "bench.tracing_overhead_pct": ("%", "lower"),
    # Host-drift sentinel: a fixed pure-Python loop before and after the run.
    "host.calibration_before_ms": ("ms", "lower"),
    "host.calibration_after_ms": ("ms", "lower"),
    "host.probe_quantum_ms": ("ms", "lower"),
    "host.steal_pct": ("%", "lower"),
}
