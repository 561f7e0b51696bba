"""Micro-batching inference scheduler: coalesce requests, keep determinism.

Concurrent ``/v1/infer`` requests arriving within a short window are
coalesced into **one** vectorized fold-in pass
(:meth:`~repro.core.infer.TopicInferencer.infer_texts_grouped`) instead of
running one sampler per request.  Batching is purely a throughput
optimisation: every request keeps its own seed and random stream inside
the batch, so its topic mixtures are bit-identical to a solo
:class:`~repro.core.infer.TopicInferencer` run with that seed — the
property the serving test suite pins.

The scheduler is a single daemon worker thread over a condition-guarded
queue.  A batch closes when ``max_batch_size`` requests are pending or
``max_delay`` seconds have passed since the oldest pending request; it is
then partitioned by ``(model, n_iterations)`` — only requests that agree
on those can share one sampler configuration — and each partition runs as
one grouped fold-in.

Segmentation piggybacks on the same coalescing: ``infer_texts_grouped``
segments every request of a partition in **one** vectorized pass of the
frozen phrase table (the batched numpy engine in
:mod:`repro.core.fast_construction`) before the shared fold-in, so the
pre-processing half of the serving hot path is batched exactly like the
sampling half.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.infer import InferenceConfig, InferenceResult
from repro.obs.shards import ShardWriter
from repro.obs.tracing import RequestTrace, span_metric
from repro.serve.config import ServeConfig
from repro.serve.registry import ModelRegistry
from repro.utils.timing import Stopwatch


@dataclass
class _Pending:
    """One queued inference request awaiting its batch."""

    model: str
    texts: Sequence[str]
    seed: int
    n_iterations: int
    future: "Future[InferenceResult]" = field(default_factory=Future)
    trace: Optional[RequestTrace] = None
    enqueued_at: float = field(default_factory=time.perf_counter)


class MicroBatcher:
    """Coalesces concurrent inference requests into vectorized batches.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` models are pulled
        from (per batch, so hot-reloads apply between batches).
    max_batch_size:
        Close a batch as soon as this many requests are pending.
    max_delay:
        Seconds to keep a batch open after its first request, waiting for
        company (the micro-batching window).
    metrics:
        Optional shared metric shard; the batcher records
        ``infer_requests_total``, ``infer_documents_total``,
        ``infer_batches_total`` counters and ``infer_batch_seconds`` /
        ``infer_batch_size`` latencies into it.
    """

    def __init__(self, registry: ModelRegistry, max_batch_size: int = 32,
                 max_delay: float = 0.005,
                 metrics: Optional[ShardWriter] = None) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self.registry = registry
        self.max_batch_size = max_batch_size
        self.max_delay = max_delay
        self.metrics = metrics or ShardWriter()
        self._queue: List[_Pending] = []
        self._condition = threading.Condition()
        self._stopped = False
        self._worker: Optional[threading.Thread] = None

    @classmethod
    def from_config(cls, registry: ModelRegistry, config: "ServeConfig",
                    metrics: Optional[ShardWriter] = None) \
            -> "MicroBatcher":
        """Build a batcher from a :class:`~repro.serve.config.ServeConfig`.

        The canonical construction path: every worker of a fleet calls
        this with the *same* config, so all batching windows agree.
        """
        return cls(registry, max_batch_size=config.max_batch_size,
                   max_delay=config.batch_delay, metrics=metrics)

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        with self._condition:
            if self._worker is not None and self._worker.is_alive():
                return
            self._stopped = False
            self._worker = threading.Thread(target=self._run,
                                            name="repro-serve-batcher",
                                            daemon=True)
            self._worker.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker; pending requests fail with ``RuntimeError``."""
        with self._condition:
            self._stopped = True
            pending, self._queue = self._queue, []
            self._condition.notify_all()
        for request in pending:
            request.future.set_exception(
                RuntimeError("inference scheduler stopped"))
        worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout)

    # -- submission --------------------------------------------------------------------
    def submit(self, model: str, texts: Sequence[str], seed: int,
               n_iterations: int,
               timeout: Optional[float] = None,
               trace: Optional[RequestTrace] = None) -> InferenceResult:
        """Enqueue one request and block until its batch completes.

        Returns the request's own :class:`~repro.core.infer.InferenceResult`
        — bit-identical to a solo ``infer_texts`` run with ``seed`` —
        regardless of which other requests shared the batch.

        When a :class:`~repro.obs.tracing.RequestTrace` is passed, the
        batch records its span timings (queue wait, batch assembly, model
        load, segmentation, fold-in) into it — and into the shared metric
        shard's ``span_*_seconds`` histograms either way.

        Raises whatever the batch execution raised for this request (e.g.
        :class:`~repro.serve.registry.UnknownModelError`), or
        ``RuntimeError`` if the scheduler is stopped.
        """
        request = _Pending(model=model, texts=list(texts), seed=seed,
                           n_iterations=n_iterations, trace=trace)
        with self._condition:
            if self._stopped or self._worker is None:
                raise RuntimeError("inference scheduler is not running")
            self._queue.append(request)
            self._condition.notify_all()
        self.metrics.inc_counter("infer_requests_total")
        return request.future.result(timeout=timeout)

    # -- worker ------------------------------------------------------------------------
    def _collect_batch(self) -> List[_Pending]:
        """Block until a batch is ready; empty means the batcher stopped."""
        with self._condition:
            while not self._queue and not self._stopped:
                self._condition.wait()
            if self._stopped:
                return []
            deadline = time.monotonic() + self.max_delay
            while (len(self._queue) < self.max_batch_size
                   and not self._stopped):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._condition.wait(timeout=remaining)
            batch = self._queue[:self.max_batch_size]
            del self._queue[:self.max_batch_size]
            return batch

    def _run(self) -> None:
        """Worker loop: collect → partition → execute until stopped."""
        while True:
            batch = self._collect_batch()
            if not batch:
                return
            self._execute(batch)

    def _record_span(self, requests: List[_Pending], span: str,
                     seconds: float) -> None:
        """Observe one span histogram and mirror it into request traces."""
        self.metrics.observe(span_metric(span), seconds)
        for request in requests:
            if request.trace is not None:
                request.trace.record(span, seconds)

    def _execute(self, batch: List[_Pending]) -> None:
        """Run one collected batch, partitioned by (model, iterations)."""
        execution_start = time.perf_counter()
        for request in batch:
            wait = execution_start - request.enqueued_at
            self.metrics.observe(span_metric("queue_wait"), wait)
            if request.trace is not None:
                request.trace.record("queue_wait", wait)
        partitions: Dict[Tuple[str, int], List[_Pending]] = {}
        for request in batch:
            partitions.setdefault((request.model, request.n_iterations),
                                  []).append(request)
        self._record_span(batch, "batch_assembly",
                          time.perf_counter() - execution_start)
        for (model_name, n_iterations), requests in partitions.items():
            self.metrics.inc_counter("infer_batches_total")
            self.metrics.observe("infer_batch_size", len(requests))
            try:
                with self.metrics.timer("infer_batch_seconds"):
                    load_start = time.perf_counter()
                    loaded = self.registry.get(model_name)
                    self._record_span(requests, "model_load",
                                      time.perf_counter() - load_start)
                    if loaded.kind != "model":
                        raise ValueError(
                            f"model {model_name!r} is a {loaded.kind!r} "
                            f"bundle and cannot serve inference")
                    watch = Stopwatch()
                    results = loaded.inferencer.infer_texts_grouped(
                        [request.texts for request in requests],
                        [request.seed for request in requests],
                        InferenceConfig(n_iterations=n_iterations,
                                        engine="batch"),
                        watch=watch)
                    for span in ("segmentation", "fold_in"):
                        self._record_span(requests, span,
                                          watch.timings.get(span, 0.0))
            except Exception as exc:  # delivered per request, worker survives
                for request in requests:
                    if not request.future.cancelled():
                        request.future.set_exception(exc)
                continue
            self.metrics.inc_counter(
                "infer_documents_total",
                sum(len(request.texts) for request in requests))
            for request, result in zip(requests, results):
                if not request.future.cancelled():
                    request.future.set_result(result)
