"""Micro-batching inference scheduler: coalesce requests, keep determinism.

Concurrent ``/v1/infer`` requests are coalesced into **one** grouped
fold-in call (:meth:`~repro.core.infer.TopicInferencer.infer_texts_grouped`)
instead of one call per request.  Batching is purely a throughput
optimisation: every request keeps its own seed and random stream inside
the batch, so its topic mixtures are bit-identical to a solo
:class:`~repro.core.infer.TopicInferencer` run with that seed — the
property the serving test suite pins.

There is no scheduler thread.  The submitting (HTTP handler) threads share
one condition-guarded queue, and a submitter that finds no batch executing
becomes the **leader**: it takes up to ``max_batch_size`` queued requests
and runs the batch itself, so an idle server answers a request without a
thread hop.  Requests that arrive meanwhile queue up and wait; when the
batch ends the leader gives up the lead and wakes the owners of the
finished requests plus the owner of the oldest queued one, which leads the
next batch.  At most one batch executes at a time, as with a single
worker.  The default delay is 0 (continuous batching): an idle batcher
dispatches a request at once, and requests that queue behind a running
batch form the next batch together.  A positive ``max_delay`` is an opt-in
accumulation window: the leader holds the batch open that long after it
takes the lead, closing early at ``max_batch_size`` pending requests.
Each batch is partitioned by ``(model, n_iterations)`` — only requests
that agree on those can share one fold-in configuration — and each
partition runs as one grouped call.

Segmentation piggybacks on the same coalescing: ``infer_texts_grouped``
segments every request of a partition in **one** pass of the frozen
phrase table (Algorithm 2 in the compiled kernel's ``phrase_segment``
entry point, see :mod:`repro.core.fast_construction`) before the
per-request fold-ins, so the pre-processing half of the serving hot path
is batched too.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.infer import InferenceConfig, InferenceResult
from repro.obs.shards import ShardWriter
from repro.obs.tracing import RequestTrace, span_metric
from repro.serve.config import ServeConfig
from repro.serve.registry import ModelRegistry
from repro.utils.timing import Stopwatch


@dataclass(eq=False)
class _Pending:
    """One inference request, from submit until its batch delivers."""

    model: str
    texts: Sequence[str]
    seed: int
    n_iterations: int
    trace: Optional[RequestTrace] = None
    enqueued_at: float = field(default_factory=time.perf_counter)
    #: Taken off the queue into a batch.
    taken: bool = False
    #: ``result`` or ``error`` is delivered.
    done: bool = False
    result: Optional[InferenceResult] = None
    error: Optional[BaseException] = None
    #: Notified (under the batcher's lock) when the request is done or may
    #: lead; created only once its owner has to wait.
    wake: Optional[threading.Condition] = None


class MicroBatcher:
    """Coalesces concurrent inference requests into grouped batches.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` models are pulled
        from (per batch, so hot-reloads apply between batches).
    max_batch_size:
        Close a batch as soon as this many requests are pending.
    max_delay:
        Seconds the leader keeps a batch open after taking the lead,
        waiting for company.  ``0`` (the
        :class:`~repro.serve.config.ServeConfig` default) dispatches at
        once when idle.
    metrics:
        Optional shared metric shard; the batcher records
        ``infer_requests_total``, ``infer_documents_total``,
        ``infer_batches_total`` counters and ``infer_batch_seconds`` /
        ``infer_batch_size`` latencies into it.
    """

    def __init__(self, registry: ModelRegistry,
                 max_batch_size: int = ServeConfig.max_batch_size,
                 max_delay: float = ServeConfig.batch_delay,
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
        self._lock = threading.Lock()
        # Waited on by a leader holding its delay window open and by
        # stop() waiting for the running batch to end.
        self._changed = threading.Condition(self._lock)
        self._running = False
        self._busy = False  # a leader holds the lead

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
        """Accept submissions (idempotent)."""
        with self._lock:
            self._running = True

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting; queued requests fail with ``RuntimeError``.

        A batch already executing runs to completion: ``stop`` waits up to
        ``timeout`` seconds for it to end.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            self._running = False
            pending, self._queue = self._queue, []
            for request in pending:
                self._fail(request, RuntimeError("inference scheduler stopped"))
            self._changed.notify_all()
            while self._busy:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)

    # -- submission --------------------------------------------------------------------
    def submit(self, model: str, texts: Sequence[str], seed: int,
               n_iterations: int,
               timeout: Optional[float] = None,
               trace: Optional[RequestTrace] = None) -> InferenceResult:
        """Enqueue one request and block until its batch completes.

        Returns the request's own :class:`~repro.core.infer.InferenceResult`
        — bit-identical to a solo ``infer_texts`` run with ``seed`` —
        regardless of which other requests shared the batch.  The calling
        thread may execute the batch itself (see the module docstring);
        ``timeout`` bounds only the wait for a batch another thread runs,
        and raises :class:`concurrent.futures.TimeoutError` when it ends.

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
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            if not self._running:
                raise RuntimeError("inference scheduler is not running")
            self._queue.append(request)
            self.metrics.inc_counter("infer_requests_total")
            if self._busy and self.max_delay > 0:
                self._changed.notify_all()  # a leader may be holding a window
            batch = self._await_turn(request, deadline)
        while batch is not None:
            try:
                if batch:
                    self._execute(batch)
            finally:
                with self._lock:
                    self._release(batch)
            if request.done:
                break
            with self._lock:
                batch = self._await_turn(request, deadline)
        if request.error is not None:
            raise request.error
        return request.result

    # -- leadership (all called with the lock held) -----------------------------------
    def _await_turn(self, request: _Pending,
                    deadline: Optional[float]) -> Optional[List[_Pending]]:
        """Wait until ``request`` is done (``None``) or may lead (its batch)."""
        while not request.done:
            if not self._busy and not request.taken:
                self._busy = True
                return self._take_batch()
            if request.wake is None:
                request.wake = threading.Condition(self._lock)
            if deadline is None:
                request.wake.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if not request.taken:
                    self._queue.remove(request)
                raise FuturesTimeoutError()
            request.wake.wait(remaining)
        return None

    def _take_batch(self) -> List[_Pending]:
        """Close the next batch: hold the delay window, then take the head."""
        if self.max_delay > 0:
            deadline = time.monotonic() + self.max_delay
            while len(self._queue) < self.max_batch_size and self._running:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
        batch = self._queue[:self.max_batch_size]
        del self._queue[:self.max_batch_size]
        for request in batch:
            request.taken = True
        return batch

    def _release(self, batch: List[_Pending]) -> None:
        """Give up the lead; wake the batch's owners and the next leader."""
        self._busy = False
        for request in batch:
            if not request.done:  # _execute itself raised
                self._fail(request,
                           RuntimeError("inference batch was interrupted"))
            elif request.wake is not None:
                request.wake.notify()
        if self._queue and self._queue[0].wake is not None:
            self._queue[0].wake.notify()
        self._changed.notify_all()

    @staticmethod
    def _fail(request: _Pending, error: BaseException) -> None:
        request.error = error
        request.done = True
        if request.wake is not None:
            request.wake.notify()

    # -- batch execution ---------------------------------------------------------------
    def _record_span(self, requests: List[_Pending], span: str,
                     seconds: float) -> None:
        """Observe one span histogram and mirror it into request traces."""
        self.metrics.observe(span_metric(span), seconds)
        for request in requests:
            if request.trace is not None:
                request.trace.record(span, seconds)

    def _execute(self, batch: List[_Pending]) -> None:
        """Run one collected batch, partitioned by (model, iterations).

        Runs without the lock: it fills each request's ``result`` or
        ``error``, and :meth:`_release` wakes the owners afterwards.
        """
        execution_start = time.perf_counter()
        for request in batch:
            self._record_span([request], "queue_wait",
                              execution_start - request.enqueued_at)
        partitions: Dict[Tuple[str, int], List[_Pending]] = {}
        for request in batch:
            partitions.setdefault((request.model, request.n_iterations),
                                  []).append(request)
        self._record_span(batch, "batch_assembly",
                          time.perf_counter() - execution_start)
        for (model_name, n_iterations), requests in partitions.items():
            self.metrics.inc_counter("infer_batches_total")
            self.metrics.observe("infer_batch_size", len(requests))
            batch_start = time.perf_counter()
            try:
                loaded = self.registry.get(model_name)
                self._record_span(requests, "model_load",
                                  time.perf_counter() - batch_start)
                if loaded.kind != "model":
                    raise ValueError(
                        f"model {model_name!r} is a {loaded.kind!r} "
                        f"bundle and cannot serve inference")
                watch = Stopwatch()
                results = loaded.inferencer.infer_texts_grouped(
                    [request.texts for request in requests],
                    [request.seed for request in requests],
                    InferenceConfig(n_iterations=n_iterations, engine="auto"),
                    watch=watch)
                for span in ("segmentation", "fold_in"):
                    self._record_span(requests, span,
                                      watch.timings.get(span, 0.0))
            except Exception as exc:  # delivered per request
                for request in requests:
                    request.error = exc
                    request.done = True
                continue
            finally:
                self.metrics.observe("infer_batch_seconds",
                                     time.perf_counter() - batch_start)
            self.metrics.inc_counter(
                "infer_documents_total",
                sum(len(request.texts) for request in requests))
            for request, result in zip(requests, results):
                request.result = result
                request.done = True
