"""Background refresh worker: watch the log, re-fit, publish, hot-swap.

:class:`StreamSupervisor` runs the refresh loop off the request path, on
one condition-guarded daemon worker thread.  Its job:

1. poll the stream's on-disk state (cross-process safe — a poll re-opens
   the stream whenever ``stream.json`` or the log manifest changed, so
   documents ingested and versions published by *other* processes are
   seen) or wake immediately on :meth:`notify`;
2. when the refresh policy is satisfied, run
   :meth:`~repro.stream.updater.TopicStream.refresh` — segmentation and
   PhraseLDA happen entirely on this worker thread;
3. the refresh's atomic publish replaces ``models/current.npz``, which a
   live :class:`~repro.serve.registry.ModelRegistry` hot-reloads on its
   next request — a server keeps answering ``/v1/infer`` throughout, from
   the old version until the instant the new one is resident.

Refresh failures are recorded three ways and the loop keeps running: the
``stream_refresh_errors_total`` counter, :attr:`last_error`, and one
structured JSON event line on stderr
(:func:`repro.obs.logging.log_event`) — so a failing refresh is visible
in a scrape *and* in the process log without attaching a debugger, while
the previous published version keeps serving.  Consecutive failures back
the poll off exponentially (capped at ``max_backoff``) instead of
hammering a broken stream every tick, :meth:`notify` still wakes the
worker immediately, and the first clean poll after a run of errors emits
a structured ``stream_refresh_recovered`` event plus the
``stream_refresh_recoveries_total`` counter.

An idle poll costs two ``stat`` calls.  Opening the stream parses
``stream.json`` and the whole log manifest (~83 bytes per logged
document), so a poll first takes both files'
:meth:`~repro.stream.updater.TopicStream.state_identity` and returns at
once when it equals that of the last poll which opened the stream cleanly
and declined to refresh.  Nothing is missed: every ingest commits the
manifest through :func:`~repro.utils.files.atomic_write` (a fresh inode
and a strictly larger size) and every publish rewrites ``stream.json``
the same way, and the refresh decision reads nothing else.  A poll that
fails or refreshes never counts as quiet, so the next one re-opens.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.obs.logging import log_event
from repro.obs.profile import profiled
from repro.obs.shards import ShardWriter
from repro.stream.updater import RefreshReport, StatsCache, TopicStream
from repro.utils.retry import RetryPolicy


class StreamSupervisor:
    """Watches a stream directory and publishes refreshes in the background.

    Parameters
    ----------
    root:
        The stream directory (see
        :class:`~repro.stream.updater.TopicStream`).
    poll_interval:
        Seconds between state polls when nothing calls :meth:`notify`.
    metrics:
        Optional shared metric shard; refresh counters/latencies and
        errors are recorded into it (alongside the serving metrics when
        the supervisor runs inside ``repro serve``).
    on_publish:
        Optional callback invoked with each successful
        :class:`~repro.stream.updater.RefreshReport` (on the worker
        thread).
    max_backoff:
        Cap (seconds) on the exponential poll backoff applied after
        consecutive refresh errors.
    profile_dir:
        When set, every refresh runs under the sampling profiler
        (:func:`repro.obs.profile.profiled`) and its collapsed-stack
        flamegraph text is written to
        ``<profile_dir>/refresh-v<version>.collapsed`` — continuous
        profiling of the one code path that periodically burns minutes
        of CPU off the request path.
    """

    def __init__(self, root: Union[str, Path], poll_interval: float = 1.0,
                 metrics: Optional[ShardWriter] = None,
                 on_publish: Optional[Callable[[RefreshReport], None]] = None,
                 max_backoff: float = 30.0,
                 profile_dir: Optional[Union[str, Path]] = None,
                 ) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if max_backoff < poll_interval:
            raise ValueError("max_backoff must be >= poll_interval")
        self.root = Path(root)
        self.poll_interval = poll_interval
        self.max_backoff = max_backoff
        self._backoff = RetryPolicy(retries=1_000_000,
                                    base_delay=poll_interval,
                                    max_delay=max_backoff, jitter=0.1)
        self._consecutive_errors = 0
        self.metrics = metrics or ShardWriter()
        self.on_publish = on_publish
        self.profile_dir = Path(profile_dir) if profile_dir is not None \
            else None
        self.last_report: Optional[RefreshReport] = None
        self.last_error: Optional[str] = None
        # Kept across polls: each re-opened stream refreshes from it, so a
        # refresh loads only the shard stats ingested since the last one.
        self._stats_cache = StatsCache()
        # State identity at the last poll that opened the stream cleanly
        # and declined to refresh; a poll that sees it again does nothing.
        self._quiet_identity: Optional[tuple] = None
        self._condition = threading.Condition()
        self._stopped = False
        self._poked = False
        self._refreshing = False
        self._worker: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        with self._condition:
            if self._worker is not None and self._worker.is_alive():
                return
            self._stopped = False
            self._worker = threading.Thread(target=self._run,
                                            name="repro-stream-supervisor",
                                            daemon=True)
            self._worker.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the worker (waits for an in-flight refresh to finish)."""
        with self._condition:
            self._stopped = True
            self._condition.notify_all()
        worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout)

    def notify(self) -> None:
        """Wake the worker immediately (e.g. right after an ingest)."""
        with self._condition:
            self._poked = True
            self._condition.notify_all()

    # -- observation -------------------------------------------------------------------
    @property
    def published_version(self) -> int:
        """The stream's current published version (0 before any publish)."""
        try:
            return TopicStream.open(self.root).published_version
        except Exception:
            return 0

    def wait_for_version(self, version: int,
                         timeout: float = 60.0) -> bool:
        """Block until the published version reaches ``version``.

        When this supervisor's own refresh publishes it, also until that
        refresh has set :attr:`last_report`.  Returns ``False`` on timeout.
        Intended for tests and smoke scripts that need to observe a
        background publish.
        """
        deadline = time.monotonic() + timeout
        while True:
            # The on-disk version first, then the in-flight flag: a refresh
            # of this supervisor writes the version before _poll_once sets
            # last_report, so a version it published counts only once its
            # refresh has finished (versions published elsewhere count as
            # soon as they are on disk).
            on_disk = self.published_version
            with self._condition:
                if not self._refreshing and on_disk >= version:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._condition.wait(min(remaining, 0.05, self.poll_interval))

    # -- worker ------------------------------------------------------------------------
    def _poll_delay(self) -> float:
        """Current poll wait: base interval, backed off after errors."""
        if not self._consecutive_errors:
            return self.poll_interval
        return self._backoff.delay(min(self._consecutive_errors, 16),
                                   token=str(self.root))

    def _wait_for_wakeup(self) -> bool:
        """Sleep until poked, the (possibly backed-off) poll delay
        elapses, or stop; returns whether the loop should keep running."""
        with self._condition:
            if not self._poked and not self._stopped:
                self._condition.wait(timeout=self._poll_delay())
            self._poked = False
            return not self._stopped

    def _run(self) -> None:
        while self._wait_for_wakeup():
            errors_before = self._consecutive_errors
            self._poll_once()
            if errors_before and self._consecutive_errors == errors_before:
                # A full poll completed without a new error: the stream
                # recovered.  Say so in the same three channels errors use.
                self._consecutive_errors = 0
                self.metrics.inc_counter("stream_refresh_recoveries_total")
                log_event("stream_refresh_recovered", stream=str(self.root),
                          after_errors=errors_before)

    def _poll_once(self) -> None:
        """One supervision step: reopen state if it changed since the last
        quiet poll, refresh if the policy says so."""
        try:
            # Taken before the open: a change landing in between makes the
            # next poll's identity differ, so that poll re-opens.
            identity = TopicStream.state_identity(self.root)
            if identity == self._quiet_identity:
                return
            stream = TopicStream.open(self.root, metrics=self.metrics,
                                      stats_cache=self._stats_cache)
        except Exception as exc:
            # The stream may not exist yet (e.g. the first ingest has not
            # happened); keep watching rather than dying.
            self._quiet_identity = None
            self._record_error(f"cannot open stream: {exc}")
            return
        if not stream.should_refresh():
            self._quiet_identity = identity
            return
        self._quiet_identity = None
        with self._condition:
            self._refreshing = True
        try:
            report = self._refresh(stream)
            if report is not None:
                self.last_report = report
                self.last_error = None
        except Exception as exc:
            self._record_error(f"refresh failed: {exc}")
            return
        finally:
            # Wake wait_for_version() once last_report is set.
            with self._condition:
                self._refreshing = False
                self._condition.notify_all()
        if report is None:
            return
        if self.on_publish is not None:
            try:
                self.on_publish(report)
            except Exception as exc:  # callbacks must not kill the loop
                self._record_error(f"on_publish callback failed: {exc}")

    def _refresh(self, stream: TopicStream) -> Optional[RefreshReport]:
        """Run one refresh, profiled into ``profile_dir`` when configured."""
        if self.profile_dir is None:
            return stream.refresh()
        with profiled() as profiler:
            report = stream.refresh()
        if report is not None:
            try:
                self.profile_dir.mkdir(parents=True, exist_ok=True)
                path = self.profile_dir / \
                    f"refresh-v{report.version}.collapsed"
                path.write_text(profiler.collapsed(), encoding="utf-8")
                log_event("stream_refresh_profile", stream=str(self.root),
                          version=report.version, profile=str(path),
                          samples=profiler.n_samples)
            except OSError as exc:  # profiling must never fail a refresh
                log_event("stream_refresh_profile_error",
                          stream=str(self.root), error=str(exc))
        return report

    def _record_error(self, message: str) -> None:
        self.last_error = message
        self._consecutive_errors += 1
        self.metrics.inc_counter("stream_refresh_errors_total")
        log_event("stream_refresh_error", stream=str(self.root),
                  error=message,
                  consecutive_errors=self._consecutive_errors)
