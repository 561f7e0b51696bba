"""One frozen ``ServeConfig`` for every layer of the serving stack.

Serving knobs used to be scattered across ``ReproServer`` constructor
kwargs, ``MicroBatcher`` arguments, and ``repro serve`` CLI flags — three
surfaces that had to be kept in sync by hand, and that a fleet of worker
processes would immediately let drift apart.  :class:`ServeConfig` is the
single source of truth: the CLI builds one, the fleet supervisor ships the
same (pickled) instance to every worker, and ``ReproServer`` /
``MicroBatcher`` consume it directly, so all workers are guaranteed to run
identical batching windows, iteration defaults, and registry capacities.

The dataclass is frozen: a config can be shared between threads and
processes without defensive copies, and deriving a variant (e.g. pinning
the concrete port after an ephemeral bind) goes through
:meth:`ServeConfig.replace`, which re-runs validation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

DEFAULT_ITERATIONS = 50
DEFAULT_SEED = 7


@dataclass(frozen=True)
class ServeConfig:
    """Every serving knob, in one immutable place.

    Attributes
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (the fleet
        supervisor resolves it once and pins the concrete port into the
        config every worker receives, so all workers share one listener
        address).
    workers:
        Worker *processes* serving the same port via ``SO_REUSEPORT``.
        ``1`` means the classic in-process server (no fleet supervisor).
    max_batch_size, batch_delay:
        The micro-batching window of each worker's scheduler: a batch
        closes at ``max_batch_size`` pending requests or after
        ``batch_delay`` seconds, whichever comes first.
    default_iterations:
        Fold-in sweeps when a request does not specify ``iterations``.
    registry_capacity:
        Per-worker :class:`~repro.serve.registry.ModelRegistry` LRU cap.
    stream_poll:
        Stream supervisor poll interval in seconds (parent process only —
        the stream writer never moves into a worker).
    health_interval:
        Seconds between fleet supervisor liveness checks of its workers.
    restart_backoff:
        Seconds the supervisor waits before respawning a dead worker.
    shutdown_timeout:
        Seconds each worker gets to exit after the SIGTERM fan-out before
        it is killed.
    metrics_dir:
        Directory for mmap-backed per-process metric shards
        (:mod:`repro.obs`).  ``None`` means in-memory metrics only for a
        standalone server; the fleet supervisor provisions a temporary
        directory automatically so ``/metrics`` scrapes are always
        fleet-wide.
    history_interval_seconds:
        Seconds between metrics-history samples
        (:class:`~repro.obs.history.HistoryRecorder`): the fleet parent
        (or a standalone server with a ``metrics_dir``) appends one
        fleet-total frame per interval under ``<metrics_dir>/history/``,
        feeding SLO burn-rate evaluation and ``repro slo``.
    slow_request_seconds:
        Opt-in slow-request threshold: a request whose total wall-clock
        exceeds it emits one structured JSON log line with its span
        breakdown and increments ``slow_requests_total``.  ``None``
        disables the log (the counter then stays at 0).
    log_root:
        Directory of a :class:`~repro.stream.log.DocumentLog` to publish
        over ``/v1/log/manifest`` and ``/v1/log/shard/<name>`` so replica
        followers can tail this server's ingest log.  ``repro serve
        --stream`` points it at the stream's log automatically; ``None``
        (the default) keeps the log endpoints answering 404.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 1
    max_batch_size: int = 32
    batch_delay: float = 0.005
    default_iterations: int = DEFAULT_ITERATIONS
    registry_capacity: int = 4
    stream_poll: float = 2.0
    health_interval: float = 0.25
    restart_backoff: float = 0.2
    shutdown_timeout: float = 5.0
    metrics_dir: Optional[str] = None
    history_interval_seconds: float = 5.0
    slow_request_seconds: Optional[float] = None
    log_root: Optional[str] = None

    def __post_init__(self) -> None:
        """Validate every field once, at construction (and per replace)."""
        if not self.host:
            raise ValueError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.batch_delay < 0:
            raise ValueError("batch_delay must be >= 0")
        if self.default_iterations < 1:
            raise ValueError("default_iterations must be >= 1")
        if self.registry_capacity < 1:
            raise ValueError("registry_capacity must be >= 1")
        for name in ("stream_poll", "health_interval", "restart_backoff",
                     "shutdown_timeout", "history_interval_seconds"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.metrics_dir is not None and not str(self.metrics_dir):
            raise ValueError("metrics_dir must be None or a non-empty path")
        if self.slow_request_seconds is not None \
                and self.slow_request_seconds <= 0:
            raise ValueError("slow_request_seconds must be None or > 0")
        if self.log_root is not None and not str(self.log_root):
            raise ValueError("log_root must be None or a non-empty path")

    def replace(self, **changes: Any) -> "ServeConfig":
        """Return a copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, Any]:
        """The config as a plain dict (for logs, benches, and manifests)."""
        return dataclasses.asdict(self)
