"""Dependency-free JSON-over-HTTP model server (stdlib ``http.server``).

:class:`ReproServer` is a ``ThreadingHTTPServer`` — one OS thread per
connection, no third-party dependencies — that serves the artifact bundles
of a :class:`~repro.serve.registry.ModelRegistry` through nine endpoints:

========================  ======  ===============================================
``/healthz``              GET     liveness + registered model names + uptime
``/metrics``              GET     Prometheus text (counters + latency quantiles)
``/v1/models``            GET     registered bundles with manifest metadata
``/v1/infer``             POST    topic mixtures for unseen documents (batched)
``/v1/segment``           POST    frozen-table phrase segmentation of documents
``/v1/topics``            GET     per-topic unigram/phrase tables of a model
``/v1/log/manifest``      GET     the published document log's manifest bytes
``/v1/log/shard/<name>``  GET     shard byte ranges with SHA-256 headers
``/debug/profile``        GET     collapsed-stack CPU profile over ``?seconds=N``
========================  ======  ===============================================

Inference requests funnel through the
:class:`~repro.serve.batching.MicroBatcher`, so concurrent clients are
coalesced into one grouped fold-in per batch while each request keeps
its seed-deterministic result.  Request and response bodies
are JSON, validated and serialized through the typed schemas of
:mod:`repro.serve.api`; errors come back as ``{"error": ...}`` with a
4xx/5xx status.  See ``docs/serving.md`` for the full schemas.

The handler reads requests itself: a small request-line and header reader
replaces ``http.server``'s ``email.parser`` pass while keeping its limits
and statuses, and it owns body framing — a conflicting or non-decimal
``Content-Length`` is a 400, any ``Transfer-Encoding`` a 501, and a reply
sent with the declared body unread closes the connection, so body bytes
never run as the next request.  Each reply goes out in one socket write,
and ``http_<route>_seconds`` times a request from its request line.

A server is configured by one frozen
:class:`~repro.serve.config.ServeConfig`.  As a
fleet member (:mod:`repro.serve.fleet`), each worker process constructs
its server with ``reuse_port=True`` — every worker binds the *same*
address with ``SO_REUSEPORT`` and the kernel spreads incoming connections
across them — and a ``worker_id`` that is stamped into ``/healthz`` and
``/v1/models`` replies so observers can tell the workers apart.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.io.artifacts import ArtifactError
from repro.obs import build_info as obs_build_info
from repro.obs.history import HistoryRecorder, history_dir
from repro.obs.logging import log_event
from repro.obs.profile import capture_profile
from repro.obs.render import render_fleet
from repro.obs.shards import ShardWriter, collect_shards, shard_path
from repro.obs.slo import SLOVerdict, evaluate_slos, render_slo_gauges
from repro.obs.tracing import (RequestTrace, new_request_id,
                               sanitize_request_id, span_metric)
from repro.serve import api
from repro.serve.batching import MicroBatcher
from repro.serve.config import DEFAULT_ITERATIONS, DEFAULT_SEED, ServeConfig
from repro.serve.registry import LoadedModel, ModelRegistry, UnknownModelError

__all__ = ["DEFAULT_ITERATIONS", "DEFAULT_SEED", "ENDPOINTS",
           "MAX_BODY_BYTES", "ReproServer", "RequestError"]

ENDPOINTS = ("/healthz", "/metrics", "/v1/models", "/v1/infer",
             "/v1/segment", "/v1/topics", "/v1/log/manifest",
             "/v1/log/shard/<name>", "/debug/profile")

MAX_BODY_BYTES = 8 * 1024 * 1024

#: Ceiling on one ``/debug/profile`` capture, so a client cannot park a
#: handler thread indefinitely.
MAX_PROFILE_SECONDS = 30.0

#: Shard names a follower may request — manifest stems only, no separators
#: or dots, so the route can never escape the log's shard directory.
_SHARD_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

#: The collapsed route prefix for ranged shard fetches.
_LOG_SHARD_PREFIX = "/v1/log/shard/"

#: ``http.server``'s limits, kept by the request reader: bytes in one
#: header line, and header lines per request counting the blank line that
#: ends the block (so 99 headers pass).
_MAX_LINE = 65536
_MAX_HEADER_LINES = 100


class _Headers(dict):
    """Request headers by lower-cased name; the first of repeated names wins."""

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return dict.get(self, name.lower(), default)


class RequestError(Exception):
    """A client error carrying the HTTP status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ReproServer(ThreadingHTTPServer):
    """The batched-inference model server.

    Parameters
    ----------
    registry:
        Registry of bundles to serve (shared, hot-reloadable).
    config:
        The :class:`~repro.serve.config.ServeConfig` to run with
        (defaults to ``ServeConfig()``).  ``port=0`` picks an ephemeral
        port — read the actual one from ``server_port``.
    worker_id:
        This server's identity inside a fleet (``0`` for a standalone
        server); reported in ``/healthz`` and ``/v1/models`` replies.
    reuse_port:
        Bind with ``SO_REUSEPORT`` so several worker processes can listen
        on one address, kernel-balanced (used by
        :class:`~repro.serve.fleet.ServeFleet`).
    record_history:
        Whether this server runs the metrics-history recorder thread
        (:class:`~repro.obs.history.HistoryRecorder`).  History has
        exactly one writer per metrics directory, so the default is
        "record iff standalone with a metrics_dir"; fleet workers pass
        ``False`` (the fleet parent records instead).

    The server owns one :class:`~repro.obs.shards.ShardWriter`
    (``metrics``): it replaces the registry's shard, and the server,
    batcher and registry all record into it.  ``/metrics`` renders it —
    a file in ``config.metrics_dir`` when set (so other fleet workers'
    scrapes read it too), anonymous memory otherwise.
    """

    daemon_threads = True
    # The stdlib default backlog (5) drops SYNs under bursts of fresh
    # connections — each costing the client a full TCP retransmission
    # timeout.  High-concurrency replays open a connection per request,
    # so listen deep enough that the accept loop is the only queue.
    request_queue_size = 128

    def __init__(self, registry: ModelRegistry,
                 config: Optional[ServeConfig] = None, *,
                 worker_id: int = 0,
                 reuse_port: bool = False,
                 record_history: Optional[bool] = None) -> None:
        config = config if config is not None else ServeConfig()
        self.config = config
        self.worker_id = worker_id
        self.registry = registry
        # The metric shard this process appends to.  With a metrics_dir
        # (fleet mode) it is a file other workers' scrapes can read; a
        # standalone server keeps an anonymous in-memory shard so the one
        # /metrics rendering path — per-worker_id series plus fleet totals
        # — serves the 1-worker and N-worker cases identically.
        if config.metrics_dir is not None:
            self.metrics = ShardWriter(
                shard_path(config.metrics_dir, str(worker_id)))
        else:
            self.metrics = ShardWriter()
        # The registry's load/reload/eviction counters must land in the
        # shard /metrics renders.
        registry.metrics = self.metrics
        # Pre-declare the request/error families at zero (standard
        # exposition practice): a healthy server would otherwise never
        # create http_errors_total, leaving the error-ratio SLO with no
        # numerator series — stuck at no_data instead of reporting 0.
        for family in ("http_requests_total", "http_errors_total"):
            self.metrics.inc_counter(family, 0)
        self.metrics.flush()
        self.build_info = obs_build_info()
        # Metrics history: one writer per metrics directory.  A standalone
        # server with a metrics_dir records its own frames; fleet workers
        # leave recording to the fleet parent (record_history=False).
        if record_history is None:
            record_history = config.metrics_dir is not None \
                and config.workers == 1
        self.history: Optional[HistoryRecorder] = None
        if record_history and config.metrics_dir is not None:
            self.history = HistoryRecorder(
                config.metrics_dir, config.history_interval_seconds,
                inline=[(str(worker_id), self.metrics)])
            self.history.start()
        self.log_root = Path(config.log_root) if config.log_root else None
        self.default_iterations = config.default_iterations
        self.batcher = MicroBatcher.from_config(registry, config,
                                                metrics=self.metrics)
        # The /v1/infer reply writer's float memo, shared by all handlers.
        self.reply_floats = api.FloatTexts()
        self.started_at = time.time()
        super().__init__((config.host, config.port), _Handler,
                         bind_and_activate=False)
        if reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError("SO_REUSEPORT is not supported on this platform")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        try:
            self.server_bind()
            self.server_activate()
        except BaseException:
            self.server_close()
            raise
        self.batcher.start()

    def log_progress(self) -> Optional[Dict[str, Any]]:
        """Summarise the published log (``None`` when none is configured).

        Reads only the manifest, never shard bodies, so ``/v1/models``
        stays cheap; an unreadable manifest reports zero progress rather
        than failing the whole reply.
        """
        if self.log_root is None:
            return None
        try:
            manifest = json.loads(
                (self.log_root / "manifest.json").read_text(encoding="utf-8"))
            shards = manifest.get("shards", [])
            n_documents = int(manifest.get("n_documents", 0))
        except (OSError, json.JSONDecodeError, ValueError):
            shards, n_documents = [], 0
        return {"n_documents": n_documents, "n_shards": len(shards)}

    @property
    def url(self) -> str:
        """The server's base URL (with the actually bound port)."""
        host = self.server_address[0]
        return f"http://{host}:{self.server_port}"

    def start_background(self) -> threading.Thread:
        """Run ``serve_forever`` in a daemon thread and return it."""
        thread = threading.Thread(target=self.serve_forever,
                                  name="repro-serve-http", daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop accepting requests and shut the scheduler down cleanly.

        Safe to call whether ``serve_forever`` runs in this thread (after
        a ``KeyboardInterrupt``) or in a background thread.
        """
        self.shutdown()
        self.close()

    def close(self) -> None:
        """Release resources without touching the serve loop (use after
        ``serve_forever`` already returned in this thread)."""
        self.batcher.stop()
        self.server_close()
        if self.history is not None:
            self.history.stop()
        # Flush but keep a file-backed shard: if this worker is part of a
        # fleet, its totals stay scrapeable until the monitor reaps them.
        self.metrics.flush()

    def slo_verdicts(self) -> Optional[List[SLOVerdict]]:
        """Evaluate the declared SLOs over recorded history.

        Any fleet member can answer: workers never *write* history, but
        they all read the shared ``<metrics_dir>/history/`` ring the
        parent records.  Returns ``None`` when no history exists yet (no
        metrics directory, or the recorder has not committed a frame).
        """
        if self.config.metrics_dir is None:
            return None
        directory = history_dir(self.config.metrics_dir)
        if not directory.is_dir():
            return None
        return evaluate_slos(directory)


class _Handler(BaseHTTPRequestHandler):
    """Routes the JSON and log-shipping endpoints; one instance per request."""

    server: ReproServer  # narrowed from BaseHTTPRequestHandler
    protocol_version = "HTTP/1.1"
    # Keep-alive clients otherwise hit the Nagle/delayed-ACK interaction:
    # the response lands in two small segments and the second waits ~40ms
    # for the peer's delayed ACK, dwarfing the batching window.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging; ``/metrics`` observes instead."""

    #: The request's trace; set by ``_dispatch`` before any handler runs.
    trace: Optional[RequestTrace] = None
    #: Shard name extracted from a ``/v1/log/shard/<name>`` path.
    log_shard_name: Optional[str] = None
    #: ``perf_counter()`` when the request line was read.
    request_started = 0.0
    #: Declared body bytes not yet read off the connection.
    unread_body = 0
    #: A Content-Length/Transfer-Encoding problem, answered by ``_dispatch``.
    framing_error: Optional[RequestError] = None

    # -- request reader ----------------------------------------------------------------
    def parse_request(self) -> bool:
        """Read the request line and header block (replaces http.server's).

        Keeps ``BaseHTTPRequestHandler.parse_request``'s request-line
        rules, limits and statuses (400, 431, 505, HTTP/1.0 and
        ``Connection`` semantics, ``100 Continue``) but fills a plain
        :class:`_Headers` dict instead of running ``email.parser``, and
        owns the body framing: only a single decimal ``Content-Length``
        frames a body.  Unlike http.server, an error sent before a version
        is accepted carries an HTTP/1.1 status line, not a bare page.
        Returns ``False`` once an error reply is sent.
        """
        self.request_started = time.perf_counter()
        self.command = None
        # Only a two-word ``GET`` is answered HTTP/0.9 style (bare body).
        self.request_version = self.protocol_version
        self.close_connection = True
        self.unread_body = 0
        self.framing_error = None
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                major, minor = version[5:].split(".")
                if not (major.isdigit() and minor.isdigit()) \
                        or len(major) > 10 or len(minor) > 10:
                    raise ValueError
                number = int(major), int(minor)
            except ValueError:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad request version ({version!r})")
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad HTTP/0.9 request type ({command!r})")
                return False
            self.request_version = self.default_request_version
        self.command = command
        # A leading '//' would read as a scheme-less absolute URI.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        headers = _Headers()
        lengths: List[str] = []
        for count in range(1, _MAX_HEADER_LINES + 2):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                                "Line too long",
                                f"header line over {_MAX_LINE} bytes")
                return False
            if count > _MAX_HEADER_LINES:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                                "Too many headers",
                                f"got more than {_MAX_HEADER_LINES} headers")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or name.split() != [name]:
                # Empty or spaced names, obsolete line folding (a leading
                # space or tab) and lines without a colon.
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return False
            name, value = name.lower(), value.strip(" \t\r\n")
            if name == "content-length":
                lengths.append(value)
            headers.setdefault(name, value)
        self.headers = headers  # type: ignore[assignment]

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if "transfer-encoding" in headers:
            self.framing_error = RequestError(
                501, "Transfer-Encoding is not supported; send Content-Length")
        elif len(set(lengths)) > 1:
            self.framing_error = RequestError(
                400, "conflicting Content-Length headers")
        elif lengths and not (lengths[0].isascii() and lengths[0].isdigit()):
            self.framing_error = RequestError(
                400, f"invalid Content-Length header {lengths[0]!r}")
        elif lengths:
            self.unread_body = int(lengths[0])
        if self.framing_error is not None:
            # The body's extent is unknown: never read past this request.
            self.close_connection = True
        elif (headers.get("expect", "").lower() == "100-continue"
              and self.request_version >= "HTTP/1.1"
              and self.unread_body <= MAX_BODY_BYTES):
            # An oversized body is refused (413) without inviting it.
            return self.handle_expect_100()
        return True

    def _send_payload(self, status: int, body: bytes, content_type: str,
                      extra_headers: Optional[Dict[str, str]] = None) -> None:
        """Write the status line, headers and body in one socket write."""
        if self.unread_body:
            # A body left on the connection would parse as the next request.
            self.close_connection = True
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)
            return
        reason = self.responses.get(status, ("",))[0]
        lines = [f"{self.protocol_version} {status} {reason}",
                 f"Server: {self.version_string()}",
                 f"Date: {self.date_time_string()}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}"]
        if self.trace is not None:
            lines.append(f"X-Request-Id: {self.trace.request_id}")
        lines.extend(f"{name}: {value}"
                     for name, value in (extra_headers or {}).items())
        if self.close_connection:
            lines.append("Connection: close")
        lines.append("\r\n")
        self.wfile.write("\r\n".join(lines).encode("latin-1") + body)

    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self._send_payload(status, body, "application/json")

    def _read_json_body(self) -> Dict[str, Any]:
        length = self.unread_body
        if length == 0:
            raise RequestError(400, "request body required")
        if length > MAX_BODY_BYTES:
            # Never drained: the reply closes the connection instead.
            raise RequestError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        self.unread_body = 0
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise RequestError(400, "JSON body must be an object")
        return payload

    def _dispatch(self, method: str, start: float) -> None:
        """Route one request; ``start`` is when its request line was read."""
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        # Shard fetches carry the shard name in the path; collapse them to
        # one route so metrics stay bounded and _ROUTES stays exact-match.
        self.log_shard_name = None
        if route.startswith(_LOG_SHARD_PREFIX):
            self.log_shard_name = route[len(_LOG_SHARD_PREFIX):]
            route = _LOG_SHARD_PREFIX.rstrip("/")
        # Unknown paths share one latency bucket: per-route metrics must not
        # let arbitrary client URLs grow /metrics without bound.
        known_route = route in _ROUTE_PATHS
        bucket = route if known_route else "/unmatched"
        metrics = self.server.metrics
        metrics.inc_counter("http_requests_total")
        # The request id: echo a well-formed client X-Request-Id, mint one
        # otherwise.  The trace travels with the request through the
        # batcher and comes back in the X-Request-Id response header.
        self.trace = RequestTrace(
            request_id=(sanitize_request_id(self.headers.get("X-Request-Id"))
                        or new_request_id()),
            route=bucket, started=start)
        try:
            if self.framing_error is not None:
                raise self.framing_error
            handler = _ROUTES.get((method, route))
            if handler is None:
                if known_route:
                    raise RequestError(405, f"{method} not allowed on {route}")
                raise RequestError(404, f"no such endpoint: {route}")
            handler(self, parse_qs(parsed.query))
        except RequestError as exc:
            metrics.inc_counter("http_errors_total")
            self._send_json(exc.status, {"error": str(exc)})
        except api.SchemaError as exc:
            metrics.inc_counter("http_errors_total")
            self._send_json(exc.status, {"error": str(exc)})
        except UnknownModelError as exc:
            metrics.inc_counter("http_errors_total")
            self._send_json(404, {"error": str(exc.args[0])})
        except ArtifactError as exc:
            metrics.inc_counter("http_errors_total")
            self._send_json(500, {"error": f"artifact error: {exc}"})
        except BrokenPipeError:
            # Client went away mid-response; nothing left to answer.
            metrics.inc_counter("http_errors_total")
        except Exception as exc:  # keep the connection thread alive
            metrics.inc_counter("http_errors_total")
            self._send_json(500, {"error": f"internal error: {exc}"})
        finally:
            elapsed = time.perf_counter() - start
            metrics.observe(f"http{bucket.replace('/', '_')}_seconds",
                            elapsed)
            threshold = self.server.config.slow_request_seconds
            if threshold is not None and elapsed >= threshold:
                metrics.inc_counter("slow_requests_total")
                log_event("slow_request",
                          worker_id=self.server.worker_id,
                          method=method,
                          threshold_seconds=threshold,
                          **self.trace.as_dict())

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        """Serve the GET endpoints."""
        self._dispatch("GET", self.request_started)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        """Serve the POST endpoints."""
        self._dispatch("POST", self.request_started)

    # -- shared request helpers --------------------------------------------------------
    def _resolve_model_name(self, requested: Optional[str]) -> str:
        if requested:
            return requested
        default = self.server.registry.default_name()
        if default is None:
            raise RequestError(
                400, "request must name a 'model' (several are registered: "
                     f"{self.server.registry.names()})")
        return default

    def _load_model_bundle(self, name: str) -> LoadedModel:
        loaded = self.server.registry.get(name)
        if loaded.kind != "model":
            raise RequestError(
                400, f"model {name!r} is a {loaded.kind!r} bundle; this "
                     f"endpoint needs a fitted model (run `repro fit`)")
        return loaded

    # -- endpoints ---------------------------------------------------------------------
    def _handle_healthz(self, query: Dict[str, List[str]]) -> None:
        # SLO verdicts are degradation *reasons*, not liveness: the status
        # stays "ok" (and the HTTP status 200) even mid-breach, so load
        # balancers keep routing while rollout gates and operators see why
        # the fleet is degraded.
        verdicts = self.server.slo_verdicts()
        reply = api.HealthResponse(
            status="ok",
            models=tuple(self.server.registry.names()),
            loaded=tuple(self.server.registry.loaded_names()),
            uptime_seconds=time.time() - self.server.started_at,
            worker_id=self.server.worker_id,
            slo=None if verdicts is None
            else tuple(verdict.as_dict() for verdict in verdicts))
        self._send_json(200, reply.to_payload())

    def _handle_metrics(self, query: Dict[str, List[str]]) -> None:
        # Fleet-wide scrape: whichever worker answers reads every live
        # shard in the shared metrics directory (plus its own in-memory
        # shard, which is freshest) and renders per-worker_id series plus
        # fleet totals.  Standalone servers have no directory — the render
        # then covers just this process, with identical label structure.
        sample = collect_shards(
            self.server.config.metrics_dir,
            inline=[(str(self.server.worker_id), self.server.metrics)])
        text = render_fleet(sample, build_info=self.server.build_info)
        verdicts = self.server.slo_verdicts()
        if verdicts:
            text += render_slo_gauges(verdicts)
        self._send_payload(200, text.encode("utf-8"),
                           "text/plain; version=0.0.4")

    def _handle_debug_profile(self, query: Dict[str, List[str]]) -> None:
        try:
            seconds = float((query.get("seconds") or ["1"])[0])
        except ValueError as exc:
            raise RequestError(400, "'seconds' must be a number") from exc
        if not 0 < seconds <= MAX_PROFILE_SECONDS:
            raise RequestError(
                400, f"'seconds' must be in (0, {MAX_PROFILE_SECONDS:g}]")
        # The handler thread sleeps while the sampler thread watches every
        # other thread work; concurrent requests keep being served.
        collapsed = capture_profile(seconds)
        self._send_payload(200, collapsed.encode("utf-8"),
                           "text/plain; charset=utf-8")

    def _handle_models(self, query: Dict[str, List[str]]) -> None:
        reply = api.ModelsResponse(
            models=tuple(self.server.registry.describe_all()),
            worker_id=self.server.worker_id,
            log=self.server.log_progress())
        self._send_json(200, reply.to_payload())

    # -- log shipping ------------------------------------------------------------------
    def _log_root(self) -> Path:
        root = self.server.log_root
        if root is None:
            raise RequestError(
                404, "this server does not publish a document log")
        return root

    def _handle_log_manifest(self, query: Dict[str, List[str]]) -> None:
        manifest = self._log_root() / "manifest.json"
        try:
            body = manifest.read_bytes()
        except OSError as exc:
            raise RequestError(404, "log manifest not found") from exc
        # The manifest is served verbatim — byte-identity of a caught-up
        # replica is defined against exactly these bytes.
        self._send_payload(
            200, body, "application/json",
            extra_headers={
                "X-Content-SHA256": hashlib.sha256(body).hexdigest()})

    def _handle_log_shard(self, query: Dict[str, List[str]]) -> None:
        root = self._log_root()
        name = self.log_shard_name or ""
        if not _SHARD_NAME_RE.match(name):
            raise RequestError(400, f"invalid shard name {name!r}")
        path = root / "shards" / f"{name}.jsonl"
        try:
            size = path.stat().st_size
        except OSError as exc:
            raise RequestError(404, f"no such shard: {name}") from exc
        if "digest" in query:
            # Cheap integrity probe: full-file SHA-256 without the body, so
            # a follower can pin byte-identity after a chunked fetch.
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            self._send_json(200, {"name": name, "size": size,
                                  "sha256": digest})
            return
        try:
            offset = int((query.get("offset") or ["0"])[0])
            length = int((query.get("length") or [str(size)])[0])
        except ValueError as exc:
            raise RequestError(
                400, "'offset' and 'length' must be integers") from exc
        if offset < 0 or length < 0:
            raise RequestError(400, "'offset' and 'length' must be >= 0")
        if offset > size:
            raise RequestError(
                416, f"offset {offset} beyond shard size {size}")
        with open(path, "rb") as handle:
            handle.seek(offset)
            body = handle.read(length)
        self._send_payload(
            200, body, "application/octet-stream",
            extra_headers={
                "X-Content-SHA256": hashlib.sha256(body).hexdigest(),
                "X-Content-Offset": str(offset),
                "X-Shard-Size": str(size)})

    def _record_span(self, span: str, seconds: float) -> None:
        self.server.metrics.observe(span_metric(span), seconds)
        self.trace.record(span, seconds)

    def _handle_infer(self, query: Dict[str, List[str]]) -> None:
        request = api.InferRequest.from_payload(
            self._read_json_body(),
            default_iterations=self.server.config.default_iterations)
        self._record_span("request_read",
                          time.perf_counter() - self.request_started)
        name = self._resolve_model_name(request.model)
        try:
            result = self.server.batcher.submit(name, list(request.documents),
                                                request.seed,
                                                request.iterations,
                                                trace=self.trace)
        except ValueError as exc:  # e.g. segmentation bundle
            raise RequestError(400, str(exc)) from exc
        reply_start = time.perf_counter()
        self._send_payload(200, api.InferResponse.from_result(
            name, result, request, request_id=self.trace.request_id,
        ).encode(self.server.reply_floats), "application/json")
        self._record_span("reply", time.perf_counter() - reply_start)

    def _handle_segment(self, query: Dict[str, List[str]]) -> None:
        request = api.SegmentRequest.from_payload(self._read_json_body())
        name = self._resolve_model_name(request.model)
        loaded = self.server.registry.get(name)
        # Both bundle kinds carry a segmentation-capable cached inferencer.
        phrase_docs, unknown_counts = loaded.inferencer.segment_texts(
            list(request.documents))
        vocabulary = loaded.bundle.vocabulary
        reply = api.SegmentResponse(
            model=name,
            documents=tuple(
                api.SegmentedDocument(
                    phrases=tuple(vocabulary.decode(phrase)
                                  for phrase in phrases),
                    surface_phrases=tuple(vocabulary.unstem_phrase(phrase)
                                          for phrase in phrases),
                    n_unknown_tokens=unknown)
                for phrases, unknown in zip(phrase_docs, unknown_counts)))
        self._send_json(200, reply.to_payload())

    def _handle_topics(self, query: Dict[str, List[str]]) -> None:
        name = self._resolve_model_name((query.get("model") or [None])[0])
        try:
            n = int((query.get("n") or ["10"])[0])
        except ValueError as exc:
            raise RequestError(400, "'n' must be an integer") from exc
        if not 1 <= n <= 1_000:
            raise RequestError(400, "'n' must be in [1, 1000]")
        loaded = self._load_model_bundle(name)
        visualization = loaded.bundle.visualization(n_unigrams=n, n_phrases=n)
        reply = api.TopicsResponse(
            model=name, n_topics=visualization.n_topics,
            topics=tuple(
                api.TopicEntry(topic=k,
                               unigrams=tuple(visualization.top_unigrams[k][:n]),
                               phrases=tuple(visualization.top_phrases[k][:n]))
                for k in range(visualization.n_topics)))
        self._send_json(200, reply.to_payload())


_ROUTES: Dict[Tuple[str, str], Any] = {
    ("GET", "/healthz"): _Handler._handle_healthz,
    ("GET", "/metrics"): _Handler._handle_metrics,
    ("GET", "/v1/models"): _Handler._handle_models,
    ("POST", "/v1/infer"): _Handler._handle_infer,
    ("POST", "/v1/segment"): _Handler._handle_segment,
    ("GET", "/v1/topics"): _Handler._handle_topics,
    ("GET", "/v1/log/manifest"): _Handler._handle_log_manifest,
    ("GET", "/v1/log/shard"): _Handler._handle_log_shard,
    ("GET", "/debug/profile"): _Handler._handle_debug_profile,
}

#: Every routed path (a path outside it is metered as ``/unmatched``).
_ROUTE_PATHS = frozenset(route for _, route in _ROUTES)
