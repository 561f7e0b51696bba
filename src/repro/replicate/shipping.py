"""Log shipping: a replica that tails a primary's document log over HTTP.

The primary's :class:`~repro.stream.log.DocumentLog` is append-only with
immutable shards, which makes replication a pull problem: a
:class:`LogFollower` fetches the manifest (served verbatim, so byte
equality is well defined), fetches each missing shard as resumable byte
ranges, verifies every range against the ``X-Content-SHA256`` the primary
computed, pins the assembled file against the primary's full-file digest
*and* the manifest's per-document hashes/offsets, and only then renames it
into place and commits it to the local manifest — the commit order
guarantees a torn manifest can never exist, and a SIGKILL at any point
leaves state the next sync resumes from.

Every network call goes through one capped-exponential-backoff
:class:`~repro.utils.retry.RetryPolicy`; retries, shipped bytes,
verification failures, and the replica's document lag are exported through
the standard :mod:`repro.obs` metric families (``shipping_*`` and
``replica_lag_docs``).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs.logging import log_event
from repro.obs.shards import ShardWriter
from repro.obs.tracing import new_request_id
from repro.serve.client import ServeClient, ServeError
from repro.stream.log import DocumentLog, ShardInfo, StreamLogError, _hash_text
from repro.utils.retry import RetryPolicy

#: Exceptions a network fetch may surface that warrant a backoff + retry.
RETRYABLE_FETCH_ERRORS = (ServeError, OSError, http.client.HTTPException)


class ReplicationError(Exception):
    """Shipping failed in a way retries cannot fix (divergence, bad data)."""


@dataclass
class SyncReport:
    """Outcome of one :meth:`LogFollower.sync_once` cycle.

    Attributes
    ----------
    n_shards_fetched:
        Shards fetched, verified, and committed during this cycle.
    n_documents_fetched:
        Documents those shards added to the replica.
    n_bytes_fetched:
        Shard bytes fetched over HTTP (excluding retried ranges).
    primary_documents:
        The primary's document count per the manifest snapshot synced to.
    lag_documents:
        ``primary_documents`` minus the replica's count after the cycle
        (0 when fully caught up to the snapshot).
    converged:
        Whether the replica's manifest file is now byte-identical to the
        manifest snapshot fetched at the start of the cycle.
    """

    n_shards_fetched: int = 0
    n_documents_fetched: int = 0
    n_bytes_fetched: int = 0
    primary_documents: int = 0
    lag_documents: int = 0
    converged: bool = False
    shards: List[str] = field(default_factory=list)


class LogFollower:
    """Tails a primary's document log into a local byte-identical replica.

    Parameters
    ----------
    primary_url:
        Base URL of the primary server (it must publish its log, i.e. run
        with ``ServeConfig.log_root`` set).
    root:
        Local replica directory; created as an empty
        :class:`~repro.stream.log.DocumentLog` when missing.
    chunk_bytes:
        Maximum bytes fetched per shard-range request (shards larger than
        this are assembled from several verified ranges, resuming at the
        partial file's size after any failure or restart).
    timeout:
        Per-attempt socket timeout for every HTTP call.
    retry:
        Backoff policy for network fetches.  The follower owns the retry
        loop (the underlying client is built with ``retries=0``) so every
        retry lands in ``shipping_retries_total``.
    metrics:
        Optional metric shard for the ``shipping_*`` / ``replica_lag_docs``
        families; a private one is created when omitted.
    on_shard:
        Optional callback invoked with each :class:`ShardInfo` right after
        it commits — the CLI prints progress from it, and chaos tests use
        it as a deterministic synchronization point.
    """

    def __init__(self, primary_url: str, root: Union[str, Path], *,
                 chunk_bytes: int = 1 << 18,
                 timeout: float = 10.0,
                 retry: Optional[RetryPolicy] = None,
                 metrics: Optional[ShardWriter] = None,
                 client: Optional[ServeClient] = None,
                 on_shard: Optional[Callable[[ShardInfo], None]] = None
                 ) -> None:
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        self.primary_url = primary_url.rstrip("/")
        self.root = Path(root)
        self.chunk_bytes = chunk_bytes
        self.retry = retry or RetryPolicy(retries=5, base_delay=0.05,
                                          max_delay=2.0)
        self.metrics = metrics or ShardWriter()
        self.client = client or ServeClient(self.primary_url,
                                            timeout=timeout, retries=0)
        self.on_shard = on_shard
        #: The ``X-Request-Id`` of the sync cycle in flight (a fresh id is
        #: minted per :meth:`sync_once` and sent on every HTTP call of that
        #: cycle, so the primary's access metrics and this follower's
        #: ``shipping_*`` log events correlate end to end).
        self.request_id: Optional[str] = None

    # -- plumbing ----------------------------------------------------------------------
    def _fetch(self, what: str, func: Callable[[], Any]) -> Any:
        """Run one network call under the retry policy, counting retries."""
        def record_retry(attempt: int, exc: BaseException,
                         pause: float) -> None:
            self.metrics.inc_counter("shipping_retries_total")
            log_event("shipping_retry", what=what, attempt=attempt,
                      pause_seconds=round(pause, 4), error=str(exc),
                      request_id=self.request_id)

        return self.retry.call(func, retry_on=RETRYABLE_FETCH_ERRORS,
                               token=f"{self.primary_url}:{what}",
                               on_retry=record_retry)

    def _open_log(self) -> DocumentLog:
        if DocumentLog.exists(self.root):
            return DocumentLog.open(self.root)
        return DocumentLog.create(self.root)

    def _fetch_manifest(self) -> Tuple[bytes, Dict[str, Any]]:
        """Fetch and verify the primary's manifest snapshot."""
        def fetch() -> Tuple[bytes, Dict[str, Any]]:
            body, headers = self.client.log_manifest()
            expected = headers.get("X-Content-SHA256")
            if expected and hashlib.sha256(body).hexdigest() != expected:
                self.metrics.inc_counter("shipping_verify_failures_total")
                raise ServeError(0, "manifest bytes failed SHA-256 check")
            try:
                manifest = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self.metrics.inc_counter("shipping_verify_failures_total")
                raise ServeError(0, f"manifest is not JSON: {exc}") from exc
            return body, manifest

        body, manifest = self._fetch("manifest", fetch)
        if not isinstance(manifest, dict) \
                or manifest.get("format") != "repro.stream.log":
            raise ReplicationError(
                f"{self.primary_url} does not serve a repro.stream.log "
                f"manifest")
        return body, manifest

    def _check_prefix(self, log: DocumentLog,
                      primary_shards: List[ShardInfo]) -> None:
        """The local shards must be a prefix of the primary's sequence."""
        if len(log.shards) > len(primary_shards):
            raise ReplicationError(
                f"replica has {len(log.shards)} shards but the primary "
                f"manifest lists {len(primary_shards)} — divergent logs")
        for mine, theirs in zip(log.shards, primary_shards):
            if mine.as_dict() != theirs.as_dict():
                raise ReplicationError(
                    f"replica shard {mine.name} diverges from the "
                    f"primary's {theirs.name} — refusing to replicate")

    def _verify_shard_file(self, path: Path, shard: ShardInfo) -> bool:
        """Logically verify shard bytes against their manifest entry.

        Checks record count, per-record byte offsets, and per-document
        content hashes — together with the primary-side full-file digest
        this pins the file byte-for-byte.
        """
        try:
            data = path.read_bytes()
        except OSError:
            return False
        offsets: List[int] = []
        hashes: List[str] = []
        position = 0
        for line in data.split(b"\n"):
            if not line:
                continue
            offsets.append(position)
            position += len(line) + 1
            try:
                record = json.loads(line.decode("utf-8"))
                hashes.append(_hash_text(str(record["text"])))
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError,
                    TypeError):
                return False
        return (len(hashes) == shard.n_documents
                and offsets == shard.offsets
                and hashes == shard.hashes
                and (not data or data.endswith(b"\n")))

    def _fetch_shard(self, log: DocumentLog, shard: ShardInfo) -> int:
        """Fetch one shard to disk, verified; returns bytes fetched.

        Resumable: ranges append to ``<shard>.jsonl.partial`` starting at
        its current size, so a killed follower re-fetches only the tail.
        The final rename happens only after every check passes — the
        shards directory never holds a torn committed file.
        """
        final = log.shard_file_path(shard.name)
        final.parent.mkdir(parents=True, exist_ok=True)
        if final.exists():
            # Crash window: renamed but not yet committed to the manifest.
            if self._verify_shard_file(final, shard):
                return 0
            final.unlink()  # torn leftover from a dead writer: refetch
        partial = final.with_name(final.name + ".partial")

        def fetch_range(offset: int) -> Tuple[bytes, int]:
            with self.metrics.timer("shipping_fetch_seconds"):
                body, headers = self.client.log_shard_range(
                    shard.name, offset=offset, length=self.chunk_bytes)
            digest = headers.get("X-Content-SHA256", "")
            if hashlib.sha256(body).hexdigest() != digest \
                    or int(headers.get("X-Content-Offset", -1)) != offset:
                self.metrics.inc_counter("shipping_verify_failures_total")
                raise ServeError(0, f"shard {shard.name} range at offset "
                                    f"{offset} failed verification")
            return body, int(headers["X-Shard-Size"])

        fetched = 0
        while True:
            position = partial.stat().st_size if partial.exists() else 0
            body, size = self._fetch(f"shard:{shard.name}:{position}",
                                     lambda p=position: fetch_range(p))
            if body:
                with open(partial, "ab") as handle:
                    handle.write(body)
                    handle.flush()
                    os.fsync(handle.fileno())
                fetched += len(body)
                self.metrics.inc_counter("shipping_bytes_total", len(body))
            if position + len(body) >= size:
                break
            if not body:
                raise ReplicationError(
                    f"shard {shard.name}: empty range at {position} but "
                    f"primary reports {size} bytes")

        remote = self._fetch(f"digest:{shard.name}",
                             lambda: self.client.log_shard_digest(shard.name))
        local_digest = hashlib.sha256(partial.read_bytes()).hexdigest()
        if local_digest != remote.get("sha256") \
                or not self._verify_shard_file(partial, shard):
            # Assembled bytes are wrong (e.g. the partial predates a
            # divergent restart): drop them so the next cycle refetches.
            self.metrics.inc_counter("shipping_verify_failures_total")
            partial.unlink(missing_ok=True)
            raise ReplicationError(
                f"shard {shard.name}: assembled file failed digest or "
                f"manifest verification; partial discarded for refetch")
        os.replace(partial, final)
        return fetched

    # -- public API --------------------------------------------------------------------
    def sync_once(self) -> SyncReport:
        """Run one full sync cycle against the primary's current snapshot.

        Fetches the manifest, ships every missing shard (verified, one
        commit per shard), mirrors the manifest's ``extra`` section, and
        updates ``replica_lag_docs``.  Raises :class:`ReplicationError`
        on divergence or persistent verification failure; network errors
        out of retries surface as
        :class:`~repro.serve.client.ServeError`.
        """
        self.request_id = new_request_id()
        self.client.extra_headers["X-Request-Id"] = self.request_id
        with self.metrics.timer("shipping_sync_seconds"):
            manifest_bytes, manifest = self._fetch_manifest()
            primary_shards = [ShardInfo.from_dict(entry)
                              for entry in manifest.get("shards", [])]
            primary_extra = dict(manifest.get("extra", {}))
            primary_documents = int(manifest.get("n_documents", 0))
            log = self._open_log()
            self._check_prefix(log, primary_shards)

            report = SyncReport(primary_documents=primary_documents)
            for shard in primary_shards[len(log.shards):]:
                report.n_bytes_fetched += self._fetch_shard(log, shard)
                log.adopt_shard(shard)
                report.n_shards_fetched += 1
                report.n_documents_fetched += shard.n_documents
                report.shards.append(shard.name)
                self.metrics.inc_counter("shipping_shards_total")
                self.metrics.set_gauge(
                    "replica_lag_docs",
                    max(0, primary_documents - log.n_documents))
                if self.on_shard is not None:
                    self.on_shard(shard)
            if log.extra != primary_extra:
                log.replace_extra(primary_extra)

            report.lag_documents = max(
                0, primary_documents - log.n_documents)
            self.metrics.set_gauge("replica_lag_docs", report.lag_documents)
            try:
                local_bytes = (self.root / "manifest.json").read_bytes()
            except OSError:
                local_bytes = b""
            report.converged = local_bytes == manifest_bytes
            return report

    def follow(self, poll_interval: float = 1.0,
               stop: Optional[threading.Event] = None,
               on_cycle: Optional[Callable[[SyncReport], None]] = None
               ) -> None:
        """Sync forever (until ``stop`` is set), backing off after errors.

        A failing cycle logs a structured ``shipping_error`` event and
        waits one (growing, capped) backoff delay instead of the poll
        interval; the first clean cycle resets the backoff.
        """
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        stop = stop or threading.Event()
        consecutive_errors = 0
        while not stop.is_set():
            try:
                report = self.sync_once()
            except (ReplicationError, ServeError, StreamLogError) as exc:
                consecutive_errors += 1
                log_event("shipping_error", primary=self.primary_url,
                          consecutive_errors=consecutive_errors,
                          error=str(exc), request_id=self.request_id)
                wait = max(self.retry.delay(
                    min(consecutive_errors, 16), token=self.primary_url),
                    poll_interval)
                stop.wait(wait)
                continue
            if consecutive_errors:
                log_event("shipping_recovered", primary=self.primary_url,
                          after_errors=consecutive_errors,
                          request_id=self.request_id)
                consecutive_errors = 0
            if on_cycle is not None:
                on_cycle(report)
            stop.wait(poll_interval)


def wait_for_lag_zero(follower: LogFollower, timeout: float = 30.0,
                      poll: float = 0.05) -> SyncReport:
    """Sync repeatedly until the follower converges (test/CLI helper).

    Polls with a wall-clock deadline rather than a fixed sleep count;
    raises :class:`TimeoutError` when the replica cannot converge in time.
    """
    deadline = time.monotonic() + timeout
    while True:
        report = follower.sync_once()
        if report.converged and report.lag_documents == 0:
            return report
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"replica at {follower.root} still lags "
                f"{report.lag_documents} documents after {timeout}s")
        time.sleep(poll)


__all__ = ["LogFollower", "ReplicationError", "SyncReport",
           "RETRYABLE_FETCH_ERRORS", "wait_for_lag_zero"]
