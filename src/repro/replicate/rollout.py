"""Canary-first, health-gated model rollout with automatic rollback.

A :class:`RolloutCoordinator` promotes one published ``model-vNNNNN.npz``
across a fleet of serve targets.  Each target is a (name, URL,
publish-path) triple: the coordinator atomically replaces the target's
watched ``current.npz`` with the new version bundle, then gates on the
target actually *serving* it — ``/healthz`` answering ``ok``,
``/v1/models`` listing the bundle without an error (and, when the version
is derivable from the file name, reporting the expected
``stream_version``), and one live ``/v1/infer`` probe returning a valid
mixture.  The canary target is promoted and verified first; only then
does the coordinator fan out.  Any failure rolls every already-promoted
target back to its previous bytes and re-verifies the fleet, so
``/v1/models`` stays coherent throughout: the fleet is either entirely on
the old version or entirely on the new one when the dust settles.

State and promotion lag are exported through the standard metric
families: ``rollout_state`` (gauge), ``rollout_promotions_total`` /
``rollout_rollbacks_total`` (counters), and ``rollout_promote_seconds``
(publish-to-healthy histogram per target).
"""

from __future__ import annotations

import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.logging import log_event
from repro.obs.shards import ShardWriter
from repro.obs.tracing import new_request_id
from repro.serve.client import ServeClient, ServeError

#: Numeric encoding of the coordinator state machine, exported as the
#: ``rollout_state`` gauge (idle → canary → fanout → done | rolled_back).
ROLLOUT_STATES: Dict[str, int] = {
    "idle": 0, "canary": 1, "fanout": 2, "done": 3, "rolled_back": 4}

_VERSION_RE = re.compile(r"model-v(\d+)\.npz$")
_BACKUP_SUFFIX = ".rollback"


class RolloutError(Exception):
    """The rollout could not complete (the report carries the details)."""


@dataclass(frozen=True)
class RolloutTarget:
    """One serve instance under rollout control.

    Attributes
    ----------
    name:
        Stable label used in reports and log events.
    url:
        The target server's base URL.
    publish_path:
        The bundle path this target's registry watches (its
        ``current.npz``); publishing atomically replaces this file.
    """

    name: str
    url: str
    publish_path: str

    @classmethod
    def parse(cls, spec: str) -> "RolloutTarget":
        """Parse a CLI ``name=url=publish_path`` triple."""
        parts = spec.split("=", 2)
        if len(parts) != 3 or not all(parts):
            raise ValueError(
                f"target spec must be name=url=publish_path, got {spec!r}")
        return cls(name=parts[0], url=parts[1], publish_path=parts[2])


@dataclass
class TargetReport:
    """Per-target outcome inside a :class:`RolloutReport`."""

    name: str
    promoted: bool = False
    healthy: bool = False
    rolled_back: bool = False
    seconds: float = 0.0
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON reports."""
        return {"name": self.name, "promoted": self.promoted,
                "healthy": self.healthy, "rolled_back": self.rolled_back,
                "seconds": round(self.seconds, 4), "error": self.error}


@dataclass
class RolloutReport:
    """Outcome of one :meth:`RolloutCoordinator.rollout` run."""

    version_path: str
    state: str = "idle"
    targets: List[TargetReport] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """Whether every target ended up serving the new version."""
        return self.state == "done"

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON reports."""
        return {"version_path": self.version_path, "state": self.state,
                "succeeded": self.succeeded,
                "targets": [entry.as_dict() for entry in self.targets]}


class RolloutCoordinator:
    """Promotes a model version across serve targets, canary-first.

    Parameters
    ----------
    targets:
        The fleet; the canary is the entry named by ``canary`` (default:
        the first target).
    canary:
        Name of the canary target.
    health_timeout:
        Wall-clock budget (seconds) for each target to pass its health
        gate after publish.
    poll_interval:
        Delay between health-gate probes within the budget.
    probe_documents:
        Documents sent in the live ``/v1/infer`` canary probe.
    metrics:
        Optional metric shard for the ``rollout_*`` families.
    client_timeout:
        Socket timeout for every probe HTTP call.
    slo_gate:
        When true, the health gate additionally rejects a target whose
        ``/healthz`` reply carries an SLO verdict with status
        ``"breach"`` (both burn windows over budget) — a promotion then
        only lands on targets that are not actively burning error
        budget.  Targets without metrics history (no ``slo`` field in
        the reply) pass the gate unchanged.
    """

    def __init__(self, targets: List[RolloutTarget], *,
                 canary: Optional[str] = None,
                 health_timeout: float = 30.0,
                 poll_interval: float = 0.1,
                 probe_documents: Optional[List[str]] = None,
                 metrics: Optional[ShardWriter] = None,
                 client_timeout: float = 30.0,
                 slo_gate: bool = False) -> None:
        if not targets:
            raise ValueError("rollout needs at least one target")
        names = [target.name for target in targets]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate target names: {names}")
        if health_timeout <= 0 or poll_interval <= 0:
            raise ValueError("health_timeout and poll_interval must be > 0")
        canary = canary or targets[0].name
        if canary not in names:
            raise ValueError(f"canary {canary!r} is not a target: {names}")
        self.targets = list(targets)
        self.canary_name = canary
        self.health_timeout = health_timeout
        self.poll_interval = poll_interval
        self.probe_documents = list(
            probe_documents or ["data mining query processing"])
        self.metrics = metrics or ShardWriter()
        self.client_timeout = client_timeout
        self.slo_gate = slo_gate
        #: ``X-Request-Id`` of the rollout in flight: one id is minted per
        #: :meth:`rollout` and stamped on every probe HTTP call and every
        #: ``rollout_*`` log event, so target-side access logs and the
        #: coordinator's own events correlate end to end.
        self.request_id: Optional[str] = None
        self._set_state("idle")

    # -- plumbing ----------------------------------------------------------------------
    def _set_state(self, state: str) -> None:
        self.state = state
        self.metrics.set_gauge("rollout_state", ROLLOUT_STATES[state])
        log_event("rollout_state", state=state, request_id=self.request_id)

    def _client(self, target: RolloutTarget) -> ServeClient:
        headers = {"X-Request-Id": self.request_id} \
            if self.request_id is not None else None
        return ServeClient(target.url, timeout=self.client_timeout,
                           retries=2, retry_delay=0.05,
                           extra_headers=headers)

    def _publish(self, target: RolloutTarget, version_path: Path) -> None:
        """Atomically land the version bundle on the target's publish path.

        The previous bytes are preserved next to the publish path (the
        ``.rollback`` file) until the rollout either completes or restores
        them.
        """
        publish = Path(target.publish_path)
        publish.parent.mkdir(parents=True, exist_ok=True)
        backup = publish.with_name(publish.name + _BACKUP_SUFFIX)
        if publish.exists():
            shutil.copyfile(publish, backup)
        elif backup.exists():
            backup.unlink()
        temporary = publish.with_name(publish.name + ".tmp")
        shutil.copyfile(version_path, temporary)
        os.replace(temporary, publish)

    def _restore(self, target: RolloutTarget) -> None:
        """Put the previous bytes back on the target's publish path."""
        publish = Path(target.publish_path)
        backup = publish.with_name(publish.name + _BACKUP_SUFFIX)
        if backup.exists():
            os.replace(backup, publish)
        else:  # first deploy: there was nothing before, remove the bundle
            publish.unlink(missing_ok=True)

    def _discard_backup(self, target: RolloutTarget) -> None:
        publish = Path(target.publish_path)
        backup = publish.with_name(publish.name + _BACKUP_SUFFIX)
        backup.unlink(missing_ok=True)

    def _probe(self, target: RolloutTarget,
               expect_version: Optional[int]) -> Optional[str]:
        """One health-gate probe; returns ``None`` when healthy.

        The gate is end-to-end: liveness, a coherent ``/v1/models`` entry
        (no load error, expected stream version when known), and a live
        ``/v1/infer`` that actually folds documents into the bundle.
        """
        client = self._client(target)
        try:
            health = client.health()
            if health.get("status") != "ok":
                return f"status {health.get('status')!r}"
            if self.slo_gate:
                breaching = [verdict.get("name", "?")
                             for verdict in health.get("slo") or []
                             if verdict.get("status") == "breach"]
                if breaching:
                    return f"SLO breach: {', '.join(sorted(breaching))}"
            models = client.models()
            if not models:
                return "no models registered"
            entry = models[0]
            if entry.get("error"):
                return f"model error: {entry['error']}"
            if expect_version is not None:
                found = entry.get("metadata", {}).get("stream_version")
                if found != expect_version:
                    return (f"stream_version {found!r}, "
                            f"expected {expect_version}")
            reply = client.infer(self.probe_documents, seed=7, iterations=5)
            document = reply.get("documents", [{}])[0]
            if not document.get("theta"):
                return "infer probe returned no mixture"
        except ServeError as exc:
            return str(exc)
        return None

    def _verify(self, target: RolloutTarget,
                expect_version: Optional[int]) -> TargetReport:
        """Poll the health gate until it passes or the budget runs out."""
        report = TargetReport(name=target.name)
        started = time.monotonic()
        deadline = started + self.health_timeout
        while True:
            failure = self._probe(target, expect_version)
            report.seconds = time.monotonic() - started
            if failure is None:
                report.healthy = True
                self.metrics.observe("rollout_promote_seconds",
                                     report.seconds)
                return report
            if time.monotonic() >= deadline:
                report.error = failure
                return report
            time.sleep(self.poll_interval)

    # -- public API --------------------------------------------------------------------
    def rollout(self, version_path: Union[str, Path]) -> RolloutReport:
        """Promote ``version_path`` across the fleet, canary-first.

        Returns a :class:`RolloutReport` whose ``state`` ends at ``done``
        (every target healthy on the new version) or ``rolled_back``
        (every promoted target restored to its previous bytes and
        re-verified).  Raises :class:`RolloutError` only when the version
        file itself is unusable.
        """
        version_path = Path(version_path)
        if not version_path.is_file():
            raise RolloutError(f"version bundle not found: {version_path}")
        self.request_id = new_request_id()
        expect = self._version_of(version_path)
        report = RolloutReport(version_path=str(version_path))
        canary = next(t for t in self.targets if t.name == self.canary_name)
        rest = [t for t in self.targets if t.name != self.canary_name]
        promoted: List[RolloutTarget] = []

        self._set_state("canary")
        failed: Optional[TargetReport] = None
        for stage, target in [("canary", canary)] + \
                [("fanout", t) for t in rest]:
            if stage == "fanout" and self.state != "fanout":
                self._set_state("fanout")
            self._publish(target, version_path)
            promoted.append(target)
            target_report = self._verify(target, expect)
            target_report.promoted = True
            report.targets.append(target_report)
            log_event("rollout_target", target=target.name, stage=stage,
                      healthy=target_report.healthy,
                      seconds=round(target_report.seconds, 4),
                      error=target_report.error,
                      request_id=self.request_id)
            if not target_report.healthy:
                failed = target_report
                break
            self.metrics.inc_counter("rollout_promotions_total")

        if failed is None:
            for target in self.targets:
                self._discard_backup(target)
            self._set_state("done")
            report.state = self.state
            return report

        # Roll every promoted target back to its previous bytes, then
        # re-verify the fleet is coherent on the old version.
        self.metrics.inc_counter("rollout_rollbacks_total")
        for target in promoted:
            self._restore(target)
        for target in promoted:
            entry = next((t for t in report.targets
                          if t.name == target.name), None)
            restored = self._verify(target, expect_version=None)
            if entry is not None:
                entry.rolled_back = True
                entry.healthy = restored.healthy
                if restored.error:
                    entry.error = (entry.error or "") + \
                        f"; rollback verify failed: {restored.error}"
        self._set_state("rolled_back")
        report.state = self.state
        return report

    @staticmethod
    def _version_of(version_path: Path) -> Optional[int]:
        """Stream version encoded in a ``model-vNNNNN.npz`` file name."""
        match = _VERSION_RE.search(version_path.name)
        return int(match.group(1)) if match else None


__all__ = ["ROLLOUT_STATES", "RolloutCoordinator", "RolloutError",
           "RolloutReport", "RolloutTarget", "TargetReport"]
