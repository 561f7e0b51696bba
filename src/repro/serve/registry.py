"""Versioned-bundle model registry: load-on-demand, hot-reload, LRU cap.

The serving layer never constructs models; it *loads* the ``.npz`` + JSON
artifact bundles written by ``repro mine`` / ``repro fit``
(:mod:`repro.io.artifacts`) into immutable :class:`LoadedModel` holders
that every server thread shares read-only.  The registry guarantees:

* **Load-on-demand with an LRU cap** — bundles are registered cheaply by
  path and loaded on first use; at most ``capacity`` models stay resident,
  the least-recently-used being evicted when a new load would exceed it.
* **Hot-reload** — every :meth:`ModelRegistry.get` stats the backing file;
  if it changed on disk (mtime or size), the bundle is reloaded so a
  retrained model goes live without a server restart.
* **Single-flight, zero-downtime swaps** — when a file change is detected
  under concurrent traffic, exactly *one* thread loads the new version;
  every other request keeps being answered from the still-resident
  previous version until the swap completes (``registry_stale_hits_total``
  counts those).  A publish therefore never stalls the request path behind
  a stampede of duplicate loads, and never surfaces an error window — the
  property the streaming layer's atomic ``current.npz`` publishes
  (:mod:`repro.stream.updater`) rely on.
* **Immutability by convention** — a :class:`LoadedModel` is a frozen
  dataclass whose arrays are treated strictly read-only (fold-in never
  mutates trained counts), so concurrent requests share one copy safely.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.infer import TopicInferencer
from repro.io.artifacts import (
    ArtifactError,
    Bundle,
    ModelBundle,
    load_bundle,
    read_manifest,
)
from repro.obs.shards import ShardWriter


class UnknownModelError(KeyError):
    """A model name that was never registered was requested."""


@dataclass(frozen=True)
class LoadedModel:
    """One bundle resident in memory, shared read-only across threads.

    Attributes
    ----------
    name:
        Registry name the model is addressed by.
    path:
        Backing bundle file.
    kind:
        ``"model"`` or ``"segmentation"`` (segmentation bundles can serve
        ``/v1/segment`` but not inference or topics).
    bundle:
        The loaded :class:`~repro.io.artifacts.ModelBundle` or
        :class:`~repro.io.artifacts.SegmentationBundle`.
    inferencer:
        A ready :class:`~repro.core.infer.TopicInferencer`.  For
        segmentation-kind bundles it carries no trained state and supports
        only ``segment_texts`` (callers must gate fold-in on ``kind``).
    stat_signature:
        ``(mtime_ns, size)`` of the file at load time — the hot-reload
        fingerprint.
    loaded_at:
        Unix timestamp of the load.
    """

    name: str
    path: Path
    kind: str
    bundle: Bundle
    inferencer: Optional[TopicInferencer]
    stat_signature: tuple
    loaded_at: float = field(default_factory=time.time)

    @property
    def n_topics(self) -> Optional[int]:
        """Number of topics for model bundles, ``None`` for segmentations."""
        return self.bundle.n_topics if self.kind == "model" else None

    def describe(self) -> Dict[str, Any]:
        """Return the JSON-friendly description used by ``/v1/models``.

        Resident bundles report their hot-reload fingerprint
        (``resident_signature``) and, for stream-published bundles, the
        ``stream_version`` they were loaded from (``resident_version``) —
        the fields a fleet observer compares across workers to watch a
        publish land everywhere.  Stream-published bundles additionally
        report ``published_at`` (stamped into the bundle metadata at
        publish time) and ``swap_lag_seconds``, how long the publish took
        to become this worker's resident copy.
        """
        info: Dict[str, Any] = {
            "name": self.name,
            "path": str(self.path),
            "kind": self.kind,
            "loaded": True,
            "loaded_at": self.loaded_at,
            "vocabulary_size": len(self.bundle.vocabulary),
            "metadata": dict(self.bundle.metadata),
            "resident_signature": list(self.stat_signature),
            "resident_version": self.bundle.metadata.get("stream_version"),
        }
        published_at = self.bundle.metadata.get("published_at")
        info["published_at"] = published_at
        info["swap_lag_seconds"] = (
            max(0.0, self.loaded_at - float(published_at))
            if isinstance(published_at, (int, float)) else None)
        if self.kind == "model":
            info["n_topics"] = self.n_topics
        return info


def _stat_signature(path: Path) -> tuple:
    """Return the ``(mtime_ns, size)`` hot-reload fingerprint of ``path``."""
    stat = os.stat(path)
    return (stat.st_mtime_ns, stat.st_size)


class ModelRegistry:
    """Thread-safe name → bundle registry with LRU residency and hot-reload.

    Parameters
    ----------
    capacity:
        Maximum number of bundles resident at once; the least-recently-used
        is evicted when a load would exceed it.
    metrics:
        Optional shared :class:`~repro.obs.shards.ShardWriter`; the
        registry records ``registry_loads_total``, ``registry_reloads_total``,
        ``registry_evictions_total``, ``registry_hits_total`` and
        ``registry_stale_hits_total`` (requests answered from the previous
        version while a single-flight reload was in progress) counters plus
        ``registry_load_seconds`` latencies into it.
    """

    def __init__(self, capacity: int = 4,
                 metrics: Optional[ShardWriter] = None) -> None:
        if capacity < 1:
            raise ValueError("registry capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics or ShardWriter()
        self._sources: Dict[str, Path] = {}
        self._loaded: "OrderedDict[str, LoadedModel]" = OrderedDict()
        self._lock = threading.Lock()
        # name -> Event set when that name's in-flight load finishes; the
        # presence of a key marks a load in progress (single-flight gate).
        self._inflight: Dict[str, threading.Event] = {}

    # -- registration ------------------------------------------------------------------
    def register(self, name: str, path: Union[str, Path]) -> None:
        """Register a bundle file under ``name`` (loaded lazily on first use).

        Re-registering an existing name atomically swaps its source path
        and drops any stale resident copy.
        """
        path = Path(path)
        if not name:
            raise ValueError("model name must be non-empty")
        with self._lock:
            self._sources[name] = path
            self._loaded.pop(name, None)

    def register_directory(self, root: Union[str, Path]) -> List[str]:
        """Register every ``*.npz`` under ``root`` (non-recursive), named by
        file stem; returns the sorted list of newly visible names."""
        root = Path(root)
        if not root.is_dir():
            raise ArtifactError(f"model directory not found: {root}")
        names = []
        for path in sorted(root.glob("*.npz")):
            self.register(path.stem, path)
            names.append(path.stem)
        return names

    def names(self) -> List[str]:
        """All registered model names, sorted."""
        with self._lock:
            return sorted(self._sources)

    def loaded_names(self) -> List[str]:
        """Names currently resident, least- to most-recently used."""
        with self._lock:
            return list(self._loaded)

    def default_name(self) -> Optional[str]:
        """The registry's implied default: its single name, else ``None``."""
        with self._lock:
            if len(self._sources) == 1:
                return next(iter(self._sources))
        return None

    # -- access ------------------------------------------------------------------------
    def get(self, name: str) -> LoadedModel:
        """Return the resident model for ``name``, loading or reloading it.

        Stats the backing file on every call: an unchanged resident copy is
        returned as-is (LRU-touched); a changed file triggers a reload (hot
        reload); a first use triggers a load, evicting the LRU entry when
        the capacity cap would be exceeded.

        Reloads are **single-flight**: under concurrent traffic exactly one
        thread performs the load while the others are answered from the
        still-resident previous version (or, on a cold first load, wait for
        the loader to finish).  A bundle publish under load therefore
        swaps versions without an error or latency window.

        Raises
        ------
        UnknownModelError
            If ``name`` was never registered.
        repro.io.artifacts.ArtifactError
            If the backing bundle is missing or invalid.
        """
        with self._lock:
            source = self._sources.get(name)
        if source is None:
            raise UnknownModelError(
                f"unknown model {name!r}; registered: {self.names()}")
        try:
            signature = _stat_signature(source)
        except OSError as exc:
            raise ArtifactError(f"bundle not found: {source}") from exc

        while True:
            with self._lock:
                resident = self._loaded.get(name)
                if resident is not None and resident.stat_signature == signature \
                        and resident.path == source:
                    self._loaded.move_to_end(name)
                    self.metrics.inc_counter("registry_hits_total")
                    return resident
                inflight = self._inflight.get(name)
                if inflight is None:
                    # This thread becomes the (sole) loader.
                    self._inflight[name] = threading.Event()
                    break
                if resident is not None:
                    # Another thread is already swapping the new version
                    # in; answer from the previous one — zero downtime.
                    self._loaded.move_to_end(name)
                    self.metrics.inc_counter("registry_stale_hits_total")
                    return resident
            # Cold load in progress and nothing resident: wait for the
            # loader, then re-check (it may have failed — loop and retry).
            inflight.wait()

        try:
            loaded = self._load(name, source, signature,
                                reload=resident is not None)
            with self._lock:
                self._loaded[name] = loaded
                self._loaded.move_to_end(name)
                while len(self._loaded) > self.capacity:
                    evicted, _ = self._loaded.popitem(last=False)
                    self.metrics.inc_counter("registry_evictions_total")
        finally:
            with self._lock:
                self._inflight.pop(name).set()
        return loaded

    def _load(self, name: str, path: Path, signature: tuple,
              reload: bool) -> LoadedModel:
        """Load ``path`` into a fresh :class:`LoadedModel` (outside the lock)."""
        with self.metrics.timer("registry_load_seconds"):
            bundle = load_bundle(path)
        if isinstance(bundle, ModelBundle):
            try:
                inferencer = bundle.inferencer()
            except ValueError as exc:
                # load_bundle stays permissive (``repro topics`` reads such
                # a bundle), but one that cannot fold in is not servable.
                raise ArtifactError(f"{path}: cannot serve this model: {exc}") from exc
        else:
            # Segmentation bundles segment but never fold in: build the
            # stateless inferencer once here so /v1/segment does not pay
            # segmenter construction per request.
            inferencer = TopicInferencer(
                state=None, segmenter=bundle.segmenter(),
                vocabulary=bundle.vocabulary, preprocess=bundle.preprocess)
        self.metrics.inc_counter("registry_reloads_total" if reload
                               else "registry_loads_total")
        loaded = LoadedModel(name=name, path=path, kind=bundle.kind,
                             bundle=bundle, inferencer=inferencer,
                             stat_signature=signature)
        published_at = bundle.metadata.get("published_at")
        if isinstance(published_at, (int, float)):
            # Publish-to-resident lag of a stream bundle: how long the
            # published version waited before this process swapped it in.
            self.metrics.observe(
                "registry_swap_lag_seconds",
                max(0.0, loaded.loaded_at - float(published_at)))
        return loaded

    def describe_all(self) -> List[Dict[str, Any]]:
        """Describe every registered model for ``/v1/models``.

        Up-to-date resident models are described from memory; everything
        else — never-loaded names, and resident copies whose backing file
        changed on disk since the load (a bundle was published but no
        request has triggered the hot-reload yet) — from a cheap
        manifest-only read (:func:`repro.io.artifacts.read_manifest`), so
        the listing always reflects the *current* file.  That is what lets
        an observer poll ``/v1/models`` to watch a stream publish land,
        independent of inference traffic.  Unreadable bundles are reported
        with an ``"error"`` field rather than failing the whole listing.
        """
        with self._lock:
            sources = dict(self._sources)
            loaded = dict(self._loaded)
        descriptions = []
        for name in sorted(sources):
            source = sources[name]
            resident = loaded.get(name)
            if resident is not None and resident.path == source:
                try:
                    signature = _stat_signature(source)
                except OSError:
                    signature = None
                if signature == resident.stat_signature:
                    descriptions.append(resident.describe())
                    continue
            info: Dict[str, Any] = {"name": name, "path": str(source),
                                    "loaded": resident is not None}
            if resident is not None:
                # A newer file was published; the resident copy still
                # serves until the next request hot-swaps it.
                info["stale"] = True
            try:
                manifest = read_manifest(source)
            except ArtifactError as exc:
                info["error"] = str(exc)
            else:
                info["kind"] = manifest["kind"]
                info["metadata"] = dict(manifest.get("metadata", {}))
                info["published_at"] = info["metadata"].get("published_at")
                if manifest["kind"] == "model":
                    info["n_topics"] = manifest["model"].get("n_topics")
            descriptions.append(info)
        return descriptions
