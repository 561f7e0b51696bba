"""Mmap-backed per-process metric shards and their scrape-time aggregation.

The serving fleet (:mod:`repro.serve.fleet`) runs N worker processes behind
one ``SO_REUSEPORT`` socket, so a ``/metrics`` scrape lands on *one* worker.
To make the scrape fleet-wide anyway, every process appends its counters and
histograms to a private mmap-backed **shard file** in a shared directory
(Prometheus-multiprocess style, built on stdlib :mod:`mmap` plus NumPy —
no external client library).  Whichever worker answers the scrape reads all
live shards at that moment and emits per-``worker_id`` series plus fleet
totals.

Shard format (little-endian, fixed capacity, append-only)::

    offset 0   magic     b"RPROBS1\\n"           (8 bytes)
    offset 8   used      uint64 payload bytes    (8 bytes)
    offset 16  entries   back to back, each:
                 kind    uint32  (0 counter, 1 latency hist, 2 size hist,
                                  3 gauge)
                 n_slots uint32
                 key_len uint32
                 pad     uint32  (reserved, zero)
                 key     UTF-8, zero-padded to a multiple of 8 bytes
                 slots   n_slots x float64

Writers are single-process (guarded by an in-process lock); readers in
other processes may race them.  The ``used`` header is only advanced *after*
an entry's header+key+slots are fully written, so a reader never parses a
torn entry, and every slot is an aligned 8-byte float64 — on the platforms
we target an aligned 8-byte store is atomic, so a racing read observes the
old or the new value, never a mix (the same assumption the official
Prometheus multiprocess client makes).

Histograms store *non-cumulative* bucket counts plus ``sum`` and ``count``
slots; the cumulative ``le`` series Prometheus expects is computed at render
time.  Bucket bounds are fixed per kind (latency vs size) so shards from
different processes merge slot-by-slot.
"""

from __future__ import annotations

import mmap
import os
import re
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

MAGIC = b"RPROBS1\n"
HEADER_BYTES = 16
_ENTRY_HEADER = struct.Struct("<IIII")

KIND_COUNTER = 0
KIND_LATENCY = 1
KIND_SIZE = 2
KIND_GAUGE = 3

#: Upper bounds (seconds) for latency histograms — names ending ``_seconds``.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
#: Upper bounds for size histograms (batch sizes, document counts, ...).
SIZE_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

_BUCKETS_BY_KIND = {KIND_LATENCY: LATENCY_BUCKETS, KIND_SIZE: SIZE_BUCKETS}

DEFAULT_CAPACITY = 1 << 20

#: Stable file name the reaper merges dead workers' shards into.
REAPED_SHARD_NAME = "metrics-reaped.shard"

_SHARD_RE = re.compile(r"^metrics-(?P<label>[A-Za-z0-9_]+)-(?P<pid>\d+)\.shard$")


def histogram_kind(name: str) -> int:
    """Return the histogram kind (bucket set) used for metric ``name``."""
    return KIND_LATENCY if name.endswith("_seconds") else KIND_SIZE


def bucket_bounds(kind: int) -> Tuple[float, ...]:
    """Return the fixed upper bucket bounds for histogram ``kind``."""
    return _BUCKETS_BY_KIND[kind]


def bucket_quantile(bounds: Sequence[float], counts: Sequence[float],
                    q: float) -> Optional[float]:
    """Estimate the ``q``-th percentile from non-cumulative bucket counts.

    ``counts`` holds one count per bound in ``bounds`` plus a trailing
    overflow bucket.  The estimate interpolates linearly inside the bucket
    holding the target rank; observations in the overflow bucket report
    the largest finite bound (the estimate saturates rather than inventing
    a value beyond the instrumented range).  Returns ``None`` when the
    buckets hold no observations.

    Example
    -------
    >>> bucket_quantile((1.0, 2.0), (0.0, 4.0, 0.0), 50)
    1.5
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"quantile q must be in [0, 100], got {q}")
    total = float(sum(counts))
    if total <= 0.0:
        return None
    rank = (q / 100.0) * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and count > 0.0:
            if index >= len(bounds):  # overflow bucket: saturate
                return float(bounds[-1])
            lower = 0.0 if index == 0 else float(bounds[index - 1])
            upper = float(bounds[index])
            fraction = (rank - (cumulative - count)) / count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return float(bounds[-1])


def shard_path(directory: Union[str, Path], label: str,
               pid: Optional[int] = None) -> Path:
    """Return the shard file path for process ``pid`` labeled ``label``."""
    pid = os.getpid() if pid is None else pid
    return Path(directory) / f"metrics-{label}-{pid}.shard"


@dataclass(frozen=True)
class ShardEntry:
    """One parsed metric from a shard: its kind and a copy of its slots.

    For counters ``slots`` is a single value; for histograms it is
    ``[bucket_0 .. bucket_n, overflow, sum, count]`` with non-cumulative
    bucket counts.
    """

    kind: int
    slots: np.ndarray

    @property
    def value(self) -> float:
        """Counter value (only meaningful for ``KIND_COUNTER`` entries)."""
        return float(self.slots[0])

    @property
    def sum(self) -> float:
        """Histogram sum of observations."""
        return float(self.slots[-2])

    @property
    def count(self) -> float:
        """Histogram observation count."""
        return float(self.slots[-1])

    @property
    def bucket_counts(self) -> np.ndarray:
        """Non-cumulative bucket counts (including the overflow bucket)."""
        return self.slots[:-2]

    def merged(self, other: "ShardEntry") -> "ShardEntry":
        """Return a new entry combining ``other``'s slots with this one's.

        Counters and histograms add slot-wise; gauges take the element-wise
        maximum (a fleet "total" for a gauge like replication lag is the
        worst value across workers, not their sum).
        """
        if other.kind != self.kind or other.slots.shape != self.slots.shape:
            raise ValueError("cannot merge entries of different shapes")
        if self.kind == KIND_GAUGE:
            return ShardEntry(self.kind, np.maximum(self.slots, other.slots))
        return ShardEntry(self.kind, self.slots + other.slots)


class ShardWriter:
    """Single-writer, many-reader metric shard backed by an mmap.

    The package's one metrics store: the server, batcher, registry,
    stream, supervisor, log follower and rollout coordinator all record
    into a shard, and ``/metrics``, history, SLOs and the serving bench
    all read one back.

    With ``path=None`` the shard lives in anonymous memory — same write
    path, readable only in-process (the single-worker server uses this so
    one rendering pipeline serves both the 1-worker and N-worker cases).
    With a path, the file is created at fixed ``capacity`` and other
    processes read it concurrently.

    The writer is thread-safe within its process; a shard file must never
    have two writer processes (the fleet guarantees this by keying file
    names on pid).
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < HEADER_BYTES + 64:
            raise ValueError("shard capacity too small")
        self.path = Path(path) if path is not None else None
        self.capacity = capacity
        self._lock = threading.Lock()
        self._index: Dict[str, Tuple[int, int, int]] = {}  # name -> (off, kind, n)
        if self.path is None:
            self._file = None
            self._mmap = mmap.mmap(-1, capacity)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a+b")
            if os.fstat(self._file.fileno()).st_size < capacity:
                self._file.truncate(capacity)
            self._mmap = mmap.mmap(self._file.fileno(), capacity)
            existing = read_shard_bytes(bytes(self._mmap[:]))
            if existing:  # re-opened (restart with a recycled pid): reindex
                self._reindex()
        if self._mmap[:len(MAGIC)] != MAGIC:
            self._mmap[:len(MAGIC)] = MAGIC
            self._set_used(0)
        self._array = np.frombuffer(self._mmap, dtype=np.float64)

    def _used(self) -> int:
        return struct.unpack_from("<Q", self._mmap, 8)[0]

    def _set_used(self, used: int) -> None:
        struct.pack_into("<Q", self._mmap, 8, used)

    def _reindex(self) -> None:
        """Rebuild the name index from entries already in the file."""
        offset = HEADER_BYTES
        end = HEADER_BYTES + self._used()
        while offset < end:
            kind, n_slots, key_len, _ = _ENTRY_HEADER.unpack_from(
                self._mmap, offset)
            key_pad = -key_len % 8
            key = bytes(self._mmap[offset + 16:offset + 16 + key_len])
            slots_off = offset + 16 + key_len + key_pad
            self._index[key.decode("utf-8")] = (slots_off, kind, n_slots)
            offset = slots_off + 8 * n_slots

    def _entry(self, name: str, kind: int, n_slots: int) -> Tuple[int, int]:
        """Return ``(slot_offset, n_slots)`` for ``name``, appending if new."""
        found = self._index.get(name)
        if found is not None:
            return found[0], found[2]
        with self._lock:
            found = self._index.get(name)
            if found is not None:
                return found[0], found[2]
            key = name.encode("utf-8")
            key_pad = -len(key) % 8
            used = self._used()
            offset = HEADER_BYTES + used
            entry_bytes = 16 + len(key) + key_pad + 8 * n_slots
            if offset + entry_bytes > self.capacity:
                raise RuntimeError(
                    f"metric shard full ({self.capacity} bytes); "
                    f"cannot add {name!r}")
            _ENTRY_HEADER.pack_into(self._mmap, offset, kind, n_slots,
                                    len(key), 0)
            self._mmap[offset + 16:offset + 16 + len(key)] = key
            slots_off = offset + 16 + len(key) + key_pad
            self._mmap[slots_off:slots_off + 8 * n_slots] = b"\0" * (8 * n_slots)
            # Publish the entry only once fully written: readers stop at
            # `used`, so they can never parse a half-initialised entry.
            self._set_used(used + entry_bytes)
            self._index[name] = (slots_off, kind, n_slots)
            return slots_off, n_slots

    def inc_counter(self, name: str, by: float = 1.0) -> None:
        """Add ``by`` to counter ``name`` (created at 0 on first use)."""
        offset, _ = self._entry(name, KIND_COUNTER, 1)
        slot = offset // 8
        self._array[slot] += by

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins).

        Unlike counters, gauges overwrite their single slot — the aligned
        8-byte store keeps racing readers tear-free just like counter adds.
        """
        offset, _ = self._entry(name, KIND_GAUGE, 1)
        self._array[offset // 8] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation under ``name``.

        The bucket set is chosen from the name (``*_seconds`` → latency
        bounds, anything else → size bounds).
        """
        kind = histogram_kind(name)
        bounds = bucket_bounds(kind)
        n_slots = len(bounds) + 3  # buckets + overflow + sum + count
        offset, _ = self._entry(name, kind, n_slots)
        base = offset // 8
        bucket = int(np.searchsorted(bounds, value, side="left"))
        self._array[base + bucket] += 1.0
        self._array[base + n_slots - 2] += value
        self._array[base + n_slots - 1] += 1.0

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Observe the block's wall-clock seconds into histogram ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def value(self, name: str) -> float:
        """Current value of counter or gauge ``name`` (0 if never written).

        Example
        -------
        >>> shard = ShardWriter()
        >>> shard.inc_counter("requests_total", 2)
        >>> shard.value("requests_total")
        2.0
        """
        found = self._index.get(name)
        if found is None:
            return 0.0
        offset, kind, _ = found
        if kind not in (KIND_COUNTER, KIND_GAUGE):
            raise TypeError(f"{name!r} is a histogram, not a counter or gauge")
        return float(self._array[offset // 8])

    def merge_entries(self, entries: Dict[str, ShardEntry]) -> None:
        """Add ``entries``' slots into this shard (used by the reaper).

        Gauge entries are skipped: a dead worker's last gauge sample is
        stale by definition, and folding it into the accumulator would pin
        the fleet line to an old value forever.
        """
        for name, entry in entries.items():
            if entry.kind == KIND_GAUGE:
                continue
            offset, n_slots = self._entry(name, entry.kind,
                                          int(entry.slots.shape[0]))
            if n_slots != entry.slots.shape[0]:
                raise ValueError(f"slot count mismatch merging {name!r}")
            base = offset // 8
            self._array[base:base + n_slots] += entry.slots

    def read(self) -> Dict[str, ShardEntry]:
        """Parse this shard's current contents (copies the slots)."""
        return read_shard_bytes(bytes(self._mmap[:HEADER_BYTES + self._used()]))

    def flush(self) -> None:
        """Flush the mmap to disk (file-backed shards only)."""
        if self._file is not None:
            self._mmap.flush()

    def close(self, unlink: bool = False) -> None:
        """Release the mapping; optionally delete the backing file."""
        self._array = None
        try:
            self._mmap.close()
        except BufferError:  # pragma: no cover - stray numpy view alive
            pass
        if self._file is not None:
            self._file.close()
            if unlink and self.path is not None:
                try:
                    self.path.unlink()
                except OSError:
                    pass


def read_shard_bytes(data: bytes) -> Dict[str, ShardEntry]:
    """Parse raw shard ``data`` into ``{metric_name: ShardEntry}``.

    Tolerant of truncated or foreign files: anything without the magic
    header parses as empty rather than raising, so a scrape never fails
    because one shard is mid-creation.
    """
    entries: Dict[str, ShardEntry] = {}
    if len(data) < HEADER_BYTES or data[:len(MAGIC)] != MAGIC:
        return entries
    used = struct.unpack_from("<Q", data, 8)[0]
    end = min(HEADER_BYTES + used, len(data))
    offset = HEADER_BYTES
    while offset + 16 <= end:
        kind, n_slots, key_len, _ = _ENTRY_HEADER.unpack_from(data, offset)
        key_pad = -key_len % 8
        slots_off = offset + 16 + key_len + key_pad
        entry_end = slots_off + 8 * n_slots
        if entry_end > end or n_slots == 0:
            break
        name = data[offset + 16:offset + 16 + key_len].decode(
            "utf-8", errors="replace")
        slots = np.frombuffer(data, dtype=np.float64, count=n_slots,
                              offset=slots_off).copy()
        entries[name] = ShardEntry(kind, slots)
        offset = entry_end
    return entries


def read_shard_file(path: Union[str, Path]) -> Dict[str, ShardEntry]:
    """Read and parse one shard file (empty dict if unreadable)."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return {}
    return read_shard_bytes(data)


def parse_shard_name(path: Union[str, Path]) -> Optional[Tuple[str, int]]:
    """Return ``(label, pid)`` for a worker shard file name, else ``None``."""
    match = _SHARD_RE.match(Path(path).name)
    if match is None:
        return None
    return match.group("label"), int(match.group("pid"))


@dataclass
class FleetSample:
    """One scrape-time view of every shard: per-worker series plus reaped.

    ``workers`` maps a worker label (``"0"``, ``"1"``, ``"stream"``, ...) to
    its parsed entries; ``reaped`` holds totals merged from dead workers'
    shards, which the renderer folds into fleet totals so counters survive
    worker restarts.
    """

    workers: Dict[str, Dict[str, ShardEntry]]
    reaped: Dict[str, ShardEntry]

    def totals(self) -> Dict[str, ShardEntry]:
        """Merge every worker plus the reaped accumulator slot-wise."""
        merged: Dict[str, ShardEntry] = {}
        sources: List[Dict[str, ShardEntry]] = list(self.workers.values())
        sources.append(self.reaped)
        for entries in sources:
            for name, entry in entries.items():
                if name in merged:
                    merged[name] = merged[name].merged(entry)
                else:
                    merged[name] = ShardEntry(entry.kind, entry.slots.copy())
        return merged


def collect_shards(directory: Optional[Union[str, Path]] = None,
                   inline: Sequence[Tuple[str, ShardWriter]] = ()
                   ) -> FleetSample:
    """Gather a :class:`FleetSample` from ``directory`` plus in-process shards.

    ``inline`` entries (label, writer) cover anonymous shards that have no
    file — the answering worker always passes its own writer here, so its
    freshest values win over the possibly-staler file view.
    """
    workers: Dict[str, Dict[str, ShardEntry]] = {}
    reaped: Dict[str, ShardEntry] = {}
    if directory is not None and Path(directory).is_dir():
        for path in sorted(Path(directory).iterdir()):
            if path.name == REAPED_SHARD_NAME:
                for name, entry in read_shard_file(path).items():
                    reaped[name] = (reaped[name].merged(entry)
                                    if name in reaped else entry)
                continue
            parsed = parse_shard_name(path)
            if parsed is None:
                continue
            label, _ = parsed
            entries = read_shard_file(path)
            if label in workers:
                for name, entry in entries.items():
                    workers[label] = dict(workers[label])
                    workers[label][name] = (
                        workers[label][name].merged(entry)
                        if name in workers[label] else entry)
            else:
                workers[label] = entries
    for label, writer in inline:
        workers[label] = writer.read()
    return FleetSample(workers=workers, reaped=reaped)


def reap_stale_shards(directory: Union[str, Path],
                      live_pids: Iterable[int]) -> List[Path]:
    """Fold dead workers' shards into the reaped accumulator, then delete.

    ``live_pids`` are the pids the fleet monitor currently tracks; any
    worker shard whose pid is not in the set (and not this process) is
    merged into ``metrics-reaped.shard`` so its counter totals keep
    contributing to the fleet ``_total`` series, and its file is removed.
    Returns the paths reaped.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    live = set(live_pids) | {os.getpid()}
    reaped: List[Path] = []
    accumulator: Optional[ShardWriter] = None
    try:
        for path in sorted(directory.iterdir()):
            parsed = parse_shard_name(path)
            if parsed is None or parsed[1] in live:
                continue
            entries = read_shard_file(path)
            if entries:
                if accumulator is None:
                    accumulator = ShardWriter(directory / REAPED_SHARD_NAME)
                accumulator.merge_entries(entries)
            try:
                path.unlink()
            except OSError:
                continue
            reaped.append(path)
    finally:
        if accumulator is not None:
            accumulator.flush()
            accumulator.close()
    return reaped
