"""Metrics history: an append-only, size-bounded ring of fleet samples.

A ``/metrics`` scrape is point-in-time — it can say *how many* requests
failed since the fleet started, never whether the failure **rate** is
rising right now.  :class:`HistoryRecorder` closes that gap: a background
thread (the fleet parent in multi-process mode, the server itself
otherwise) samples the aggregated shard state every
``ServeConfig.history_interval_seconds`` and appends one fixed-width
binary **frame** per sample into segment files under
``<metrics_dir>/history/``.  :func:`read_window` turns any lookback over
those frames into rates, deltas, and histogram-quantile estimates — the
raw material of the SLO engine (:mod:`repro.obs.slo`).

Crash safety mirrors :class:`~repro.stream.log.DocumentLog` and the
metric shards themselves:

* every frame carries a trailing CRC-32 over its payload, and readers
  stop at the first frame that is short or fails its checksum — a SIGKILL
  mid-frame-write loses at most the frame being written, never tears an
  earlier one;
* segments are created atomically (header written to a ``.tmp`` file,
  then ``os.replace``), so a SIGKILL mid-rotation leaves at worst an
  orphaned temp file that the next rotation removes;
* the ring is bounded: segments rotate at ``max_frames_per_segment``
  frames and only the newest ``max_segments`` survive, so history can
  never grow without bound.

Multiprocess correctness: frames record the **fleet totals**
(:meth:`~repro.obs.shards.FleetSample.totals`), which fold the reaped
accumulator in, so counter series stay monotone across worker deaths;
:class:`HistoryWindow` additionally clamps every delta at zero, so even a
regressing series (a gauge vanishing with its worker, an operator
deleting the reaped shard) can never fabricate a negative rate.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.shards import (KIND_COUNTER, KIND_GAUGE, ShardEntry,
                              ShardWriter, bucket_bounds, bucket_quantile,
                              collect_shards, histogram_kind)

#: Magic bytes opening every history segment file.
HISTORY_MAGIC = b"RPROHIS1"

#: Directory (under the metrics directory) holding the segment ring.
HISTORY_DIRNAME = "history"

_SEGMENT_TEMPLATE = "history-{index:08d}.seg"
_SEGMENT_GLOB = "history-*.seg"
_HEADER_PREFIX = struct.Struct("<II")  # header_len, reserved

#: Column-name prefixes encoding the metric kind a column was sampled from.
_COUNTER_PREFIX = "c:"
_GAUGE_PREFIX = "g:"
_HIST_PREFIX = "h:"


def history_dir(metrics_dir: Union[str, Path]) -> Path:
    """Return the history directory under ``metrics_dir``."""
    return Path(metrics_dir) / HISTORY_DIRNAME


def _flatten_totals(totals: Dict[str, ShardEntry]) -> Dict[str, float]:
    """Flatten fleet totals into the flat ``column -> value`` frame form.

    Counters become ``c:<name>``, gauges ``g:<name>``; a histogram expands
    to ``h:<name>:sum`` / ``h:<name>:count`` plus one ``h:<name>:<i>``
    column per (non-cumulative) bucket including the overflow bucket, so a
    window can difference buckets and estimate quantiles.
    """
    columns: Dict[str, float] = {}
    for name in sorted(totals):
        entry = totals[name]
        if entry.kind == KIND_COUNTER:
            columns[_COUNTER_PREFIX + name] = entry.value
        elif entry.kind == KIND_GAUGE:
            columns[_GAUGE_PREFIX + name] = entry.value
        else:
            columns[f"{_HIST_PREFIX}{name}:sum"] = entry.sum
            columns[f"{_HIST_PREFIX}{name}:count"] = entry.count
            for index, count in enumerate(entry.bucket_counts):
                columns[f"{_HIST_PREFIX}{name}:{index}"] = float(count)
    return columns


class _Segment:
    """One open history segment: fixed column schema, append-only frames."""

    def __init__(self, path: Path, columns: Sequence[str]) -> None:
        self.path = path
        self.columns = tuple(columns)
        self.n_frames = 0
        header = "\n".join(self.columns).encode("utf-8")
        blob = HISTORY_MAGIC + _HEADER_PREFIX.pack(len(header), 0) + header
        # Atomic creation: a reader (or a post-crash reopen) either sees a
        # complete header or no segment at all — never a torn one.
        temporary = path.with_name(path.name + ".tmp")
        temporary.write_bytes(blob)
        os.replace(temporary, path)
        self._file = open(path, "ab")

    def append(self, timestamp: float, values: Sequence[float]) -> None:
        """Append one CRC-guarded frame (timestamp + one value per column)."""
        payload = struct.pack(f"<{1 + len(values)}d", timestamp, *values)
        frame = payload + struct.pack("<Q", zlib.crc32(payload))
        self._file.write(frame)
        self._file.flush()
        self.n_frames += 1

    def close(self) -> None:
        """Close the underlying file handle."""
        self._file.close()


def _read_segment(path: Path) -> List[Tuple[float, Dict[str, float]]]:
    """Parse one segment into ``[(timestamp, {column: value}), ...]``.

    Tolerant by construction: a missing/foreign header parses as empty,
    and reading stops at the first short or CRC-failing frame (appends are
    sequential, so only the final frame can be torn).
    """
    try:
        data = path.read_bytes()
    except OSError:
        return []
    prefix_end = len(HISTORY_MAGIC) + _HEADER_PREFIX.size
    if len(data) < prefix_end or not data.startswith(HISTORY_MAGIC):
        return []
    header_len, _ = _HEADER_PREFIX.unpack_from(data, len(HISTORY_MAGIC))
    frames_start = prefix_end + header_len
    if frames_start > len(data):
        return []
    header = data[prefix_end:frames_start].decode("utf-8", errors="replace")
    columns = [column for column in header.split("\n") if column]
    frame_size = 8 * (1 + len(columns)) + 8  # ts + values + crc
    frames: List[Tuple[float, Dict[str, float]]] = []
    offset = frames_start
    while offset + frame_size <= len(data):
        payload = data[offset:offset + frame_size - 8]
        (crc,) = struct.unpack_from("<Q", data, offset + frame_size - 8)
        if crc != zlib.crc32(payload):
            break
        unpacked = struct.unpack(f"<{1 + len(columns)}d", payload)
        frames.append((unpacked[0], dict(zip(columns, unpacked[1:]))))
        offset += frame_size
    return frames


def _segment_index(path: Path) -> int:
    """Ring position encoded in a segment file name (-1 when foreign)."""
    stem = path.name
    if not (stem.startswith("history-") and stem.endswith(".seg")):
        return -1
    try:
        return int(stem[len("history-"):-len(".seg")])
    except ValueError:
        return -1


def read_history(directory: Union[str, Path]
                 ) -> List[Tuple[float, Dict[str, float]]]:
    """Read every committed frame under ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    segments = sorted((path for path in directory.glob(_SEGMENT_GLOB)
                       if _segment_index(path) >= 0), key=_segment_index)
    frames: List[Tuple[float, Dict[str, float]]] = []
    for segment in segments:
        frames.extend(_read_segment(segment))
    return frames


class HistoryWindow:
    """Rates, deltas, and quantile estimates over a slice of history.

    Every delta is clamped at zero: fleet counter totals are monotone by
    construction (the reaper folds dead workers' counts into the
    accumulator), but a window must stay safe even against regressing
    input — a negative rate is never a valid answer.
    """

    def __init__(self, frames: Sequence[Tuple[float, Dict[str, float]]]
                 ) -> None:
        self.frames = list(frames)

    @property
    def n_frames(self) -> int:
        """Number of committed frames inside the window."""
        return len(self.frames)

    def span_seconds(self) -> float:
        """Wall-clock distance between the first and last frame."""
        if len(self.frames) < 2:
            return 0.0
        return max(0.0, self.frames[-1][0] - self.frames[0][0])

    def _delta(self, column: str) -> Optional[float]:
        """Last-minus-first value of ``column``, clamped at zero."""
        values = [frame[column] for _, frame in self.frames
                  if column in frame]
        if len(values) < 2:
            return None
        return max(0.0, values[-1] - values[0])

    def counter_delta(self, name: str) -> Optional[float]:
        """Increase of counter ``name`` across the window (never negative)."""
        return self._delta(_COUNTER_PREFIX + name)

    def counter_rate(self, name: str) -> Optional[float]:
        """Per-second increase of counter ``name`` (never negative)."""
        delta = self.counter_delta(name)
        span = self.span_seconds()
        if delta is None or span <= 0.0:
            return None
        return delta / span

    def gauge_latest(self, name: str) -> Optional[float]:
        """Most recent sample of gauge ``name`` inside the window."""
        column = _GAUGE_PREFIX + name
        for _, frame in reversed(self.frames):
            if column in frame:
                return frame[column]
        return None

    def histogram_count_delta(self, name: str) -> Optional[float]:
        """Observations recorded into histogram ``name`` over the window."""
        return self._delta(f"{_HIST_PREFIX}{name}:count")

    def histogram_mean(self, name: str) -> Optional[float]:
        """Mean observed value over the window (sum delta / count delta)."""
        count = self._delta(f"{_HIST_PREFIX}{name}:count")
        total = self._delta(f"{_HIST_PREFIX}{name}:sum")
        if not count or total is None:
            return None
        return total / count

    def quantile(self, name: str, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile of histogram ``name``.

        Differences each (non-cumulative) bucket across the window,
        clamps per-bucket deltas at zero, and estimates the quantile from
        those deltas with :func:`~repro.obs.shards.bucket_quantile` (the
        same estimator the serving bench applies to a live shard).
        Returns ``None`` when the window recorded no observations.
        """
        bounds = bucket_bounds(histogram_kind(name))
        deltas: List[float] = []
        for index in range(len(bounds) + 1):  # + overflow
            delta = self._delta(f"{_HIST_PREFIX}{name}:{index}")
            if delta is None:
                return None
            deltas.append(delta)
        return bucket_quantile(bounds, deltas, q)

    def ratio(self, numerator: str,
              denominators: Sequence[str]) -> Optional[float]:
        """Windowed counter ratio ``Δnum / Σ Δdenominators``.

        Returns ``0.0`` when the denominator delta is zero (no traffic
        means no budget burned) and ``None`` when any series is missing.
        """
        top = self.counter_delta(numerator)
        if top is None:
            return None
        bottom = 0.0
        for name in denominators:
            delta = self.counter_delta(name)
            if delta is None:
                return None
            bottom += delta
        if bottom <= 0.0:
            return 0.0
        return min(top / bottom, 1.0)


def read_window(directory: Union[str, Path],
                seconds: Optional[float] = None) -> HistoryWindow:
    """Return a :class:`HistoryWindow` over the last ``seconds`` of history.

    ``seconds=None`` selects every committed frame.  The lookback anchors
    at the newest frame's timestamp (not the caller's clock), so a paused
    recorder still yields its full trailing window.
    """
    frames = read_history(directory)
    if seconds is not None and frames:
        horizon = frames[-1][0] - seconds
        frames = [frame for frame in frames if frame[0] >= horizon]
    return HistoryWindow(frames)


class HistoryRecorder:
    """Background sampler appending fleet-total frames to the history ring.

    Exactly one recorder may write a metrics directory's history at a
    time: the fleet parent in multi-process mode, the server itself when
    in-process.  ``inline`` shards (label, writer) cover the in-process
    case where the server's own shard is the freshest source, mirroring
    :func:`~repro.obs.shards.collect_shards`.

    Parameters
    ----------
    metrics_dir:
        The fleet's metrics directory; frames land under its
        ``history/`` subdirectory.
    interval:
        Seconds between samples (``ServeConfig.history_interval_seconds``).
    inline:
        Extra in-process shard writers to fold into every sample.
    max_frames_per_segment / max_segments:
        Ring bounds: segments rotate at the frame cap and only the newest
        ``max_segments`` files survive a rotation.
    clock:
        Timestamp source (epoch seconds); injectable for tests.
    """

    def __init__(self, metrics_dir: Union[str, Path], interval: float, *,
                 inline: Sequence[Tuple[str, ShardWriter]] = (),
                 max_frames_per_segment: int = 512,
                 max_segments: int = 16,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if interval <= 0:
            raise ValueError("history interval must be > 0")
        if max_frames_per_segment < 1 or max_segments < 1:
            raise ValueError("history ring bounds must be >= 1")
        self.metrics_dir = Path(metrics_dir)
        self.directory = history_dir(metrics_dir)
        self.interval = float(interval)
        self.inline = tuple(inline)
        self.max_frames_per_segment = max_frames_per_segment
        self.max_segments = max_segments
        self._clock = clock if clock is not None else time.time
        self._segment: Optional[_Segment] = None
        self._next_index = max(
            (_segment_index(path) for path in
             self.directory.glob(_SEGMENT_GLOB)), default=-1) + 1
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- sampling ----------------------------------------------------------------------
    def sample_once(self) -> Dict[str, float]:
        """Take one sample now and append its frame (returns the columns)."""
        sample = collect_shards(self.metrics_dir, inline=self.inline)
        columns = _flatten_totals(sample.totals())
        with self._lock:
            self._append(self._clock(), columns)
        return columns

    def _append(self, timestamp: float, columns: Dict[str, float]) -> None:
        names = tuple(sorted(columns))
        segment = self._segment
        if segment is None or segment.columns != names or \
                segment.n_frames >= self.max_frames_per_segment:
            self._rotate(names)
            segment = self._segment
        segment.append(timestamp, [columns[name] for name in segment.columns])

    def _rotate(self, columns: Tuple[str, ...]) -> None:
        """Open the next segment and trim the ring (atomic per segment)."""
        if self._segment is not None:
            self._segment.close()
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / _SEGMENT_TEMPLATE.format(
            index=self._next_index)
        self._next_index += 1
        self._segment = _Segment(path, columns)
        kept = sorted((candidate for candidate in
                       self.directory.glob(_SEGMENT_GLOB)
                       if _segment_index(candidate) >= 0),
                      key=_segment_index)
        for stale in kept[:-self.max_segments]:
            try:
                stale.unlink()
            except OSError:
                pass
        for orphan in self.directory.glob(_SEGMENT_GLOB + ".tmp"):
            try:
                orphan.unlink()
            except OSError:
                pass

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> None:
        """Start the background sampling thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="history-recorder", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # sampling must never kill the owner
                pass

    def stop(self) -> None:
        """Stop the thread and close the open segment (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        with self._lock:
            if self._segment is not None:
                self._segment.close()
                self._segment = None

    def window(self, seconds: Optional[float] = None) -> HistoryWindow:
        """Read back a window over this recorder's directory."""
        return read_window(self.directory, seconds)


__all__ = ["HISTORY_DIRNAME", "HistoryRecorder", "HistoryWindow",
           "history_dir", "read_history", "read_window"]
