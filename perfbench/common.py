"""Helpers shared by the benchmark's workloads (stdlib only).

Everything here runs in the load-generating benchmark process, never in the
system under test: order statistics and the tail rule, seeded schedules,
lateness accounting, the ``/metrics`` delta parser, ``/proc`` readers for
the system-under-test processes, the host-drift calibration loop, a minimal
keep-alive HTTP client and the subprocess plumbing that starts ``repro``
processes with a pinned environment.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent

# Percentiles a tail may be reported at, highest first.  A run reports the
# highest one that still has TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0)
TAIL_MIN_BEYOND = 10

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass
class Context:
    """What one benchmark run was asked for."""

    repo: Path
    work: Path
    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    """What one workload measured.

    ``metrics`` holds the end-to-end metrics, ``layers`` the per-layer ones
    (traced runs), ``detail`` everything else worth printing: tails with
    their sample counts, workload-specific latencies and lateness.
    """

    attempted: int
    failed: int
    metrics: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)


# -- order statistics ----------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))  # 99.9% of 10000 is 9990


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of a non-empty sample."""
    ordered = sorted(values)
    return float(ordered[_rank(p, len(ordered)) - 1])


@dataclass(frozen=True)
class Tail:
    """A tail latency together with the sample that supports it."""

    percentile: float
    value: float
    n_samples: int
    n_beyond: int

    def as_dict(self) -> Dict[str, float]:
        return {"percentile": self.percentile, "value": self.value,
                "n_samples": self.n_samples, "n_beyond": self.n_beyond}


def tail(values: Sequence[float], ladder: Sequence[float] = TAIL_LADDER,
         min_beyond: int = TAIL_MIN_BEYOND) -> Optional[Tail]:
    """The highest ladder percentile with ``min_beyond`` samples above it.

    Returns ``None`` when even the lowest ladder percentile rests on fewer
    samples: such a tail is omitted, never reported.
    """
    n = len(values)
    ordered = sorted(values)
    for p in ladder:
        rank = _rank(p, n)
        if n - rank >= min_beyond:
            return Tail(p, float(ordered[rank - 1]), n, n - rank)
    return None


# -- seeded open-loop schedules ------------------------------------------------------
@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due ``offset`` seconds after the window opens."""

    offset: float
    documents: Tuple[int, ...]


def poisson_schedule(seed: int, rate: float, duration: float, n_pool: int,
                     docs_per_request: Tuple[int, int] = (1, 4)) -> List[Arrival]:
    """A Poisson arrival schedule at ``rate``/s over ``duration`` seconds.

    Each arrival names ``docs_per_request`` (inclusive range) documents drawn
    from a pool of ``n_pool``.  The same arguments always give the same
    schedule.
    """
    rng = random.Random(seed)
    arrivals: List[Arrival] = []
    offset = rng.expovariate(rate)
    low, high = docs_per_request
    while offset < duration:
        count = rng.randint(low, high)
        arrivals.append(Arrival(offset, tuple(rng.randrange(n_pool)
                                              for _ in range(count))))
        offset += rng.expovariate(rate)
    return arrivals


def request_sequence(seed: int, n_pool: int,
                     docs_per_request: Tuple[int, int] = (1, 4)) -> Iterator[Tuple[int, ...]]:
    """An endless seeded sequence of closed-loop requests.

    Each names ``docs_per_request`` (inclusive range) documents drawn from a
    pool of ``n_pool``; the same seed always gives the same sequence.
    """
    rng = random.Random(seed)
    low, high = docs_per_request
    while True:
        count = rng.randint(low, high)
        yield tuple(rng.randrange(n_pool) for _ in range(count))


@dataclass(frozen=True)
class Timing:
    """Client-side timestamps of one op (``perf_counter`` seconds).

    A closed-loop op is due when it is sent.
    """

    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from when the op was *due* to its completion.

        Timing from the due time, not the send time, charges a stall to
        every op queued behind it (no coordinated omission).
        """
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """Seconds the generator sent the op after it was due."""
        return max(0.0, self.sent - self.due)


def latency_summary(timings: Sequence[Timing], prefix: str) -> Dict[str, object]:
    """p50 / tail of due-time latency plus generator lateness, in ms.

    A failed op counts as missing any latency limit, so it enters the
    sample as an infinite latency.
    """
    latencies = [t.latency * 1000.0 if t.ok else math.inf for t in timings]
    late = [t.lateness * 1000.0 for t in timings]
    summary: Dict[str, object] = {f"{prefix}_n": len(latencies)}
    if latencies:
        summary[f"{prefix}_p50_ms"] = percentile(latencies, 50)
        found = tail(latencies)
        summary[f"{prefix}_tail"] = found.as_dict() if found else None
        summary[f"{prefix}_late_p50_ms"] = percentile(late, 50)
        summary[f"{prefix}_late_max_ms"] = max(late)
    return summary


# -- /metrics delta parser ------------------------------------------------------------
_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)")


def parse_metrics(text: str) -> Dict[str, float]:
    """Unlabelled samples of a Prometheus text exposition, name → value.

    A ``repro serve`` scrape carries one unlabelled sample per series (the
    fleet total) beside per-worker labelled ones; only the totals are kept.
    Histogram ``_bucket`` lines are labelled and therefore skipped.
    """
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None or match.group(2):
            continue
        try:
            values[match.group(1)] = float(match.group(3))
        except ValueError:
            continue
    return values


def metrics_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Per-series increase over a window; series born in it start at 0."""
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def histogram_mean_ms(delta: Dict[str, float], family: str) -> float:
    """Mean of a ``*_seconds`` histogram over a window, in ms (0 if empty)."""
    count = delta.get(f"{family}_count", 0.0)
    return 1000.0 * delta.get(f"{family}_sum", 0.0) / count if count else 0.0


# -- /proc readers --------------------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # After the ")" that closes comm, utime and stime are fields 12 and 13.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mib(pid: int) -> float:
    """The process's peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- hypervisor steal -----------------------------------------------------------------
def vcpu_jiffies() -> Tuple[int, int]:
    """``(stolen, wanted)`` clock ticks of all vCPUs of the running system so far.

    From the ``cpu`` line of ``/proc/stat``.  *wanted* is every tick a vCPU
    ran or was runnable (user, nice, system, irq, softirq and steal: all but
    idle and iowait); *stolen* is the part of it the hypervisor gave to other
    guests.  ``(0, 0)`` where the kernel reports no steal column.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    if len(fields) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


def steal_share(start: Tuple[int, int], end: Tuple[int, int]) -> float:
    """Share of the vCPU time wanted between two :func:`vcpu_jiffies` reads
    that the hypervisor withheld."""
    stolen, wanted = end[0] - start[0], end[1] - start[1]
    return stolen / wanted if wanted > 0 else 0.0


class StealWindow:
    """Wall time of a window with the hypervisor's steal taken out.

    On a shared VM another guest can hold this guest's vCPUs for a fifth of
    the time or more, in stretches lasting minutes, which stretches every
    wall-clock latency by the same share.  Process CPU time already excludes
    it; wall times are multiplied by ``1 - steal share`` of their window.
    """

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.jiffies = vcpu_jiffies()

    def share(self) -> float:
        return steal_share(self.jiffies, vcpu_jiffies())

    def seconds(self) -> Tuple[float, float]:
        """``(wall seconds, the same with steal taken out)`` so far."""
        wall = time.perf_counter() - self.start
        return wall, wall * (1.0 - self.share())


# -- host drift sentinel --------------------------------------------------------------
def calibrate(rounds: int = 3, n: int = 1_000_000) -> float:
    """Median ms of a fixed pure-Python loop: a host-speed diagnostic.

    Run before and after each measurement and reported beside it; it is
    never a gated metric.
    """
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - start) * 1000.0)
    return median(samples)


# -- HTTP ------------------------------------------------------------------------------
HTTP_ERRORS = (OSError, http.client.HTTPException)


class Http:
    """One keep-alive connection to a ``repro serve`` process."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        host, _, port = url.split("://", 1)[1].rstrip("/").partition(":")
        self.connection = http.client.HTTPConnection(host, int(port), timeout=timeout)

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        headers = dict(headers or {})
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            return response.status, response.read()
        except HTTP_ERRORS:
            self.connection.close()
            raise

    def get_json(self, path: str):
        status, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return json.loads(body)

    def metrics(self) -> Dict[str, float]:
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics: HTTP {status}")
        return parse_metrics(body.decode("utf-8"))

    def close(self) -> None:
        self.connection.close()


def infer_body(documents: Sequence[str], seed: int) -> bytes:
    return json.dumps({"documents": list(documents), "seed": seed}).encode("utf-8")


def valid_infer_reply(status: int, body: bytes, n_documents: int) -> bool:
    """One θ per document, each a probability vector summing to 1."""
    if status != 200:
        return False
    try:
        documents = json.loads(body)["documents"]
    except (ValueError, KeyError, TypeError):
        return False
    return len(documents) == n_documents and all(
        abs(sum(doc["theta"]) - 1.0) < 1e-9 and min(doc["theta"]) >= 0.0
        for doc in documents)


# -- system-under-test processes ------------------------------------------------------
def sut_env(repo: Path) -> Dict[str, str]:
    """Environment for every system-under-test process.

    Single-threaded BLAS (OpenBLAS otherwise starts a thread per core and
    they fight the server threads) and a fixed hash seed pin what the
    harness can pin without touching the program.
    """
    env = dict(os.environ)
    src = str(repo / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


class Sut:
    """A system-under-test subprocess; stopped and reaped by :meth:`stop`.

    With ``protocol`` the process speaks JSON lines on stdin/stdout (the
    benchmark's own worker scripts); otherwise its stdout goes to ``log``,
    which :meth:`wait_for_line` polls, so a chatty server can never block
    on a full pipe.  stderr always goes to ``log`` + ``.err``.
    """

    def __init__(self, argv: Sequence[str], repo: Path, log: Path,
                 protocol: bool = False) -> None:
        self.log = log
        self._buffer = b""
        with open(log, "wb") as out, open(f"{log}.err", "wb") as err:
            self.process = subprocess.Popen(
                list(argv), cwd=str(log.parent), env=sut_env(repo),
                stdin=subprocess.PIPE if protocol else subprocess.DEVNULL,
                stdout=subprocess.PIPE if protocol else out, stderr=err)

    @property
    def pid(self) -> int:
        return self.process.pid

    def _readline(self, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise TimeoutError(f"pid {self.pid}: no reply within {timeout}s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RuntimeError(f"pid {self.pid} exited (code {self.process.poll()}); "
                                   f"see {self.log}.err")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line

    def has_reply(self) -> bool:
        """Whether a reply can be read without blocking."""
        return b"\n" in self._buffer or bool(
            select.select([self.process.stdout], [], [], 0)[0])

    def send(self, command: Dict) -> None:
        """Send one JSON-line command without waiting for the reply."""
        self.process.stdin.write(json.dumps(command).encode("utf-8") + b"\n")
        self.process.stdin.flush()

    def reply(self, timeout: float = 120.0) -> Dict:
        """The next JSON-line reply; a worker-side failure raises here."""
        reply = json.loads(self._readline(timeout))
        if "error" in reply:
            raise RuntimeError(f"pid {self.pid}: {reply['error']}")
        return reply

    def call(self, command: Dict, timeout: float = 120.0) -> Dict:
        self.send(command)
        return self.reply(timeout)

    def wait_for_line(self, pattern: str, timeout: float) -> re.Match:
        """Poll the stdout log until a line matches ``pattern``."""
        deadline = time.monotonic() + timeout
        regex = re.compile(pattern, re.MULTILINE)
        while True:
            match = regex.search(self.log.read_text(encoding="utf-8", errors="replace"))
            if match:
                return match
            if self.process.poll() is not None:
                raise RuntimeError(f"pid {self.pid} exited (code {self.process.returncode}); "
                                   f"see {self.log}.err")
            if time.monotonic() > deadline:
                raise TimeoutError(f"pid {self.pid}: no {pattern!r} within {timeout}s")
            time.sleep(0.005)

    def cpu(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss(self) -> float:
        return peak_rss_mib(self.pid)

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM (the clean-shutdown path of ``repro serve``), then reap."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout)
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()


def start_server(repo: Path, log: Path, args: Iterable[str]) -> Tuple[Sut, str]:
    """Launch ``repro serve --port 0`` and return it with its base URL."""
    server = Sut([sys.executable, "-m", "repro", "serve", "--port", "0", *args],
                 repo, log)
    try:
        match = server.wait_for_line(r"^serving .* on (http://[0-9.]+:\d+)", 120.0)
    except BaseException:
        server.stop()
        raise
    return server, match.group(1)


def start_worker(repo: Path, log: Path, script: str, *args: str) -> Sut:
    """Launch one of the benchmark's own worker scripts (JSON-line protocol)."""
    return Sut([sys.executable, str(BENCH_DIR / script), *args], repo, log, protocol=True)


def wait_first_infer(url: str, documents: Sequence[str], timeout: float = 120.0) -> Http:
    """Block until ``/v1/infer`` answers 200 with a valid reply."""
    deadline = time.monotonic() + timeout
    body = infer_body(documents, 1)
    while True:
        client = Http(url)
        try:
            status, reply = client.request("POST", "/v1/infer", body)
            if valid_infer_reply(status, reply, len(documents)):
                return client
        except HTTP_ERRORS:
            pass
        client.close()
        if time.monotonic() > deadline:
            raise TimeoutError(f"{url}: no valid /v1/infer reply within {timeout}s")
        time.sleep(0.02)
