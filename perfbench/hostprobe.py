"""Host-speed probe that runs beside a benchmark run.

Usage: ``python hostprobe.py OUT.txt``.  Until terminated, times a fixed
pure-Python quantum about four times a second (a ~2% duty cycle) and
appends its CPU milliseconds to ``OUT.txt``, one sample per line.  CPU time,
not wall time, so being preempted by the system under test does not count:
the samples track how fast one core of the host runs right now, which on a
shared VM drifts by tens of percent within minutes.
"""

from __future__ import annotations

import sys
import time

QUANTUM = 40_000
PERIOD_S = 0.25


def quantum_ms() -> float:
    start = time.process_time()
    acc = 0
    for i in range(QUANTUM):
        acc = (acc + i * i) % 1_000_003
    return (time.process_time() - start) * 1000.0


def main() -> int:
    with open(sys.argv[1], "a", encoding="ascii", buffering=1) as out:
        while True:
            out.write(f"{quantum_ms():.4f}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    sys.exit(main())
