"""Run one workload of the repository's benchmark and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-titles --seed 1 --seconds 25 --trace 0

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``).  The line before it, prefixed
``detail:``, carries what the gated metrics do not: tails with their
sample counts, workload-specific latencies, generator lateness and the
host calibration times.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

# Before numpy is imported anywhere in this process.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import catalog  # noqa: E402
from common import BENCH_DIR, Context, calibrate, median, sut_env  # noqa: E402

REPO = BENCH_DIR.parent


def build(repo: Path) -> None:
    """Compile the PhraseLDA C kernel and byte-code before any timer starts.

    Both are built on first use otherwise, which would land in the first
    run's set-up time.  A missing compiler is not an error: the program then
    falls back to its NumPy sampler in every process alike.
    """
    subprocess.run(
        [sys.executable, "-c",
         "import compileall, sys\n"
         "compileall.compile_dir(sys.argv[1], quiet=1)\n"
         "from repro.topicmodel.ckernel import load_kernel\n"
         "load_kernel()\n", str(repo / "src" / "repro")],
        env=sut_env(repo), check=True, timeout=600, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {REPO / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    build(REPO)

    import fit_abstracts
    import ingest_serve
    import serve_titles

    workload = {"fit-abstracts": fit_abstracts, "serve-titles": serve_titles,
                "ingest-serve": ingest_serve}[args.workload]
    work = REPO / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # A SIGTERM must unwind through the workloads' finally blocks, which
    # stop and reap every process they started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    probe_path = work / "hostprobe.txt"
    probe = subprocess.Popen([sys.executable, str(BENCH_DIR / "hostprobe.py"), str(probe_path)])
    try:
        calibration_before = calibrate()
        outcome = workload.run(Context(REPO, work, args.seed, args.seconds, bool(args.trace)))
        calibration_after = calibrate()
    finally:
        probe.terminate()
        probe.wait()
        quanta = [float(line) for line in probe_path.read_text().split()] \
            if probe_path.exists() else []
        shutil.rmtree(work, ignore_errors=True)

    quantum = median(quanta)
    scale = catalog.REFERENCE_QUANTUM_MS / quantum
    scaled = {name: value * scale if name in catalog.HOST_SCALED else value
              for name, value in outcome.metrics.items()}
    detail = dict(outcome.detail, raw_metrics=outcome.metrics, host_quantum_ms=quantum,
                  host_scale=scale, host_calibration_ms=[calibration_before, calibration_after],
                  error_rate=outcome.failed / outcome.attempted)
    if args.trace:
        layers = dict.fromkeys(catalog.PER_LAYER, 0.0)
        layers.update(outcome.layers,
                      **{"host.calibration_before_ms": calibration_before,
                         "host.calibration_after_ms": calibration_after,
                         "host.probe_quantum_ms": quantum,
                         "host.steal_pct": 100.0 * outcome.detail["steal_share"]})
        unknown = set(layers) - set(catalog.PER_LAYER)
        if unknown:
            raise RuntimeError(f"layers missing from the catalog: {sorted(unknown)}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in catalog.PER_LAYER.items()}
    else:
        metrics = {name: {"value": scaled[name], "unit": unit}
                   for name, (unit, _) in catalog.END_TO_END.items()}
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
