"""Benchmark report construction, validation, and serialisation.

Every benchmark stage produces one JSON artifact (``BENCH_<stage>.json``)
with a fixed schema so downstream tooling — CI trend tracking, the test
suite, human diffing — can rely on its shape:

.. code-block:: text

    {
      "schema": "repro.bench/1",
      "benchmark": "<stage name>",
      "created_at": <unix seconds>,
      "config": { ... BenchConfig fields ... },
      "environment": {"python": ..., "numpy": ..., "platform": ...,
                       "cpu_count": ..., "c_kernel": ...,
                       "kernel_target": ...},
      "records": [ {"stage": ..., "dataset": ..., "n_documents": ...,
                    "seconds": ..., ...}, ... ],
      "summary": { ... stage-specific aggregates, e.g. "speedups" ... }
    }
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

SCHEMA = "repro.bench/1"

_REQUIRED_TOP_LEVEL = ("schema", "benchmark", "created_at", "config",
                       "environment", "records", "summary")
_REQUIRED_RECORD = ("stage", "dataset", "n_documents", "seconds")


def environment_info() -> Dict[str, Any]:
    """Describe the machine/software the benchmark ran on: the CPU count
    says how small a host the timings come from, and ``kernel_target``
    which build of the C kernel (``native``, ``portable`` or ``none``)
    they timed."""
    from repro.topicmodel import ckernel

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "c_kernel": ckernel.kernel_available(),
        "kernel_target": ckernel.kernel_target(),
    }


def make_report(benchmark: str, config: Dict[str, Any],
                records: List[Dict[str, Any]],
                summary: Dict[str, Any]) -> Dict[str, Any]:
    """Assemble a schema-conforming report dictionary."""
    report = {
        "schema": SCHEMA,
        "benchmark": benchmark,
        "created_at": time.time(),
        "config": config,
        "environment": environment_info(),
        "records": records,
        "summary": summary,
    }
    return validate_report(report)


def validate_report(report: Dict[str, Any]) -> Dict[str, Any]:
    """Check a report against the ``repro.bench/1`` schema.

    Raises ``ValueError`` describing every violation; returns the report
    unchanged when it conforms.
    """
    problems: List[str] = []
    if not isinstance(report, dict):
        raise ValueError("report must be a dictionary")
    for key in _REQUIRED_TOP_LEVEL:
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    if report.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {report.get('schema')!r}")
    records = report.get("records", [])
    if not isinstance(records, list):
        problems.append("records must be a list")
        records = []
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            problems.append(f"records[{i}] must be a dictionary")
            continue
        for key in _REQUIRED_RECORD:
            if key not in record:
                problems.append(f"records[{i}] missing key {key!r}")
        seconds = record.get("seconds")
        if isinstance(seconds, (int, float)) and seconds < 0:
            problems.append(f"records[{i}] has negative seconds")
    if problems:
        raise ValueError("invalid benchmark report: " + "; ".join(problems))
    return report


def write_report(report: Dict[str, Any], output_dir: Union[str, Path]) -> Path:
    """Validate and write ``BENCH_<benchmark>.json`` into ``output_dir``."""
    validate_report(report)
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{report['benchmark']}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a benchmark artifact."""
    return validate_report(json.loads(Path(path).read_text()))
