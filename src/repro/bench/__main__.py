"""Command-line entry point: ``python -m repro.bench``.

Examples
--------
Full run with defaults (writes ``BENCH_*.json`` into the working directory)::

    python -m repro.bench

CI smoke run (one tiny corpus, a couple of sweeps, seconds of wall-clock)::

    python -m repro.bench --smoke

Scaling study of just the sampler on larger corpora::

    python -m repro.bench --stages phrase_lda --sizes 1000,2000,4000
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.bench.runner import ALL_STAGES, BenchConfig, run_benchmarks
from repro.datasets.registry import available_datasets


def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _csv_strs(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro.bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark phrase mining, segmentation, and PhraseLDA "
                    "across corpus sizes and sampling engines.")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI (one small corpus, "
                             "two sweeps, single repeat)")
    parser.add_argument("--sizes", type=_csv_ints, default=None,
                        metavar="N1,N2,...",
                        help="comma-separated corpus sizes in documents "
                             "(default: 250,500,1000)")
    parser.add_argument("--dataset", default=None,
                        choices=available_datasets(),
                        help="synthetic dataset to scale (default: dblp-titles)")
    parser.add_argument("--topics", type=int, default=None,
                        help="number of topics K (default: 20)")
    parser.add_argument("--sweeps", type=int, default=None,
                        help="Gibbs sweeps timed per engine (default: 5)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of timing repeats (default: 3)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for corpora and samplers (default: 7)")
    parser.add_argument("--engines", type=_csv_strs, default=None,
                        metavar="E1,E2,...",
                        help="PhraseLDA engines to race (default: reference "
                             "plus c when a compiler is available)")
    parser.add_argument("--stages", type=_csv_strs, default=None,
                        metavar="S1,S2,...",
                        help=f"stages to run (default: all of {','.join(ALL_STAGES)})")
    parser.add_argument("--serving-requests", type=int, default=None,
                        help="serving stage: /v1/infer requests replayed "
                             "against the in-process server (default: 64)")
    parser.add_argument("--serving-concurrency", type=int, default=None,
                        help="serving stage: concurrent client threads of "
                             "the in-process replay (default: 8)")
    parser.add_argument("--serving-workers", type=_csv_ints, default=None,
                        metavar="N1,N2,...",
                        help="serving stage: fleet sizes for the "
                             "high-concurrency worker-scaling replay "
                             "(default: 1,4; 1,2 with --smoke)")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="directory for BENCH_*.json artifacts "
                             "(default: current directory)")
    parser.add_argument("--compare", type=_csv_strs, default=None,
                        metavar="OLD[,OLD2,...]",
                        help="compare this run against baseline BENCH_*.json "
                             "artifacts (files, or directories searched per "
                             "stage) and exit non-zero on regression")
    parser.add_argument("--regression-threshold", type=float, default=2.0,
                        metavar="FACTOR",
                        help="with --compare: fail when a matched record is "
                             "more than FACTOR times slower than the "
                             "baseline (default: 2.0)")
    return parser


def config_from_args(args: argparse.Namespace) -> BenchConfig:
    """Turn parsed CLI arguments into a :class:`BenchConfig`."""
    config = BenchConfig.smoke() if args.smoke else BenchConfig()
    if args.sizes is not None:
        config.sizes = args.sizes
    if args.dataset is not None:
        config.dataset = args.dataset
    if args.topics is not None:
        config.n_topics = args.topics
    if args.sweeps is not None:
        config.sweeps = args.sweeps
    if args.repeats is not None:
        config.repeats = args.repeats
    if args.seed is not None:
        config.seed = args.seed
    if args.engines is not None:
        config.engines = args.engines
    if args.stages is not None:
        config.stages = args.stages
    if args.output_dir is not None:
        config.output_dir = args.output_dir
    if args.serving_requests is not None:
        config.serving_requests = args.serving_requests
    if args.serving_concurrency is not None:
        config.serving_concurrency = args.serving_concurrency
    if args.serving_workers is not None:
        config.serving_workers = args.serving_workers
    return config


def _print_summary(reports) -> None:
    for stage, report in reports.items():
        print(f"\n== {stage} ==")
        for record in report["records"]:
            engine = record.get("engine")
            label = f"{record['n_documents']:>6} docs"
            if engine:
                label += f"  [{engine:>9}]"
            line = f"  {label}  {record['seconds']:9.4f}s"
            if "seconds_per_sweep" in record:
                line += f"  ({record['seconds_per_sweep'] * 1e3:8.2f} ms/sweep)"
            if "speedup_vs_reference" in record:
                line += f"  {record['speedup_vs_reference']:6.2f}x vs reference"
            print(line)
        summary = report.get("summary", {})
        if "best_speedup" in summary:
            print(f"  best engine speedup: {summary['best_speedup']:.2f}x "
                  f"({summary['best_engine']})")
        if "figure8" in summary:
            for size, split in summary["figure8"].items():
                mining = split.get("phrase_mining") or 0.0
                modeling = split.get("topic_modeling") or 0.0
                print(f"  {size:>6} docs  mining={mining:.3f}s "
                      f"topic_modeling={modeling:.3f}s")
        if "latency_p50_ms" in summary:
            print(f"  serving throughput: "
                  f"{summary['docs_per_second']:.1f} docs/s  "
                  f"p50={summary['latency_p50_ms']:.2f}ms  "
                  f"p95={summary['latency_p95_ms']:.2f}ms")
        if "worker_scaling" in summary:
            curve = "  ".join(
                f"{workers}w={value:.1f}" if value else f"{workers}w=?"
                for workers, value in sorted(
                    summary["worker_scaling"].items(), key=lambda kv: int(kv[0])))
            line = f"  fleet scaling (docs/s): {curve}"
            if "fleet_speedup" in summary:
                line += (f"  -> {summary['fleet_speedup']:.2f}x at "
                         f"{summary['fleet_workers']} workers")
            print(line)
        if "refresh_seconds" in summary:
            print(f"  ingest throughput: "
                  f"{summary['docs_per_second']:.1f} docs/s  "
                  f"refresh latency: {summary['refresh_seconds']:.3f}s")


def main(argv=None) -> int:
    """Run the benchmark CLI; returns the process exit code.

    With ``--compare``, the fresh run is matched against the given baseline
    artifacts and the exit code is 1 when any matched record regressed past
    ``--regression-threshold``.
    """
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    baselines = None
    if args.compare:
        from repro.bench.compare import compare_runs, load_baselines

        # Load baselines BEFORE running: the fresh run writes BENCH_*.json
        # into the output directory, and when that overlaps the baseline
        # location (e.g. `--compare .` from the repo root) a late load
        # would silently compare the run against itself.
        baselines = load_baselines(args.compare, config.stages)
    reports = run_benchmarks(config)
    _print_summary(reports)
    out = Path(config.output_dir).resolve()
    names = ", ".join(f"BENCH_{stage}.json" for stage in reports)
    print(f"\nwrote {names} to {out}")
    if baselines is not None:
        lines, n_regressions = compare_runs(baselines, reports,
                                            args.regression_threshold)
        print("\n".join(lines))
        if n_regressions:
            print(f"\n{n_regressions} record(s) regressed beyond "
                  f"{args.regression_threshold:g}x")
            return 1
        print("\nno regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
