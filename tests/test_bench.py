"""Tests for the benchmark harness and its JSON artifact schema."""

import json

import pytest

from repro.bench import BenchConfig, run_benchmarks, validate_report
from repro.bench.report import SCHEMA, load_report, make_report, write_report
from repro.topicmodel import ckernel

requires_c_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason=f"C kernel unavailable: {ckernel.load_error()}")


@pytest.fixture(scope="module")
def smoke_reports(tmp_path_factory):
    output_dir = tmp_path_factory.mktemp("bench")
    config = BenchConfig(sizes=(40,), sweeps=1, repeats=1, n_topics=4,
                         serving_requests=12, serving_concurrency=4,
                         output_dir=output_dir)
    reports = run_benchmarks(config)
    return output_dir, reports


def test_all_stages_write_artifacts(smoke_reports):
    output_dir, reports = smoke_reports
    for stage in ("phrase_mining", "segmentation", "phrase_lda", "topmine",
                  "serving", "ingestion"):
        assert stage in reports
        path = output_dir / f"BENCH_{stage}.json"
        assert path.exists()
        loaded = load_report(path)
        assert loaded["benchmark"] == stage
        assert loaded["schema"] == SCHEMA


def test_reports_validate_and_round_trip(smoke_reports):
    output_dir, reports = smoke_reports
    for report in reports.values():
        validate_report(report)
        # JSON round trip preserves validity
        validate_report(json.loads(json.dumps(report)))


def test_mining_and_segmentation_reports_race_engines(smoke_reports):
    """The front-end stages record every engine plus headline speedups
    (segmentation races the reference against the C kernel when it loads)."""
    _, reports = smoke_reports
    kernel = {"c"} if ckernel.kernel_available() else set()
    for stage, raced in (("phrase_mining", {"numpy"}),
                         ("segmentation", kernel)):
        report = reports[stage]
        engines = {r["engine"] for r in report["records"]}
        assert engines == {"reference"} | raced
        fast_records = [r for r in report["records"] if r["engine"] in raced]
        assert all("speedup_vs_reference" in r for r in fast_records)
        summary = report["summary"]
        assert set(summary["speedups"]) == raced
        assert all(speedup > 0 for speedup in summary["speedups"].values())
        if raced:
            assert summary["best_speedup"] == max(summary["speedups"].values())
        assert summary["tokens_per_second"]


def test_compare_reports_matches_and_flags_regressions(smoke_reports):
    from repro.bench.compare import compare_reports, compare_runs

    _, reports = smoke_reports
    report = reports["phrase_mining"]
    same = compare_reports(report, report, threshold=2.0)
    assert same and all(not c.regressed for c in same)
    assert all(c.speedup == pytest.approx(1.0) for c in same)

    slowed = json.loads(json.dumps(report))
    for record in slowed["records"]:
        record["seconds"] *= 10.0
    regressions = compare_reports(report, slowed, threshold=2.0)
    assert all(c.regressed for c in regressions)
    # ...but a forgiving threshold passes
    assert not any(c.regressed
                   for c in compare_reports(report, slowed, threshold=20.0))

    lines, n_regressions = compare_runs({"phrase_mining": report},
                                        {"phrase_mining": slowed})
    assert n_regressions == len(regressions)
    assert any("REGRESSION" in line for line in lines)

    with pytest.raises(ValueError, match="cannot compare"):
        compare_reports(report, reports["segmentation"])


def test_compare_skips_unmatched_records(smoke_reports):
    from repro.bench.compare import compare_runs

    _, reports = smoke_reports
    report = reports["segmentation"]
    other = json.loads(json.dumps(report))
    for record in other["records"]:
        record["n_documents"] += 1  # no key overlap
    lines, n_regressions = compare_runs({"segmentation": report},
                                        {"segmentation": other})
    assert n_regressions == 0
    assert any("no records matched" in line for line in lines)

    # Partial overlap: unmatched records are *reported* as skipped, never
    # silently dropped from the gate's output.
    partial = json.loads(json.dumps(report))
    partial["records"][0]["n_documents"] += 1
    lines, n_regressions = compare_runs({"segmentation": report},
                                        {"segmentation": partial})
    assert n_regressions == 0
    assert any("1 record(s) had no baseline match" in line for line in lines)


def test_load_baselines_from_directory_and_files(smoke_reports, tmp_path):
    from repro.bench.compare import load_baselines

    output_dir, reports = smoke_reports
    baselines = load_baselines([output_dir], ["phrase_mining", "segmentation"])
    assert set(baselines) == {"phrase_mining", "segmentation"}
    by_file = load_baselines([output_dir / "BENCH_serving.json"], [])
    assert set(by_file) == {"serving"}
    with pytest.raises(FileNotFoundError):
        load_baselines([tmp_path], ["phrase_mining"])


def test_bench_cli_compare_gate(smoke_reports, tmp_path):
    """`--compare` exits 0 against a faked-slow baseline and 1 against a
    faked-fast one.  (A live run compared against another live run of
    sub-millisecond stages can miss a 2x threshold on timing noise alone.)"""
    from repro.bench.__main__ import main

    _, reports = smoke_reports

    def baseline(name, factor):
        faked = json.loads(json.dumps(reports["phrase_mining"]))
        for record in faked["records"]:
            record["seconds"] *= factor
        write_report(faked, tmp_path / name)
        return str(tmp_path / name)

    argv = ["--smoke", "--sizes", "40", "--topics", "4",
            "--stages", "phrase_mining",
            "--output-dir", str(tmp_path / "fresh"),
            "--compare", baseline("leisurely", 1e6)]  # anything beats it
    assert main(argv) == 0

    baseline_dir = baseline("impossible", 1e-6)  # nothing keeps up with it
    argv[-1] = baseline_dir
    assert main(argv) == 1

    # Regression: when the output directory IS the baseline directory, the
    # baselines must be loaded before the fresh run overwrites them —
    # otherwise the gate compares the run against itself and always passes.
    argv[argv.index("--output-dir") + 1] = str(baseline_dir)
    assert main(argv) == 1


@requires_c_kernel
def test_phrase_lda_report_has_speedups(smoke_reports):
    _, reports = smoke_reports
    summary = reports["phrase_lda"]["summary"]
    assert "speedups" in summary
    assert "c" in summary["speedups"]
    assert summary["speedups"]["c"] > 0
    assert summary["best_speedup"] >= summary["speedups"]["c"]
    engines = {r["engine"] for r in reports["phrase_lda"]["records"]}
    assert engines == {"reference", "c"}


def test_engine_requests_resolve_upfront():
    """``--engines`` resolves each name once, de-duplicating what ``auto``
    resolves to; ``numpy`` names a sampler that no longer exists."""
    expected = ["reference", "c"] if ckernel.kernel_available() \
        else ["reference"]
    assert BenchConfig().resolved_engines() == expected
    assert BenchConfig(engines=("reference", "auto", "auto")
                       ).resolved_engines() == expected
    with pytest.raises(ValueError, match="unknown engine"):
        BenchConfig(engines=("reference", "numpy")).resolved_engines()


def test_serving_report_records_throughput(smoke_reports):
    """The serving bench must record a measurable docs/sec figure plus
    latency percentiles in the validated schema."""
    _, reports = smoke_reports
    report = reports["serving"]
    summary = report["summary"]
    assert summary["docs_per_second"] > 0
    assert summary["latency_p95_ms"] >= summary["latency_p50_ms"] > 0
    assert summary["requests"] == 12
    record = report["records"][0]
    assert record["stage"] == "serving"
    assert record["n_documents"] == 12
    assert record["seconds"] > 0
    assert record["concurrency"] == 4


def test_ingestion_report_records_throughput_and_latency(smoke_reports):
    """The ingestion stage reports ingest docs/sec plus refresh latency in
    records keyed compatibly with the --compare regression gate."""
    _, reports = smoke_reports
    report = reports["ingestion"]
    record = report["records"][0]
    assert record["stage"] == "ingestion"
    assert record["engine"] == "numpy"
    assert record["shards"] >= 1
    assert record["docs_per_second"] > 0
    assert record["seconds"] == pytest.approx(
        record["ingest_seconds"] + record["refresh_seconds"])
    assert record["model_documents"] == record["n_unique_documents"]
    summary = report["summary"]
    assert summary["docs_per_second"] > 0
    assert summary["refresh_seconds"] > 0
    # The record key matches the committed-baseline gate's matching rule.
    from repro.bench.compare import record_key

    assert record_key(record) == ("ingestion", report["config"]["dataset"],
                                  "numpy", record["n_documents"])


def test_timing_helpers_shared_by_bench_and_metrics():
    """The bench's two stats paths: exact client-side percentiles, and the
    server's shard read back exactly as ``/metrics`` renders it."""
    from repro.obs import ShardWriter, collect_shards, parse_prometheus, render_fleet
    from repro.obs.shards import LATENCY_BUCKETS, bucket_quantile
    from repro.utils.timing import percentile

    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert percentile([5.0], 95) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 200)

    metrics = ShardWriter()
    metrics.inc_counter("hits", 2)
    metrics.observe("latency_seconds", 0.2)
    with metrics.timer("latency_seconds"):
        pass
    assert metrics.value("hits") == 2
    assert metrics.value("never_written_total") == 0
    entry = metrics.read()["latency_seconds"]
    assert entry.count == 2
    assert entry.sum == pytest.approx(0.2, abs=0.01)
    # One observation in the lowest bucket, one in (0.1, 0.25]: the median
    # rank lands on the first bucket's upper bound.
    assert bucket_quantile(LATENCY_BUCKETS, entry.bucket_counts, 50) \
        == LATENCY_BUCKETS[0]
    families = parse_prometheus(render_fleet(
        collect_shards(inline=[("0", metrics)])))
    assert families["repro_hits"] == [({"worker_id": "0"}, 2.0), ({}, 2.0)]
    assert ({}, 2.0) in families["repro_latency_seconds_count"]


def test_topmine_report_records_figure8(smoke_reports):
    _, reports = smoke_reports
    summary = reports["topmine"]["summary"]
    assert "figure8" in summary
    for split in summary["figure8"].values():
        assert set(split) == {"phrase_mining", "topic_modeling"}


@requires_c_kernel
def test_speedups_come_from_largest_size(tmp_path):
    """Headline speedups must reflect the largest corpus even when sizes
    are listed in descending order."""
    from repro.bench.runner import bench_phrase_lda

    config = BenchConfig(sizes=(60, 40), sweeps=1, repeats=1, n_topics=3,
                         engines=("reference", "c"), output_dir=tmp_path)
    report = bench_phrase_lda(config)
    largest = [r for r in report["records"]
               if r["n_documents"] == 60 and r["engine"] == "c"][0]
    assert report["summary"]["speedups"]["c"] == pytest.approx(
        largest["speedup_vs_reference"])


def test_validate_report_rejects_malformed():
    with pytest.raises(ValueError):
        validate_report({"schema": SCHEMA})
    with pytest.raises(ValueError):
        validate_report("not a dict")
    good = make_report("unit", {}, [], {})
    bad = dict(good)
    bad["records"] = [{"stage": "x"}]  # missing dataset/n_documents/seconds
    with pytest.raises(ValueError):
        validate_report(bad)
    bad_schema = dict(good)
    bad_schema["schema"] = "something/else"
    with pytest.raises(ValueError):
        validate_report(bad_schema)


def test_write_report_rejects_invalid(tmp_path):
    with pytest.raises(ValueError):
        write_report({"schema": SCHEMA}, tmp_path)


def test_unknown_stage_raises(tmp_path):
    config = BenchConfig(stages=("warp_drive",), output_dir=tmp_path)
    with pytest.raises(ValueError):
        run_benchmarks(config)


def test_cli_smoke(tmp_path):
    from repro.bench.__main__ import main

    exit_code = main(["--smoke", "--sizes", "40", "--topics", "4",
                      "--stages", "phrase_lda", "--output-dir", str(tmp_path)])
    assert exit_code == 0
    assert (tmp_path / "BENCH_phrase_lda.json").exists()
