"""Tests of the benchmark's own helpers: ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import catalog
from common import (Arrival, Timing, latency_summary, metrics_delta, parse_metrics,
                    poisson_schedule, request_sequence, steal_share, tail, valid_infer_reply,
                    vcpu_jiffies)
from serve_titles import drive
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


# -- tail-percentile rule ------------------------------------------------------------
@pytest.mark.parametrize("n, percentile", [(1000, 99.0), (10_000, 99.9), (400, 97.5),
                                           (200, 95.0), (100, 90.0)])
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile):
    found = tail(list(range(1, n + 1)))
    assert found.percentile == percentile
    assert found.n_beyond >= 10 and found.n_samples == n
    assert found.value == round(percentile * n / 100)  # nearest rank, exact here


def test_tail_is_omitted_below_the_sample_it_needs():
    assert tail(list(range(99))) is None
    assert tail([]) is None


def test_failed_ops_count_as_missing_the_tail():
    timings = [Timing(0.0, 0.0, 0.01, True)] * 95 + [Timing(0.0, 0.0, 0.01, False)] * 11
    summary = latency_summary(timings, "op")
    assert summary["op_tail"]["percentile"] == 90.0
    assert summary["op_tail"]["value"] == math.inf


# -- seeded schedules ----------------------------------------------------------------
def test_schedule_is_a_function_of_its_seed():
    first = poisson_schedule(7, 20.0, 30.0, 600)
    assert first == poisson_schedule(7, 20.0, 30.0, 600)
    assert first != poisson_schedule(8, 20.0, 30.0, 600)


def test_schedule_shape():
    arrivals = poisson_schedule(3, 20.0, 50.0, 600)
    offsets = [a.offset for a in arrivals]
    assert offsets == sorted(offsets) and 0 < offsets[0] and offsets[-1] < 50.0
    assert 800 < len(arrivals) < 1200  # ~ rate x duration
    assert all(1 <= len(a.documents) <= 4 and max(a.documents) < 600 for a in arrivals)


def test_closed_loop_sequence_is_a_function_of_its_seed():
    def first(seed, n=500):
        sequence = request_sequence(seed, 600)
        return [next(sequence) for _ in range(n)]

    assert first(7) == first(7)
    assert first(7) != first(8)
    assert all(1 <= len(request) <= 4 and max(request) < 600 for request in first(3))


# -- hypervisor steal ----------------------------------------------------------------
def test_steal_share_is_stolen_over_wanted_ticks():
    assert steal_share((10, 100), (40, 400)) == pytest.approx(0.1)
    assert steal_share((10, 100), (10, 100)) == 0.0  # an idle window


def test_vcpu_ticks_never_run_backwards():
    stolen, wanted = vcpu_jiffies()
    sum(i * i for i in range(200_000))
    later = vcpu_jiffies()
    assert 0 <= stolen <= wanted
    assert later[0] >= stolen and later[1] >= wanted


# -- lateness accounting -------------------------------------------------------------
def test_latency_runs_from_the_due_time():
    late = Timing(due=1.0, sent=1.3, done=1.5, ok=True)
    assert late.latency == pytest.approx(0.5)
    assert late.lateness == pytest.approx(0.3)
    early = Timing(due=1.0, sent=0.999, done=1.1, ok=True)
    assert early.lateness == 0.0


class _SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        documents = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["documents"]
        time.sleep(0.05)
        body = json.dumps({"documents": [{"theta": [0.5, 0.5]}] * len(documents)}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    server = HTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}"
        schedule = [Arrival(0.01, (0,)), Arrival(0.01, (0,)), Arrival(0.01, (0,))]
        results = drive(url, schedule, ["doc"], 1, 1, False)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert not thread.is_alive()
    timings = [t for _, t in results]
    assert all(t.ok for t in timings)
    # One connection: the second and third requests wait for the first.
    assert timings[1].lateness >= 0.04 and timings[2].lateness >= 0.09
    assert timings[2].latency >= 0.14


def test_reply_validation():
    good = json.dumps({"documents": [{"theta": [0.25, 0.75]}]}).encode()
    assert valid_infer_reply(200, good, 1)
    assert not valid_infer_reply(200, good, 2)
    assert not valid_infer_reply(500, good, 1)
    assert not valid_infer_reply(200, b"{}", 1)
    assert not valid_infer_reply(200, json.dumps({"documents": [{"theta": [0.5, 0.6]}]})
                                 .encode(), 1)


# -- /metrics delta parser -----------------------------------------------------------
SCRAPE = """\
# TYPE repro_http_requests_total counter
repro_http_requests_total{worker_id="0"} 52
repro_http_requests_total 52
# TYPE repro_span_fold_in_seconds histogram
repro_span_fold_in_seconds_bucket{le="0.01"} 7
repro_span_fold_in_seconds_sum{worker_id="0"} 0.5
repro_span_fold_in_seconds_sum 0.75
repro_span_fold_in_seconds_count 51
"""


def test_parser_keeps_unlabelled_totals_only():
    assert parse_metrics(SCRAPE) == {"repro_http_requests_total": 52.0,
                                     "repro_span_fold_in_seconds_sum": 0.75,
                                     "repro_span_fold_in_seconds_count": 51.0}


def test_delta_over_a_window():
    before = parse_metrics(SCRAPE)
    after = dict(before, repro_http_requests_total=60.0, repro_new_total=3.0)
    delta = metrics_delta(before, after)
    assert delta["repro_http_requests_total"] == 8.0
    assert delta["repro_span_fold_in_seconds_count"] == 0.0
    assert delta["repro_new_total"] == 3.0


# -- spans ---------------------------------------------------------------------------
class _Layer:
    def outer(self, inner):
        time.sleep(0.02)
        return inner()

    @classmethod
    def leaf(cls):
        time.sleep(0.03)
        return cls


def test_nested_spans_count_self_time_once():
    tracer = Tracer()
    layer = _Layer()
    start = time.perf_counter()
    with tracer.active([(_Layer, "outer", "outer"), (_Layer, "leaf", "leaf")]):
        assert layer.outer(_Layer.leaf) is _Layer
    wall = time.perf_counter() - start
    report = tracer.report(wall, "unattributed")
    assert report["leaf"] >= 30.0 and 20.0 <= report["outer"] < 30.0
    assert sum(report.values()) == pytest.approx(wall * 1000.0)
    assert report["unattributed"] >= 0.0
    # Unwrapped again afterwards: the class attributes are the originals.
    assert "leaf" in _Layer.__dict__ and isinstance(_Layer.__dict__["leaf"], classmethod)
    assert _Layer.__dict__["outer"].__name__ == "outer" and not hasattr(
        _Layer.__dict__["outer"], "__wrapped__")


# -- the contract file ---------------------------------------------------------------
def test_benchmark_json_mirrors_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == catalog.WORKLOADS
    assert {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]} \
        == catalog.END_TO_END
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == catalog.PER_LAYER
