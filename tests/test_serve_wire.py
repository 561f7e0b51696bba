"""repro.serve HTTP/1.1 wire behaviour, driven over raw sockets.

The request reader in :mod:`repro.serve.http` owns the request line, the
header block and the body framing.  These tests pin what a client sees on
the wire: the limits and statuses of ``http.server`` (414, 431, 400, 505,
HTTP/1.0 and ``Connection: close`` semantics, ``100 Continue``), pipelined
keep-alive requests answered in order, and the framing rules that keep a
body the server did not read from ever running as the next request.
"""

import json
import socket
import time

import numpy as np
import pytest

from repro.core.infer import InferenceConfig
from repro.io.artifacts import save_bundle
from repro.serve import ModelRegistry, ReproServer, ServeConfig, api

TITLES = ["support vector machine training data and feature selection",
          "query processing over relational database systems"]


@pytest.fixture(scope="module")
def server(model_bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("wire") / "model.npz"
    save_bundle(path, model_bundle)
    registry = ModelRegistry()
    registry.register("model", path)
    server = ReproServer(registry, ServeConfig(port=0))
    server.start_background()
    yield server
    server.stop()


class Wire:
    """One raw TCP connection that parses HTTP/1.1 replies off the stream."""

    def __init__(self, server, timeout: float = 10.0) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", server.server_port), timeout=timeout)
        self.buffer = b""

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise EOFError("server closed the connection")
        self.buffer += chunk

    def reply(self):
        """Read one reply: ``(status, lower-cased headers, body)``."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, headers, body

    def rest(self, wait: float = 5.0) -> bytes:
        """Every byte until the server closes; raises if it stays open."""
        self.sock.settimeout(wait)
        data = self.buffer
        self.buffer = b""
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    return data
                data += chunk
        except ConnectionResetError:
            return data
        except socket.timeout:
            raise AssertionError(
                f"connection still open; unread bytes {data[:200]!r}") from None

    def close(self) -> None:
        self.sock.close()


@pytest.fixture
def wire(server):
    connection = Wire(server)
    yield connection
    connection.close()


def request(method: str, path: str, body: bytes = b"", **headers) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    lines += [f"{name.replace('_', '-')}: {value}"
              for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def infer_body(documents, seed: int) -> bytes:
    return json.dumps({"documents": documents, "seed": seed,
                       "iterations": 10}).encode("utf-8")


def errors(server) -> float:
    return server.metrics.value("http_errors_total")


# -- keep-alive and pipelining ----------------------------------------------------------
def test_pipelined_keep_alive_requests_answer_in_order(wire, model_bundle):
    wire.send(request("POST", "/v1/infer", infer_body(TITLES[:1], 3),
                      X_Request_Id="first")
              + request("GET", "/healthz", X_Request_Id="second")
              + request("POST", "/v1/infer", infer_body(TITLES, 4),
                        X_Request_Id="third"))
    replies = [wire.reply() for _ in range(3)]
    assert [status for status, _, _ in replies] == [200, 200, 200]
    assert [headers["x-request-id"] for _, headers, _ in replies] == \
        ["first", "second", "third"]
    inferencer = model_bundle.inferencer()
    for (_, _, body), texts, seed in ((replies[0], TITLES[:1], 3),
                                      (replies[2], TITLES, 4)):
        solo = inferencer.infer_texts(
            texts, InferenceConfig(n_iterations=10, seed=seed,
                                   engine="reference"))
        documents = json.loads(body)["documents"]
        assert [doc["theta"] for doc in documents] == \
            [[float(p) for p in doc.theta] for doc in solo.documents]
    # The connection is still usable afterwards.
    wire.send(request("GET", "/healthz"))
    assert wire.reply()[0] == 200


def test_http10_request_closes_after_reply(wire):
    wire.send(b"GET /healthz HTTP/1.0\r\n\r\n")
    assert wire.reply()[0] == 200
    assert wire.rest() == b""


def test_http10_keep_alive_stays_open(wire):
    wire.send(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
    assert wire.reply()[0] == 200
    wire.send(request("GET", "/healthz"))
    assert wire.reply()[0] == 200


def test_connection_close_header_closes_after_reply(wire):
    wire.send(request("GET", "/healthz", Connection="close"))
    assert wire.reply()[0] == 200
    assert wire.rest() == b""


def test_expect_100_continue(wire):
    body = infer_body(TITLES[:1], 5)
    wire.send(request("POST", "/v1/infer", Content_Length=len(body),
                      Expect="100-continue"))
    assert wire.reply()[0] == 100
    wire.send(body)
    status, _, reply = wire.reply()
    assert status == 200
    assert len(json.loads(reply)["documents"]) == 1


# -- request-line and header limits -----------------------------------------------------
def test_request_line_over_64k_is_414(wire):
    line = b"GET /" + b"a" * 65536  # 65 537 bytes, all consumed by the server
    wire.send(line[:65537])
    assert wire.reply()[0] == 414
    assert wire.rest() == b""


def test_header_count_limit_is_431(wire, server):
    # The limit counts the blank line that ends the block: 99 header lines
    # pass, 100 do not.
    head = b"GET /healthz HTTP/1.1\r\n"
    wire.send(head + b"".join(b"X-H%d: v\r\n" % i for i in range(99))
              + b"\r\n")
    assert wire.reply()[0] == 200
    wire.send(head + b"".join(b"X-H%d: v\r\n" % i for i in range(100))
              + b"\r\n")
    assert wire.reply()[0] == 431
    assert wire.rest() == b""


def test_header_line_over_64k_is_431(wire):
    wire.send(b"GET /healthz HTTP/1.1\r\nX-Big: "
              + b"v" * (65537 - len(b"X-Big: ")))
    assert wire.reply()[0] == 431
    assert wire.rest() == b""


def test_http2_request_line_is_505(wire):
    # The error goes out before a version is accepted, yet still carries
    # an HTTP/1.1 status line and headers.
    wire.send(b"GET /healthz HTTP/2.0\r\n")
    status, headers, _ = wire.reply()
    assert status == 505
    assert headers["connection"] == "close"
    assert wire.rest() == b""


def test_malformed_request_lines_are_400(server):
    # Without a parseable version the error still has a status line.
    for line in (b"GET /a b HTTP/1.1", b"garbage", b"GET / HTTP/1.x",
                 b"POST /healthz"):
        wire = Wire(server)
        try:
            wire.send(line + b"\r\n")
            status, headers, _ = wire.reply()
            assert status == 400
            assert headers["connection"] == "close"
            assert wire.rest() == b""
        finally:
            wire.close()


def test_http09_get_is_answered_with_the_bare_body(wire):
    wire.send(b"GET /healthz\r\n\r\n")
    body = wire.rest()
    assert not body.startswith(b"HTTP/")
    assert json.loads(body)["status"] == "ok"


@pytest.mark.parametrize("line", [b"NoColon", b" Folded: x", b"Bad Name: x",
                                  b": no name", b"Trailing : x"])
def test_malformed_header_lines_are_400(wire, line):
    wire.send(b"GET /healthz HTTP/1.1\r\nHost: test\r\n" + line + b"\r\n\r\n")
    assert wire.reply()[0] == 400
    assert wire.rest() == b""


def test_oversized_body_with_expect_gets_413_not_100_continue(wire):
    wire.send(request("POST", "/v1/infer", Content_Length=9 * 1024 * 1024,
                      Expect="100-continue"))
    assert wire.reply()[0] == 413
    assert wire.rest() == b""


def test_oversized_body_is_413_and_closes(wire):
    wire.send(request("POST", "/v1/infer", Content_Length=9 * 1024 * 1024))
    status, _, body = wire.reply()
    assert status == 413
    assert "exceeds" in json.loads(body)["error"]
    assert wire.rest() == b""


def test_negative_content_length_is_400(wire):
    wire.send(request("POST", "/v1/infer", Content_Length=-5))
    assert wire.reply()[0] == 400


# -- body framing -----------------------------------------------------------------------
SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


@pytest.mark.parametrize("method, path, status", [
    ("POST", "/v1/nope", 404),     # unknown route
    ("GET", "/v1/infer", 405),     # known route, wrong method
    ("GET", "/healthz", 200),      # a body sent to a GET route
])
def test_unread_body_is_never_run_as_a_request(wire, method, path, status):
    wire.send(request(method, path, SMUGGLED))
    assert wire.reply()[0] == status
    assert wire.rest() == b""


def test_conflicting_content_lengths_are_400_and_close(wire, server):
    before = errors(server)
    wire.send(b"POST /v1/infer HTTP/1.1\r\nContent-Length: 2\r\n"
              b"Content-Length: %d\r\n\r\n{}" % (2 + len(SMUGGLED))
              + SMUGGLED)
    status, _, body = wire.reply()
    assert status == 400
    assert "Content-Length" in json.loads(body)["error"]
    assert wire.rest() == b""
    assert errors(server) == before + 1


def test_repeated_equal_content_length_is_accepted(wire):
    body = infer_body(TITLES[:1], 6)
    wire.send(b"POST /v1/infer HTTP/1.1\r\nContent-Length: %d\r\n"
              b"Content-Length: %d\r\n\r\n" % (len(body), len(body)) + body)
    assert wire.reply()[0] == 200


def test_transfer_encoding_is_501_and_closes(wire, server):
    before = errors(server)
    body = infer_body(TITLES[:1], 7)
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    wire.send(request("POST", "/v1/infer", Transfer_Encoding="chunked")
              + chunked + SMUGGLED)
    assert wire.reply()[0] == 501
    assert wire.rest() == b""
    assert errors(server) == before + 1


@pytest.mark.parametrize("value", ["abc", "1.5", "", "0x10"])
def test_non_integer_content_length_is_counted_400(wire, server, value):
    before = errors(server)
    wire.send(request("POST", "/v1/infer", Content_Length=value) + b"{}")
    status, _, body = wire.reply()
    assert status == 400
    assert "Content-Length" in json.loads(body)["error"]
    assert wire.rest() == b""
    assert errors(server) == before + 1


# -- request clock ----------------------------------------------------------------------
def _healthz_timed(server, wire, *chunks, pause: float = 0.0) -> float:
    """Seconds ``http_healthz_seconds`` gained for one request sent in chunks."""
    def entry():
        return server.metrics.read().get("http_healthz_seconds")

    before = entry()
    count, total = (0.0, 0.0) if before is None else (before.count, before.sum)
    for index, chunk in enumerate(chunks):
        if index:
            time.sleep(pause)
        wire.send(chunk)
    assert wire.reply()[0] == 200
    # The server observes the request after its reply is written.
    deadline = time.monotonic() + 10
    while entry() is None or entry().count == count:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    return entry().sum - total


def test_request_clock_starts_at_the_request_line(wire, server):
    # Header bytes that trickle in after the request line are server time.
    # The server starts its clock when it reads the request line, some
    # time after the client sent it, so it can see a little less than the
    # client's pause: allow 0.1 s for that read lag.  A clock started at
    # the header block would read about 0 and still fail by over 0.3 s.
    assert _healthz_timed(server, wire, b"GET /healthz HTTP/1.1\r\n",
                          b"Host: test\r\n\r\n", pause=0.5) >= 0.4
    # An idle keep-alive connection waiting for its next request is not.
    time.sleep(0.3)
    assert _healthz_timed(server, wire, request("GET", "/healthz")) < 0.3


def test_infer_spans_cover_the_request_once_each(wire, server):
    """One /v1/infer records every span once, request_read and reply
    included, and together they stay within the request's server time."""
    from repro.obs import SPAN_NAMES, span_metric

    def counts():
        entries = server.metrics.read()
        return {name: (entries[name].count, entries[name].sum)
                if name in entries else (0.0, 0.0)
                for name in [span_metric(span) for span in SPAN_NAMES]
                + ["http_v1_infer_seconds"]}

    before = counts()
    wire.send(request("POST", "/v1/infer", infer_body(TITLES, 5)))
    assert wire.reply()[0] == 200
    deadline = time.monotonic() + 10
    while counts()["http_v1_infer_seconds"][0] == \
            before["http_v1_infer_seconds"][0]:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    after = counts()
    delta = {name: (after[name][0] - before[name][0],
                    after[name][1] - before[name][1]) for name in after}
    assert {name: count for name, (count, _) in delta.items()} == \
        dict.fromkeys(delta, 1.0)
    total = delta.pop("http_v1_infer_seconds")[1]
    assert sum(seconds for _, seconds in delta.values()) <= total


# -- pinned reply bytes -------------------------------------------------------------
#: ``/v1/infer`` requests whose reply bodies are pinned byte for byte:
#: ``(case, documents, extra body fields, X-Request-Id or None)``.  The
#: all-unknown title folds in no clique, so its θ is the symmetric prior
#: and every topic ties in ``top_topics``; ``top`` 10 exceeds K = 5.
PIN_TITLES = [
    "support vector machine training data and feature selection",
    "query processing over relational database systems",
    "frequent pattern mining in large transaction databases",
    "speech recognition with hidden markov models",
]
UNKNOWN_TITLE = "zzyzx qwopp blorfing"
PIN_CASES = [
    ("one", PIN_TITLES[:1], {}, "pin-one"),
    ("two", PIN_TITLES[:2], {"seed": 3}, "pin-two"),
    ("three", PIN_TITLES[1:], {"seed": 4, "top": 1}, "pin-three"),
    ("four", PIN_TITLES, {"seed": 5, "top": 10}, None),
    ("unknown", [UNKNOWN_TITLE], {"seed": 6, "top": 10}, "pin-unknown"),
    ("mixed", [UNKNOWN_TITLE, PIN_TITLES[2]], {"seed": 8, "iterations": 7},
     None),
    ("iterations", PIN_TITLES[:3], {"seed": 9, "iterations": 12, "top": 3},
     "pin-iterations"),
]
#: SHA-256 of each case's reply body; the request id the server mints when
#: a request carries none is fixed to ``PIN_MINTED_ID`` for the run.
PIN_MINTED_ID = "0123456789abcdef0123456789abcdef"
PINNED_BODY_SHA256 = {
    "one":
        "c1d230ee7a6c75e89348823f6a7f3e4b8b19be59982b75ca41c96640c6362e69",
    "two":
        "dd68180b809645f5aa6378f8ca4aec6124d5d0b6bf89d04efca5ab809c7c1154",
    "three":
        "d69f46f859512f1500856f40f5683e9a0fccb74742d42789d812889730d4b61b",
    "four":
        "300d77a43f52a9d635ad0776b5e5cb3fad2ec63c1b42070dee7400036daab9d2",
    "unknown":
        "4bc063ded93747e0535b9cc17940554e6ca31386380fbd06a40d3ce7cd2ff8b8",
    "mixed":
        "303efd39144e0ca81478a82d234ce0f0c3c7142a7cc94c426fff0a4d4cdbaaf1",
    "iterations":
        "484470dc8fb0869ef5b9430b53e4dcc45c2e5e19c2068998b0a2e4aacab984bc",
}


def _pinned_bodies(server):
    connection = Wire(server)
    try:
        bodies = {}
        for case, documents, fields, request_id in PIN_CASES:
            body = json.dumps(dict({"documents": documents}, **fields)) \
                .encode("utf-8")
            headers = {} if request_id is None else {"X_Request_Id": request_id}
            connection.send(request("POST", "/v1/infer", body, **headers))
            status, _, reply = connection.reply()
            assert status == 200, reply
            bodies[case] = reply
        return bodies
    finally:
        connection.close()


@pytest.mark.parametrize("engine", ["c", "reference"])
def test_infer_reply_bytes_are_pinned(engine, model_bundle, tmp_path,
                                      monkeypatch):
    import hashlib

    from repro.topicmodel import ckernel

    if engine == "c" and not ckernel.kernel_available():
        pytest.skip("the C kernel is unavailable")
    if engine == "reference":
        # Segmentation and fold-in both resolve "auto" through this probe.
        monkeypatch.setattr(ckernel, "kernel_available", lambda: False)
    monkeypatch.setattr("repro.serve.http.new_request_id",
                        lambda: PIN_MINTED_ID)
    path = tmp_path / "model.npz"
    save_bundle(path, model_bundle)
    registry = ModelRegistry()
    registry.register("model", path)
    server = ReproServer(registry, ServeConfig(port=0))
    server.start_background()
    try:
        bodies = _pinned_bodies(server)
    finally:
        server.stop()
    assert {case: hashlib.sha256(body).hexdigest()
            for case, body in bodies.items()} == PINNED_BODY_SHA256
    for body in bodies.values():
        assert body == (json.dumps(json.loads(body)) + "\n").encode("ascii")


# -- the reply writer ---------------------------------------------------------------
def _reply_payload(response):
    """The reply as a JSON object: what ``json.dumps`` must agree with."""
    documents = []
    for row, n_phrases, n_unknown in zip(response.theta, response.n_phrases,
                                         response.n_unknown_tokens):
        order = np.argsort(-row)[:response.top]
        documents.append({
            "theta": row.tolist(),
            "top_topics": [[int(k), float(row[k])] for k in order],
            "n_phrases": n_phrases, "n_unknown_tokens": n_unknown})
    payload = {"model": response.model, "n_topics": response.n_topics,
               "iterations": response.iterations, "seed": response.seed,
               "documents": documents}
    if response.request_id is not None:
        payload["request_id"] = response.request_id
    return payload


def test_reply_writer_writes_what_json_dumps_writes(monkeypatch):
    # A small memo bound, so the memo resets many times over the run.
    monkeypatch.setattr(api.FloatTexts, "MEMO_LIMIT", 64)
    floats = api.FloatTexts()
    rng = np.random.default_rng(29)
    names = ["model", "modèle-ü", "模型", 'say "hi"\\now', "tab\there\n"]
    request_ids = [None, "abc-1.2_3", 'needs "escaping"\\', "é☃",
                   "\x00\x1f ctl"]
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
                         1.7976931348623157e308, 0.1, 1e-7, 123456789.0])
    resets = 0
    for trial in range(400):
        n_topics, n_docs = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        if trial % 3 == 0:
            # θ̂ from small counts: many repeated values and ties.
            counts = rng.integers(0, 4, size=(n_docs, n_topics)) + 0.1
            theta = counts / counts.sum(axis=1, keepdims=True)
        elif trial % 3 == 1:
            theta = rng.random((n_docs, n_topics)) * 10.0 ** rng.integers(
                -300, 300)
        else:
            theta = rng.choice(specials, size=(n_docs, n_topics))
        response = api.InferResponse(
            model=names[trial % len(names)], n_topics=n_topics,
            iterations=int(rng.integers(1, 10_001)),
            seed=int(rng.integers(0, 2**63 - 1)), theta=theta,
            n_phrases=rng.integers(0, 50, size=n_docs).tolist(),
            n_unknown_tokens=rng.integers(0, 50, size=n_docs).tolist(),
            top=int(rng.integers(1, n_topics + 6)),
            request_id=request_ids[trial % len(request_ids)])
        size = len(floats._memo)
        assert response.encode(floats) == \
            (json.dumps(_reply_payload(response)) + "\n").encode("ascii")
        resets += len(floats._memo) < size
        assert len(floats._memo) <= 64
    assert resets > 10
