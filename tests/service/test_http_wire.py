"""The service's HTTP wire over raw sockets: the request parser fails
closed and typed, and every JSON body is one compact line that decodes
to the document the route returned.

Each exchange sends its bytes, shuts the write side (``SHUT_WR``) and
reads to EOF, so a reply is either a whole response or a closed
connection.  The keep-alive cases hold one socket open across several
requests instead.  Nothing here may make asyncio log an ERROR record
(an exception escaping the connection handler does), and ``/healthz``
must answer after every case.
"""

import json
import logging
import re
import socket
import struct
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import http
from repro.service.client import ServiceClient
from repro.service.engine import EngineConfig
from repro.service.http import (
    _REASONS,
    MAX_BODY_BYTES,
    ServerThread,
    _HttpError,
)

SOURCE = {"kind": "impact", "n_steps": 2, "refine": 0.5}


@pytest.fixture(scope="module")
def server():
    with ServerThread(EngineConfig(workers=1)) as srv:
        yield srv


def exchange(address, raw, reset=False):
    """Send ``raw``, then EOF (or a reset); the bytes read back, ``b""``
    for a connection closed without a reply."""
    host, port = address.split(":")
    sock = socket.create_connection((host, int(port)), timeout=30.0)
    try:
        sock.sendall(raw)
        if reset:  # SO_LINGER 0: close() sends RST, not FIN
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            return b""
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    except (BrokenPipeError, ConnectionResetError):
        return b""
    finally:
        sock.close()


def parse(reply):
    """``(status, headers, body)`` of one whole response."""
    head, sep, body = reply.partition(b"\r\n\r\n")
    assert sep, reply
    status_line, *lines = head.decode("latin-1").split("\r\n")
    version, status, _ = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    assert int(headers["content-length"]) == len(body)
    return int(status), headers, body


def assert_json_reply(reply):
    """A status the server knows, not a 500, with a one-line JSON
    object for a body; returns ``(status, document)``."""
    status, headers, body = parse(reply)
    assert status in _REASONS and status != 500, reply
    assert headers["content-type"] == "application/json"
    assert b"\n" not in body
    document = json.loads(body)
    assert isinstance(document, dict)
    return status, document


def asyncio_errors(caplog):
    return [
        r for r in caplog.records
        if r.name == "asyncio" and r.levelno >= logging.ERROR
    ]


def assert_healthy(address):
    status, document = assert_json_reply(
        exchange(address, b"GET /healthz HTTP/1.1\r\n\r\n")
    )
    assert (status, document["status"]) == (200, "ok")


def post(length, body=b""):
    return (
        b"POST /v1/jobs HTTP/1.1\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + length + b"\r\n\r\n" + body
    )


class TestMalformedLength:
    @pytest.mark.parametrize(
        "length",
        [b"-1", b"abc", b"", b"1.5", b"+5", b"1_0", "²".encode("latin-1")],
        ids=["negative", "word", "empty", "decimal", "signed", "underscore",
             "superscript"],
    )
    def test_not_a_byte_count_is_400(self, server, caplog, length):
        status, document = assert_json_reply(
            exchange(server.address, post(length, b"{}"))
        )
        assert status == 400
        assert "Content-Length" in document["error"]
        assert_healthy(server.address)
        assert asyncio_errors(caplog) == []

    @pytest.mark.parametrize(
        "length",
        [str(MAX_BODY_BYTES + 1).encode(), b"9" * 5000, b"0" * 5000 + b"9" * 8],
        ids=["cap-plus-one", "5000-digits", "zero-padded"],
    )
    def test_over_the_cap_is_413(self, server, caplog, length):
        status, document = assert_json_reply(
            exchange(server.address, post(length))
        )
        assert status == 413
        assert str(MAX_BODY_BYTES) in document["error"]
        assert_healthy(server.address)
        assert asyncio_errors(caplog) == []

    def test_leading_zeros_under_the_cap_are_a_length(self, server, caplog):
        status, document = assert_json_reply(
            exchange(server.address, post(b"0" * 5000 + b"2", b"{}"))
        )
        assert status == 400
        assert document["path"] == "$.schema"  # the body was read as JSON
        assert asyncio_errors(caplog) == []

    @pytest.mark.parametrize("reset", [False, True], ids=["eof", "reset"])
    def test_body_cut_short_closes_quietly(self, server, caplog, reset):
        reply = exchange(server.address, post(b"100", b'{"a":'), reset=reset)
        assert reply == b""
        assert_healthy(server.address)
        assert asyncio_errors(caplog) == []

    def test_malformed_target_is_400(self, server, caplog):
        status, document = assert_json_reply(
            exchange(server.address, b"GET http://[ HTTP/1.1\r\n\r\n")
        )
        assert status == 400
        assert document["error"] == "malformed request target"
        assert asyncio_errors(caplog) == []

    @pytest.mark.parametrize(
        "body", [b"[" * 100_000, b"1" * 5000], ids=["deep", "long-int"]
    )
    def test_json_the_decoder_refuses_is_400(self, server, caplog, body):
        status, document = assert_json_reply(
            exchange(server.address, post(str(len(body)).encode(), body))
        )
        assert status == 400
        assert document["error"].startswith("request body is not JSON")
        assert asyncio_errors(caplog) == []

    def test_overlong_line_closes_quietly(self, server, caplog):
        reply = exchange(
            server.address,
            b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        )
        assert reply == b""
        assert_healthy(server.address)
        assert asyncio_errors(caplog) == []


def stall(address, raw):
    """Send ``raw`` and keep the connection open: a client that stops
    mid-request.  Returns the still-open socket."""
    host, port = address.split(":")
    sock = socket.create_connection((host, int(port)), timeout=30.0)
    sock.sendall(raw)
    return sock


def read_to_eof(sock):
    """Bytes read until the server closes (``b""``: closed, no reply)."""
    chunks = []
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    except ConnectionResetError:
        return b"".join(chunks)


SHORT_DEADLINE_S = 0.5


@pytest.fixture
def short_deadline(monkeypatch):
    monkeypatch.setattr(http, "READ_DEADLINE_S", SHORT_DEADLINE_S)


class TestReadDeadline:
    DEADLINE_S = SHORT_DEADLINE_S

    @pytest.mark.parametrize(
        "raw",
        [b"GET /healthz HTTP/1.1\r\nHost: x\r\n", post(b"100", b'{"a":')],
        ids=["half-sent-headers", "half-sent-body"],
    )
    def test_stalled_request_closes_quietly_at_the_deadline(
        self, server, caplog, short_deadline, raw
    ):
        sock = stall(server.address, raw)
        try:
            started = time.monotonic()
            reply = read_to_eof(sock)
            waited = time.monotonic() - started
        finally:
            sock.close()
        assert reply == b""
        assert self.DEADLINE_S * 0.5 <= waited < self.DEADLINE_S + 10.0
        assert_healthy(server.address)
        assert asyncio_errors(caplog) == []

    def test_stop_returns_with_a_stalled_client(self, caplog, short_deadline):
        srv = ServerThread(EngineConfig(workers=1)).start()
        sock = stall(srv.address, b"GET /healthz HTTP/1.1\r\n")
        try:
            assert_healthy(srv.address)
            started = time.monotonic()
            srv.stop()
            assert time.monotonic() - started < 20.0
            assert not srv._thread.is_alive()
        finally:
            sock.close()
        assert asyncio_errors(caplog) == []


def keep_alive(line=b"GET /healthz"):
    return line + b" HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"


def read_response(stream):
    """One whole response off a socket's ``makefile("rb")`` stream,
    leaving the socket open; ``b""`` for a connection closed first."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = stream.readline()
        if not line:
            return b""
        head += line
    length = re.search(rb"Content-Length: (\d+)", head)[1]
    return head + stream.read(int(length))


class TestFraming:
    """Framing the parser does not follow is refused and the connection
    closed, so no body is ever read as the next request."""

    @pytest.mark.parametrize(
        "coding", [b"chunked", b"gzip, chunked", b"identity"]
    )
    def test_transfer_encoding_is_400(self, server, caplog, coding):
        raw = (
            b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: " + coding
            + b"\r\n\r\n"
        )
        status, document = assert_json_reply(exchange(server.address, raw))
        assert status == 400
        assert "Transfer-Encoding" in document["error"]
        assert_healthy(server.address)
        assert asyncio_errors(caplog) == []

    def test_conflicting_content_lengths_are_400(self, server, caplog):
        raw = (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: 3\r\n\r\n{}"
        )
        status, document = assert_json_reply(exchange(server.address, raw))
        assert status == 400
        assert document["error"] == "conflicting Content-Length headers"
        assert_healthy(server.address)
        assert asyncio_errors(caplog) == []

    def test_equal_content_lengths_are_one_length(self, server, caplog):
        raw = (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: 02\r\n\r\n{}"
        )
        status, document = assert_json_reply(exchange(server.address, raw))
        assert status == 400
        assert document["path"] == "$.schema"  # the body was read as JSON
        assert asyncio_errors(caplog) == []

    def test_chunked_body_is_never_a_second_request(self, server, caplog):
        """A kept-alive chunked POST whose chunk is a whole request gets
        one 400 and EOF: the chunk is not answered as a request."""
        smuggled = keep_alive()
        raw = (
            b"POST /v1/jobs HTTP/1.1\r\nConnection: keep-alive\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + f"{len(smuggled):x}".encode() + b"\r\n" + smuggled
            + b"\r\n0\r\n\r\n"
        )
        host, port = server.address.split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(raw)
            reply = read_to_eof(sock)
        assert reply.count(b"HTTP/1.1 ") == 1
        status, headers, _ = parse(reply)
        assert (status, headers["connection"]) == (400, "close")
        assert_healthy(server.address)
        assert asyncio_errors(caplog) == []


class TestKeepAlive:
    DEADLINE_S = SHORT_DEADLINE_S

    @staticmethod
    def connect(address):
        host, port = address.split(":")
        sock = socket.create_connection((host, int(port)), timeout=30.0)
        return sock, sock.makefile("rb")

    def test_two_requests_on_one_socket(self, server, caplog):
        sock, stream = self.connect(server.address)
        with sock, stream:
            for line in (b"GET /healthz", b"GET /v1/jobs/job-999999"):
                sock.sendall(keep_alive(line))
                status, headers, _ = parse(read_response(stream))
                assert headers["connection"] == "keep-alive"
            assert status == 404  # an error the route raised keeps it too
            # without the header the next reply closes the connection
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            status, headers, _ = parse(read_response(stream))
            assert (status, headers["connection"]) == (200, "close")
            assert stream.read() == b""
        assert asyncio_errors(caplog) == []

    def test_without_the_header_the_reply_closes(self, server, caplog):
        sock, stream = self.connect(server.address)
        with sock, stream:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            status, headers, _ = parse(read_response(stream))
            assert (status, headers["connection"]) == (200, "close")
            assert stream.read() == b""
        assert asyncio_errors(caplog) == []

    def test_idle_connection_closes_quietly_at_the_deadline(
        self, server, caplog, short_deadline
    ):
        sock, stream = self.connect(server.address)
        with sock, stream:
            sock.sendall(keep_alive())
            assert parse(read_response(stream))[0] == 200
            started = time.monotonic()
            assert read_to_eof(sock) == b""
            waited = time.monotonic() - started
        assert self.DEADLINE_S * 0.5 <= waited < self.DEADLINE_S + 10.0
        assert_healthy(server.address)
        assert asyncio_errors(caplog) == []

    def test_stop_closes_an_idle_connection_at_once(self, caplog):
        srv = ServerThread(EngineConfig(workers=1)).start()
        sock, stream = self.connect(srv.address)
        with sock, stream:
            sock.sendall(keep_alive())
            assert parse(read_response(stream))[0] == 200
            started = time.monotonic()
            srv.stop()
            assert time.monotonic() - started < 1.0
            assert not srv._thread.is_alive()
            assert stream.read() == b""
        assert asyncio_errors(caplog) == []

    def test_garbage_closes_a_kept_alive_connection(self, server, caplog):
        sock, stream = self.connect(server.address)
        with sock, stream:
            sock.sendall(keep_alive())
            assert parse(read_response(stream))[0] == 200
            sock.sendall(b"garbage\r\n\r\n")
            assert read_to_eof(sock) == b""
        assert_healthy(server.address)
        assert asyncio_errors(caplog) == []

    def test_a_parse_error_closes_a_kept_alive_connection(
        self, server, caplog
    ):
        sock, stream = self.connect(server.address)
        with sock, stream:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nConnection: keep-alive\r\n"
                b"Content-Length: abc\r\n\r\n"
            )
            status, headers, _ = parse(read_response(stream))
            assert (status, headers["connection"]) == (400, "close")
            assert stream.read() == b""
        assert asyncio_errors(caplog) == []


class TestCompactBodies:
    def test_every_json_endpoint(self, server, monkeypatch):
        """Each route's document crosses the wire as one compact line
        that decodes to what the pretty-printing encoder produced."""
        routed = []
        inner = server._server._route

        async def spy(*args):
            try:
                response = await inner(*args)
            except _HttpError as exc:
                routed.append(exc.payload)
                raise
            routed.append(response[1])
            return response

        monkeypatch.setattr(server._server, "_route", spy)
        client = ServiceClient(server.address)
        done = client.partition(4, SOURCE, wait_s=120)["id"]
        hit = client.partition(4, SOURCE, wait_s=120)
        assert hit["cache"] == "hit"
        job = (
            '{"schema":"repro.service-job/3","kind":"partition","k":3,'
            '"source":{"kind":"impact","n_steps":2,"refine":0.5}}'
        ).encode()
        requests = [
            b"GET /healthz",
            b"GET /v1/report",
            b"GET /v1/jobs/" + done.encode(),
            b"GET /v1/jobs/" + done.encode() + b"?wait=1",
            b"GET /v1/jobs/" + hit["id"].encode() + b"/result",
            b"DELETE /v1/jobs/" + done.encode(),
            b"GET /v1/jobs/job-999999",
            b"PUT /v1/jobs/" + done.encode(),
            b"GET /nowhere",
            b"GET /v1/jobs/" + done.encode() + b"?wait=soon",
        ]
        posts = [job, b'{"schema":"repro.service-job/3"}', b"not json"]
        routed.clear()
        statuses = []
        for line in requests:
            reply = exchange(server.address, line + b" HTTP/1.1\r\n\r\n")
            statuses.append(assert_json_reply(reply))
        for body in posts:
            reply = exchange(server.address, post(str(len(body)).encode(), body))
            statuses.append(assert_json_reply(reply))
        assert [s for s, _ in statuses] == [
            200, 200, 200, 200, 200, 200, 404, 405, 404, 400, 202, 400, 400
        ]
        assert len(routed) == len(statuses)
        for (_, document), returned in zip(statuses, routed):
            assert document == json.loads(json.dumps(returned, indent=2))
        assert statuses[4][1]["labels"] == hit["labels"]
        client.status(statuses[10][1]["id"], wait_s=120)  # drain

    def test_metrics_stays_text(self, server):
        status, headers, body = parse(
            exchange(server.address, b"GET /metrics HTTP/1.1\r\n\r\n")
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert b"# TYPE repro_service_fits_total counter" in body


# ----------------------------------------------------------------------
# fuzz
# ----------------------------------------------------------------------

_TOKEN = st.text(
    st.characters(min_codepoint=33, max_codepoint=126), min_size=1,
    max_size=24,
)
_LATIN1 = st.text(st.characters(max_codepoint=255), max_size=40)

request_lines = st.one_of(
    st.builds(
        lambda method, target, version: " ".join(
            part for part in (method, target, version) if part
        ),
        st.one_of(
            st.sampled_from(["GET", "POST", "DELETE", "PUT", "HEAD", "get"]),
            _TOKEN,
        ),
        st.one_of(
            st.sampled_from([
                "/healthz", "/v1/jobs", "/v1/jobs/job-000001",
                "/v1/jobs/job-000001/result?wait=0", "/v1/jobs/x?wait=nan",
                "/v1/report", "/nowhere", "http://[", "*", "/v1/jobs/",
            ]),
            _TOKEN.map(lambda t: "/" + t),
        ),
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", ""]),
    ),
    _LATIN1,
)
header_blocks = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from(["Content-Length", "content-length", "Host"]),
            _TOKEN,
        ),
        st.one_of(
            st.integers(-10, 2 * MAX_BODY_BYTES).map(str),
            st.sampled_from(["", " 3", "abc", "1e3", "0x10", "-0"]),
            _LATIN1,
        ),
    ),
    max_size=4,
)


@given(
    request_line=request_lines,
    headers=header_blocks,
    body=st.binary(max_size=512),
    newline=st.sampled_from([b"\r\n", b"\n"]),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzzed_requests_fail_closed(
    server, caplog, request_line, headers, body, newline
):
    lines = [request_line] + [f"{name}: {value}" for name, value in headers]
    raw = newline.join(
        line.replace("\r", " ").replace("\n", " ").encode("latin-1")
        for line in lines
    )
    reply = exchange(server.address, raw + newline + newline + body)
    if reply:
        assert_json_reply(reply)
    assert_healthy(server.address)
    assert asyncio_errors(caplog) == []
