"""Malformed ``Content-Length`` on POST: a structured 400, never a hang.

A POST whose ``Content-Length`` is not a non-negative decimal leaves the
body's extent unknown.  Both endpoints must answer with the protocol's
structured 400 (and close the connection) instead of dropping the
connection unanswered (non-numeric value) or blocking a worker on a read
that waits for the client to hang up (negative value).  The access log must
record the status that was actually sent.
"""

import io
import json
import socket
import time

import pytest

from repro import SparqlEngine, SparqlServer, generate_graph
from repro.obs import ServerTelemetry
from repro.obs.logs import JsonLinesLogger
from repro.server.protocol import ProtocolError, content_length
from repro.store import MvccStore

MALFORMED = ["abc", "-1", "1.5", "+3"]


@pytest.fixture(scope="module")
def server():
    access_stream = io.StringIO()
    telemetry = ServerTelemetry(access_logger=JsonLinesLogger(access_stream))
    engine = SparqlEngine.from_graph(generate_graph(triple_limit=300))
    engine.store = MvccStore(engine.store)
    with SparqlServer(engine, port=0, workers=2, default_timeout=10.0,
                      telemetry=telemetry) as live:
        live.test_access_stream = access_stream
        yield live


def raw_post(server, path, length_header, body=b"", keep_alive=True):
    """POST over a raw socket; returns (status, headers, body) as sent.

    The client keeps its side open after sending, so a server that waited
    for more body bytes would hit the socket timeout instead of answering.
    The response is read until the server closes the connection.
    """
    request = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {server.host}:{server.port}\r\n"
        f"Content-Type: application/sparql-query\r\n"
        f"Content-Length: {length_header}\r\n"
        + ("" if keep_alive else "Connection: close\r\n")
        + "\r\n"
    ).encode("ascii") + body
    with socket.create_connection((server.host, server.port),
                                  timeout=5.0) as connection:
        connection.sendall(request)
        received = b""
        while True:
            chunk = connection.recv(65536)
            if not chunk:
                break
            received += chunk
    head, _, payload = received.partition(b"\r\n\r\n")
    lines = head.decode("iso-8859-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload.decode("utf-8")


def access_statuses(server, endpoint):
    """Statuses of the access records logged so far for ``endpoint``."""
    records = [json.loads(line) for line in
               server.test_access_stream.getvalue().splitlines()]
    return [record["status"] for record in records
            if record.get("type") == "access"
            and record.get("endpoint") == endpoint]


class TestContentLengthParsing:
    @pytest.mark.parametrize("header, expected",
                             [(None, 0), ("", 0), ("0", 0), ("17", 17),
                              (" 42 ", 42)])
    def test_valid_values(self, header, expected):
        assert content_length(header) == expected

    @pytest.mark.parametrize("header", MALFORMED + ["١٢"])
    def test_malformed_values_are_400(self, header):
        with pytest.raises(ProtocolError) as caught:
            content_length(header)
        assert caught.value.status == 400
        assert caught.value.payload()["error"]["code"] == "bad_request"


@pytest.mark.parametrize("path", ["/sparql", "/update"])
class TestMalformedContentLength:
    @pytest.mark.parametrize("header", MALFORMED)
    def test_structured_400_and_close(self, server, path, header):
        status, headers, body = raw_post(server, path, header)
        assert status == 400
        assert headers.get("connection") == "close"
        error = json.loads(body)["error"]
        assert error["code"] == "bad_request"
        assert "Content-Length" in error["message"]

    def test_access_log_records_the_sent_status(self, server, path):
        logged = len(access_statuses(server, path))
        raw_post(server, path, "abc")
        raw_post(server, path, "-1")
        # Telemetry is written after the response bytes: poll briefly.
        deadline = time.monotonic() + 2.0
        while (len(access_statuses(server, path)) < logged + 2
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert access_statuses(server, path)[logged:] == [400, 400]

    def test_server_keeps_serving(self, server, path):
        raw_post(server, path, "-1")
        status, _headers, body = raw_post(
            server, "/sparql", "16", body=b"ASK { ?s ?p ?o }",
            keep_alive=False)
        assert status == 200
        assert json.loads(body)["boolean"] is True
