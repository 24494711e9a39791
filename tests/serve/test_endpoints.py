"""HTTP endpoint round-trips over an ephemeral port with MockLLM."""

import json
import socket
import statistics
import struct
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.api.types import (
    ErrorEnvelope,
    ExecuteResponse,
    ExplainResponse,
    TranslateResponse,
)
from repro.serve import ReproServer
from repro.serve.http import MAX_BODY_BYTES


@pytest.fixture()
def server(service):
    started = ReproServer(service, port=0).start()
    yield started
    started.shutdown()
    started.server_close()


@pytest.fixture()
def client(server):
    host, port = server.address
    conn = HTTPConnection(host, port, timeout=10)
    yield conn
    conn.close()


def post(conn, path, payload):
    conn.request(
        "POST", path, json.dumps(payload),
        {"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def get(conn, path):
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes on a new socket; read until the server closes it."""
    with socket.create_connection(server.address, timeout=3) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestTranslate:
    def test_round_trip(self, client, dev_set):
        example = dev_set.examples[0]
        status, data = post(client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme",
        })
        assert status == 200
        response = TranslateResponse.from_dict(data)
        assert response.sql.upper().startswith("SELECT")
        assert response.tenant == "acme"
        assert response.db_id == example.db_id
        assert response.latency_ms >= 0.0
        assert not response.shed

    def test_assigns_deterministic_request_ids(self, client, dev_set):
        example = dev_set.examples[0]
        payload = {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme",
        }
        _, first = post(client, "/v1/translate", payload)
        _, second = post(client, "/v1/translate", payload)
        assert first["request_id"] == "acme-000001"
        assert second["request_id"] == "acme-000002"

    def test_explicit_request_id_echoes(self, client, dev_set):
        example = dev_set.examples[0]
        _, data = post(client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme", "request_id": "mine-1",
        })
        assert data["request_id"] == "mine-1"

    def test_unknown_tenant_404(self, client, dev_set):
        example = dev_set.examples[0]
        status, data = post(client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "nobody",
        })
        assert status == 404
        envelope = ErrorEnvelope.from_dict(data)
        assert envelope.code == "unknown_tenant"

    def test_unknown_database_404(self, client):
        status, data = post(client, "/v1/translate", {
            "question": "how many", "db_id": "no_such_db", "tenant": "acme",
        })
        assert status == 404
        assert ErrorEnvelope.from_dict(data).code == "unknown_database"

    def test_malformed_body_400(self, client):
        client.request(
            "POST", "/v1/translate", "{not json",
            {"Content-Type": "application/json"},
        )
        response = client.getresponse()
        data = json.loads(response.read())
        assert response.status == 400
        assert ErrorEnvelope.from_dict(data).code == "bad_request"

    def test_unknown_wire_field_400(self, client):
        status, data = post(client, "/v1/translate", {
            "question": "q", "db_id": "d", "tenant": "acme", "bogus": 1,
        })
        assert status == 400
        assert "bogus" in data["message"]

    def test_unknown_route_404(self, client):
        status, data = post(client, "/v1/nope", {"a": 1})
        assert status == 404
        assert ErrorEnvelope.from_dict(data).code == "not_found"


class TestExplain:
    def test_provenance_round_trip(self, client, dev_set):
        example = dev_set.examples[0]
        status, data = post(client, "/v1/explain", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme",
        })
        assert status == 200
        response = ExplainResponse.from_dict(data)
        assert response.skeletons, "PURPLE explain must expose skeletons"
        assert response.pruned_tables
        for demo in response.demonstrations:
            assert set(demo) >= {"index", "db_id", "sql", "skeleton", "level"}

    def test_sql_diagnostics_ride_along(self, client, dev_set):
        example = dev_set.examples[0]
        status, data = post(client, "/v1/explain", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme",
            "sql": "SELECT bogus_column FROM bogus_table",
        })
        assert status == 200
        response = ExplainResponse.from_dict(data)
        assert response.diagnostics
        assert any(
            d.get("severity") == "error" for d in response.diagnostics
        )

    def test_translator_without_explain_501(self, client, dev_set,
                                            service, train_set):
        from repro import api
        from repro.llm import MockLLM, profile_by_name
        from repro.serve import Tenant

        zero = api.create(
            "zero", llm=MockLLM(profile_by_name("gpt4")), train=train_set
        )
        service.registry.add(
            Tenant(tenant_id="plain", data=dev_set, translator=zero)
        )
        example = dev_set.examples[0]
        status, data = post(client, "/v1/explain", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "plain",
        })
        assert status == 501
        assert ErrorEnvelope.from_dict(data).code == "unsupported"


class TestExecute:
    def test_rows_round_trip(self, client, dev_set):
        db_id = dev_set.db_ids()[0]
        table = dev_set.database(db_id).schema.tables[0].name
        status, data = post(client, "/v1/execute", {
            "sql": f"SELECT COUNT(*) FROM {table}", "db_id": db_id,
            "tenant": "acme",
        })
        assert status == 200
        response = ExecuteResponse.from_dict(data)
        assert response.error is None
        assert response.row_count == 1
        assert len(response.rows) == 1

    def test_execution_error_is_payload_not_transport(self, client, dev_set):
        db_id = dev_set.db_ids()[0]
        status, data = post(client, "/v1/execute", {
            "sql": "SELECT * FROM definitely_missing", "db_id": db_id,
            "tenant": "acme",
        })
        assert status == 200
        response = ExecuteResponse.from_dict(data)
        assert response.error
        assert response.error_code == "no-such-table"


class TestGets:
    def test_health(self, client):
        status, data = get(client, "/v1/health")
        assert status == 200
        assert data["status"] == "ok"
        assert data["tenants"]["acme"]["fitted"] is True

    def test_metrics_snapshot(self, client, dev_set):
        example = dev_set.examples[0]
        post(client, "/v1/translate", {
            "question": example.question, "db_id": example.db_id,
            "tenant": "acme",
        })
        status, data = get(client, "/v1/metrics")
        assert status == 200
        counters = data["metrics"]["counters"]
        assert counters.get(
            "serve.requests{endpoint=translate,tenant=acme}"
        ) == 1
        assert "admission" in data
        assert data["admission"]["policy"]["max_inflight"] > 0

    def test_keep_alive_connection_reuse(self, client):
        # Both requests ride one HTTP/1.1 connection (the fixture never
        # reconnects); a second round-trip on the same socket proves
        # keep-alive works.
        assert get(client, "/v1/health")[0] == 200
        assert get(client, "/v1/health")[0] == 200

    def test_keep_alive_round_trips_do_not_stall(self, client):
        # A response written as head then body waits for the client's
        # delayed ACK under Nagle's algorithm, ~40 ms a round trip; one
        # write on a TCP_NODELAY socket takes well under a millisecond.
        def malformed_translate():
            client.request("POST", "/v1/translate", "{not json")
            response = client.getresponse()
            response.read()
            return response.status

        def median_ms(round_trip, expected):
            times = []
            for _ in range(20):
                start = time.perf_counter()
                assert round_trip() == expected
                times.append((time.perf_counter() - start) * 1000.0)
            return statistics.median(times)

        assert median_ms(lambda: get(client, "/v1/health")[0], 200) < 20.0
        assert median_ms(malformed_translate, 400) < 20.0


class TestFraming:
    @pytest.mark.parametrize("length, status", [
        ("abc", 400), ("-1", 400), (str(MAX_BODY_BYTES + 1), 413),
    ])
    def test_refused_body_closes_connection(self, client, length, status):
        # A negative length must not reach rfile.read(-1), which blocks
        # until the client hangs up.  The refused body stays unread; on
        # a reused connection its bytes would be parsed as the next
        # request line.
        client.putrequest("POST", "/v1/translate")
        client.putheader("Content-Length", length)
        client.endheaders(b'{"question": "q"}')
        response = client.getresponse()
        assert json.loads(response.read())["status"] == status
        assert response.status == status
        # http.client reconnects after "Connection: close".
        client.request("GET", "/v1/health")
        assert client.getresponse().status == 200
        assert response.getheader("Connection") == "close"

    @pytest.mark.parametrize("request_line, status, code", [
        (b"BREW /v1/health HTTP/1.1", 501, "unsupported"),
        (b"GET /v1/health HTTP/9", 400, "bad_request"),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1", 414, "bad_request"),
    ], ids=["unknown-method", "bad-version", "uri-too-long"])
    def test_protocol_errors_are_envelopes(self, server, request_line,
                                           status, code):
        reply = raw_exchange(server, request_line + b"\r\nHost: t\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"\r\nConnection: close" in head
        assert ErrorEnvelope.from_dict(json.loads(body)).code == code


class TestClientHangup:
    def test_reset_before_response_is_silent(self, server, service,
                                             monkeypatch, capfd):
        entered, release, handled = (threading.Event() for _ in range(3))
        health = service.health

        def held_health():
            entered.set()
            release.wait(5)
            return health()

        handle_error = server.handle_error

        def spy(request, client_address):
            handle_error(request, client_address)
            handled.set()

        monkeypatch.setattr(service, "health", held_health)
        monkeypatch.setattr(server, "handle_error", spy)
        sock = socket.create_connection(server.address, timeout=5)
        sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n")
        assert entered.wait(5)
        # Linger 0: close() resets the connection, so the response
        # write that follows fails.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        release.set()
        assert handled.wait(5)
        assert capfd.readouterr().err == ""

    def test_other_errors_still_print(self, server, capfd):
        try:
            raise RuntimeError("handler bug")
        except RuntimeError:
            server.handle_error(None, ("127.0.0.1", 0))
        assert "RuntimeError: handler bug" in capfd.readouterr().err
