"""The stdlib HTTP transport over :class:`~repro.serve.service.NL2SQLService`.

One :class:`ReproServer` (a :class:`http.server.ThreadingHTTPServer`)
serializes the service's wire objects over five routes:

========  ================  =============================================
method    path              body / response
========  ================  =============================================
POST      ``/v1/translate`` :class:`~repro.api.types.TranslateRequest` →
                            :class:`~repro.api.types.TranslateResponse`
POST      ``/v1/explain``   TranslateRequest (+ optional ``"sql"`` key) →
                            :class:`~repro.api.types.ExplainResponse`
POST      ``/v1/execute``   :class:`~repro.api.types.ExecuteRequest` →
                            :class:`~repro.api.types.ExecuteResponse`
GET       ``/v1/health``    liveness report (plain JSON)
GET       ``/v1/metrics``   obs metrics snapshot — JSON by default,
                            Prometheus text with ``Accept: text/plain``
GET       ``/v1/status``    SLO burn state + admission posture
GET       ``/v1/tenants/{id}/usage``  per-tenant cost ledger
GET       ``/v1/trace/{request_id}``  retained span tree (schema v1)
========  ================  =============================================

The three live-telemetry GET routes answer 501 when the service was
built without a :class:`~repro.obs.live.LiveTelemetry` layer.

Every error is an :class:`~repro.api.types.ErrorEnvelope` with the HTTP
status it names, the stdlib's own protocol errors included.  The handler
speaks HTTP/1.1 with keep-alive so closed-loop load generators reuse
connections, and stays silent on stdout/stderr (request logging goes
through the service's observer, and a client hanging up is no error).

Each response leaves in one write on a ``TCP_NODELAY`` socket.  A head
and body written apart make Nagle's algorithm hold the body for the
client's delayed ACK: ~40 ms per keep-alive response on Linux.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.api.types import (
    ErrorEnvelope,
    ExecuteRequest,
    TranslateRequest,
    WireFormatError,
)
from repro.schema import exception_text
from repro.serve.service import NL2SQLService

#: Bodies past this size are refused before parsing (413).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the server's service; one instance per request."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    sys_version = ""
    #: ``StreamRequestHandler.setup`` sets TCP_NODELAY on the socket.
    disable_nagle_algorithm = True

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence stdlib per-request stderr logging."""

    @property
    def service(self) -> NL2SQLService:
        return self.server.service

    def _send(self, status: int, data,
              content_type: str = "application/json") -> None:
        """Write one response, status line to body, in a single write.

        ``data`` is text sent as is, or a wire object / dict / list sent
        as sorted-key JSON.
        """
        if isinstance(data, str):
            body = data.encode("utf-8")
        else:
            payload = data if isinstance(data, (dict, list)) else data.to_dict()
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"{self.protocol_version} {status} "
            f"{self.responses.get(status, ('',))[0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + "\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)

    def _send_error_envelope(self, status: int, code: str,
                             message: str) -> None:
        self._send(
            status, ErrorEnvelope(code=code, message=message, status=status)
        )

    def send_error(self, code, message=None, explain=None):
        """Answer the stdlib's protocol errors with an envelope, then close."""
        code = int(code)
        self.close_connection = True
        self._send_error_envelope(
            code, "unsupported" if code >= 500 else "bad_request",
            message or self.responses.get(code, ("",))[0],
        )

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if 0 <= length <= MAX_BODY_BYTES:
            return self.rfile.read(length)
        # The body stays unread, so the connection cannot carry another
        # request: its bytes would be parsed as one.
        self.close_connection = True
        if length < 0:
            self._send_error_envelope(
                400, "bad_request", "invalid Content-Length"
            )
        else:
            self._send_error_envelope(
                413, "payload_too_large",
                f"body exceeds {MAX_BODY_BYTES} bytes",
            )
        return None

    # -- routes -----------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib routing convention
        if self.path == "/v1/health":
            status, payload = self.service.health()
        elif self.path == "/v1/metrics":
            # Content negotiation: JSON is the default wire format; a
            # scraper asking for text/plain gets Prometheus exposition.
            if "text/plain" in self.headers.get("Accept", ""):
                status, text = self.service.prometheus()
                self._send(
                    status, text, "text/plain; version=0.0.4; charset=utf-8"
                )
                return
            status, payload = self.service.metrics()
        elif self.path == "/v1/status":
            status, payload = self.service.status()
        elif (self.path.startswith("/v1/tenants/")
                and self.path.endswith("/usage")):
            tenant_id = self.path[len("/v1/tenants/"):-len("/usage")]
            status, payload = self.service.tenant_usage(tenant_id)
        elif self.path.startswith("/v1/trace/"):
            request_id = self.path[len("/v1/trace/"):]
            status, payload = self.service.trace(request_id)
        else:
            self._send_error_envelope(
                404, "not_found", f"no route {self.path!r}"
            )
            return
        self._send(status, payload)

    def do_POST(self):  # noqa: N802 - stdlib routing convention
        body = self._read_body()
        if body is None:
            return
        if self.path == "/v1/translate":
            self._wire(TranslateRequest, body, self.service.translate)
        elif self.path == "/v1/explain":
            self._explain(body)
        elif self.path == "/v1/execute":
            self._wire(ExecuteRequest, body, self.service.execute)
        else:
            self._send_error_envelope(
                404, "not_found", f"no route {self.path!r}"
            )

    def _wire(self, request_cls, body: bytes, endpoint) -> None:
        try:
            request = request_cls.from_json(body.decode("utf-8"))
        except (WireFormatError, UnicodeDecodeError) as exc:
            self._send_error_envelope(400, "bad_request", exception_text(exc))
            return
        status, payload = endpoint(request)
        self._send(status, payload)

    def _explain(self, body: bytes) -> None:
        # /v1/explain speaks TranslateRequest plus one optional "sql"
        # key; split it off before the strict wire parse.
        try:
            data = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_error_envelope(400, "bad_request", exception_text(exc))
            return
        if not isinstance(data, dict):
            self._send_error_envelope(400, "bad_request", "expected an object")
            return
        sql = data.pop("sql", None)
        if sql is not None and not isinstance(sql, str):
            self._send_error_envelope(400, "bad_request", "sql must be a string")
            return
        try:
            request = TranslateRequest.from_dict(data)
        except WireFormatError as exc:
            self._send_error_envelope(400, "bad_request", exception_text(exc))
            return
        status, payload = self.service.explain(request, sql=sql)
        self._send(status, payload)


class ReproServer(ThreadingHTTPServer):
    """The long-lived service process: one socket, one service, N threads.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`address`); :meth:`start` serves on a background thread so
    tests and the CLI share one lifecycle; :meth:`stop` shuts the
    listener down and joins the serving thread with a bounded wait.
    """

    daemon_threads = True

    def __init__(self, service: NL2SQLService, host: str = "127.0.0.1",
                 port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound (resolves ephemeral ports)."""
        return self.server_address[0], self.server_address[1]

    def start(self) -> "ReproServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop serving and release the socket (bounded join)."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
            self._thread = None
        self.server_close()
        self.service.close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def handle_error(self, request, client_address) -> None:
        """Drop a client hang-up (broken pipe, reset); print anything else."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)
