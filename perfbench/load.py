"""Load generators: a closed loop and an open loop over keep-alive HTTP.

Both run in ``run.py``'s process, one thread per connection, and
record what each client saw; nothing is checked here.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

#: Client-side timeout on one request; a request that takes longer
#: counts as a transport error.
REQUEST_TIMEOUT_S = 30.0


class Client:
    """One keep-alive connection that reconnects after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def post(self, path: str, payload: dict) -> tuple:
        """``(status, body)``; status 0 and the error text on failure."""
        body = json.dumps(payload).encode("utf-8")
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
                )
            self.conn.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self.conn.getresponse()
            data = response.read()
            return response.status, json.loads(data)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.close()
            return 0, {"transport_error": type(exc).__name__}

    def close(self) -> None:
        """Drop the connection."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def translate_payload(question: dict) -> dict:
    """The ``/v1/translate`` body for one stream entry."""
    return {
        "schema_version": 1,
        "question": question["question"],
        "db_id": question["db_id"],
        "request_id": question["rid"],
    }


def _run_threads(target, connections: int, timeout_s: float) -> None:
    threads = [
        threading.Thread(
            target=target, name=f"perfbench-load-{i}", daemon=True
        )
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout_s
    for thread in threads:
        thread.join(max(deadline - time.monotonic(), 0.0))
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("load generator threads did not finish")


def closed_loop(port: int, questions: list, seconds: float,
                connections: int) -> tuple:
    """Each connection sends its next translate when the last returns.

    Stops sending at ``seconds`` or when the stream runs out.  Returns
    ``(records, window_s)``; a record is
    ``(rid, send, done, status, body)`` with times on ``perf_counter``.
    """
    stream = iter(questions)
    lock = threading.Lock()
    records: list = []
    start = time.perf_counter()
    stop_at = start + seconds

    def worker():
        client = Client(port)
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    question = next(stream, None)
                if question is None:
                    return
                send = time.perf_counter()
                status, body = client.post(
                    "/v1/translate", translate_payload(question)
                )
                records.append(
                    (question["rid"], send, time.perf_counter(), status, body)
                )
        finally:
            client.close()

    _run_threads(worker, connections, seconds + 2 * REQUEST_TIMEOUT_S)
    window = max(r[2] for r in records) - start if records else seconds
    return records, window


def open_loop(port: int, questions: list, rate: float,
              connections: int) -> list:
    """Session ``i`` is due at ``i / rate`` s: a translate, then an execute.

    A free connection takes the next session and sleeps until it is
    due.  Returns one record per session:
    ``(rid, due, pickup, send, translated, done, status, body,
    exec_status, exec_body)``.  ``done`` is when the rows arrived (or
    the session failed); ``pickup`` later than ``due`` means the session
    waited for a connection.
    """
    lock = threading.Lock()
    position = iter(range(len(questions)))
    records: list = []
    start = time.perf_counter() + 0.05

    def worker():
        client = Client(port)
        try:
            while True:
                with lock:
                    index = next(position, None)
                if index is None:
                    return
                question = questions[index]
                due = start + index / rate
                pickup = time.perf_counter()
                if pickup < due:
                    time.sleep(due - pickup)
                send = time.perf_counter()
                status, body = client.post(
                    "/v1/translate", translate_payload(question)
                )
                translated = time.perf_counter()
                exec_status, exec_body = 0, {}
                if status == 200:
                    exec_status, exec_body = client.post("/v1/execute", {
                        "schema_version": 1,
                        "sql": body["sql"],
                        "db_id": question["db_id"],
                        "request_id": question["rid"] + "-x",
                    })
                records.append((
                    question["rid"], due, pickup, send, translated,
                    time.perf_counter(), status, body, exec_status, exec_body,
                ))
        finally:
            client.close()

    _run_threads(
        worker, connections, len(questions) / rate + 2 * REQUEST_TIMEOUT_S
    )
    return records
