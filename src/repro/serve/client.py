"""A stdlib-only client for the ``repro serve`` daemon.

Used by the test suites, the CI smoke job, and ``repro fuzz --server``.
Speaks the JSON API of :mod:`repro.serve.server`; :meth:`ServeClient.run`
is the convenience most callers want -- submit, honour 429 backpressure
by sleeping out the advertised ``Retry-After``, then long-poll to a
terminal state.

Each thread that uses a client holds one kept-alive HTTP/1.1 connection
to the daemon, so a warm store hit costs one round trip on an open
socket rather than a TCP connect and a fresh server thread.  Close the
client (or use it as a context manager) to release the sockets.
"""

from __future__ import annotations

import json
import random
import threading
import time
from http.client import HTTPConnection, HTTPException, RemoteDisconnected
from typing import Optional
from urllib.error import URLError
from urllib.parse import urlsplit

#: Backpressure sleeps are stretched by up to this fraction, uniformly
#: at random, so a herd of clients rejected together does not re-submit
#: in lockstep and re-stampede the queue.
BACKOFF_JITTER_FRACTION = 0.25

#: How a *reused* connection fails when the daemon closed it while idle
#: (or restarted): before any response byte, so the request was never
#: read and is sent once more on a fresh connection.
_STALE_CONNECTION = (RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class ServerError(RuntimeError):
    """A non-retryable error response from the daemon."""

    def __init__(self, status: int, payload: dict):
        code = payload.get("code")
        detail = payload.get("error") or payload
        super().__init__(f"HTTP {status}" + (f" [{code}]" if code else "") + f": {detail}")
        self.status = status
        self.code = code
        self.payload = payload


class ServeClient:
    """Talks to one daemon at ``base_url`` (e.g. http://127.0.0.1:8573)."""

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 60.0,
        rng: Optional[random.Random] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        # Injectable so tests pin the backpressure jitter; per-instance
        # (not the module RNG) so concurrent clients stay independent.
        self._rng = rng if rng is not None else random.Random()
        url = urlsplit(self.base_url)
        self._netloc = url.netloc
        self._prefix = url.path
        # One connection per thread: an HTTP/1.1 connection carries one
        # request at a time.  All of them are listed so close() reaches
        # every thread's.
        self._local = threading.local()
        self._connections: list = []
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection; a later request reconnects."""
        with self._connections_lock:
            for connection in self._connections:
                connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -----------------------------------------------------

    def _connection(self) -> HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            # http.client opens the socket on first use (with TCP_NODELAY
            # set, so a small request is not held back for a delayed
            # ACK) and again after a close.
            connection = HTTPConnection(self._netloc, timeout=self.timeout_s)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """One round trip; returns ``(status, payload)``.

        A connection failure raises :class:`~urllib.error.URLError`.
        """
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        while True:
            reused = connection.sock is not None
            try:
                connection.request(method, self._prefix + path, body=data, headers=headers)
                response = connection.getresponse()
                break
            except _STALE_CONNECTION as exc:
                connection.close()
                if not reused:
                    raise URLError(exc) from exc
            except (OSError, HTTPException) as exc:
                connection.close()
                raise URLError(exc) from exc
            except BaseException:
                connection.close()  # mid-exchange: unusable
                raise
        # On ``Connection: close`` http.client has already handed the
        # socket to the response, which closes it once read to the end;
        # the next request then reconnects.
        try:
            raw = response.read()
        except BaseException:
            response.close()
            connection.close()
            raise
        try:
            return response.status, json.loads(raw.decode("utf-8"))
        except ValueError:
            if response.status < 400:
                raise
            return response.status, {"error": raw.decode("utf-8", "replace")}

    def _expect(self, statuses, method, path, body=None):
        status, payload = self.request(method, path, body)
        if status not in statuses:
            raise ServerError(status, payload)
        return payload

    # -- endpoints -----------------------------------------------------

    def health(self) -> bool:
        try:
            status, _ = self.request("GET", "/healthz")
        except URLError:
            return False
        return status == 200

    def ready(self) -> bool:
        try:
            status, _ = self.request("GET", "/readyz")
        except URLError:
            return False
        return status == 200

    def wait_until_up(self, timeout_s: float = 10.0) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.health():
                return True
            time.sleep(0.05)
        return False

    def status(self) -> dict:
        return self._expect((200,), "GET", "/v1/status")

    def open_session(self) -> str:
        return self._expect((201,), "POST", "/v1/sessions")["session"]

    def close_session(self, session_id: str) -> dict:
        return self._expect((200,), "DELETE", f"/v1/sessions/{session_id}")

    def submit(
        self,
        kind: str,
        workload: Optional[str] = None,
        size: Optional[int] = None,
        options: Optional[dict] = None,
        fault: Optional[dict] = None,
        session: Optional[str] = None,
        force: bool = False,
    ):
        """POST /v1/jobs; returns ``(status, payload)`` untranslated.

        200 = warm cache hit (payload carries the result), 202 =
        accepted (payload carries the job id), 429/503/400 = rejected.
        """
        body: dict = {"kind": kind}
        if workload is not None:
            body["workload"] = workload
        if size is not None:
            body["size"] = size
        if options:
            body["options"] = options
        if fault:
            body["fault"] = fault
        if session:
            body["session"] = session
        if force:
            body["force"] = True
        return self.request("POST", "/v1/jobs", body)

    def job(self, job_id: str, wait_s: Optional[float] = None) -> dict:
        path = f"/v1/jobs/{job_id}"
        if wait_s is not None:
            path += f"?wait={wait_s:g}"
        return self._expect((200,), "GET", path)

    def events(self, job_id: str, since: int = 0) -> dict:
        return self._expect((200,), "GET", f"/v1/jobs/{job_id}/events?since={since}")

    def wait_done(self, job_id: str, timeout_s: float = 300.0) -> dict:
        """Long-poll a job to a terminal status; raises on timeout."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"job {job_id} still running after {timeout_s}s")
            record = self.job(job_id, wait_s=min(remaining, 10.0))
            if record["status"] in ("done", "failed", "timeout", "interrupted"):
                return record

    def run(self, timeout_s: float = 300.0, **submit_kwargs) -> dict:
        """Submit and wait, honouring 429 backpressure.

        Returns a job-record-shaped dict; warm cache hits come back as
        ``{"status": "done", "cached": True, "result": ...}``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            status, payload = self.submit(**submit_kwargs)
            if status == 200:
                return {
                    "status": "done",
                    "cached": True,
                    "result": payload["result"],
                    "fingerprint": payload.get("fingerprint"),
                }
            if status == 202:
                return self.wait_done(
                    payload["job"], timeout_s=max(0.1, deadline - time.monotonic())
                )
            if status == 429:
                retry_after = float(payload.get("retry_after_s", 1.0))
                remaining = deadline - time.monotonic()
                if retry_after >= remaining:
                    # The advertised wait would blow the caller's
                    # deadline: fail now rather than sleep into a
                    # guaranteed timeout.
                    raise ServerError(status, payload)
                # Bounded jitter (never shrinking the advertised wait,
                # never sleeping past the deadline) de-synchronizes
                # clients that were rejected together.
                jitter = 1.0 + self._rng.random() * BACKOFF_JITTER_FRACTION
                time.sleep(min(retry_after * jitter, remaining))
                continue
            raise ServerError(status, payload)
