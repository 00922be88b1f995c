"""The HTTP+JSON surface and signal lifecycle of ``repro serve``.

Stdlib-only (:mod:`http.server` ``ThreadingHTTPServer``): the daemon is
a local, single-host service, so no framework is warranted.  It speaks
HTTP/1.1 with keep-alive: a client holds one connection (and so one
server thread) for its lifetime instead of connecting per request.
Endpoints:

=======  ==============================  =====================================
Method   Path                            Meaning
=======  ==============================  =====================================
GET      /healthz                        liveness (200 while the process runs)
GET      /readyz                         readiness (503 once draining)
GET      /v1/status                      queue/store/session counters
POST     /v1/sessions                    open a session -> ``{"session": id}``
DELETE   /v1/sessions/<id>               close a session
POST     /v1/jobs                        submit -> 200 cached / 202 accepted /
                                         400 SRV001 / 429 SRV002 / 503 SRV006
GET      /v1/jobs/<id>[?wait=S]          job record (optionally long-polled)
GET      /v1/jobs/<id>/events[?since=N]  progress events
=======  ==============================  =====================================

Submissions carry ``{"kind", "workload", "size", "options", "fault",
"session", "force"}``; cacheable requests are answered from the
content-addressed store unless ``force`` is set.  Sessions are
bookkeeping on this side of the process boundary -- each *job* already
gets a pristine :class:`~repro.serve.session.SessionContext` in its
worker subprocess, so sessions group jobs for accounting and warm
per-session journals rather than sharing any mutable compiler state.

Lifecycle: SIGTERM/SIGINT trigger a drain -- readiness flips to 503, no
new jobs are admitted (SRV006), running jobs get a grace period, and
stragglers are checkpointed for the next start (their journals and
accepted-without-done ledger lines survive; the next boot re-queues
them, SRV007).
"""

from __future__ import annotations

import itertools
import json
import math
import signal
import socket
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro.serve.executor import Draining, JobExecutor, QueueFull
from repro.serve.jobs import JobSpec, cache_key
from repro.serve.store import ResultStore

_SESSION_IDS = itertools.count(1)

#: A kept-alive connection with no request for this long is closed, so
#: an abandoned client does not pin a server thread.  A client whose
#: connection was idled out reconnects on its next request.
IDLE_TIMEOUT_S = 30.0


class _BadRequest(Exception):
    """A malformed request field; answered 400 ``SRV001``."""


class _HTTPServer(ThreadingHTTPServer):
    """Tracks the connections it accepted, so shutdown can end kept-alive
    ones: each holds a thread blocked waiting for its next request."""

    daemon_threads = True

    def __init__(self, address, handler):
        self._connections = set()
        self._connections_changed = threading.Condition()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._connections_changed:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._connections_changed:
            self._connections.discard(request)
            self._connections_changed.notify_all()

    def close_connections(self, timeout_s: float) -> None:
        """End every open connection once its in-flight reply is out,
        and wait (up to ``timeout_s``) until each thread has closed its
        socket, so nothing answers on one afterwards.

        Shutting down the read side wakes a thread waiting for the next
        request with end-of-file; a thread mid-request still writes its
        reply (``Connection: close``, the server is draining) first.
        """
        with self._connections_changed:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:  # its thread is closing it already
                    pass
            self._connections_changed.wait_for(
                lambda: not self._connections, timeout=timeout_s
            )


@dataclass
class ServeConfig:
    """Everything ``repro serve`` configures."""

    host: str = "127.0.0.1"
    port: int = 8573
    workers: int = 2
    state_dir: str = ".repro-serve"
    queue_limit: int = 8
    job_timeout_s: Optional[float] = None
    kill_grace_s: float = 10.0
    drain_grace_s: float = 5.0
    max_attempts: int = 3

    def validate(self) -> "ServeConfig":
        if self.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(f"--queue-limit must be >= 1, got {self.queue_limit}")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ValueError(
                f"--job-timeout must be positive, got {self.job_timeout_s}"
            )
        return self


@dataclass
class _Session:
    session_id: str
    jobs: list = field(default_factory=list)


class ReproServer:
    """The daemon: store + executor + HTTP front end + signal handling."""

    def __init__(self, config: ServeConfig):
        self.config = config.validate()
        self.store = ResultStore(config.state_dir)
        self.executor = JobExecutor(
            self.store,
            workers=config.workers,
            queue_limit=config.queue_limit,
            job_timeout_s=config.job_timeout_s,
            kill_grace_s=config.kill_grace_s,
            max_attempts=config.max_attempts,
        )
        self.draining = False
        self.recovered = 0
        self._lock = threading.Lock()
        self._sessions: Dict[str, _Session] = {}
        self._httpd: Optional[_HTTPServer] = None
        self._recover()

    def _recover(self) -> None:
        """Re-queue jobs a previous process accepted but never finished."""
        for job_id, spec, _key in self.store.recover():
            try:
                job = self.executor.submit(spec, job_id=job_id, ledger=False)
            except (QueueFull, Draining):
                break
            with self.executor._lock:  # the monitor may already be forking it
                job.add_event({"stage": "recovered", "code": "SRV007"})
            self.recovered += 1

    # -- request handling (called from HTTP threads) -------------------

    def handle_submit(self, body: dict):
        """Returns ``(http_status, response_dict)`` for POST /v1/jobs."""
        if self.draining:
            return 503, {
                "code": "SRV006",
                "error": "server is draining; resubmit after restart",
            }
        try:
            spec = JobSpec.from_request(body)
        except ValueError as exc:
            return 400, {"code": "SRV001", "error": str(exc)}
        session = None
        if spec.session is not None:
            with self._lock:
                session = self._sessions.get(spec.session)
            if session is None:
                return 400, {
                    "code": "SRV001",
                    "error": f"unknown session {spec.session!r}",
                }
        if spec.cacheable and not body.get("force", False):
            record = self.store.lookup(cache_key(spec))
            if record is not None:
                return 200, {
                    "cached": True,
                    "key": record["key"],
                    "fingerprint": record["fingerprint"],
                    "result": {
                        "kind": spec.kind,
                        "design": record["design"],
                        "search": record.get("search"),
                        "timing": record["timing"],
                    },
                }
        try:
            job = self.executor.submit(spec)
        except QueueFull as exc:
            return 429, {
                "code": "SRV002",
                "error": str(exc),
                "retry_after_s": exc.retry_after_s,
            }
        except Draining:
            return 503, {
                "code": "SRV006",
                "error": "server is draining; resubmit after restart",
            }
        if session is not None:
            with self._lock:
                session.jobs.append(job.id)
        return 202, {"cached": False, "job": job.id, "status": job.status}

    def handle_job(self, job_id: str, wait_s: Optional[float]):
        job = (
            self.executor.wait(job_id, timeout_s=wait_s)
            if wait_s
            else self.executor.get(job_id)
        )
        if job is None:
            return 404, {"code": "SRV001", "error": f"unknown job {job_id!r}"}
        return 200, job.as_dict()

    def handle_events(self, job_id: str, since: int):
        job = self.executor.get(job_id)
        if job is None:
            return 404, {"code": "SRV001", "error": f"unknown job {job_id!r}"}
        with self.executor._lock:
            events = [e for e in job.events if e["seq"] >= since]
            status = job.status
        return 200, {"job": job_id, "status": status, "events": events}

    def open_session(self):
        with self._lock:
            session = _Session(f"s{next(_SESSION_IDS)}")
            self._sessions[session.session_id] = session
        return 201, {"session": session.session_id}

    def close_session(self, session_id: str):
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            return 404, {"code": "SRV001", "error": f"unknown session {session_id!r}"}
        return 200, {"session": session_id, "jobs": len(session.jobs)}

    def status(self):
        with self._lock:
            sessions = len(self._sessions)
        return 200, {
            "draining": self.draining,
            "recovered": self.recovered,
            "sessions": sessions,
            "queue": self.executor.snapshot(),
            "store": self.store.stats(),
        }

    # -- lifecycle -----------------------------------------------------

    def start(self) -> int:
        """Bind the HTTP server (returns the bound port); non-blocking."""
        config = self.config
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # A kept-alive reply is small and written in two pieces
            # (headers, body); with Nagle on, the second waits ~40 ms
            # for the client's delayed ACK.
            disable_nagle_algorithm = True
            timeout = IDLE_TIMEOUT_S

            # Silence per-request stderr logging; diagnostics go through
            # the structured job records instead.
            def log_message(self, format, *args):
                pass

            def _reply(self, status: int, payload: dict, headers=()):
                blob = json.dumps(payload, sort_keys=True).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                for name, value in headers:
                    self.send_header(name, value)
                if server.draining or self.close_connection:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(blob)

            def _dispatch(self, route):
                """Read the body in full, then answer: on a kept-alive
                connection an unread body would be parsed as the next
                request."""
                try:
                    body = self._read_body()
                    reply = route(urlparse(self.path), body)
                except _BadRequest as exc:
                    reply = (400, {"code": "SRV001", "error": str(exc)})
                self._reply(*reply)

            def _read_body(self) -> bytes:
                length = self.headers.get("Content-Length", "0")
                if not (length.isascii() and length.isdigit()):
                    # Where the body ends, and so where the next request
                    # starts, is unknown: this connection is done.
                    self.close_connection = True
                    raise _BadRequest(f"invalid Content-Length {length!r}")
                return self.rfile.read(int(length))

            def _get(self, url, _body):
                path = url.path.rstrip("/")
                if path == "/healthz":
                    return 200, {"ok": True}
                if path == "/readyz":
                    if server.draining:
                        return 503, {"ready": False, "code": "SRV006"}
                    return 200, {"ready": True}
                if path == "/v1/status":
                    return server.status()
                if path.startswith("/v1/jobs/"):
                    query = parse_qs(url.query)
                    rest = path[len("/v1/jobs/"):]
                    if rest.endswith("/events"):
                        since = _query_int(query, "since", 0)
                        return server.handle_events(rest[: -len("/events")], since)
                    return server.handle_job(rest, _query_wait(query))
                return 404, {"error": f"no route {path!r}"}

            def _post(self, url, body):
                path = url.path.rstrip("/")
                if path == "/v1/sessions":
                    return server.open_session()
                if path == "/v1/jobs":
                    try:
                        request = json.loads(body.decode("utf-8") if body else "{}")
                    except ValueError:
                        raise _BadRequest("invalid JSON body") from None
                    status, payload = server.handle_submit(request)
                    if status == 429:
                        retry = ("Retry-After", f"{payload['retry_after_s']:.0f}")
                        return status, payload, (retry,)
                    return status, payload
                return 404, {"error": f"no route {path!r}"}

            def _delete(self, url, _body):
                path = url.path.rstrip("/")
                if path.startswith("/v1/sessions/"):
                    return server.close_session(path[len("/v1/sessions/"):])
                return 404, {"error": f"no route {path!r}"}

            def do_GET(self):
                self._dispatch(self._get)

            def do_POST(self):
                self._dispatch(self._post)

            def do_DELETE(self):
                self._dispatch(self._delete)

        self._httpd = _HTTPServer((config.host, config.port), Handler)
        return self._httpd.server_address[1]

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[1]

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or a signal)."""
        if self._httpd is None:
            self.start()
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-http",
            daemon=True,
        )
        thread.start()
        try:
            # Timed: a signal the kernel delivers to another thread does
            # not wake an untimed join, so the drain handler never ran.
            # The timeout bounds how late it runs; it must stay well
            # inside a drain grace (0.5 s let a 0.3 s job finish first).
            while thread.is_alive():
                thread.join(0.05)
        except KeyboardInterrupt:
            self.shutdown()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> drain and stop (main thread only)."""

        def _on_signal(signum, frame):
            threading.Thread(
                target=self.shutdown, name="serve-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    def shutdown(self) -> dict:
        """Drain the executor, checkpoint stragglers, stop the listener
        and end every kept-alive connection."""
        self.draining = True
        outcome = self.executor.drain(grace_s=self.config.drain_grace_s)
        self.executor.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            # A thread blocked on its socket gives up within the idle
            # timeout anyway, so that bounds the wait.
            self._httpd.close_connections(IDLE_TIMEOUT_S)
        return outcome


def _query_int(query: dict, name: str, default: int) -> int:
    raw = query.get(name, [None])[0]
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise _BadRequest(f"{name} must be an integer, got {raw!r}") from None


def _query_wait(query: dict) -> Optional[float]:
    raw = query.get("wait", [None])[0]
    if raw is None:
        return None
    try:
        wait_s = float(raw)
    except ValueError:
        wait_s = math.nan
    if not (math.isfinite(wait_s) and wait_s >= 0):
        raise _BadRequest(f"wait must be a finite number of seconds >= 0, got {raw!r}")
    return wait_s


def run_server(config: ServeConfig) -> int:
    """CLI entry: boot, print the address, serve until signalled."""
    server = ReproServer(config)
    port = server.start()
    server.install_signal_handlers()
    print(
        f"repro serve listening on http://{config.host}:{port} "
        f"(workers={config.workers}, state={config.state_dir}, "
        f"recovered={server.recovered})",
        flush=True,
    )
    server.serve_forever()
    print("repro serve: drained and stopped", flush=True)
    return 0
