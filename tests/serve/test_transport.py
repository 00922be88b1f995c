"""The daemon's HTTP/1.1 keep-alive transport, driven through sockets.

A client holds one connection per thread for its lifetime, so a warm
store hit is one round trip on an open socket.  These tests count
accepted connections instead of timing them, and pin what keep-alive
must not break: an unread body never becomes the next request, threads
sharing a client never see each other's replies, and a client outlives
its daemon's idle timeout and restart.
"""

import http.client
import json
import sys
import threading
import time

import pytest

from repro.serve import ServeClient
from repro.serve import server as server_module

pytestmark = pytest.mark.serve


def _count_accepts(server):
    """Wrap the listener so each accepted connection is counted."""
    httpd = server._httpd
    accepted = []
    process_request = httpd.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    httpd.process_request = counting
    return accepted


@pytest.mark.perfsmoke
def test_perfsmoke_warm_hits_share_one_connection(serve_factory):
    server, client = serve_factory(workers=1)
    accepted = _count_accepts(server)
    cold = client.run(kind="verify", workload="gemm", size=32)
    assert cold["status"] == "done" and not cold.get("cached")
    for _ in range(50):
        assert client.run(kind="verify", workload="gemm", size=32)["cached"] is True
    assert len(accepted) == 1, accepted


def test_unread_body_does_not_become_the_next_request(serve_factory):
    server, _client = serve_factory()
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request(
            "POST", "/v1/sessions", body=json.dumps({"note": "ignored"}),
            headers={"Content-Type": "application/json"},
        )
        opened = connection.getresponse()
        assert opened.status == 201
        session = json.loads(opened.read())["session"]
        sock = connection.sock

        connection.request("GET", "/v1/status")
        status = connection.getresponse()
        assert status.status == 200
        assert json.loads(status.read())["sessions"] == 1
        assert connection.sock is sock, "both requests rode one connection"
        assert session
    finally:
        connection.close()


def test_threads_sharing_a_client_get_their_own_replies(serve_factory):
    server, client = serve_factory()
    accepted = _count_accepts(server)
    errors = []

    def worker():
        try:
            for _ in range(20):
                session = client.open_session()
                assert client.close_session(session)["session"] == session
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-exchange
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(accepted) == 4, "one kept-alive connection per thread"


def test_client_reconnects_to_a_rebooted_daemon(serve_factory):
    first, client = serve_factory()
    assert client.health()
    port = first.port
    first.shutdown()
    assert not client.health()

    second, _ = serve_factory(port=port)
    accepted = _count_accepts(second)
    assert client.health()
    assert client.status()["draining"] is False
    assert len(accepted) == 1


def test_client_reconnects_after_an_idle_timeout(serve_factory, monkeypatch):
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
    server, client = serve_factory()
    accepted = _count_accepts(server)
    assert client.health()
    deadline = time.monotonic() + 10
    while server._httpd._connections and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not server._httpd._connections, "the idle connection was closed"
    assert client.health(), "the stale connection is replaced, not reported"
    assert len(accepted) == 2


def test_close_releases_every_connection(serve_factory):
    server, _client = serve_factory()
    with ServeClient(f"http://127.0.0.1:{server.port}") as client:
        threads = [threading.Thread(target=client.health) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert client.health()
        connections = list(client._connections)
        assert len(connections) == 4
    assert all(connection.sock is None for connection in connections)
