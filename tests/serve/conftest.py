"""Shared fixtures for the compile-server suite.

``serve_factory`` boots an in-process :class:`~repro.serve.ReproServer`
on an ephemeral port with a per-test state directory and hands back the
server plus a :class:`~repro.serve.ServeClient` bound to it (closed at
teardown, so no kept-alive socket is left for a ``ResourceWarning``).
Tests that exercise crash/restart semantics call the factory twice with
the same ``subdir`` (and, to reach it with the same client, ``port``)
to simulate a daemon restart over a surviving store.
"""

import threading

import pytest

from repro.serve import ReproServer, ServeClient, ServeConfig


@pytest.fixture
def serve_factory(tmp_path):
    booted = []

    def boot(subdir="state", **overrides):
        overrides.setdefault("drain_grace_s", 2.0)
        overrides.setdefault("port", 0)
        config = ServeConfig(state_dir=str(tmp_path / subdir), **overrides)
        server = ReproServer(config)
        port = server.start()
        thread = threading.Thread(
            target=server._httpd.serve_forever, daemon=True
        )
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{port}", timeout_s=60.0)
        booted.append((server, client))
        return server, client

    yield boot
    for server, client in booted:
        client.close()
        try:
            server.shutdown()
        except Exception:
            pass
