"""HTTP surface of the daemon: endpoints, admission control, lifecycle."""

import http.client
import json
import urllib.request

import pytest

from repro.serve import ServerError

pytestmark = pytest.mark.serve


class TestEndpoints:
    def test_health_ready_status(self, serve_factory):
        _server, client = serve_factory()
        assert client.health()
        assert client.ready()
        status = client.status()
        assert status["draining"] is False
        assert status["queue"]["workers"] == 2
        assert (status["queue"]["idle"], status["queue"]["forks"]) == (0, 0)
        assert status["store"]["entries"] == 0

    def test_unknown_routes_and_jobs_404(self, serve_factory):
        _server, client = serve_factory()
        assert client.request("GET", "/v1/nope")[0] == 404
        assert client.request("GET", "/v1/jobs/job-999")[0] == 404
        assert client.request("GET", "/v1/jobs/job-999/events")[0] == 404
        with pytest.raises(ServerError):
            client.close_session("s-unknown")

    def test_invalid_submissions_are_srv001(self, serve_factory):
        _server, client = serve_factory()
        for body in (
            {"kind": "compile", "workload": "gemm"},
            {"kind": "dse", "workload": "never-heard-of-it"},
            {"kind": "verify", "workload": "gemm", "options": {"jobs": 2}},
            {"kind": "dse", "workload": "gemm", "options": {"jobs": 2}},
            {"kind": "fuzz", "options": {"trials": 2, "jobs": 2}},
            {"kind": "dse", "workload": "gemm", "options": {"surrogate": False}},
        ):
            status, payload = client.request("POST", "/v1/jobs", body)
            assert status == 400
            assert payload["code"] == "SRV001"
        status, payload = client.submit("dse", "gemm", 32, session="s-ghost")
        assert (status, payload["code"]) == (400, "SRV001")


class TestJobsAndCache:
    def test_verify_roundtrip_then_warm_hit(self, serve_factory):
        _server, client = serve_factory()
        status, payload = client.submit("verify", "gemm", 32)
        assert status == 202
        record = client.wait_done(payload["job"], timeout_s=60)
        assert record["status"] == "done"
        assert record["result"]["design"]["ok"] is True

        status, payload = client.submit("verify", "gemm", 32)
        assert status == 200, "repeat request must be a warm store hit"
        assert payload["cached"] is True
        assert payload["result"]["design"]["ok"] is True
        assert payload["fingerprint"]

        status, payload = client.submit("verify", "gemm", 32, force=True)
        assert status == 202, "force bypasses the store"
        client.wait_done(payload["job"], timeout_s=60)

    def test_events_stream_with_since(self, serve_factory):
        _server, client = serve_factory()
        _status, payload = client.submit("verify", "gemm", 32)
        job_id = payload["job"]
        client.wait_done(job_id, timeout_s=60)
        events = client.events(job_id)["events"]
        stages = [e["stage"] for e in events]
        assert stages[0] == "spawn"
        assert "finished" in stages
        assert [e["seq"] for e in events] == list(range(len(events)))
        later = client.events(job_id, since=len(events))["events"]
        assert later == []

    def test_sessions_group_jobs(self, serve_factory):
        _server, client = serve_factory()
        session = client.open_session()
        status, payload = client.submit("verify", "gemm", 32, session=session)
        assert status == 202
        client.wait_done(payload["job"], timeout_s=60)
        closed = client.close_session(session)
        assert closed["jobs"] == 1
        with pytest.raises(ServerError):
            client.close_session(session)


class TestAdmissionControl:
    def test_queue_full_is_429_with_retry_after(self, serve_factory):
        server, client = serve_factory(queue_limit=2, workers=1)
        # Freeze the scheduler so submissions stay pending: the 429 path
        # must be deterministic, not a race against worker startup.
        server.executor._start_ready_locked = lambda: None
        accepted = [client.submit("verify", "gemm", 32 + i) for i in range(2)]
        assert all(status == 202 for status, _ in accepted)
        status, payload = client.submit("verify", "gemm", 64)
        assert status == 429
        assert payload["code"] == "SRV002"
        assert payload["retry_after_s"] >= 1.0

        request = urllib.request.Request(
            client.base_url + "/v1/jobs",
            data=b'{"kind": "verify", "workload": "gemm", "size": 64}',
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=10)
            raise AssertionError("expected HTTP 429")
        except urllib.error.HTTPError as exc:
            assert exc.code == 429
            assert float(exc.headers["Retry-After"]) >= 1

    def test_draining_rejects_with_srv006(self, serve_factory):
        server, client = serve_factory()
        server.draining = True
        assert not client.ready()
        assert client.health(), "liveness stays up while draining"
        status, payload = client.submit("verify", "gemm", 32)
        assert (status, payload["code"]) == (503, "SRV006")


class TestLifecycle:
    def test_shutdown_reports_drain_outcome(self, serve_factory):
        server, client = serve_factory()
        _status, payload = client.submit("verify", "gemm", 32)
        client.wait_done(payload["job"], timeout_s=60)
        outcome = server.shutdown()
        assert outcome["finished"] == 1
        assert outcome["interrupted"] == 0
        assert not client.health(), "listener is down after shutdown"


def _raw_post(port, content_length):
    """POST /v1/jobs with a hand-written Content-Length and no body."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.putrequest("POST", "/v1/jobs")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read()), response.will_close
    finally:
        connection.close()


class TestMalformedRequests:
    """Bad request fields answer 400 SRV001 instead of dropping the
    connection with a traceback."""

    @pytest.mark.parametrize("options", [
        {"resource_fraction": float("nan")},
        {"resource_fraction": float("inf")},
        {"resource_fraction": 2},
        {"resource_fraction": 0},
        {"resource_fraction": -1},
        {"time_budget_s": float("nan")},
        {"candidate_timeout_s": float("nan")},
        {"resource_fraction": "half"},
        {"resource_fraction": 0.001},
        # 1% of xc7z020 keeps 2 DSPs, but of the requested 10% part none.
        {"device": "xc7z020@10%", "resource_fraction": 0.01},
    ], ids=["fraction-nan", "fraction-inf", "fraction-2", "fraction-0",
            "fraction-negative", "budget-nan", "timeout-nan", "fraction-string",
            "fraction-zeroes-a-budget", "fraction-zeroes-a-requested-budget"])
    def test_bad_dse_option_is_refused_before_queueing(self, serve_factory, options):
        """These used to be accepted (202): out-of-range fractions ran on
        the full device; 0, -1 and fractions that truncate a budget to
        zero failed later in the worker."""
        server, client = serve_factory()
        body = {"kind": "dse", "workload": "gemm", "size": 16, "options": options}
        status, payload = client.request("POST", "/v1/jobs", body)
        assert (status, payload["code"]) == (400, "SRV001"), payload
        assert client.status()["queue"]["jobs"] == 0

    @pytest.mark.parametrize("content_length", ["abc", "-5"])
    def test_bad_content_length(self, serve_factory, content_length):
        server, client = serve_factory()
        status, payload, will_close = _raw_post(server.port, content_length)
        assert (status, payload["code"]) == (400, "SRV001")
        assert will_close, "the next request's start is unknown"
        assert client.health()

    @pytest.mark.parametrize("query", [
        "/events?since=abc", "?wait=abc", "?wait=nan", "?wait=inf",
    ])
    def test_bad_query_field(self, serve_factory, query):
        _server, client = serve_factory()
        _status, payload = client.submit("verify", "gemm", 32)
        status, payload = client.request("GET", f"/v1/jobs/{payload['job']}{query}")
        assert (status, payload["code"]) == (400, "SRV001")
        assert client.health()

    @pytest.mark.parametrize("field", [
        {"force": "false"}, {"force": 1}, {"size": True},
    ])
    def test_mistyped_submission_field(self, serve_factory, field):
        _server, client = serve_factory()
        _status, payload = client.submit("verify", "gemm", 32)
        client.wait_done(payload["job"], timeout_s=60)
        body = {"kind": "verify", "workload": "gemm", "size": 32, **field}
        status, payload = client.request("POST", "/v1/jobs", body)
        assert (status, payload["code"]) == (400, "SRV001"), payload
