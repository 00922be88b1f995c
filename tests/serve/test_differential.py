"""The acceptance bar: serve mode is bit-identical to CLI batch mode.

The batch side runs ``auto_dse`` in-process exactly like ``repro dse``
(global context, no server); the serve side pushes the same requests
through HTTP, worker subprocesses, fresh per-job session contexts, the
content-addressed store, and -- in the hard cases -- an injected crash
with retry/resume or a full daemon drain/restart cycle.  Both sides are
projected through :func:`repro.serve.jobs.dse_design_payload` and hashed
with :func:`repro.serve.jobs.design_fingerprint`, so "bit-identical"
means the full deterministic design slice: cycles, resources, power,
tile vectors, and the installed schedule's fingerprints.
"""

import pytest

from repro import workloads
from repro.dse import auto_dse
from repro.dse.options import DseOptions
from repro.serve.jobs import design_fingerprint, dse_design_payload

pytestmark = pytest.mark.serve

#: Three workload families (dense linear algebra, two-statement
#: reduction, fused matrix chains) at a size small enough to keep the
#: suite quick but large enough that the DSE ladder actually explores.
WORKLOADS = (("gemm", 48), ("bicg", 48), ("2mm", 48))


@pytest.fixture(scope="module")
def batch_designs():
    """Sequential CLI-equivalent results, computed once per module."""
    designs = {}
    for name, size in WORKLOADS:
        result = auto_dse(workloads.get(name, size))
        designs[(name, size)] = design_fingerprint(
            dse_design_payload(result, name, size)
        )
    return designs


def test_concurrent_sessions_match_batch_then_warm_store(
    serve_factory, batch_designs
):
    server, client = serve_factory(workers=2)
    sessions = [client.open_session(), client.open_session()]

    # Submit every workload up front, alternating sessions, so jobs run
    # concurrently in sibling worker processes.
    submitted = []
    for index, (name, size) in enumerate(WORKLOADS):
        status, payload = client.submit(
            "dse", name, size, session=sessions[index % 2]
        )
        assert status == 202
        submitted.append((name, size, payload["job"]))

    for name, size, job_id in submitted:
        record = client.wait_done(job_id, timeout_s=120)
        assert record["status"] == "done", record
        served = design_fingerprint(record["result"]["design"])
        assert served == batch_designs[(name, size)], (name, size)

    # Every repeat request is a warm store hit with the same design.
    for name, size in WORKLOADS:
        status, payload = client.submit("dse", name, size)
        assert status == 200, (name, size)
        assert payload["cached"] is True
        assert (
            design_fingerprint(payload["result"]["design"])
            == batch_designs[(name, size)]
        )
    stats = client.status()["store"]
    assert stats["hits"] >= len(WORKLOADS)


def test_crashing_job_converges_to_the_batch_design(
    serve_factory, batch_designs
):
    """Injected crash -> worker dies -> retry disarmed + journal resume."""
    server, client = serve_factory(subdir="chaos")
    name, size = WORKLOADS[0]
    status, payload = client.submit(
        "dse", name, size,
        fault={"faults": [{"kind": "crash", "candidate": 2}]},
    )
    assert status == 202
    record = client.wait_done(payload["job"], timeout_s=120)
    assert record["status"] == "done", record
    assert record["attempts"] >= 2, "the injected crash must kill attempt 1"
    events = client.events(payload["job"])["events"]
    assert any(e.get("code") == "SRV004" for e in events)
    assert (
        design_fingerprint(record["result"]["design"])
        == batch_designs[(name, size)]
    )


#: The job in flight when the drain hits: a ~1 s sweep, so it provably
#: cannot finish inside the 50 ms grace window however fast the executor
#: reacts (the size-48 kernels above finish in ~40 ms and can).
LONG_JOB = ("vgg16", 4)


def test_drain_restart_resume_matches_batch(serve_factory):
    """SIGTERM-equivalent drain mid-job, restart, recovered job bit-matches."""
    name, size = LONG_JOB
    batch = design_fingerprint(
        dse_design_payload(auto_dse(workloads.get(name, size)), name, size)
    )
    first, client = serve_factory(subdir="restart", drain_grace_s=0.05)
    status, payload = client.submit("dse", name, size)
    assert status == 202
    job_id = payload["job"]
    first.shutdown()

    job = first.executor.get(job_id)
    assert job.status == "interrupted"
    assert job.code == "SRV006"

    second, client2 = serve_factory(subdir="restart")
    assert second.recovered == 1
    record = client2.wait_done(job_id, timeout_s=120)
    assert record["status"] == "done", record
    assert design_fingerprint(record["result"]["design"]) == batch
    events = client2.events(job_id)["events"]
    assert any(e.get("code") == "SRV007" for e in events)

    # And the finished result is now a warm hit for everyone else.
    status, payload = client2.submit("dse", name, size)
    assert status == 200
    assert design_fingerprint(payload["result"]["design"]) == batch


def test_pareto_dse_jobs_match_batch_frontier(serve_factory):
    """Frontier mode through HTTP: payload carries the exact batch frontier."""
    name, size = "gemm", 48
    options = {"objective": "pareto"}
    from repro.dse.options import DseOptions

    batch = auto_dse(
        workloads.get(name, size), options=DseOptions(objective="pareto")
    )
    batch_payload = dse_design_payload(batch, name, size)
    assert batch_payload["frontier"], "batch frontier must be non-empty"

    _server, client = serve_factory(subdir="pareto")
    record = client.run(
        kind="dse", workload=name, size=size, options=options, timeout_s=120
    )
    assert record["status"] == "done", record
    design = record["result"]["design"]
    assert design["objective"] == "pareto:latency,dsp"
    assert design["frontier"] == batch_payload["frontier"]
    assert design_fingerprint(design) == design_fingerprint(batch_payload)

    # Warm store hit returns the identical frontier; a different
    # objective is a different cache key and misses.
    status, payload = client.submit("dse", name, size, options=options)
    assert status == 200
    assert payload["result"]["design"]["frontier"] == batch_payload["frontier"]
    status, _payload = client.submit(
        "dse", name, size, options={"objective": "single"}
    )
    assert status == 202


#: Dataflow designs run their joint balancing DSE under a tight budget
#: so the balanced-vs-naive gap is visible in the served payload too.
DATAFLOW_WORKLOADS = (("image-pipeline", 16), ("conv-block", 8))
DATAFLOW_OPTIONS = {"resource_fraction": 0.25}


@pytest.fixture(scope="module")
def batch_dataflow_designs():
    """Sequential CLI-equivalent dataflow results, once per module."""
    designs = {}
    for name, size in DATAFLOW_WORKLOADS:
        result = workloads.get(name, size).auto_DSE(
            options=DseOptions(**DATAFLOW_OPTIONS)
        )
        designs[(name, size)] = design_fingerprint(
            dse_design_payload(result, name, size)
        )
    return designs


def test_dataflow_dse_jobs_match_batch(serve_factory, batch_dataflow_designs):
    """Multi-kernel pipeline DSE through HTTP bit-matches in-process."""
    _server, client = serve_factory(subdir="dataflow")
    for name, size in DATAFLOW_WORKLOADS:
        record = client.run(
            kind="dse", workload=name, size=size,
            options=DATAFLOW_OPTIONS, timeout_s=180,
        )
        assert record["status"] == "done", record
        design = record["result"]["design"]
        assert design["balanced_speedup"] >= 1.0
        assert design["frontier"], (name, size)
        assert (
            design_fingerprint(design)
            == batch_dataflow_designs[(name, size)]
        ), (name, size)

    # Repeats are warm store hits carrying the identical design.
    name, size = DATAFLOW_WORKLOADS[0]
    status, payload = client.submit(
        "dse", name, size, options=DATAFLOW_OPTIONS
    )
    assert status == 200
    assert payload["cached"] is True
    assert (
        design_fingerprint(payload["result"]["design"])
        == batch_dataflow_designs[(name, size)]
    )


def test_device_option_is_part_of_the_cache_key(serve_factory):
    """Same workload, different --device: distinct store entries."""
    _server, client = serve_factory(subdir="devices")
    name, size = "conv-block", 8
    zynq = {**DATAFLOW_OPTIONS, "device": "xc7z020"}
    record = client.run(
        kind="dse", workload=name, size=size, options=zynq, timeout_s=120
    )
    assert record["status"] == "done", record

    # The exact same request is a warm hit ...
    status, _payload = client.submit("dse", name, size, options=zynq)
    assert status == 200
    # ... but a different device name misses and runs fresh.
    ultrascale = {**DATAFLOW_OPTIONS, "device": "xczu9eg"}
    status, payload = client.submit("dse", name, size, options=ultrascale)
    assert status == 202
    record = client.wait_done(payload["job"], timeout_s=120)
    assert record["status"] == "done", record

    # Unknown device names are an SRV001 reject before any work runs.
    status, payload = client.submit(
        "dse", name, size, options={"device": "bogus-part"}
    )
    assert status == 400
    assert payload["code"] == "SRV001"
    assert "bogus-part" in payload["error"]


def test_verify_jobs_match_in_process_verification(serve_factory):
    name, size = "gemm", 48
    engine = workloads.get(name, size).verify()
    batch = {
        "ok": not engine.has_errors,
        "codes": sorted(d.code for d in engine.diagnostics),
    }
    _server, client = serve_factory(subdir="verify")
    record = client.run(kind="verify", workload=name, size=size, timeout_s=120)
    design = record["result"]["design"]
    assert design["ok"] == batch["ok"]
    assert sorted(d["code"] for d in design["diagnostics"]) == batch["codes"]
