"""Chaos on the server: a poisoned job cannot hurt anyone but itself.

Extends the batch-layer chaos suite through the serve path: a seeded
:class:`~repro.faults.FaultPlan` rides a job request into a sandboxed
worker, crashes it mid-sweep and corrupts its checkpoint journal, while
a sibling session runs the same workload clean in a concurrent worker.
The claims under test are the ISSUE's fault-isolation core:

* the poisoned worker's death never reaches the server process or the
  sibling job -- the clean job's design stays bit-identical to batch;
* the shared content-addressed store stays uncorrupted -- the fault spec
  is part of the cache key, so a poisoned job can never write (or warm)
  a clean request's entry;
* the poisoned job itself converges: retry runs disarmed over the
  (corrupt-line-skipping) journal and lands on the fault-free design.
"""

import threading

import pytest

from repro import workloads
from repro.dse import auto_dse
from repro.faults import FaultPlan
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.serve.jobs import (
    JobSpec,
    cache_key,
    design_fingerprint,
    dse_design_payload,
)
from repro.serve.store import ResultStore

pytestmark = [pytest.mark.resilience, pytest.mark.serve]

WORKLOAD, SIZE = "gemm", 48

#: Seeded chaos plan (the batch chaos suite's idiom): seed 1 draws both
#: worker-killing crashes and journal-corrupting faults.
CHAOS_FAULT = {"seed": 1, "candidates": 10, "rate": 0.5,
               "kinds": ["crash", "corrupt"]}


@pytest.fixture
def server(tmp_path):
    config = ServeConfig(port=0, state_dir=str(tmp_path / "state"), workers=2)
    server = ReproServer(config)
    port = server.start()
    threading.Thread(target=server._httpd.serve_forever, daemon=True).start()
    yield server, ServeClient(f"http://127.0.0.1:{port}", timeout_s=60.0)
    server.shutdown()


@pytest.fixture(scope="module")
def clean_fingerprint():
    result = auto_dse(workloads.get(WORKLOAD, SIZE))
    return design_fingerprint(dse_design_payload(result, WORKLOAD, SIZE))


def test_seeded_plan_draws_real_chaos():
    """The plan under test genuinely kills workers and corrupts journals."""
    plan = FaultPlan.random(
        seed=CHAOS_FAULT["seed"],
        candidates=CHAOS_FAULT["candidates"],
        kinds=tuple(CHAOS_FAULT["kinds"]),
        rate=CHAOS_FAULT["rate"],
    )
    kinds = {fault.kind for fault in plan.faults}
    assert kinds == {"crash", "corrupt"}


def test_poisoned_job_cannot_corrupt_store_or_sibling(
    server, clean_fingerprint
):
    daemon, client = server
    poisoned_session = client.open_session()
    clean_session = client.open_session()

    # Poisoned and clean jobs in flight together, one worker each.
    _status, poisoned = client.submit(
        "dse", WORKLOAD, SIZE, fault=CHAOS_FAULT, session=poisoned_session
    )
    _status, clean = client.submit(
        "dse", WORKLOAD, SIZE, session=clean_session
    )

    clean_record = client.wait_done(clean["job"], timeout_s=120)
    poisoned_record = client.wait_done(poisoned["job"], timeout_s=120)

    # The sibling session never noticed: clean result is bit-identical
    # to the in-process batch run.
    assert clean_record["status"] == "done", clean_record
    assert (
        design_fingerprint(clean_record["result"]["design"])
        == clean_fingerprint
    )

    # The poisoned job died at least once (SRV004 retry), then converged
    # to the same fault-free design over its corrupt-line-skipping
    # journal -- the batch layer's chaos-resume idiom, through HTTP.
    assert poisoned_record["status"] == "done", poisoned_record
    assert poisoned_record["attempts"] >= 2
    events = client.events(poisoned["job"])["events"]
    assert any(e.get("code") == "SRV004" for e in events)
    assert (
        design_fingerprint(poisoned_record["result"]["design"])
        == clean_fingerprint
    )

    # The server process itself never crashed and kept serving.
    assert client.health()

    # Store integrity: reload from disk, no corrupt entries, and the
    # poisoned request lives under its own key, not the clean one.
    store = ResultStore(daemon.config.state_dir)
    assert store.stats()["corrupt_skipped"] == 0
    clean_key = cache_key(
        JobSpec.from_request({"kind": "dse", "workload": WORKLOAD, "size": SIZE})
    )
    poisoned_key = cache_key(
        JobSpec.from_request(
            {"kind": "dse", "workload": WORKLOAD, "size": SIZE,
             "fault": CHAOS_FAULT}
        )
    )
    assert poisoned_key != clean_key
    assert store.lookup(clean_key)["fingerprint"] == clean_fingerprint
    assert store.lookup(poisoned_key)["fingerprint"] == clean_fingerprint

    # And the clean key stays a warm hit with the clean design.
    status, payload = client.submit("dse", WORKLOAD, SIZE)
    assert status == 200
    assert payload["fingerprint"] == clean_fingerprint


def test_hang_fault_degrades_inside_its_own_job(server, clean_fingerprint):
    """A hanging candidate burns its own budget, not the server's."""
    _daemon, client = server
    record = client.run(
        kind="dse",
        workload=WORKLOAD,
        size=SIZE,
        options={"candidate_timeout_s": 5.0},
        fault={"faults": [{"kind": "hang", "candidate": 3}]},
        timeout_s=120,
    )
    assert record["status"] == "done", record
    assert "DSE003" in record["result"]["search"]["quarantine"]
    assert client.health()
