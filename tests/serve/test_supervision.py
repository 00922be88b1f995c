"""The executor's event-driven supervision, driven without the HTTP layer.

The monitor thread blocks on every worker's pipe and sentinel plus a
self-pipe -- no tick, no sleep.  These tests pin what that buys and what
it must not lose: every outcome (done, SRV004 retry, SRV003 kill) is
reached with ``time.sleep`` forbidden; a worker that dies mid-message or
silently is a retry, never a hang; results larger than the pipe buffer
arrive whole; concurrent jobs keep their own events; a worker forked
from the warm template imports nothing; and the per-job overhead the
``phases`` field accounts for stays in the low milliseconds.
"""

import json
import os
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import executor as executor_module
from repro.serve.executor import PHASES, JobExecutor
from repro.serve.jobs import JobSpec
from repro.serve.store import ResultStore

pytestmark = pytest.mark.serve


@pytest.fixture
def make_executor(tmp_path):
    made = []

    def make(**options):
        executor = JobExecutor(ResultStore(str(tmp_path / f"s{len(made)}")), **options)
        made.append(executor)
        return executor

    yield make
    for executor in made:
        executor.close()


def _run(executor, timeout_s=60.0, **request):
    job = executor.submit(JobSpec.from_request(request))
    finished = executor.wait(job.id, timeout_s=timeout_s)
    assert finished.status != "running", f"{request} hung: {finished.as_dict()}"
    return finished


class TestNoSleepAnywhere:
    """Every supervision outcome with ``time.sleep`` turned into an error."""

    @pytest.fixture(autouse=True)
    def forbid_sleep(self, monkeypatch):
        def forbidden(seconds):
            raise AssertionError(f"time.sleep({seconds}) in the serve executor")

        monkeypatch.setattr("repro.serve.executor.time.sleep", forbidden)

    def test_dse_verify_and_crash_retry_complete(self, make_executor):
        executor = make_executor(workers=1)
        dse = _run(executor, kind="dse", workload="gemm", size=32)
        assert dse.status == "done", dse.as_dict()
        assert dse.result["design"]["total_cycles"] > 0

        verify = _run(executor, kind="verify", workload="gemm", size=32)
        assert verify.status == "done", verify.as_dict()
        assert verify.result["design"]["ok"] is True

        crashed = _run(
            executor, kind="dse", workload="bicg", size=32,
            fault={"faults": [{"kind": "crash", "candidate": 2}]},
        )
        assert crashed.status == "done", crashed.as_dict()
        assert crashed.attempts == 2
        retry = next(e for e in crashed.events if e["stage"] == "retry")
        assert retry["code"] == "SRV004"
        assert retry["backoff_s"] == executor.backoff_s
        # The backoff was waited out on a deadline, and is accounted for.
        assert crashed.phases["queued_s"] >= executor.backoff_s

    def test_unresponsive_worker_is_killed_at_its_deadline(
        self, make_executor, monkeypatch
    ):
        def hang(spec, journal_path, arm_faults, job_timeout_s, emit):
            threading.Event().wait(60.0)

        monkeypatch.setattr(executor_module, "execute_job", hang)
        executor = make_executor(workers=1, job_timeout_s=0.05, kill_grace_s=0.05)
        started = time.monotonic()
        job = _run(executor, kind="verify", workload="gemm", size=32)
        assert time.monotonic() - started < 10.0
        assert (job.status, job.code) == ("timeout", "SRV003")
        assert "unresponsive" in job.error
        assert job.attempts == 1, "a hard timeout is not retried"


class TestWorkerDeath:
    """A worker that dies without a whole outcome is SRV004, never a hang."""

    @pytest.fixture
    def first_attempt(self, monkeypatch):
        """Replace attempt 1 of every job (``arm_faults`` marks it)."""
        real = executor_module._worker_main

        def install(misbehave):
            def worker(request, journal_path, arm_faults, job_timeout_s, channel):
                if arm_faults:
                    misbehave(channel)
                real(request, journal_path, arm_faults, job_timeout_s, channel)

            monkeypatch.setattr(executor_module, "_worker_main", worker)

        return install

    def _assert_retried(self, job, exitcode):
        assert job.status == "done", job.as_dict()
        assert job.attempts == 2
        retry = next(e for e in job.events if e["stage"] == "retry")
        assert (retry["code"], retry["exitcode"]) == ("SRV004", exitcode)
        assert job.result["design"]["ok"] is True

    def test_killed_mid_send(self, make_executor, first_attempt):
        def die_mid_message(channel):
            # A header promising 1 MiB, a hundred bytes of it, then SIGKILL.
            os.write(channel.fileno(), struct.pack("!i", 1 << 20) + b"x" * 100)
            os.kill(os.getpid(), signal.SIGKILL)

        first_attempt(die_mid_message)
        job = _run(make_executor(workers=1), kind="verify", workload="gemm", size=32)
        self._assert_retried(job, -signal.SIGKILL)

    def test_exit_without_a_message(self, make_executor, first_attempt):
        first_attempt(lambda channel: os._exit(0))
        job = _run(make_executor(workers=1), kind="verify", workload="gemm", size=32)
        self._assert_retried(job, 0)

    def test_result_larger_than_the_pipe_buffer(self, make_executor, monkeypatch):
        blob = "x" * (1 << 20)

        def big(spec, journal_path, arm_faults, job_timeout_s, emit):
            return {"kind": "trace", "design": {"blob": blob}, "timing": {"wall_s": 0.0}}

        monkeypatch.setattr(executor_module, "execute_job", big)
        job = _run(make_executor(workers=1), kind="trace", workload="gemm", size=32)
        assert job.status == "done", job.as_dict()
        assert job.result["design"]["blob"] == blob


def test_concurrent_jobs_keep_their_own_events(make_executor):
    """Two workers, four jobs at once, a status poller hammering the lock
    under a shortened switch interval: every job finishes with exactly
    its own events, and never more than ``workers`` run at a time."""
    executor = make_executor(workers=2, queue_limit=4)
    requests = [
        {"kind": "dse", "workload": "gemm", "size": 32},
        {"kind": "verify", "workload": "bicg", "size": 32},
        {"kind": "dse", "workload": "2mm", "size": 24},
        {"kind": "verify", "workload": "atax", "size": 32},
    ]
    polling = threading.Event()
    most_running = [0]

    def poll_status(jobs):
        while not polling.is_set():
            most_running[0] = max(most_running[0], executor.snapshot()["running"])
            for job in jobs:
                executor.get(job.id).as_dict()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        jobs = [executor.submit(JobSpec.from_request(r)) for r in requests]
        poller = threading.Thread(target=poll_status, args=(jobs,), daemon=True)
        poller.start()
        for job in jobs:
            executor.wait(job.id, timeout_s=120.0)
        polling.set()
        poller.join(timeout=10.0)
        assert not poller.is_alive()
    finally:
        polling.set()
        sys.setswitchinterval(interval)

    assert 1 <= most_running[0] <= 2
    for job, request in zip(jobs, requests):
        assert job.status == "done", job.as_dict()
        stages = [event["stage"] for event in job.events]
        assert stages[0] == "spawn" and stages[-1] == "finished"
        assert [event["seq"] for event in job.events] == list(range(len(job.events)))
        built = [e["workload"] for e in job.events if e["stage"] == "build"]
        assert built == [request["workload"]]
        assert job.result["design"]["workload"] == request["workload"]
    assert executor.snapshot()["running"] == 0


def _children_of(pid):
    """Live child pids of ``pid``, from ``/proc/<pid>/stat`` field 4."""
    children = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = handle.read().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue  # exited between listdir and open
        if int(ppid) == pid:
            children.append(int(entry))
    return children


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs Linux /proc")
@pytest.mark.parametrize(
    "workload, size", [("2mm", 24), ("image-pipeline", 16)]
)
def test_dse_worker_has_no_child_processes_while_it_runs(
    make_executor, monkeypatch, workload, size
):
    """A sweep is one process.  A worker's death is seen through its pipe
    and sentinel, which any child it forked would inherit and hold open;
    with none, a worker SIGKILLed from outside is noticed at once."""
    real = executor_module.execute_job

    def spying(spec, journal_path, arm_faults, job_timeout_s, emit):
        import repro.dse.engine as engine

        pick, seen = engine._pick_bottleneck, []

        def sampling(graph, latencies, active):
            seen.append(_children_of(os.getpid()))
            return pick(graph, latencies, active)

        engine._pick_bottleneck = sampling  # in this worker, which outlives the job
        try:
            payload = real(spec, journal_path, arm_faults, job_timeout_s, emit)
        finally:
            engine._pick_bottleneck = pick
        emit({"stage": "children", "seen": seen})
        return payload

    monkeypatch.setattr(executor_module, "execute_job", spying)
    job = _run(make_executor(workers=1), kind="dse", workload=workload, size=size)
    assert job.status == "done", job.as_dict()
    (event,) = [e for e in job.events if e["stage"] == "children"]
    assert len(event["seen"]) >= 4, "sampled once per ladder step"
    assert not any(event["seen"]), event["seen"]


_WARM_TEMPLATE_SCRIPT = """
import json, sys, tempfile
import repro.serve
from repro.serve import executor
from repro.serve.jobs import JobSpec
from repro.serve.store import ResultStore

real = executor.execute_job

def spying(spec, journal_path, arm_faults, job_timeout_s, emit):
    before = set(sys.modules)
    payload = real(spec, journal_path, arm_faults, job_timeout_s, emit)
    emit({"stage": "imports", "new": sorted(set(sys.modules) - before)})
    return payload

executor.execute_job = spying  # forked workers inherit the patch
report = {}
with tempfile.TemporaryDirectory() as state:
    runner = executor.JobExecutor(ResultStore(state), workers=1)
    try:
        for request in json.loads(sys.argv[1]):
            job = runner.submit(JobSpec.from_request(request))
            runner.wait(job.id, timeout_s=120.0)
            new = [e["new"] for e in job.events if e["stage"] == "imports"]
            report[job.spec.label] = {"status": job.status, "new": new}
    finally:
        runner.close()
print(json.dumps(report))
"""


def test_forked_worker_imports_nothing():
    """In a fresh interpreter that imported only ``repro.serve``, a worker
    running one job of each kind adds nothing to ``sys.modules``:
    :func:`repro.serve.jobs.preload` covers every lazy import."""
    requests = [
        {"kind": "dse", "workload": "gemm", "size": 32},
        {"kind": "dse", "workload": "image-pipeline", "size": 16,
         "options": {"resource_fraction": 0.25}},
        {"kind": "verify", "workload": "gemm", "size": 32},
        {"kind": "trace", "workload": "gemm", "size": 32, "options": {"dse": True}},
        {"kind": "fuzz", "options": {"seed": 1, "trials": 3}},
    ]
    done = subprocess.run(
        [sys.executable, "-c", _WARM_TEMPLATE_SCRIPT, json.dumps(requests)],
        capture_output=True, text=True, timeout=300, env=os.environ.copy(),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(report) == len(requests)
    for label, outcome in report.items():
        assert outcome == {"status": "done", "new": [[]]}, (label, outcome)


def _running_pid(pid):
    """True while ``pid`` runs; an exited process awaiting its reaper
    (state ``Z``) counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _pipe_links(pid):
    """``pipe:[inode]`` -> how many of ``pid``'s fds refer to that pipe."""
    links = {}
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if target.startswith("pipe:"):
            links[target] = links.get(target, 0) + 1
    return links


@pytest.fixture
def two_idle_workers(make_executor, monkeypatch):
    """An executor whose two workers both ran a job and now sit idle."""
    real = executor_module.execute_job

    def overlapping(spec, journal_path, arm_faults, job_timeout_s, emit):
        threading.Event().wait(0.3)  # long enough that the second job forks too
        return real(spec, journal_path, arm_faults, job_timeout_s, emit)

    monkeypatch.setattr(executor_module, "execute_job", overlapping)
    executor = make_executor(workers=2)
    jobs = [
        executor.submit(JobSpec.from_request(
            {"kind": "verify", "workload": workload, "size": 32}
        ))
        for workload in ("gemm", "bicg")
    ]
    for job in jobs:
        assert executor.wait(job.id, timeout_s=60.0).status == "done", job.as_dict()
    snapshot = executor.snapshot()
    assert (snapshot["idle"], snapshot["forks"], snapshot["running"]) == (2, 2, 0)
    return executor


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs Linux /proc")
@pytest.mark.parametrize("end", ["close", "drain"])
def test_no_worker_outlives_close_or_drain(two_idle_workers, end):
    executor = two_idle_workers
    with executor._lock:
        pids = {worker.process.pid for worker in executor._idle}
    assert pids <= set(_children_of(os.getpid()))
    if end == "drain":
        assert executor.drain(grace_s=5.0) == {"finished": 2, "interrupted": 0}
        assert executor.snapshot()["idle"] == 0
    else:
        executor.close()
    assert _children_of(os.getpid()) == []


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs Linux /proc")
def test_each_worker_holds_only_its_own_pipe_ends(two_idle_workers):
    """The later worker closed its sibling's server ends, and each worker
    closed the server's ends of its own pipes, so the server is the only
    writer of each request pipe: an idle worker sees EOF when it goes."""
    executor = two_idle_workers
    server = _pipe_links(os.getpid())
    with executor._lock:
        workers = list(executor._idle)
    pipes = {}
    for worker in workers:
        mine = [os.readlink(f"/proc/self/fd/{end.fileno()}") for end in (worker.jobs, worker.conn)]
        assert all(server[pipe] == 1 for pipe in mine)
        pipes[worker.process.pid] = mine
    for pid, mine in pipes.items():
        held = _pipe_links(pid)
        assert [held.get(pipe) for pipe in mine] == [1, 1], "one end of each, no more"
        for other, theirs in pipes.items():
            if other != pid:
                assert not set(theirs) & set(held), "a sibling's pipe end leaked"


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs Linux /proc")
def test_an_idle_worker_holds_no_end_of_the_self_pipe(two_idle_workers):
    executor = two_idle_workers
    self_pipe = {
        (stat.st_dev, stat.st_ino)
        for stat in map(os.fstat, (executor._wake_r, executor._wake_w))
    }
    with executor._lock:
        pids = [worker.process.pid for worker in executor._idle]
    for pid in pids:
        held = set()
        for fd in os.listdir(f"/proc/{pid}/fd"):
            stat = os.stat(f"/proc/{pid}/fd/{fd}")
            held.add((stat.st_dev, stat.st_ino))
        assert not self_pipe & held, pid


_IDLE_WORKERS_SCRIPT = """
import json, sys, threading
from repro.serve import executor
from repro.serve.jobs import JobSpec
from repro.serve.store import ResultStore

real = executor.execute_job

def overlapping(spec, journal_path, arm_faults, job_timeout_s, emit):
    threading.Event().wait(0.3)  # long enough that the second job forks too
    return real(spec, journal_path, arm_faults, job_timeout_s, emit)

executor.execute_job = overlapping  # forked workers inherit the patch
runner = executor.JobExecutor(ResultStore(sys.argv[1]), workers=2)
jobs = [
    runner.submit(JobSpec.from_request({"kind": "verify", "workload": w, "size": 32}))
    for w in ("gemm", "bicg")
]
for job in jobs:
    runner.wait(job.id, timeout_s=120.0)
with runner._lock:
    pids = [worker.process.pid for worker in runner._idle]
print(json.dumps({"status": [job.status for job in jobs], "pids": pids}), flush=True)
sys.stdin.read()  # hold the idle workers until killed
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs Linux /proc")
def test_idle_workers_exit_when_their_server_is_sigkilled(tmp_path):
    server = subprocess.Popen(
        [sys.executable, "-c", _IDLE_WORKERS_SCRIPT, str(tmp_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=os.environ.copy(),
    )
    try:
        report = json.loads(server.stdout.readline())
    finally:
        server.kill()
        server.wait()
        server.stdin.close()
        server.stdout.close()
    assert report["status"] == ["done", "done"]
    assert len(report["pids"]) == 2
    deadline = time.monotonic() + 5.0
    while any(map(_running_pid, report["pids"])) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not any(map(_running_pid, report["pids"])), report["pids"]


def test_an_idle_worker_that_died_is_replaced(make_executor):
    """A worker killed while idle is noticed and reaped; the next job gets
    a fresh fork on its first attempt instead of a dead worker."""
    executor = make_executor(workers=1)
    assert _run(executor, kind="verify", workload="gemm", size=32).status == "done"
    with executor._lock:
        (worker,) = executor._idle
    os.kill(worker.process.pid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while executor.snapshot()["idle"] and time.monotonic() < deadline:
        time.sleep(0.01)
    assert executor.snapshot()["idle"] == 0, "the idle worker's death went unseen"
    job = _run(executor, kind="verify", workload="bicg", size=32)
    assert job.status == "done", job.as_dict()
    assert job.attempts == 1
    assert job.events[0]["forked"] is True
    assert executor.snapshot()["forks"] == 2


def test_a_crash_retry_forks_even_with_a_worker_idle(make_executor, monkeypatch):
    """With one worker busy and one idle, the pool is full: a crash retry
    retires the idle worker and forks, so it runs on a fresh worker and
    the pool never exceeds ``workers`` processes."""
    real = executor_module.execute_job

    def slow(spec, journal_path, arm_faults, job_timeout_s, emit):
        if spec.workload == "atax":
            threading.Event().wait(2.0)  # busy through the whole retry
        return real(spec, journal_path, arm_faults, job_timeout_s, emit)

    monkeypatch.setattr(executor_module, "execute_job", slow)
    executor = make_executor(workers=2, backoff_s=0.3)
    busy = executor.submit(JobSpec.from_request(
        {"kind": "verify", "workload": "atax", "size": 32}
    ))
    crash = executor.submit(JobSpec.from_request({
        "kind": "dse", "workload": "bicg", "size": 32,
        "fault": {"faults": [{"kind": "crash", "candidate": 2}]},
    }))
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        with executor._lock:
            if any(event["stage"] == "retry" for event in crash.events):
                break
        time.sleep(0.005)
    # Inside the backoff: this job forks into the crashed worker's slot
    # and then waits idle beside the busy one.
    quick = _run(executor, kind="verify", workload="gemm", size=32)
    assert quick.status == "done", quick.as_dict()

    assert executor.wait(crash.id, timeout_s=60.0).status == "done", crash.as_dict()
    assert crash.attempts == 2
    assert [e["forked"] for e in crash.events if e["stage"] == "spawn"] == [True, True]
    assert executor.wait(busy.id, timeout_s=60.0).status == "done", busy.as_dict()
    snapshot = executor.snapshot()
    assert (snapshot["forks"], snapshot["idle"]) == (4, 2)
    with executor._lock:
        assert len(executor._pool) == 2


def test_sequential_jobs_in_one_worker_stay_isolated(make_executor, monkeypatch):
    """One worker runs dse, a job that fails mid-sweep, trace, fuzz, then a
    dse whose injected crash kills it (the retry runs on a fresh fork) and
    one more dse.  Every job starts with no fault plan, tracer or
    deadline installed, and every dse design equals the batch one."""
    from repro import workloads
    from repro.dse import auto_dse
    from repro.serve.jobs import design_fingerprint, dse_design_payload

    real = executor_module.execute_job

    def spying(spec, journal_path, arm_faults, job_timeout_s, emit):
        from repro import faults, trace
        from repro.dse import engine
        from repro.util import deadline

        active = {
            "faults": faults.active(), "trace": trace.active(),
            "deadline": deadline.active(),
        }
        emit({
            "stage": "entry", "pid": os.getpid(),
            "installed": sorted(name for name, value in active.items() if value),
        })
        if spec.workload != "2mm":
            return real(spec, journal_path, arm_faults, job_timeout_s, emit)

        def refuse(graph, latencies, active):
            raise RuntimeError("refused mid-sweep")

        pick, engine._pick_bottleneck = engine._pick_bottleneck, refuse
        try:
            return real(spec, journal_path, arm_faults, job_timeout_s, emit)
        finally:
            engine._pick_bottleneck = pick

    monkeypatch.setattr(executor_module, "execute_job", spying)
    executor = make_executor(workers=1)
    dses = {"gemm": 32, "bicg": 32, "atax": 32}
    requests = [
        {"kind": "dse", "workload": "gemm", "size": 32},
        {"kind": "dse", "workload": "2mm", "size": 24,
         "fault": {"faults": [{"kind": "transient", "candidate": 1}]}},
        {"kind": "trace", "workload": "gemm", "size": 32, "options": {"dse": True}},
        {"kind": "fuzz", "options": {"seed": 1, "trials": 3}},
        {"kind": "dse", "workload": "bicg", "size": 32,
         "fault": {"faults": [{"kind": "crash", "candidate": 2}]}},
        {"kind": "dse", "workload": "atax", "size": 32},
    ]
    jobs = [_run(executor, **request) for request in requests]

    assert [job.status for job in jobs] == ["done", "failed", "done", "done", "done", "done"]
    assert "refused mid-sweep" in jobs[1].error
    assert [job.attempts for job in jobs] == [1, 1, 1, 1, 2, 1]
    entries = [e for job in jobs for e in job.events if e["stage"] == "entry"]
    assert [e["installed"] for e in entries] == [[]] * 7
    # Attempt 1 of the crashing job is the fifth job on the first worker.
    pids = [e["pid"] for e in entries]
    assert len(set(pids[:5])) == 1 and len(set(pids[5:])) == 1
    assert pids[5] != pids[0]
    forked = [e["forked"] for job in jobs for e in job.events if e["stage"] == "spawn"]
    assert forked == [True, False, False, False, False, True, False]
    assert executor.snapshot()["forks"] == 2

    for job in jobs:
        if job.spec.kind == "dse" and job.spec.workload in dses:
            name = job.spec.workload
            batch = dse_design_payload(auto_dse(workloads.get(name, dses[name])), name, dses[name])
            assert design_fingerprint(job.result["design"]) == design_fingerprint(batch), name


@pytest.mark.perfsmoke
def test_perfsmoke_cold_job_overhead_and_phases(make_executor):
    """What a cold job costs beyond its sweep: dispatch to the idle
    worker, the result's trip back and the store write (the first job
    also pays for the fork).  The polling executor could not get under
    60 ms (a tick to notice the result, then a blind 50 ms drain);
    event-driven it is ~10 ms, and a few ms once the worker outlives its
    job."""
    executor = make_executor(workers=1)
    overheads = []
    for fraction in (0.3, 0.4, 0.5, 0.6, 0.7):
        job = _run(
            executor, kind="dse", workload="gemm", size=32,
            options={"resource_fraction": fraction},
        )
        assert job.status == "done", job.as_dict()
        record = job.as_dict()
        assert set(record["phases"]) == set(PHASES)
        assert sum(record["phases"].values()) == pytest.approx(
            record["wall_s"], abs=1e-5
        )
        assert job.events[-1]["phases"] == record["phases"]
        overheads.append(record["wall_s"] - record["result"]["timing"]["wall_s"])
    assert statistics.median(overheads) < 0.030, overheads
    assert executor.snapshot()["forks"] == 1, "one worker serves all five jobs"
