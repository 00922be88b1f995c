"""ResultStore contract: crash-safe persistence, corrupt-skip, recovery."""

import json
import os

import pytest

from repro.serve.jobs import JobSpec, cache_key
from repro.serve.store import ResultStore

pytestmark = pytest.mark.serve


def _spec(workload="gemm", size=64, **over):
    body = {"kind": "dse", "workload": workload, "size": size}
    body.update(over)
    return JobSpec.from_request(body)


def _payload(cycles=100):
    return {
        "design": {"workload": "gemm", "total_cycles": cycles},
        "search": {"evaluations": 7},
        "timing": {"wall_s": 0.5},
    }


class TestResults:
    def test_record_then_lookup(self, tmp_path):
        store = ResultStore(str(tmp_path))
        spec = _spec()
        key = cache_key(spec)
        assert store.lookup(key) is None
        entry = store.record(key, spec, _payload())
        found = store.lookup(key)
        assert found is entry
        assert found["design"]["total_cycles"] == 100
        assert found["fingerprint"]
        assert store.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "corrupt_skipped": 0,
        }

    def test_survives_reopen(self, tmp_path):
        spec = _spec()
        key = cache_key(spec)
        ResultStore(str(tmp_path)).record(key, spec, _payload())
        reopened = ResultStore(str(tmp_path))
        assert reopened.lookup(key)["design"]["total_cycles"] == 100

    def test_last_writer_wins_on_duplicate_key(self, tmp_path):
        spec = _spec()
        key = cache_key(spec)
        store = ResultStore(str(tmp_path))
        store.record(key, spec, _payload(cycles=100))
        store.record(key, spec, _payload(cycles=200))
        assert store.lookup(key)["design"]["total_cycles"] == 200
        reopened = ResultStore(str(tmp_path))
        assert reopened.lookup(key)["design"]["total_cycles"] == 200

    def test_corrupt_lines_skipped_not_fatal(self, tmp_path):
        """The SRV005 discipline: a torn append never poisons the store."""
        spec = _spec()
        key = cache_key(spec)
        store = ResultStore(str(tmp_path))
        store.record(key, spec, _payload())
        with open(store.store_path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn-entry", "design"\n')  # torn mid-append
            handle.write("?? not json at all ??\n")
            handle.write('"a json string, not an object"\n')
            handle.write('{"no_key_field": true}\n')  # missing required fields
        reopened = ResultStore(str(tmp_path))
        assert reopened.lookup(key)["design"]["total_cycles"] == 100
        assert reopened.stats()["corrupt_skipped"] == 4
        assert reopened.stats()["entries"] == 1

    def test_journal_paths_are_per_key(self, tmp_path):
        store = ResultStore(str(tmp_path))
        a = store.journal_path_for(cache_key(_spec(size=8)))
        b = store.journal_path_for(cache_key(_spec(size=16)))
        assert a != b
        assert os.path.dirname(a) == store.journal_dir

    def test_a_finished_jobs_journal_goes_with_its_store_line(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        key, other = cache_key(_spec(size=8)), cache_key(_spec(size=16))
        journal = store.journal_path_for(key)
        # A dataflow design's journal fans out to one file per stage.
        left = [journal, journal + ".conv", store.journal_path_for(other)]
        for path in left:
            open(path, "w").close()

        # A crash while the store line is written leaves the journal.
        def crash(path, record):
            raise OSError("disk gone")

        monkeypatch.setattr("repro.serve.store._append_line", crash)
        with pytest.raises(OSError):
            store.record(key, _spec(size=8), _payload())
        assert all(os.path.exists(path) for path in left)
        monkeypatch.undo()

        store.record(key, _spec(size=8), _payload())
        assert ResultStore(str(tmp_path)).lookup(key) is not None
        assert os.listdir(store.journal_dir) == [os.path.basename(left[2])]


class TestLedger:
    def test_recover_returns_accepted_without_done(self, tmp_path):
        store = ResultStore(str(tmp_path))
        done_spec, lost_spec = _spec(size=8), _spec(size=16)
        store.job_accepted("job-1", done_spec, cache_key(done_spec))
        store.job_accepted("job-2", lost_spec, cache_key(lost_spec))
        store.job_done("job-1", "done")
        recovered = ResultStore(str(tmp_path)).recover()
        assert [(job_id, spec.size) for job_id, spec, _key in recovered] == [
            ("job-2", 16)
        ]
        assert recovered[0][2] == cache_key(lost_spec)

    def test_recover_drops_specs_that_no_longer_validate(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.job_accepted("job-1", _spec(), cache_key(_spec()))
        with open(store.jobs_path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "event": "accepted",
                        "job_id": "job-stale",
                        "key": None,
                        "request": {"kind": "dse", "workload": "removed-wl"},
                    }
                )
                + "\n"
            )
        reopened = ResultStore(str(tmp_path))
        assert [job_id for job_id, _s, _k in reopened.recover()] == ["job-1"]
        assert reopened.stats()["corrupt_skipped"] == 1

    def test_torn_tail_does_not_swallow_the_next_job(self, tmp_path):
        """A crash mid-append leaves a torn ``accepted`` line; the job a
        restarted server admits next must survive the following restart."""
        store = ResultStore(str(tmp_path))
        for job_id in ("j1", "j2"):
            store.job_accepted(job_id, _spec(), cache_key(_spec()))
        with open(store.jobs_path, "r+b") as handle:
            handle.truncate(os.path.getsize(store.jobs_path) - 20)
        restarted = ResultStore(str(tmp_path))
        assert [j for j, _s, _k in restarted.recover()] == ["j1"]
        restarted.job_accepted("j3", _spec(size=8), cache_key(_spec(size=8)))
        again = ResultStore(str(tmp_path))
        assert [j for j, _s, _k in again.recover()] == ["j1", "j3"]
        assert again.stats()["corrupt_skipped"] == 1

    def test_interrupted_jobs_stay_recoverable(self, tmp_path):
        """A drain writes no done-line, so a restart sees the job again."""
        store = ResultStore(str(tmp_path))
        spec = _spec()
        store.job_accepted("job-9", spec, cache_key(spec))
        # ... server dies here: no job_done ...
        assert [j for j, _s, _k in ResultStore(str(tmp_path)).recover()] == [
            "job-9"
        ]
        # The restarted server finishes it and closes the ledger.
        store2 = ResultStore(str(tmp_path))
        store2.job_done("job-9", "done")
        assert ResultStore(str(tmp_path)).recover() == []
