"""JobSpec validation, cache keys, fingerprints, and in-worker execution."""

import json

import pytest

from repro.diagnostics import DiagnosticError
from repro.dse import DseOptions, auto_dse
from repro import workloads

from repro.serve.jobs import (
    JobSpec,
    build_fault_plan,
    cache_key,
    design_fingerprint,
    execute_job,
)

pytestmark = pytest.mark.serve


class TestValidation:
    def test_minimal_dse_request(self):
        spec = JobSpec.from_request({"kind": "dse", "workload": "gemm", "size": 64})
        assert spec.kind == "dse"
        assert spec.cacheable
        assert spec.label == "dse:gemm-64"

    @pytest.mark.parametrize(
        "body",
        [
            "not an object",
            {"kind": "compile", "workload": "gemm"},
            {"kind": "dse"},  # missing workload
            {"kind": "dse", "workload": "nope"},
            {"kind": "dse", "workload": "gemm", "size": 0},
            {"kind": "dse", "workload": "gemm", "size": "big"},
            {"kind": "dse", "workload": "gemm", "mystery": 1},
            {"kind": "dse", "workload": "gemm", "options": {"bogus": 1}},
            {"kind": "verify", "workload": "gemm", "options": {"jobs": 2}},
            {"kind": "verify", "workload": "gemm", "fault": {"seed": 1}},
            {"kind": "dse", "workload": "gemm", "fault": {"surprise": 1}},
            {"kind": "dse", "workload": "gemm", "fault": {"rate": 0.5}},
            {"kind": "dse", "workload": "gemm", "session": 7},
            # A sweep is sequential: `jobs` is no dse option.
            {"kind": "dse", "workload": "gemm", "options": {"jobs": 2}},
            # Neither is `surrogate` (PR 20): the exhaustive run is `cache: false`.
            {"kind": "dse", "workload": "gemm", "options": {"surrogate": False}},
            # A campaign runs its trials in order: `jobs` is no fuzz option.
            {"kind": "fuzz", "options": {"trials": 2, "jobs": 2}},
        ],
    )
    def test_rejects_bad_requests(self, body):
        with pytest.raises(ValueError):
            JobSpec.from_request(body)

    def test_fuzz_needs_no_workload(self):
        spec = JobSpec.from_request({"kind": "fuzz", "options": {"trials": 2}})
        assert spec.workload is None
        assert not spec.cacheable
        assert spec.label == "fuzz:suite"

    def test_as_request_is_canonical(self):
        spec = JobSpec.from_request(
            {
                "kind": "dse",
                "workload": "gemm",
                "size": 64,
                "options": {"time_budget_s": 5, "clock_ns": 5.0},
                "force": True,  # transport-only; not part of the content
            }
        )
        body = spec.as_request()
        assert "force" not in body
        assert list(body["options"]) == sorted(body["options"])


class TestCacheKey:
    def _spec(self, **over):
        body = {"kind": "dse", "workload": "gemm", "size": 64}
        body.update(over)
        return JobSpec.from_request(body)

    def test_option_order_does_not_matter(self):
        a = self._spec(options={"clock_ns": 5.0, "time_budget_s": 9})
        b = self._spec(options={"time_budget_s": 9, "clock_ns": 5.0})
        assert cache_key(a) == cache_key(b)

    def test_content_changes_the_key(self):
        base = cache_key(self._spec())
        assert cache_key(self._spec(size=65)) != base
        assert cache_key(self._spec(options={"clock_ns": 5.0})) != base
        assert (
            cache_key(
                self._spec(fault={"faults": [{"kind": "crash", "candidate": 2}]})
            )
            != base
        ), "a faulted request must never share a clean request's store key"

    def test_session_is_not_part_of_the_key(self):
        assert cache_key(self._spec(session="s1")) == cache_key(self._spec())

    def test_engine_version_is_baked_in(self, monkeypatch):
        base = cache_key(self._spec())
        import repro.dse.checkpoint as checkpoint

        monkeypatch.setattr(checkpoint, "ENGINE_VERSION", "incompatible")
        assert cache_key(self._spec()) != base


class TestDesignFingerprint:
    def test_tuple_list_normalization(self):
        assert design_fingerprint(
            {"tiles": [(2, 4), (1, 1)], "cycles": 9}
        ) == design_fingerprint({"tiles": [[2, 4], [1, 1]], "cycles": 9})

    def test_key_order_irrelevant_but_values_matter(self):
        assert design_fingerprint({"a": 1, "b": 2}) == design_fingerprint(
            {"b": 2, "a": 1}
        )
        assert design_fingerprint({"a": 1}) != design_fingerprint({"a": 2})


class TestFaultPlans:
    def test_explicit_schedule(self):
        plan = build_fault_plan(
            {"faults": [{"kind": "transient", "candidate": 3, "count": 2}]}
        )
        assert plan.faults[0].kind == "transient"
        assert plan.faults[0].count == 2

    def test_seeded_plan_is_deterministic(self):
        spec = {"seed": 11, "candidates": 8, "rate": 0.5}
        assert build_fault_plan(spec).faults == build_fault_plan(spec).faults

    @pytest.mark.parametrize(
        "spec",
        [
            {"faults": "nope"},
            {"faults": [{"kind": "crash"}]},
            {"rate": 0.5},
            {"seed": 1, "kinds": ["meteor"]},
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            build_fault_plan(spec)

    def test_empty_spec_is_no_plan(self):
        assert build_fault_plan(None) is None
        assert build_fault_plan({}) is None


class TestExecution:
    def test_verify_job_payload(self):
        spec = JobSpec.from_request({"kind": "verify", "workload": "gemm", "size": 32})
        payload = execute_job(spec)
        assert payload["kind"] == "verify"
        assert payload["design"]["ok"] is True
        assert payload["timing"]["wall_s"] >= 0

    def test_trace_job_counts_spans(self):
        spec = JobSpec.from_request({"kind": "trace", "workload": "gemm", "size": 32})
        payload = execute_job(spec)
        assert payload["design"]["spans"] > 0
        assert payload["design"]["spans_by_category"]

    def test_dse_job_splits_design_from_search(self):
        events = []
        spec = JobSpec.from_request({"kind": "dse", "workload": "gemm", "size": 32})
        payload = execute_job(spec, emit=events.append)
        assert payload["design"]["total_cycles"] > 0
        assert payload["design"]["schedule"]
        assert payload["search"]["evaluations"] > 0
        assert payload["search"]["feasible"] is True
        assert "evaluations" not in payload["design"]
        assert "feasible" not in payload["design"]
        assert [e["stage"] for e in events] == ["build", "search", "done"]

    def test_dataflow_dse_job_reports_its_stages_degradation(self):
        spec = JobSpec.from_request({
            "kind": "dse", "workload": "image-pipeline", "size": 16,
            "options": {"time_budget_s": 0},
        })
        search = execute_job(spec)["search"]
        assert search["degraded"] is True
        assert "DSE004" in search["diagnostics"]

    def test_an_over_budget_design_says_so(self):
        spec = JobSpec.from_request({
            "kind": "dse", "workload": "conv-block", "size": 128,
            "options": {"resource_fraction": 0.1},
        })
        search = execute_job(spec)["search"]
        assert search["feasible"] is False and search["degraded"] is True
        assert search["diagnostics"].count("DSE009") == 1

    def test_a_dataflow_design_resumes_from_its_stage_journals(self, tmp_path):
        spec = JobSpec.from_request({"kind": "dse", "workload": "image-pipeline", "size": 16})
        journal = tmp_path / "key.journal"
        first = execute_job(spec, journal_path=str(journal))
        # The design fans its journal out per stage; none is the bare path.
        assert not journal.exists() and list(tmp_path.glob("key.journal.*"))
        again = execute_job(spec, journal_path=str(journal))
        assert first["timing"]["resumed"] is False
        assert again["timing"]["resumed"] is True
        assert again["design"] == first["design"]

    @pytest.mark.parametrize("content", [
        "",  # killed between the journal's creation and its header
        '{"kind": "header", "form',  # killed mid-header
        json.dumps({"kind": "header", "engine_version": -1}) + "\n",  # stale
    ])
    def test_an_unresumable_journal_is_swept_afresh(self, tmp_path, content):
        spec = JobSpec.from_request({"kind": "dse", "workload": "gemm", "size": 32})
        cold = execute_job(spec)
        journal = tmp_path / "key.journal"
        journal.write_text(content)
        payload = execute_job(spec, journal_path=str(journal))
        assert payload["design"] == cold["design"]
        assert payload["search"]["diagnostics"] == ["DSE005"] + cold["search"]["diagnostics"]
        assert payload["timing"]["resumed"] is False
        # The fresh sweep left a journal the next request resumes from.
        again = execute_job(spec, journal_path=str(journal))
        assert again["timing"]["resumed"] is True
        assert again["search"]["diagnostics"] == cold["search"]["diagnostics"]
        # A batch --resume still refuses such a journal.
        journal.write_text(content)
        with pytest.raises(DiagnosticError) as caught:
            auto_dse(workloads.get("gemm", 32),
                     options=DseOptions(checkpoint=str(journal), resume=True))
        assert caught.value.code == "DSE005"
