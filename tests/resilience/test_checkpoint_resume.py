"""Checkpoint journal tests: resume equivalence, stale rejection, corruption."""

import json

import pytest

from repro.diagnostics import DiagnosticError
from repro.dse.checkpoint import FORMAT_VERSION
from repro.workloads import polybench
from repro.dse.options import DseOptions

pytestmark = pytest.mark.resilience


def fingerprint(result):
    """The fields that define design equality for resume-equivalence checks."""
    return (
        result.report.total_cycles,
        result.report.resources.dsp,
        result.report.resources.lut,
        result.report.resources.ff,
        result.tile_vectors(),
    )


def test_checkpointed_run_matches_plain_run(tmp_path):
    journal = tmp_path / "gemm.jsonl"
    baseline = polybench.gemm(16).auto_DSE()
    checkpointed = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal)))
    assert fingerprint(checkpointed) == fingerprint(baseline)
    assert checkpointed.journal_path == str(journal)
    lines = journal.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header"
    assert header["function"] == "gemm"
    assert sum(1 for l in lines if json.loads(l)["kind"] == "eval") >= 1


def test_resume_replays_all_candidates(tmp_path):
    journal = tmp_path / "gemm.jsonl"
    first = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal)))
    resumed = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert fingerprint(resumed) == fingerprint(first)
    assert resumed.stats.replayed == first.stats.candidates
    assert resumed.stats.candidates == 0


@pytest.mark.parametrize("factory", [polybench.gemm, polybench.mm3, polybench.bicg])
def test_resume_realizes_replayed_best_designs(tmp_path, factory):
    """Each best design the ladder stands on was replayed, so it is
    realized again for its bottleneck analysis: no candidate starts, and
    the resumed result is the first one, loop table included."""
    journal = tmp_path / "sweep.jsonl"
    first = factory(64).auto_DSE(options=DseOptions(checkpoint=str(journal)))
    resumed = factory(64).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert fingerprint(resumed) == fingerprint(first)
    assert resumed.stats.candidates == 0
    assert resumed.evaluations == first.evaluations
    assert [str(loop) for loop in resumed.report.loops] == [str(loop) for loop in first.report.loops]


@pytest.mark.parametrize(
    "objective, tail",
    [("single", []), ("pareto", ["frontier"]), ("weighted:latency=1,dsp=1", ["frontier"])],
)
def test_a_journal_holds_its_header_evals_and_frontier_only(tmp_path, objective, tail):
    journal = tmp_path / "gemm.jsonl"
    polybench.gemm(64).auto_DSE(options=DseOptions(objective=objective, checkpoint=str(journal)))
    kinds = [json.loads(line)["kind"] for line in journal.read_text().splitlines()]
    evals = kinds.count("eval")
    assert evals > 1
    assert kinds == ["header"] + ["eval"] * evals + tail


def test_resume_rejects_a_journal_of_an_older_format(tmp_path):
    journal = tmp_path / "gemm.jsonl"
    polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal)))
    lines = journal.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == FORMAT_VERSION
    header.update(format=FORMAT_VERSION - 1, keep_existing_schedule=False)
    journal.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(DiagnosticError) as info:
        polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert info.value.code == "DSE005"
    assert "format" in str(info.value)


def test_replayed_enrichment_is_neither_estimated_nor_memo_answered(tmp_path):
    journal = tmp_path / "gemm.jsonl"
    options = DseOptions(objective="pareto", checkpoint=str(journal))
    first = polybench.gemm(64).auto_DSE(options=options)
    resumed = polybench.gemm(64).auto_DSE(
        options=DseOptions(objective="pareto", checkpoint=str(journal), resume=True)
    )
    assert fingerprint(resumed) == fingerprint(first)
    stats = resumed.stats
    assert stats.pareto_candidates == first.stats.pareto_candidates > 0
    assert stats.replayed == first.stats.candidates
    # Every grid member came from the journal: `replayed` counts them.
    assert stats.pareto_evaluated == stats.surrogate_skips == 0


def test_resume_requires_a_checkpoint_path():
    with pytest.raises(DiagnosticError) as info:
        polybench.gemm(16).auto_DSE(options=DseOptions(resume=True))
    assert info.value.code == "DSE005"


def test_resume_rejects_missing_journal(tmp_path):
    with pytest.raises(DiagnosticError) as info:
        polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(tmp_path / "nope.jsonl"), resume=True))
    assert info.value.code == "DSE005"


def test_resume_rejects_stale_workload(tmp_path):
    journal = tmp_path / "gemm16.jsonl"
    polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal)))
    with pytest.raises(DiagnosticError) as info:
        polybench.gemm(32).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert info.value.code == "DSE005"
    assert "workload_fp" in str(info.value)


def test_resume_rejects_foreign_workload(tmp_path):
    journal = tmp_path / "gemm.jsonl"
    polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal)))
    with pytest.raises(DiagnosticError) as info:
        polybench.bicg(16).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert info.value.code == "DSE005"


def test_resume_rejects_garbage_header(tmp_path):
    journal = tmp_path / "bad.jsonl"
    journal.write_text("this is not json\n")
    with pytest.raises(DiagnosticError) as info:
        polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert info.value.code == "DSE005"


def test_truncated_trailing_line_is_tolerated(tmp_path):
    journal = tmp_path / "gemm.jsonl"
    baseline = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal)))
    # Simulate a crash mid-write: cut the last record in half.
    lines = journal.read_text().splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    journal.write_text("\n".join(lines) + "\n")
    resumed = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert fingerprint(resumed) == fingerprint(baseline)
    assert any(d.code == "DSE006" for d in resumed.diagnostics)


def test_torn_tail_does_not_swallow_the_next_record(tmp_path):
    """A crash mid-write leaves the last line without its newline; the
    record the first resume appends must start a line of its own, so a
    second resume replays it instead of re-evaluating it."""
    journal = tmp_path / "gemm.jsonl"
    baseline = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal)))
    text = journal.read_text()
    journal.write_text(text[: text.rstrip("\n").rfind("\n") + 40])
    options = DseOptions(checkpoint=str(journal), resume=True)
    first = polybench.gemm(16).auto_DSE(options=options)
    second = polybench.gemm(16).auto_DSE(options=options)
    assert fingerprint(first) == fingerprint(second) == fingerprint(baseline)
    assert first.stats.replayed == baseline.evaluations - 1
    assert second.stats.replayed == baseline.evaluations
    # Only the torn line itself is skipped.
    assert [d.code for d in second.diagnostics] == ["DSE006"]


def test_corrupt_middle_record_is_retried_not_fatal(tmp_path):
    journal = tmp_path / "gemm.jsonl"
    baseline = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal)))
    lines = journal.read_text().splitlines()
    eval_indices = [
        i for i, l in enumerate(lines)
        if l.strip() and json.loads(l).get("kind") == "eval"
    ]
    middle = eval_indices[len(eval_indices) // 2]
    lines[middle] = lines[middle][: len(lines[middle]) // 3]
    journal.write_text("\n".join(lines) + "\n")
    resumed = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert fingerprint(resumed) == fingerprint(baseline)
    # The mangled candidate was re-evaluated for real.
    assert resumed.stats.candidates >= 1
    assert any(d.code == "DSE006" for d in resumed.diagnostics)


def test_journal_survives_interrupted_sweep(tmp_path, monkeypatch):
    import repro.dse.engine as engine_mod

    journal = tmp_path / "gemm.jsonl"
    baseline = polybench.gemm(16).auto_DSE()

    original = engine_mod._pick_bottleneck
    calls = {"n": 0}

    def interrupting(graph, latencies, active):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise KeyboardInterrupt
        return original(graph, latencies, active)

    monkeypatch.setattr(engine_mod, "_pick_bottleneck", interrupting)
    partial = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal)))
    assert partial.stats.interrupted
    assert partial.degraded
    assert any(d.code == "DSE007" for d in partial.diagnostics)

    monkeypatch.setattr(engine_mod, "_pick_bottleneck", original)
    resumed = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert fingerprint(resumed) == fingerprint(baseline)
    assert resumed.stats.replayed >= 1
