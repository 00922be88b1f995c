"""The paper's claims, declared on each Experiment, as a gate.

Every claim holds at its experiment's reduced configuration (the one
``report_all --quick`` runs), a claim that fails makes ``report_all``
exit 1 naming it, and EXPERIMENTS.md's summary table is the one the
declared claims render.
"""

import os
import re

import pytest

from repro.evaluation import ALL_EXPERIMENTS, report_all
from repro.evaluation.frameworks import Claim, Experiment, Reading

EXPERIMENTS_MD = os.path.join(os.path.dirname(__file__), "..", "..", "EXPERIMENTS.md")

CLAIMED = [name for name, experiment in ALL_EXPERIMENTS.items() if experiment.claims]


@pytest.mark.parametrize("name", CLAIMED)
def test_every_claim_holds_on_one_run_at_the_reduced_configuration(name):
    experiment = ALL_EXPERIMENTS[name]
    result = experiment.run(**experiment.quick)
    assert experiment.render(result)
    verdicts = experiment.verdicts(result)
    assert [v.claim for v in verdicts] == [c.name for c in experiment.claims]
    for verdict in verdicts:
        assert verdict.readings, verdict.claim
        assert verdict.holds, f"{verdict.claim}: " + "; ".join(map(str, verdict.readings))


def _failing_experiment():
    return Experiment(
        lambda size=4: size, str, quick={"size": 4},
        claims=(
            Claim("holds", "a claim that holds", lambda r: [Reading("size", r, "==", 4)]),
            Claim("too small", "a claim that fails", lambda r: [Reading("size", r, ">", 100)]),
        ),
    )


@pytest.mark.parametrize("jobs", ("1", "2"))
def test_a_failing_claim_fails_report_all_and_is_named(monkeypatch, capsys, jobs):
    monkeypatch.setattr(report_all, "ALL_EXPERIMENTS", {
        "fake": _failing_experiment(), "plain": Experiment(lambda: None, str),
    })
    assert report_all.main(["--quick", "--jobs", jobs]) == 1
    out = capsys.readouterr().out
    assert "2/2 experiments succeeded" in out
    assert "1/2 claims hold" in out
    assert "error[RPT002]: claim fake: 'too small' does not hold: size 4 > 100" in out


def test_a_partial_claim_reports_its_miss_without_failing():
    claim = Claim("most", "two of three", lambda r: [
        Reading(label, value, ">", 1) for label, value in r.items()
    ], partial=("c",))
    verdict = claim.verdict({"a": 2, "b": 3, "c": 0})
    assert verdict.holds and verdict.status == "◑"
    assert not claim.verdict({"a": 0, "b": 3, "c": 0}).holds


def test_experiments_md_summary_is_the_declared_claims():
    with open(EXPERIMENTS_MD, encoding="utf-8") as handle:
        text = handle.read()
    committed = re.search(r"^\| Experiment \| Claim \|.*?(?=\n\n)", text, re.S | re.M)
    assert committed is not None, "EXPERIMENTS.md has no claims summary table"
    assert committed.group(0) == report_all.summary_table(), (
        "EXPERIMENTS.md's summary table drifted from the declared claims; paste\n"
        "python -c 'from repro.evaluation.report_all import summary_table; print(summary_table())'"
    )
