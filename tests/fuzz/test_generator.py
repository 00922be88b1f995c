"""Generator contract: legal, deterministic, structurally sound schedules."""

import random

import pytest

from repro.dsl.schedule import (
    After,
    Fuse,
    Interchange,
    Pipeline,
    Reverse,
    Schedule,
    Shift,
    Skew,
    Split,
    Tile,
    Unroll,
)
from repro.dsl.serialize import schedule_to_dict
from repro.fuzz import random_schedule
from repro.fuzz.harness import build_workload
from repro.isl.constraint import EliminationBlowup
from repro.preflight import Preflight, preflight_schedule

pytestmark = pytest.mark.fuzz

_LOOP_TRANSFORMS = (Interchange, Split, Tile, Skew, Reverse, Shift)


def _generate(workload, size, seed, max_directives=6):
    function = build_workload(workload, size)
    random_schedule(function, random.Random(seed), max_directives=max_directives)
    return function


class TestDeterminism:
    @pytest.mark.parametrize("workload", ["gemm", "bicg", "jacobi-1d"])
    def test_same_seed_same_schedule(self, workload):
        a = schedule_to_dict(_generate(workload, 8, seed=42))
        b = schedule_to_dict(_generate(workload, 8, seed=42))
        assert a == b

    def test_different_seeds_explore(self):
        schedules = {
            str(schedule_to_dict(_generate("gemm", 8, seed=s))) for s in range(12)
        }
        assert len(schedules) > 1


class TestLegality:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("workload", ["gemm", "bicg", "seidel"])
    def test_generated_schedule_is_preflight_clean(self, workload, seed):
        function = _generate(workload, 8, seed)
        engine = preflight_schedule(function)
        assert not engine.errors(), [d.render() for d in engine.errors()]

    def test_runaway_elimination_is_a_rejected_proposal(self):
        """gemm@12 under this trial seed proposes a prefix whose
        dependence sampling pairs 35 493 x 35 493 Fourier-Motzkin rows
        (a 28 GiB allocation); the bound turns it into a redraw."""
        import tracemalloc

        function = build_workload("gemm", 12)
        tracemalloc.start()
        try:
            random_schedule(function, random.Random(404377371))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 30
        assert not preflight_schedule(function).errors()

    @pytest.mark.parametrize("seed", range(8))
    def test_respects_max_directives(self, seed):
        function = _generate("gemm", 8, seed, max_directives=3)
        assert len(function.schedule) <= 3


class TestVerdictOracle:
    """The generator checks each proposal once against the live program;
    the full-prefix rule it replaced -- a fresh ``preflight_schedule`` of
    the accepted prefix plus the proposal -- stays here as its oracle."""

    #: ``bench/oplist.py``'s fuzz_verify targets plus the two slow
    #: fuzz defaults it leaves out.
    CORPUS = (
        "gemm", "bicg", "gesummv", "atax", "mvt", "jacobi-1d", "jacobi-2d",
        "edgedetect", "blur", "image-pipeline", "conv-block", "seidel", "conv2d",
    )

    @pytest.mark.parametrize("workload", CORPUS)
    def test_every_verdict_matches_full_prefix_preflight(self, workload, monkeypatch):
        from repro.fuzz import generator

        verdicts = []

        class CheckedPreflight(Preflight):
            def __init__(self, function):
                super().__init__(function)
                self.accepted = []

            def extend(self, directive):
                where = (workload, self.accepted, directive)
                candidate = Schedule(self.accepted + [directive])
                try:
                    expected = not preflight_schedule(self.function, candidate).errors()
                except EliminationBlowup:
                    expected = EliminationBlowup
                try:
                    verdict = super().extend(directive)
                except EliminationBlowup:
                    assert expected is EliminationBlowup, where
                    raise
                assert verdict == expected, where
                verdicts.append(verdict)
                if verdict:
                    self.accepted.append(directive)
                return verdict

        monkeypatch.setattr(generator, "Preflight", CheckedPreflight)
        for seed in range(9):
            # The target run_trial would draw: a dataflow trial picks one
            # stage with the trial's first draw.
            rng = random.Random(seed)
            built = build_workload(workload, 12)
            if hasattr(built, "stages"):
                built = built.stages[rng.choice(sorted(built.stages))].function
            random_schedule(built, rng)
        assert True in verdicts and False in verdicts

    def test_blowup_leaves_the_state_unchanged(self, monkeypatch):
        """With the pairing limit at one, the dependence analysis of
        seidel's stencil raises ISL001 during the check of a reversal."""
        from repro.isl import constraint, memo

        state = Preflight(build_workload("seidel", 12))
        assert state.extend(Pipeline("S", "j", 1))
        (stmt,) = state.program.statements
        before = (
            list(state.program.statements),
            stmt.fingerprint(),
            list(state.engine.diagnostics),
        )
        monkeypatch.setattr(constraint, "MAX_FM_PAIRS", 1)
        previous = memo.activate(memo.MemoContext())
        try:
            with pytest.raises(EliminationBlowup):
                state.extend(Reverse("S", stmt.loop_order[0], "t_r"))
        finally:
            memo.activate(previous)
        after = (
            list(state.program.statements),
            stmt.fingerprint(),
            list(state.engine.diagnostics),
        )
        assert after == before


class TestStructuralSoundness:
    """The two generation rules that keep the differential oracle sound."""

    def _sweep(self, workload, seeds=range(30)):
        for seed in seeds:
            yield _generate(workload, 8, seed).schedule

    def test_fusions_are_structural(self):
        found = 0
        for schedule in self._sweep("bicg"):
            for directive in schedule:
                if isinstance(directive, (After, Fuse)):
                    found += 1
                    assert directive.structural
        assert found, "sweep never generated a fusion; widen the seed range"

    def test_fused_statements_never_loop_transformed(self):
        for schedule in self._sweep("bicg"):
            fused = set()
            transformed = set()
            for directive in schedule:
                if isinstance(directive, (After, Fuse)):
                    fused.update({directive.compute_name, directive.other})
                elif isinstance(directive, _LOOP_TRANSFORMS):
                    transformed.add(directive.compute_name)
            assert not (fused & transformed)


class TestCoverage:
    def test_sweep_covers_directive_kinds(self):
        kinds = set()
        for seed in range(60):
            for directive in _generate("bicg", 8, seed).schedule:
                kinds.add(type(directive))
        # Every proposal kind should eventually materialize on a
        # multi-statement workload with 2-deep loops.
        assert {Interchange, Split, Tile, Reverse, Shift, Pipeline, Unroll} <= kinds
        assert kinds & {After, Fuse}

    def test_partitions_eventually_applied(self):
        assert any(
            any(
                p.partition_scheme is not None
                for p in _generate("gemm", 8, seed).placeholders()
            )
            for seed in range(20)
        )

    def test_all_partition_kinds_drawn(self):
        """The pool covers every kind ``Placeholder.partition`` accepts."""
        kinds = set()
        for seed in range(80):
            for p in _generate("gemm", 8, seed).placeholders():
                if p.partition_scheme is not None:
                    kinds.add(p.partition_scheme.kind)
        assert kinds == {"cyclic", "block", "complete"}

    def test_leveled_after_drawn(self):
        """``After`` at a shared loop level (not just outermost) is reachable."""
        levels = set()
        for seed in range(80):
            for directive in _generate("bicg", 8, seed).schedule:
                if isinstance(directive, After):
                    levels.add(directive.level)
        assert None in levels
        assert levels - {None}, "sweep never drew a leveled After"
