"""The incremental candidate program against its oracle: a full replay.

:meth:`Evaluator.scheduled` assembles a candidate from the stage-1 base
program plus one memoized statement per node; ``install`` writes the
same candidate as a directive list on the function.  Replaying that list
from scratch (``PolyProgram(function).apply_schedule()``) is the oracle:
both must agree statement fingerprint for statement fingerprint, cached
or not, whatever was assembled before.
"""

import random

import pytest

import repro.dse.evaluator as evaluator_mod
from repro import workloads
from repro.dse import DseOptions, auto_dse, stage2
from repro.dse.evaluator import Evaluator
from repro.polyir import transforms
from repro.polyir.program import PolyProgram
from repro.polyir.statement import PolyStatement
from repro.polyir.transforms import TransformError
from repro.serve import SessionContext

DNN_SIZE = 4
KERNEL_SIZE = 16


def _factories():
    table = {}
    for name in workloads.names(kind="function"):
        size = DNN_SIZE if name in ("vgg16", "resnet18") else KERNEL_SIZE
        table[name] = lambda name=name, size=size: workloads.get(name, size)
    for design in workloads.names(kind="dataflow"):
        for stage in workloads.get(design, KERNEL_SIZE).stages:
            table[f"{design}.{stage}"] = (
                lambda design=design, stage=stage:
                workloads.get(design, KERNEL_SIZE).stages[stage].function
            )
    return table


FACTORIES = _factories()


def _fingerprints(program):
    return [stmt.fingerprint() for stmt in program.statements]


def _assert_matches_replay(evaluator, configs):
    """``configs`` must be installed on the evaluator's function."""
    assert _fingerprints(evaluator.scheduled(configs)) == _fingerprints(
        PolyProgram(evaluator.function).apply_schedule()
    )


@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_every_candidate_of_a_real_sweep_matches_the_replay(name, cache, monkeypatch):
    """In situ: every ``(configs, bank_cap)`` a sweep realizes, in the
    sweep's own order and with the memo state the sweep left behind --
    including a bank cap that takes the score of the design before it."""
    realize = Evaluator.realize
    visited = []

    def checked(self, configs, bank_cap):
        outcome = realize(self, configs, bank_cap)
        # The sweep reads nothing off the function, so installing each
        # candidate here leaves its course as it was.
        self.install(configs, bank_cap)
        _assert_matches_replay(self, configs)
        visited.append(bank_cap)
        return outcome

    monkeypatch.setattr(Evaluator, "realize", checked)
    # The frontier pass revisits the ladder's candidates at every bank
    # cap, out of ladder order.  The DNNs get the plain ladder at a tight
    # budget instead: uncached they are 3-6 s sweeps otherwise.
    dnn = name in ("vgg16", "resnet18")
    result = auto_dse(
        FACTORIES[name](),
        options=DseOptions(
            resource_fraction=0.05 if dnn else 0.25, cache=cache,
            objective="single" if dnn else "pareto",
        ),
    )
    assert len(visited) >= 2 and not result.quarantine
    assert bool(result.stats.statement_cache_misses) == cache
    assert cache or not result.stats.statement_cache_hits


def _degrees(evaluator, seed):
    rng = random.Random(seed)
    return {node: rng.choice((1, 2, 4, 8, 16)) for node in evaluator.nodes}


@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_memo_hits_after_another_candidates_surgery(name, cache):
    """A -> B -> A with non-uniform degrees: the third assembly takes A's
    statements from the memo after B's fusion surgery and annotations
    ran on copies of them -- aliased ``statics`` / ``hw_opts`` show here.
    Then a fused candidate, the same one with every group's leader moved
    out of step (its members no longer fuse but keep their configs, so
    their statements come from the memo the fused candidate filled), and
    back."""
    evaluator = Evaluator(FACTORIES[name](), cache=cache)
    first, second = _degrees(evaluator, f"{name}:A"), _degrees(evaluator, f"{name}:B")
    ones = {node: 1 for node in evaluator.nodes}
    fused = {node: 4 for node in evaluator.nodes}
    unfused = dict(fused)
    for group in evaluator.plan.fused_groups:
        unfused[group[0]] = 16
    distinct = set()
    for par in (first, second, first, ones, second, fused, unfused, fused):
        configs = evaluator.configs(par)
        distinct.add(evaluator.fingerprint(configs))
        evaluator.install(configs, 128)
        _assert_matches_replay(evaluator, configs)
        # The kept program serves the bank-cap retries: same object.
        assert evaluator.scheduled(configs) is evaluator.scheduled(configs)
    # (trisolv plans one config whatever the degree: nothing to revisit.)
    assert (evaluator.stats.statement_cache_hits > 0) == (cache and len(distinct) > 1)


def test_a_failed_assembly_leaves_nothing_behind(monkeypatch):
    """A transform that raises mid-assembly: no memo entry for the node
    it failed on, no half-built current program, and the next candidates
    (including the same one, once the fault is gone) are correct."""
    evaluator = Evaluator(workloads.get("3mm", 16))
    good = evaluator.configs({node: 2 for node in evaluator.nodes})
    bad = evaluator.configs({node: 4 for node in evaluator.nodes})
    evaluator.install(good, 128)
    kept = evaluator.scheduled(good)

    split = transforms.split
    victim = evaluator.nodes[1]  # node 0 assembles and is memoized first

    def failing(stmt, dim, factor, outer, inner):
        if stmt.name == victim and factor == 4:
            raise TransformError("synthetic split failure")
        return split(stmt, dim, factor, outer, inner)

    monkeypatch.setattr(transforms, "split", failing)
    memoized = set(evaluator._statement_memo)
    with pytest.raises(TransformError, match="synthetic"):
        evaluator.scheduled(bad)
    assert evaluator.scheduled(good) is kept
    assert set(evaluator._statement_memo) - memoized == {bad[evaluator.nodes[0]].fingerprint()}

    monkeypatch.setattr(transforms, "split", split)
    for configs in (bad, good, bad):
        evaluator.install(configs, 128)
        _assert_matches_replay(evaluator, configs)


@pytest.mark.parametrize(
    "error,code", [(TransformError, "SCH005"), (RuntimeError, "DSE001")]
)
def test_a_failing_transform_is_quarantined(error, code, monkeypatch):
    """Assembly failures take the route replay failures took: the
    candidate is quarantined under the error's own diagnostic (DSE001 if
    it has none) and the sweep settles on the best design without it."""
    split = transforms.split

    def failing(stmt, dim, factor, outer, inner):
        if factor >= 4:
            raise error("synthetic split failure")
        return split(stmt, dim, factor, outer, inner)

    monkeypatch.setattr(transforms, "split", failing)
    result = auto_dse(workloads.get("gemm", 16))
    assert result.quarantine
    for candidate in result.quarantine:
        assert candidate.diagnostic.code == code
        assert "synthetic split failure" in candidate.diagnostic.message

    monkeypatch.setattr(transforms, "split", split)
    capped = auto_dse(workloads.get("gemm", 16), options=DseOptions(max_parallelism=2))
    assert result.report.total_cycles == capped.report.total_cycles


@pytest.mark.perfsmoke
def test_perfsmoke_a_dnn_sweep_builds_its_program_once(monkeypatch):
    """Count-based guard (no timing): a ``vgg16`` sweep used to rebuild
    all 13 statements from the DSL and replay the whole installed
    schedule twice per candidate -- 1 105 ``from_compute`` calls and
    8 324 directive applications.  Incrementally it is the base program
    plus one delta per distinct node config."""
    counts = {"from_compute": 0, "directives": 0, "own_programs": 0}

    from_compute = PolyStatement.from_compute

    def counting_from_compute(compute, position):
        counts["from_compute"] += 1
        return from_compute(compute, position)

    apply_directive = PolyProgram._apply_directive

    def counting_apply(self, directive):
        counts["directives"] += 1
        return apply_directive(self, directive)

    apply_schedule = PolyProgram.apply_schedule

    def counting_schedule(self, schedule=None):
        # A replay of the function's own schedule, as a from-scratch
        # ``derive_partitions`` makes.
        counts["own_programs"] += schedule is None
        return apply_schedule(self, schedule)

    monkeypatch.setattr(PolyStatement, "from_compute", staticmethod(counting_from_compute))
    monkeypatch.setattr(PolyProgram, "_apply_directive", counting_apply)
    monkeypatch.setattr(PolyProgram, "apply_schedule", counting_schedule)
    with SessionContext().activate():
        result = auto_dse(
            workloads.get("vgg16", 6), options=DseOptions(resource_fraction=0.25)
        )
    assert result.stats.evaluations >= 40
    assert counts["from_compute"] <= 60
    assert counts["directives"] <= 600
    assert counts["own_programs"] == 0


@pytest.mark.perfsmoke
def test_perfsmoke_a_nodes_delta_is_computed_once(monkeypatch):
    """Count-based guard: ``install`` reads the deltas ``scheduled`` keeps,
    so over a cached sweep ``node_delta`` runs once per statement-memo
    miss (it used to run again for every node of every candidate: 2 075
    calls against 563 misses on one ``kernel_dse`` pass)."""
    calls = []
    node_delta = stage2.node_delta

    def counting(plan, config):
        calls.append(config.name)
        return node_delta(plan, config)

    monkeypatch.setattr(evaluator_mod, "node_delta", counting)
    result = auto_dse(
        workloads.get("3mm", KERNEL_SIZE),
        options=DseOptions(resource_fraction=0.25, objective="pareto"),
    )
    assert result.stats.evaluations >= 10 and result.stats.surrogate_skips
    assert len(calls) == result.stats.statement_cache_misses


@pytest.mark.perfsmoke
def test_perfsmoke_index_expressions_are_read_once_per_rewritten_statement(monkeypatch):
    """Count-based guard: ``derive_partitions`` reads the statement's
    ``index_dims()``, which every copy of a memoized statement carries,
    so ``affine_indices`` runs once per access of a statement-memo miss
    (it used to run for every access of every candidate: 6 837 calls
    against the 2 522 accesses of 563 misses on one ``kernel_dse`` pass)."""
    from repro.dsl.expr import Access

    calls = []
    depth = []
    evaluators = []

    def scoped(function):
        def inner(*args, **kwargs):
            depth.append(None)
            try:
                return function(*args, **kwargs)
            finally:
                depth.pop()
        return inner

    affine_indices = Access.affine_indices

    def counting(self):
        if depth:
            calls.append(self)
        return affine_indices(self)

    realize = Evaluator.realize

    def remembering(self, configs, bank_cap):
        if self not in evaluators:
            evaluators.append(self)
        return realize(self, configs, bank_cap)

    monkeypatch.setattr(Access, "affine_indices", counting)
    monkeypatch.setattr(PolyStatement, "index_dims", scoped(PolyStatement.index_dims))
    monkeypatch.setattr(Evaluator, "realize", remembering)
    result = auto_dse(
        workloads.get("3mm", KERNEL_SIZE),
        options=DseOptions(resource_fraction=0.25, objective="pareto"),
    )
    assert result.stats.statement_cache_hits > result.stats.statement_cache_misses > 0
    (evaluator,) = evaluators
    memoized = [statement for _, statement, _ in evaluator._statement_memo.values()]
    assert len(memoized) == result.stats.statement_cache_misses
    assert 0 < len(calls) <= sum(len(s.accesses()) for s in memoized)


@pytest.mark.perfsmoke
def test_perfsmoke_a_candidate_pays_for_the_layers_it_changes(monkeypatch):
    """Count-based guard on ``vgg16``: a candidate neither prints its
    statements (the nest-lowering memo is keyed by node-config
    fingerprints and statics, not statement fingerprints) nor counts
    spreads over the statements of nodes it did not change: spreads are
    counted once per statement-memo miss.  Every candidate used to print
    and recount all 13 layers."""
    printed = []
    counted = []
    fingerprint = PolyStatement.fingerprint
    count_spreads = evaluator_mod.count_spreads

    def counting_fingerprint(self):
        printed.append(self.name)
        return fingerprint(self)

    def counting_spreads(statements):
        statements = list(statements)
        counted.extend(statements)
        return count_spreads(statements)

    monkeypatch.setattr(PolyStatement, "fingerprint", counting_fingerprint)
    monkeypatch.setattr(evaluator_mod, "count_spreads", counting_spreads)
    with SessionContext().activate():
        result = auto_dse(workloads.get("vgg16", 4), options=DseOptions(resource_fraction=0.25))
    stats = result.stats
    assert stats.candidates >= 20 and stats.statement_cache_hits > 5 * stats.statement_cache_misses
    assert printed == []
    assert len(counted) == stats.statement_cache_misses
