"""A sweep does each piece of work once, and the answers do not move.

Three shortcuts, each against the longer way it replaced:

* a candidate's unroll spreads are counted off the stage-1 statements
  and each node's unroll copies, not off the rewritten program;
* stage 1 analyzes each statement once per restructuring step and reuses
  the last analysis when no move followed it;
* a bank cap that derives the banking of the design scored just before
  it takes that design's score, the finalize installs the best design
  without lowering it again, and the ladder reads node latencies off the
  estimate that scored the best design;
* a bank cap that changes only the banking reuses the lowered ops of the
  schedule scored just before it.
"""

import json

import pytest

from repro import workloads
from repro.affine import print_func
from repro.affine.lowering import lower_program
from repro.dse import DseOptions, analysis, auto_dse, evaluator, stage1
from repro.dse.analysis import carried_for_statement, loop_extents
from repro.dse.evaluator import Evaluator
from repro.depgraph.vectors import permute
from repro.dse.stage2 import banked_partitions, derive_partitions, unroll_spreads
from repro.polyir.program import PolyProgram
from tests.dse.test_stage1 import free_dims

KERNELS = [
    name for name in workloads.names(kind="function") if name not in ("vgg16", "resnet18")
]


def _factories(sizes):
    table = {}
    for size in sizes:
        for name in KERNELS:
            table[f"{name}@{size}"] = lambda name=name, size=size: workloads.get(name, size)
    for design in workloads.names(kind="dataflow"):
        for stage in workloads.get(design, 16).stages:
            table[f"{design}.{stage}"] = (
                lambda design=design, stage=stage:
                workloads.get(design, 16).stages[stage].function
            )
    return table


SWEPT = _factories((16, 19))


@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("name", sorted(SWEPT))
def test_spreads_equal_the_rewritten_programs(name, cache, monkeypatch):
    """Every candidate a sweep realizes, ladder and frontier grid.  (The
    sweep would quarantine a failed assertion, so the pairs are kept.)"""
    realize = Evaluator.realize
    checked = []

    def checking(self, configs, bank_cap):
        outcome = realize(self, configs, bank_cap)
        key, program, _, spreads, _ = self._scheduled
        checked.append((key == self.fingerprint(configs), spreads, unroll_spreads(program)))
        return outcome

    monkeypatch.setattr(Evaluator, "realize", checking)
    result = auto_dse(
        SWEPT[name](),
        options=DseOptions(resource_fraction=0.25, cache=cache, objective="pareto"),
    )
    assert checked and not result.quarantine
    for current, spreads, replayed in checked:
        assert current and spreads == replayed


BANKED = {
    "vgg16@4": lambda: workloads.get("vgg16", 4),
    "resnet18@4": lambda: workloads.get("resnet18", 4),
    "3mm@64": lambda: workloads.get("3mm", 64),
    **{name: SWEPT[name] for name in SWEPT if name.startswith("image-pipeline.")},
}


@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("name", sorted(BANKED))
def test_banking_by_difference_equals_a_from_scratch_banking(name, cache, monkeypatch):
    """A candidate recounts and rebanks only the arrays of the nodes it
    changes; on every candidate of a sweep its spreads, banking and
    partitions (values and order) are those counted and derived from
    scratch on the assembled program."""
    realize = Evaluator.realize
    checked = []

    def checking(self, configs, bank_cap):
        outcome = realize(self, configs, bank_cap)
        _, program, _, spreads, _ = self._scheduled
        replayed = unroll_spreads(program)
        banking = derive_partitions(self.function, max_banks=bank_cap, spreads=replayed)
        partitions = banked_partitions(self.partitions, banking)
        _, kept_banking, kept_partitions = self._banked[bank_cap]
        checked.append((
            (list(spreads.items()), list(kept_banking.items()), list(kept_partitions.items())),
            (list(replayed.items()), list(banking.items()), list(partitions.items())),
        ))
        return outcome

    monkeypatch.setattr(Evaluator, "realize", checking)
    result = auto_dse(
        BANKED[name](),
        options=DseOptions(resource_fraction=0.25, cache=cache, objective="pareto"),
    )
    assert len(checked) > 1 and not result.quarantine
    for incremental, scratch in checked:
        assert incremental == scratch


# -- stage 1 -----------------------------------------------------------------


def _two_analysis_plan(function):
    """Stage 1 as it was planned with two analyses per statement: a RAW
    analysis per restructuring step (plus every kind before a skew), and
    a fresh analysis of every kind of the final statement."""
    plan = stage1.Stage1Plan()
    plan.frozen = stage1.structural_frozen_prefixes(function)
    program = PolyProgram(function)
    for stmt in program.statements:
        name = stmt.name
        prefix = plan.frozen.get(name, 0)
        directives = []
        for _ in range(stage1.MAX_ITERATIONS):
            current = program.statement(name)
            free = [d for d in free_dims(current) if d in current.loop_order[prefix:]]
            if free:
                moves = stage1._interchanges_for_order(current.loop_order, free, name, prefix)
                for move in moves:
                    program.apply_directive(move)
                directives.extend(moves)
                break
            if current.depth() - prefix < 2:
                break
            outer, inner = current.loop_order[-2], current.loop_order[-1]
            deps = carried_for_statement(current, kinds=("RAW", "WAR", "WAW"))
            if not stage1._skew_legal(deps, outer, inner):
                break
            factor = stage1._skew_factor(deps, outer, inner)
            skew = stage1.Skew(name, outer, inner, factor, f"{outer}_w", f"{inner}_w")
            swap = stage1.Interchange(name, f"{outer}_w", f"{inner}_w")
            for directive in (skew, swap):
                program.apply_directive(directive)
                directives.append(directive)
        plan.directives.extend(directives)
        final = program.statement(name)
        plan.orders[name] = list(final.loop_order)
        extents = plan.extents[name] = loop_extents(final)
        deps = carried_for_statement(final, ("RAW", "WAR", "WAW"), extents)
        plan.deps_cache[name] = deps
        carried = {d.carried_dim for d in deps if d.kind == "RAW"}
        plan.free[name] = [d for d in final.loop_order if d not in carried]
        plan.skewed[name] = any(isinstance(d, stage1.Skew) for d in directives)
    plan.fused_groups = stage1._plan_fusion(function, plan)
    return plan


def _plan_view(plan):
    return {
        "directives": [d.fingerprint() for d in plan.directives],
        "orders": plan.orders,
        "extents": plan.extents,
        "deps": {name: repr(deps) for name, deps in plan.deps_cache.items()},
        "free": plan.free,
        "skewed": plan.skewed,
        "fused": plan.fused_groups,
        "frozen": plan.frozen,
    }


PLANNED = {
    **SWEPT,
    "vgg16": lambda: workloads.get("vgg16", 4),
    "resnet18": lambda: workloads.get("resnet18", 4),
}


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_stage1_plan_equals_the_two_analysis_plan(name, monkeypatch):
    calls = []
    fallbacks = []
    analyze = analysis.carried_for_statement
    relevel = analysis.relevel

    def counting(stmt, kinds=("RAW",), extents=None):
        calls.append(stmt.name)
        return analyze(stmt, kinds, extents)

    def counting_relevel(stmt, order, extents, deps):
        outcome = relevel(stmt, order, extents, deps)
        if outcome is None:
            fallbacks.append(stmt.name)
        return outcome

    function = PLANNED[name]()
    reference = _two_analysis_plan(function)
    for module in (stage1, analysis):
        monkeypatch.setattr(module, "carried_for_statement", counting)
    monkeypatch.setattr(stage1, "relevel", counting_relevel)
    plan = stage1.plan_stage1(PLANNED[name]())
    assert _plan_view(plan) == _plan_view(reference)
    # One analysis per restructuring step (a skew adds one); a statement
    # that moved after its last step is analyzed again only when the
    # analysis cannot be re-leveled across the move.  Two analyses per
    # step and one per final statement came to 2 * (statements + skews).
    skews = sum(1 for d in plan.directives if isinstance(d, stage1.Skew))
    assert len(calls) == len(plan.orders) + skews + len(fallbacks)


RELEVELED = {
    **{f"{name}@{size}": (lambda name=name, size=size: workloads.get(name, size))
       for name in KERNELS for size in (16, 64)},
    **{f"{name}@{size}": (lambda name=name, size=size: workloads.get(name, size))
       for name in ("vgg16", "resnet18") for size in (4, 8)},
}


@pytest.mark.parametrize("name", sorted(RELEVELED))
def test_a_releveled_analysis_equals_a_fresh_one(name, monkeypatch):
    """Every analysis stage 1 re-levels across an interchange is the one
    a fresh analysis of the final statement gives (every interchanged
    DNN layer is re-leveled)."""
    outcomes = []
    relevel = analysis.relevel

    def recording(stmt, order, extents, deps):
        outcome = relevel(stmt, order, extents, deps)
        outcomes.append((stmt.name, outcome))
        return outcome

    monkeypatch.setattr(stage1, "relevel", recording)
    function = RELEVELED[name]()
    plan = stage1.plan_stage1(function)
    final = PolyProgram(function).apply_schedule(plan.directives)
    for node, outcome in outcomes:
        if name.split("@")[0] in ("vgg16", "resnet18"):
            assert outcome is not None
        if outcome is not None:
            extents, deps = outcome
            stmt = final.statement(node)
            fresh = loop_extents(stmt)
            assert list(extents.items()) == list(fresh.items())
            assert repr(deps) == repr(carried_for_statement(stmt, stage1._KINDS, fresh))


def test_an_interchange_of_unpinned_dims_is_analyzed_afresh():
    """Seidel's dims are all unpinned (each index is read at an offset by
    some load), so an interchange of two of them is not re-leveled: the
    re-leveled dependences would not be the fresh ones."""
    stmt = PolyProgram(workloads.get("seidel", 16)).statements[0]
    extents = loop_extents(stmt)
    deps = carried_for_statement(stmt, stage1._KINDS, extents)
    outer, inner, *rest = stmt.loop_order
    swapped = stage1.Interchange(stmt.name, outer, inner)
    program = PolyProgram(workloads.get("seidel", 16))
    program.apply_directive(swapped)
    moved = program.statement(stmt.name)
    assert analysis.relevel(stmt, moved.loop_order, extents, deps) is None
    fresh = carried_for_statement(moved, stage1._KINDS, loop_extents(moved))
    dims = tuple(moved.loop_order)
    releveled = [
        (d.array, d.kind, dims.index(d.carried_dim), permute(d.distance, dims)) for d in deps
    ]
    assert releveled != [(d.array, d.kind, d.level, d.distance) for d in fresh]


# -- one score per design ----------------------------------------------------


def _recording(monkeypatch):
    """Record ``(config fingerprints, banking)`` of every scored candidate."""
    scored = []
    realize = Evaluator.realize

    def recording_realize(self, configs, bank_cap):
        outcome = realize(self, configs, bank_cap)
        banking = derive_partitions(self.function, max_banks=bank_cap, spreads=self._scheduled[3])
        scored.append((self.fingerprint(configs), repr(sorted(banking.items()))))
        return outcome

    monkeypatch.setattr(Evaluator, "realize", recording_realize)
    return scored


def score_every_candidate(monkeypatch):
    """Make every candidate lower and estimate, as the sweep did before a
    bank cap could take the score or the lowered ops of the candidate
    before it."""
    realize = Evaluator.realize

    def forgetting(self, configs, bank_cap):
        self._scored = None
        if self._scheduled is not None:
            self._scheduled = self._scheduled[:4] + (None,)
        return realize(self, configs, bank_cap)

    monkeypatch.setattr(Evaluator, "realize", forgetting)


@pytest.mark.parametrize("name", sorted(f"{k}@16" for k in KERNELS))
def test_an_uncached_ladder_lowers_each_design_once(name, monkeypatch):
    """Each distinct design is estimated once and each distinct schedule
    lowered once (a ladder step's bank caps share one schedule)."""
    scored = _recording(monkeypatch)
    installed = []
    install = Evaluator.install

    def recording_install(self, configs, bank_cap):
        installed.append((configs, bank_cap))
        return install(self, configs, bank_cap)

    monkeypatch.setattr(Evaluator, "install", recording_install)
    result = auto_dse(SWEPT[name](), options=DseOptions(resource_fraction=0.25, cache=False))
    monkeypatch.undo()
    stats = result.stats
    assert not result.quarantine
    assert len(scored) == stats.candidates == stats.evaluations
    assert stats.estimations == len(set(scored))
    assert stats.lowerings == len({schedule for schedule, _ in scored})

    # The finalize installed the best design; a fresh evaluator scores
    # it the same and lowers it to the same IR.
    ((configs, bank_cap),) = installed
    fresh = Evaluator(SWEPT[name](), cache=False)
    report, func_op = fresh.realize(configs, bank_cap)
    assert result.report == report
    assert print_func(result.function.lower()) == print_func(func_op)


def _journal(path):
    records = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("elapsed_s", None)
            records.append(record)
    return records


@pytest.mark.parametrize("objective", ["single", "pareto"])
@pytest.mark.parametrize("name", ["gemm@16", "3mm@16", "bicg@19", "seidel@16"])
def test_the_journal_is_the_one_of_every_candidate_lowered(name, objective, tmp_path, monkeypatch):
    """The reference lowers and estimates every candidate, as the sweep
    did before a bank cap could take the previous cap's score."""
    options = dict(resource_fraction=0.25, cache=False, objective=objective)
    result = auto_dse(
        SWEPT[name](), options=DseOptions(checkpoint=str(tmp_path / "new.jsonl"), **options)
    )
    score_every_candidate(monkeypatch)
    reference = auto_dse(
        SWEPT[name](), options=DseOptions(checkpoint=str(tmp_path / "ref.jsonl"), **options)
    )
    assert not result.quarantine and not reference.quarantine
    assert _journal(tmp_path / "new.jsonl") == _journal(tmp_path / "ref.jsonl")
    assert result.payload() == reference.payload()
    assert result.evaluations == reference.evaluations
    assert result.stats.lowerings < reference.stats.lowerings


@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("objective", ["single", "pareto"])
@pytest.mark.parametrize("name", ["gemm@16", "3mm@16", "bicg@19", "seidel@16", "2mm@16"])
def test_no_sweep_lowers_a_schedule_twice_in_a_row(name, objective, cache, monkeypatch):
    """Cached or not, ladder or frontier grid: the bank caps that follow
    a schedule reuse its lowering."""
    lowered = []
    lower = evaluator.lower_program_incremental

    def recording(program, *args):
        lowered.append(tuple(stmt.fingerprint() for stmt in program.statements))
        return lower(program, *args)

    monkeypatch.setattr(evaluator, "lower_program_incremental", recording)
    result = auto_dse(SWEPT[name](), options=DseOptions(
        resource_fraction=0.25, cache=cache, objective=objective))
    assert not result.quarantine
    assert len(lowered) == result.stats.lowerings <= result.stats.estimations
    # A schedule is lowered again only after another one came between.
    assert all(before != after for before, after in zip(lowered, lowered[1:]))


@pytest.mark.parametrize("name", ["gemm@16", "3mm@16", "seidel@16", "image-pipeline.grad"])
def test_a_bank_cap_retry_equals_a_fresh_lowering(name):
    """A retry reuses the ops lowered for the cap before it; its function
    prints as a fresh lowering of the same schedule and banking, and its
    report equals a fresh evaluator's."""
    ev = Evaluator(SWEPT[name](), cache=False)
    configs = ev.configs({node: 8 for node in ev.nodes})
    ev.realize(configs, 128)
    lowerings = ev.stats.lowerings
    report, func_op = ev.realize(configs, 2)
    assert ev.stats.lowerings == lowerings and ev.stats.estimations == 2
    assert "partitions" in func_op.attributes
    ev.install(configs, 2)
    assert print_func(func_op) == print_func(lower_program(ev.scheduled(configs)))

    fresh = Evaluator(SWEPT[name](), cache=False)
    fresh_report, fresh_op = fresh.realize(fresh.configs({node: 8 for node in fresh.nodes}), 2)
    assert report == fresh_report
    assert print_func(func_op) == print_func(fresh_op)
