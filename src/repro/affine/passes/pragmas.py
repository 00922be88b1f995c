"""Dependence-hint pragma insertion."""

from __future__ import annotations

from repro.affine.ir import FuncOp
from repro.affine.passes.base import Pass


class InsertDependencePragmas(Pass):
    """Attach ``#pragma HLS dependence ... inter RAW false`` hints.

    The paper (Section V-A) notes that identified loop-carried
    dependences "serve as a hint to users, directing them to set the HLS
    DEPENDENCE pragma".  This pass automates the hint: for every
    pipelined loop, any array that is both read and written in the
    region but provably carries *no* RAW dependence at the pipelined
    level gets an ``inter RAW false`` declaration -- exactly the
    annotation a conservative HLS scheduler needs to reach the analyzed
    II.  The hint names its direction: only RAW is proven, so WAR and
    WAW stay for the scheduler to honour.
    """

    name = "insert-dependence-pragmas"

    def run(self, func: FuncOp) -> bool:
        from repro.depgraph.analysis import carried_dependences_generic
        from repro.isl.sets import BasicSet
        from repro.hls.estimator import _collect_pipeline_region, _freeze_outer, _loads_of

        changed = False
        for loop in func.loops():
            if "pipeline" not in loop.attributes:
                continue
            inner_loops, stores = _collect_pipeline_region(loop)
            trips = {loop.iterator: loop.max_trip_count({}) or 1}
            for inner in inner_loops:
                trips[inner.iterator] = max(
                    inner.max_trip_count(trips) or 1, trips.get(inner.iterator, 1)
                )
            hints = list(loop.attributes.get("dependence", []))
            for store, enclosing in stores:
                dims = [loop.iterator] + [l.iterator for l in enclosing]
                loads = [
                    l for l in _loads_of(store.value)
                    if l.array.name == store.array.name
                ]
                if not loads:
                    continue
                bounds = {d: (0, max(0, trips.get(d, 1) - 1)) for d in dims}
                domain = BasicSet.box(bounds, order=dims)
                pairs = [
                    (
                        "RAW",
                        store.array.name,
                        [_freeze_outer(e, dims) for e in store.indices],
                        [_freeze_outer(e, dims) for e in load.indices],
                    )
                    for load in loads
                ]
                extents = {d: max(1, trips.get(d, 1)) for d in dims}
                deps = carried_dependences_generic(dims, domain, pairs, extents)
                if any(dep.level == 0 for dep in deps):
                    continue  # a real carried dependence: no false hint
                hint = f"variable={store.array.name} inter RAW false"
                if hint not in hints:
                    hints.append(hint)
                    changed = True
            if hints:
                loop.attributes["dependence"] = hints
        return changed
