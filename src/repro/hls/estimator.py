"""The virtual HLS synthesis model: latency, II, and resource estimation.

This module substitutes for Vitis HLS synthesis.  It follows the
analytical model family the paper itself builds on (COMBA [38] and the
ScaleHLS QoR model [35]): a hierarchical roll-up of loop latencies where

* a **pipelined** loop completely unrolls everything nested inside it
  (Vitis behaviour), executes ``depth + II * (trip - 1)`` cycles, and its
  achieved II is the maximum of the target II, the *recurrence* II from
  loop-carried dependences (computed exactly with the integer-set
  dependence engine), and the *memory-port* II from array-bank
  contention under the current array partitioning;
* a **sequential** loop costs ``trip * (body + overhead)`` and shares
  operator instances across iterations, while an unrolled loop
  duplicates its body's operators;
* resources count operator instances (DSP/LUT/FF from the operator
  library), loop control, bank multiplexing, and pipeline registers.

A function's estimate is composed from one estimate per top-level loop
nest, and with ``memoize_reports=True`` those are memoized on the nest's
fingerprint and the partition schemes of the arrays it touches, which
is everything the model reads of a nest: a DSE candidate pays only for
the nests it changed.  The memo is *per-instance* state, never shared
between estimators: each DSE sweep constructs its own
:class:`HlsEstimator`, so two sweeps (one after another in ``repro dse
--all``, or side by side in serve workers) cannot observe or corrupt
one another's memo tables.  Memoized and unmemoized estimates are
bit-identical by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults as _faults
from repro import trace as _trace
from repro.depgraph.analysis import carried_dependences_generic
from repro.dsl.dtypes import DType, float32
from repro.isl import intern as _intern
from repro.isl import matrix as _matrix
from repro.isl.affine import AffineExpr
from repro.isl.sets import BasicSet
from repro.affine.ir import (
    AffineForOp,
    AffineIfOp,
    AffineLoadOp,
    AffineStoreOp,
    ArithOp,
    Block,
    CallOp,
    CastOp,
    ConstantOp,
    FuncOp,
    IndexOp,
    Op,
    ValueOp,
    array_fingerprint,
    used_arrays,
)
from repro.hls import oplib
from repro.hls.device import DEFAULT_CLOCK_NS, DEFAULT_DEVICE, FPGADevice
from repro.hls.power import estimate_power
from repro.hls.report import LoopReport, Resources, SynthesisReport

_ENUM_CAP = 4096  # max unrolled copies enumerated exactly for bank analysis


class TransientEstimatorError(RuntimeError):
    """A recoverable estimation failure, worth retrying.

    The analytical model itself never raises this; it is the contract
    for estimator backends that wrap external tools (a licence-server
    hiccup, a transient I/O failure) and for fault injection in tests.
    The DSE retries these with bounded exponential backoff before
    quarantining the design point (``DSE002``).
    """


@dataclass
class _Estimate:
    cycles: int
    resources: Resources
    loops: List[LoopReport] = field(default_factory=list)


class HlsEstimator:
    """Virtual HLS synthesis for affine-dialect functions."""

    def __init__(
        self,
        device: FPGADevice = DEFAULT_DEVICE,
        clock_ns: float = DEFAULT_CLOCK_NS,
        dataflow: bool = False,
        share_sequential: bool = True,
        memoize_reports: bool = True,
    ):
        self.device = device
        self.clock_ns = clock_ns
        # Dataflow mode models Vitis HLS #pragma HLS dataflow at the top
        # level: nests run concurrently (latency = slowest stage, with
        # stalls from unmatched paces) but every stage keeps private
        # resources -- the ScaleHLS DNN strategy of paper Fig. 13.
        self.dataflow = dataflow
        # When False, sequential nests do NOT share operator resources
        # (each loop nest instantiates private hardware) -- the
        # per-nest-hardware behaviour of frameworks without cross-loop
        # binding, used to model ScaleHLS resource accounting.
        self.share_sequential = share_sequential
        # Operator latencies are characterized at the paper's 10 ns
        # clock; a faster clock needs proportionally more pipeline
        # stages per operator (ceil per op, as Vitis re-stages cores).
        self._latency_scale = DEFAULT_CLOCK_NS / clock_ns
        # Memo tables: recurrence and bank analyses are pure functions of
        # structural signatures, and a DSE run re-lowers near-identical
        # programs hundreds of times.
        self._recurrence_memo: Dict[tuple, Tuple[int, int]] = {}
        self._bank_memo: Dict[tuple, int] = {}
        # Per-nest memo: nest fingerprint -> (arrays it touches, {their
        # partition schemes: estimate}).  A ladder step changes one
        # layer, so every other nest of the candidate is a hit.
        self.memoize_reports = memoize_reports
        self._nest_memo: Dict[tuple, Tuple[List[str], Dict[tuple, _Estimate]]] = {}
        self.nest_hits = 0
        self.nest_misses = 0
        # Cycles of each top-level nest of the last estimated function.
        self.nest_cycles: List[int] = []

    # -- public API ---------------------------------------------------------

    def estimate(self, func: FuncOp) -> SynthesisReport:
        # Fault-injection hook (no-op in production): lets the chaos
        # harness raise transient/permanent failures or expire the
        # active watchdog deadline from inside the real entry point, so
        # the retry/quarantine/timeout paths under test are the
        # production ones.
        fault_plan = _faults.active()
        if fault_plan is not None:
            fault_plan.on_estimate()
        _trace.count("hls.estimate_calls")
        args = {"nests": len(func.body)} if _trace.enabled() else None
        hits = self.nest_hits
        with _trace.span("hls.estimate", "hls", args):
            partitions = func.attributes.get("partitions", {})
            nests = [self._nest(op, partitions) for op in func.body]
            result = (self._dataflow_block if self.dataflow else self._block)(nests)
            if args is not None:
                args["nest_hits"] = self.nest_hits - hits
        self.nest_cycles = [nest.cycles for nest in nests]
        power = estimate_power(result.resources)
        return SynthesisReport(
            function_name=func.name,
            device=self.device,
            clock_ns=self.clock_ns,
            total_cycles=result.cycles,
            resources=result.resources,
            loops=result.loops,
            power_w=power,
        )

    # -- recursive walk -----------------------------------------------------------

    def _nest(self, op: Op, partitions) -> _Estimate:
        """One top-level nest: a pure function of its fingerprint and the
        partition schemes of the arrays it touches, memoized on both."""
        if not self.memoize_reports:
            return self._op(op, {}, partitions)
        fingerprint = op.fingerprint()
        entry = self._nest_memo.get(fingerprint)
        if entry is None:
            entry = self._nest_memo[fingerprint] = (sorted(used_arrays([op])), {})
        names, estimates = entry
        schemes = tuple(partitions.get(name) for name in names)
        estimate = estimates.get(schemes)
        if estimate is None:
            self.nest_misses += 1
            estimate = estimates[schemes] = self._op(op, {}, partitions)
        else:
            self.nest_hits += 1
        return estimate

    def _block(self, parts: List[_Estimate]) -> _Estimate:
        """Sequential region: latencies add; operator resources share.

        Ops in one sequential region never execute concurrently, so
        Vitis binds them to shared function units -- the "resource reuse
        between different layers" the paper relies on for DNNs.  We
        model sharing as an element-wise max across the region's
        children (each child still pays its own loop control).
        """
        total = _Estimate(0, Resources())
        shared = Resources()
        for part in parts:
            total.cycles += part.cycles
            if self.share_sequential:
                shared = shared.max_with(part.resources)
            else:
                shared = shared + part.resources
            total.loops.extend(part.loops)
        total.resources = shared
        return total

    def _dataflow_block(self, parts: List[_Estimate]) -> _Estimate:
        """Top-level dataflow: concurrent stages, private resources.

        Latency is the slowest stage inflated by a stall factor for
        unmatched producer/consumer paces (the pipeline "will stall due
        to unmatched computation paces", Section VII-E); resources sum
        because nothing is shared between stages.
        """
        total = _Estimate(0, Resources())
        slowest = 0
        for part in parts:
            slowest = max(slowest, part.cycles)
            total.resources = total.resources + part.resources
            total.loops.extend(part.loops)
        stall_factor = 1.25 if len(parts) > 1 else 1.0
        total.cycles = int(slowest * stall_factor)
        return total

    def _op(self, op: Op, extents: Dict[str, int], partitions) -> _Estimate:
        if isinstance(op, AffineForOp):
            if "pipeline" in op.attributes:
                return self._pipelined_loop(op, extents, partitions)
            return self._sequential_loop(op, extents, partitions)
        if isinstance(op, AffineIfOp):
            return self._block([self._op(inner, extents, partitions) for inner in op.body])
        if isinstance(op, AffineStoreOp):
            latency = self._statement_latency(op)
            return _Estimate(latency, self._statement_resources(op))
        raise TypeError(f"cannot estimate op {op!r}")

    def _sequential_loop(self, loop: AffineForOp, extents, partitions) -> _Estimate:
        trip = loop.max_trip_count(extents)
        inner_extents = dict(extents)
        inner_extents[loop.iterator] = trip
        body = self._block([self._op(op, inner_extents, partitions) for op in loop.body])

        factor = loop.attributes.get("unroll")
        copies = 1
        if factor is not None:
            copies = trip if factor == 0 else min(factor, max(1, trip))
            copies = max(1, copies)
        iterations = math.ceil(trip / copies) if trip else 0
        cycles = iterations * (body.cycles + oplib.LOOP_ENTRY_OVERHEAD)
        resources = body.resources.scaled(copies) + Resources(
            lut=oplib.LOOP_CONTROL_LUT, ff=oplib.LOOP_CONTROL_FF
        )
        report = LoopReport(
            iterator=loop.iterator,
            trip_count=trip,
            pipelined=False,
            achieved_ii=None,
            depth=body.cycles,
            latency=cycles,
            unrolled_copies=copies,
        )
        return _Estimate(cycles, resources, [report] + body.loops)

    # -- pipelined region -------------------------------------------------------

    def _pipelined_loop(self, loop: AffineForOp, extents, partitions) -> _Estimate:
        trip = loop.max_trip_count(extents)
        target_ii = max(1, int(loop.attributes.get("pipeline", 1)))

        inner_loops, stores = _collect_pipeline_region(loop)
        inner_extents = dict(extents)
        inner_extents[loop.iterator] = trip
        trips: Dict[str, int] = {}
        for inner in inner_loops:
            count = inner.max_trip_count(inner_extents)
            # Fused sibling nests may reuse iterator names; a shared name
            # keeps the larger trip (conservative for both).
            trips[inner.iterator] = max(count, trips.get(inner.iterator, 0))
            inner_extents[inner.iterator] = trips[inner.iterator]

        inner_names = list(dict.fromkeys(l.iterator for l in inner_loops))
        region_dims = [loop.iterator] + inner_names
        region_trips = {loop.iterator: trip, **trips}

        depth = 2
        for store, _ in stores:
            depth = max(depth, self._statement_latency(store))

        # Memory-port II under the current partitioning.
        ii_mem, bank_mux_lut = self._memory_ii(
            stores, region_dims[1:], region_trips, partitions
        )

        # Recurrence II from loop-carried dependences inside the region.
        # Each store is analyzed over its own enclosing loop chain (fused
        # siblings may reuse iterator names across branches).
        ii_rec = 1
        depth_extra = 0
        for store, enclosing in stores:
            chain_dims = [loop.iterator] + [l.iterator for l in enclosing]
            chain_trips = {d: region_trips.get(d, 1) for d in chain_dims}
            chain_trips[loop.iterator] = trip
            # Everything the analysis reads of the store, including the
            # value's arithmetic and dtype, but not its statement name.
            memo_key = (
                tuple(chain_dims),
                tuple(sorted(chain_trips.items())),
                array_fingerprint(store.array),
                tuple(store.indices),
                store.value.fingerprint(),
            )
            cached = self._recurrence_memo.get(memo_key)
            if cached is None:
                cached = self._recurrence_ii(
                    [(store, enclosing)], chain_dims, chain_trips, extents
                )
                self._recurrence_memo[memo_key] = cached
            store_ii, store_depth = cached
            ii_rec = max(ii_rec, store_ii)
            depth_extra = max(depth_extra, store_depth)
        depth += depth_extra

        achieved_ii = max(target_ii, ii_mem, ii_rec)
        cycles = depth + achieved_ii * max(0, trip - 1) if trip else 0

        # Resources: spatial duplication of operators across unrolled
        # copies, time-multiplexed over II slots (modulo-scheduling bound:
        # an II of k lets k operations share one unit).
        resources = Resources(
            lut=oplib.LOOP_CONTROL_LUT + bank_mux_lut, ff=oplib.LOOP_CONTROL_FF
        )
        total_ops = Resources()
        for store, enclosing in stores:
            copies = 1
            for inner in enclosing:
                copies *= max(1, trips[inner.iterator])
            total_ops = total_ops + self._statement_resources(store).scaled(copies)
        shared = Resources(
            dsp=math.ceil(total_ops.dsp / achieved_ii),
            lut=math.ceil(total_ops.lut / achieved_ii),
            ff=math.ceil(total_ops.ff / achieved_ii),
            bram_bits=total_ops.bram_bits,
        )
        if achieved_ii > 1:
            # Sharing needs operand multiplexers.
            shared = shared + Resources(lut=shared.dsp * oplib.BANK_MUX_LUT)
        resources = resources + shared

        # Pipeline balancing registers scale with depth and datapath copies.
        total_copies = 1
        for inner in inner_loops:
            total_copies *= max(1, trips[inner.iterator])
        resources = resources + Resources(
            ff=oplib.PIPELINE_FF_PER_STAGE * min(depth, 32) * min(total_copies, 64)
        )

        reports = [
            LoopReport(
                iterator=loop.iterator,
                trip_count=trip,
                pipelined=True,
                achieved_ii=achieved_ii,
                depth=depth,
                latency=cycles,
                unrolled_copies=1,
                ii_breakdown={
                    "target": target_ii,
                    "memory": ii_mem,
                    "recurrence": ii_rec,
                },
            )
        ]
        for inner in inner_loops:
            reports.append(
                LoopReport(
                    iterator=inner.iterator,
                    trip_count=trips[inner.iterator],
                    pipelined=True,
                    achieved_ii=achieved_ii,
                    depth=depth,
                    latency=cycles,
                    unrolled_copies=trips[inner.iterator],
                )
            )
        return _Estimate(cycles, resources, reports)

    # -- statement costing ---------------------------------------------------------

    def _statement_dtype(self, store: AffineStoreOp) -> DType:
        return store.array.dtype

    def _statement_latency(self, store: AffineStoreOp) -> int:
        dtype = self._statement_dtype(store)
        return (
            _tree_latency(store.value, dtype, self._latency_scale)
            + _scaled(oplib.STORE_LATENCY, self._latency_scale)
        )

    def _statement_resources(self, store: AffineStoreOp) -> Resources:
        dtype = self._statement_dtype(store)
        res = Resources()
        for cost in _tree_costs(store.value, dtype):
            res = res + Resources(dsp=cost.dsp, lut=cost.lut, ff=cost.ff)
        return res

    def _dep_latency(self, store: AffineStoreOp, array_name: str) -> int:
        """Latency of the recurrence path: load(array) -> ... -> store."""
        dtype = self._statement_dtype(store)
        scale = self._latency_scale
        path = _path_latency(store.value, array_name, dtype, scale)
        if path is None:
            path = _tree_latency(store.value, dtype, scale)
        return (
            _scaled(oplib.LOAD_LATENCY, scale)
            + path
            + _scaled(oplib.STORE_LATENCY, scale)
        )

    # -- initiation interval models ---------------------------------------------------

    def _memory_ii(
        self,
        stores: List[Tuple[AffineStoreOp, list]],
        unrolled_dims: List[str],
        trips: Dict[str, int],
        partitions,
    ) -> Tuple[int, int]:
        """Worst per-bank access pressure across all arrays -> port II."""
        ports = self.device.bram_ports_per_bank
        worst_ii = 1
        mux_lut = 0
        accesses = _accesses_by_array(stores)
        for array_name, (array, index_lists) in accesses.items():
            scheme = partitions.get(array_name)
            banks_total = scheme.total_banks if scheme else 1
            per_bank = self._bank_pressure(
                array, index_lists, unrolled_dims, trips, scheme
            )
            worst_ii = max(worst_ii, math.ceil(per_bank / ports))
            mux_lut += (banks_total - 1) * oplib.BANK_MUX_LUT
        return worst_ii, mux_lut

    def _bank_pressure(self, array, index_lists, unrolled_dims, trips, scheme) -> int:
        """Max *distinct elements* hitting one bank per pipeline iteration.

        Identical accesses from different unrolled copies share one port
        (Vitis folds redundant loads), so pressure counts distinct
        elements per bank, not raw access instances.
        """
        memo_key = (
            array_fingerprint(array),
            tuple(tuple(str(i) for i in indices) for indices in index_lists),
            tuple(unrolled_dims),
            tuple(sorted((d, trips.get(d, 1)) for d in unrolled_dims)),
            None if scheme is None else (scheme.factors, scheme.kind),
        )
        cached = self._bank_memo.get(memo_key)
        if cached is not None:
            return cached
        result = self._bank_pressure_uncached(array, index_lists, unrolled_dims, trips, scheme)
        self._bank_memo[memo_key] = result
        return result

    def _bank_pressure_uncached(self, array, index_lists, unrolled_dims, trips, scheme) -> int:
        total_copies = 1
        for dim in unrolled_dims:
            total_copies *= max(1, trips.get(dim, 1))

        if total_copies > _ENUM_CAP:
            # Assume ideal spread for very large unroll regions.
            total = len(index_lists) * total_copies
            banks = scheme.total_banks if scheme else 1
            return math.ceil(total / banks)

        ranges = [range(max(1, trips.get(d, 1))) for d in unrolled_dims]
        if unrolled_dims and index_lists and not _intern.reference_mode():
            fast = _bank_pressure_vectorized(
                array, index_lists, unrolled_dims, ranges, scheme
            )
            if fast is not None:
                return fast
        elements = set()
        for combo in itertools.product(*ranges):
            env = dict(zip(unrolled_dims, combo))
            for indices in index_lists:
                elements.add(tuple(_concrete_index(i, env) for i in indices))
        if scheme is None:
            return len(elements)
        counts: Dict[tuple, int] = {}
        for element in elements:
            bank = _bank_id(array, element, scheme)
            counts[bank] = counts.get(bank, 0) + 1
        return max(counts.values()) if counts else 0

    def _recurrence_ii(
        self,
        stores: List[Tuple[AffineStoreOp, list]],
        region_dims: List[str],
        trips: Dict[str, int],
        outer_extents: Dict[str, int],
    ) -> Tuple[int, int]:
        """Recurrence-constrained II plus extra iteration depth.

        Dependences carried by the pipelined dim bound the II (scaled by
        the serial chain length through unrolled copies); dependences
        carried only by unrolled dims serialize copies within one
        iteration and so extend the depth instead.
        """
        bounds = {d: (0, max(0, trips.get(d, 1) - 1)) for d in region_dims}
        domain = BasicSet.box(bounds, order=region_dims)
        ii_rec = 1
        depth_extra = 0
        for store, _ in stores:
            pairs = []
            store_idx = [_freeze_outer(e, region_dims) for e in store.indices]
            for load in _loads_of(store.value):
                if load.array.name != store.array.name:
                    continue
                load_idx = [_freeze_outer(e, region_dims) for e in load.indices]
                pairs.append(("RAW", store.array.name, store_idx, load_idx))
            if not pairs:
                continue
            extents = {d: max(1, trips.get(d, 1)) for d in region_dims}
            deps = carried_dependences_generic(region_dims, domain, pairs, extents)
            for dep in deps:
                latency = self._dep_latency(store, dep.array)
                chain = _chain_copies(dep, region_dims, trips)
                if dep.level == 0:
                    distance = dep.min_distance or 1
                    ii_rec = max(ii_rec, math.ceil(chain * latency / distance))
                else:
                    distance = dep.min_distance or 1
                    carried_trip = max(1, trips.get(dep.carried_dim, 1))
                    steps = math.ceil(carried_trip / distance) - 1
                    depth_extra = max(depth_extra, steps * latency)
        return ii_rec, depth_extra


# -- helpers ------------------------------------------------------------------------


def _collect_pipeline_region(loop: AffineForOp):
    """Inner loops (to be fully unrolled) and stores with their nests."""
    inner_loops: List[AffineForOp] = []
    stores: List[Tuple[AffineStoreOp, List[AffineForOp]]] = []

    def walk(block: Block, enclosing: List[AffineForOp]):
        for op in block:
            if isinstance(op, AffineForOp):
                inner_loops.append(op)
                walk(op.body, enclosing + [op])
            elif isinstance(op, AffineIfOp):
                walk(op.body, enclosing)
            elif isinstance(op, AffineStoreOp):
                stores.append((op, list(enclosing)))

    walk(loop.body, [])
    return inner_loops, stores


def _loads_of(value: ValueOp) -> List[AffineLoadOp]:
    loads = []

    def walk(op: ValueOp):
        if isinstance(op, AffineLoadOp):
            loads.append(op)
        elif isinstance(op, ArithOp):
            walk(op.lhs)
            walk(op.rhs)
        elif isinstance(op, CallOp):
            for operand in op.operands:
                walk(operand)
        elif isinstance(op, CastOp):
            walk(op.operand)

    walk(value)
    return loads


def _accesses_by_array(stores) -> Dict[str, Tuple[object, List[List[AffineExpr]]]]:
    result: Dict[str, Tuple[object, List[List[AffineExpr]]]] = {}
    for store, _ in stores:
        entry = result.setdefault(store.array.name, (store.array, []))
        entry[1].append(list(store.indices))
        for load in _loads_of(store.value):
            entry = result.setdefault(load.array.name, (load.array, []))
            entry[1].append(list(load.indices))
    return result


def _concrete_index(index: AffineExpr, env: Dict[str, int]) -> int:
    """Evaluate an index with unbound (outer) iterators pinned to 0."""
    value = index.constant
    for name, coeff in index.coeffs.items():
        value += coeff * env.get(name, 0)
    return value


def _bank_pressure_vectorized(array, index_lists, unrolled_dims, ranges, scheme):
    """Numpy bank-pressure enumeration, or None to fall back.

    Counts the same distinct (element, bank) sets as the scalar loop in
    ``_bank_pressure_uncached`` -- numpy's ``%`` and ``//`` agree with
    Python's for negative operands, so bank ids match exactly.
    """
    grid = _matrix.candidate_grid(ranges)
    if grid is None:
        return None
    # Exact Python-int bound on any index value; reject if the int64
    # matrix arithmetic could overflow.
    peak = 0
    for indices in index_lists:
        for expr in indices:
            bound = abs(expr.constant)
            for name, coeff in expr.coeffs.items():
                if name in unrolled_dims:
                    extent = ranges[unrolled_dims.index(name)].stop
                    bound += abs(coeff) * max(0, extent - 1)
            peak = max(peak, bound)
    if peak >= 1 << 62:
        return None
    blocks = []
    for indices in index_lists:
        columns = []
        for expr in indices:
            coeffs = np.array(
                [expr.coeff(d) for d in unrolled_dims], dtype=np.int64
            )
            columns.append(grid @ coeffs + expr.constant)
        blocks.append(np.stack(columns, axis=1))
    elements, _ = _unique_rows(np.concatenate(blocks, axis=0))
    if scheme is None:
        return int(elements.shape[0])
    banks = np.zeros_like(elements)
    for col, (factor, extent) in enumerate(zip(scheme.factors, array.shape)):
        values = elements[:, col]
        if factor <= 1:
            continue
        if scheme.kind == "cyclic":
            banks[:, col] = values % factor
        elif scheme.kind == "block":
            banks[:, col] = np.minimum(
                factor - 1, values // math.ceil(extent / factor)
            )
        else:  # complete
            banks[:, col] = values
    _, counts = _unique_rows(banks)
    return int(counts.max()) if counts.size else 0


def _unique_rows(rows: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Distinct rows of a 2-D integer array, sorted, and their counts.

    What ``np.unique(rows, axis=0, return_counts=True)`` returns, from
    one lexsort and a comparison of adjacent rows; ``np.unique`` gets
    there through a structured-dtype view (and imports ``numpy.ma``).
    """
    if rows.shape[0] == 0:
        return rows, np.zeros(0, dtype=np.intp)
    ordered = rows[np.lexsort(rows.T[::-1])]
    starts = np.flatnonzero(
        np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
    )
    return ordered[starts], np.diff(np.append(starts, rows.shape[0]))


def _bank_id(array, element: tuple, scheme) -> tuple:
    bank = []
    for value, factor, extent in zip(element, scheme.factors, array.shape):
        if factor <= 1:
            bank.append(0)
        elif scheme.kind == "cyclic":
            bank.append(value % factor)
        elif scheme.kind == "block":
            bank.append(min(factor - 1, value // math.ceil(extent / factor)))
        else:  # complete
            bank.append(value)
    return tuple(bank)


def _freeze_outer(expr: AffineExpr, region_dims: Sequence[str]) -> AffineExpr:
    """Bind iterators outside the pipeline region to 0 (constants)."""
    outside = [d for d in expr.dims() if d not in region_dims]
    if not outside:
        return expr
    return expr.substitute({d: 0 for d in outside})


def _chain_copies(dep, region_dims: List[str], trips: Dict[str, int]) -> int:
    """Serial chain length through unrolled copies along a dependence.

    Unrolled dims (every region dim except the pipelined one and the
    carried dim itself) whose distance entry is unknown connect all
    their copies in series; a constant non-zero entry connects every
    |entry|-th copy; a zero entry keeps copies independent.
    """
    chain = 1
    for level, dim in enumerate(region_dims):
        if level == 0 or level == dep.level:
            continue
        entry = dep.distance[dim]
        trip = max(1, trips.get(dim, 1))
        if entry is None:
            chain *= trip
        elif entry != 0:
            chain *= max(1, trip // abs(entry))
    return chain


def _scaled(cycles: int, scale: float) -> int:
    """Cycles of a reference-clock operator at the configured clock."""
    if scale == 1.0 or cycles == 0:
        return cycles
    return max(1, math.ceil(cycles * scale))


def _tree_latency(value: ValueOp, dtype: DType, scale: float = 1.0) -> int:
    if isinstance(value, (ConstantOp, IndexOp)):
        return 0
    if isinstance(value, AffineLoadOp):
        return _scaled(oplib.LOAD_LATENCY, scale)
    if isinstance(value, ArithOp):
        cost = oplib.op_cost(value.kind, dtype)
        return _scaled(cost.latency, scale) + max(
            _tree_latency(value.lhs, dtype, scale),
            _tree_latency(value.rhs, dtype, scale),
        )
    if isinstance(value, CallOp):
        cost = oplib.op_cost(value.func, dtype)
        operands = [_tree_latency(a, dtype, scale) for a in value.operands]
        return _scaled(cost.latency, scale) + (max(operands) if operands else 0)
    if isinstance(value, CastOp):
        return _scaled(oplib.CAST_COST.latency, scale) + _tree_latency(
            value.operand, dtype, scale
        )
    raise TypeError(f"cannot cost {value!r}")


def _tree_costs(value: ValueOp, dtype: DType):
    if isinstance(value, ArithOp):
        yield oplib.op_cost(value.kind, dtype)
        yield from _tree_costs(value.lhs, dtype)
        yield from _tree_costs(value.rhs, dtype)
    elif isinstance(value, CallOp):
        yield oplib.op_cost(value.func, dtype)
        for operand in value.operands:
            yield from _tree_costs(operand, dtype)
    elif isinstance(value, CastOp):
        yield oplib.CAST_COST
        yield from _tree_costs(value.operand, dtype)


def _path_latency(
    value: ValueOp, array_name: str, dtype: DType, scale: float = 1.0
) -> Optional[int]:
    """Latency from a load of ``array_name`` to the root, or None."""
    if isinstance(value, AffineLoadOp):
        return 0 if value.array.name == array_name else None
    if isinstance(value, ArithOp):
        cost = oplib.op_cost(value.kind, dtype)
        paths = [
            _path_latency(v, array_name, dtype, scale)
            for v in (value.lhs, value.rhs)
        ]
        valid = [p for p in paths if p is not None]
        return _scaled(cost.latency, scale) + max(valid) if valid else None
    if isinstance(value, CallOp):
        cost = oplib.op_cost(value.func, dtype)
        paths = [_path_latency(v, array_name, dtype, scale) for v in value.operands]
        valid = [p for p in paths if p is not None]
        return _scaled(cost.latency, scale) + max(valid) if valid else None
    if isinstance(value, CastOp):
        path = _path_latency(value.operand, array_name, dtype, scale)
        return _scaled(oplib.CAST_COST.latency, scale) + path if path is not None else None
    return None
