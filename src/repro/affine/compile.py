"""Compile affine functions to vectorized numpy simulation kernels.

:func:`repro.affine.interp.interpret` executes a
:class:`~repro.affine.ir.FuncOp` node-by-node through a Python tree
walk, which makes it a trustworthy oracle but caps differential
validation at toy sizes.  This module compiles the same IR to an
exec-built Python kernel: affine coefficients are baked into the source
as literals, the compiled function is cached on the active
:class:`~repro.isl.intern.InternContext` keyed by the function's
structural fingerprint, and a ``REPRO_SIM_REFERENCE`` escape hatch
(mirroring ``REPRO_ISL_REFERENCE``) forces every simulation back
through the interpreter for differential testing.

Vectorization model
-------------------

Each maximal perfectly-nested band that ends in a single
``affine.store`` is split into a *parallel* set ``P`` of iterators and
a *scalar* rest ``R``:

* iterators in ``P`` become int64 ``arange`` grids broadcast along one
  axis each, so the store executes as a single fancy-indexed numpy
  assignment over the whole ``P`` sub-space;
* iterators in ``R`` stay compiled Python ``for`` loops, emitted in
  their original relative order *outside* the grids.

An iterator ``p`` joins ``P`` only when all of the following hold, so
the reordering (hoisting ``R`` outside ``P``) is observationally
identical to the original sequential nest:

1. **private store position** -- some store index has a non-zero
   coefficient on ``p`` and zero coefficients on every other member of
   ``P`` and on every ``R`` loop nested inside ``p``, which makes writes
   injective across the ``P`` sub-space (distinct ``P`` points never
   collide on a cell) and keeps each cell's writes in their declared
   order once ``R`` is hoisted outside the grids (with ``P[i + k]`` and
   ``k`` nested inside ``i``, cell ``c`` is written in increasing ``i``,
   that is in decreasing ``k``);
2. **read-own-cell** -- every load from the stored array uses exactly
   the store's index tuple, so each cell's update depends only on that
   cell's previous value (the gemm/conv accumulate pattern), never on a
   neighbour that another ``P`` point is writing;
3. **rectangular bounds** -- no loop bound in the band references
   ``p`` (triangular/skewed dimensions stay scalar, as do dimensions
   consumed by a bare ``IndexOp`` in value position, whose strongly
   typed int64 grid would promote f32 arithmetic that a weak Python
   ``int`` scalar leaves alone).

Anything else -- loop-carried recurrences such as Seidel's in-place
stencil, ``affine.if`` guards, imperfect nests -- falls back to a
compiled scalar loop at that level, and constructs the backend cannot
express at all fall back to the interpreter wholesale (the kernel is
still cached, so the decision is made once per fingerprint).

Bit-identity with the interpreter is a hard contract, enforced by
``tests/affine/test_compile_sim.py`` across every workload family: the
vector helpers below delegate to the interpreter's scalar helpers
whenever an operand is not an ndarray, and NEP-50 weak-scalar
promotion guarantees the array expressions round exactly like the
per-element scalar chains.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import trace as _trace
from repro.affine.interp import _CALLS, c_div, c_mod, interpret
from repro.affine.ir import (
    AffineForOp,
    AffineIfOp,
    AffineLoadOp,
    AffineStoreOp,
    ArithOp,
    CallOp,
    CastOp,
    ConstantOp,
    FuncOp,
    IndexOp,
    Op,
    ValueOp,
)
from repro.isl import intern as _intern
from repro.isl.affine import AffineExpr
from repro.isl.constraint import EQ
from repro.isl.sets import LoopBound


class UnsupportedConstruct(Exception):
    """Raised during compilation when the IR cannot be expressed.

    Internal control flow: :func:`compile_func` catches it and falls
    back to an interpreter-backed kernel, so callers never see it.
    """


# -- vector runtime helpers ---------------------------------------------------
#
# Every helper delegates to the interpreter's scalar implementation when
# no operand is an ndarray.  This is not just code reuse: a numpy 0-d
# array or np.float64 scalar has a *strong* dtype under NEP-50 and would
# promote f32 arithmetic to f64, while the interpreter's Python scalars
# stay weak.  Delegation keeps the scalar sub-expressions of a
# vectorized statement on exactly the interpreter's types.


def _int_like(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iu"
    return isinstance(value, (int, np.integer))


def _v_div(lhs, rhs):
    """Elementwise C division (truncating for integer operands)."""
    if not isinstance(lhs, np.ndarray) and not isinstance(rhs, np.ndarray):
        return c_div(lhs, rhs)
    if _int_like(lhs) and _int_like(rhs):
        quotient = np.abs(lhs) // np.abs(rhs)
        return np.where((lhs >= 0) == (rhs >= 0), quotient, -quotient)
    return lhs / rhs


def _v_mod(lhs, rhs):
    """Elementwise C remainder (``%`` for ints, ``fmod`` for floats)."""
    if not isinstance(lhs, np.ndarray) and not isinstance(rhs, np.ndarray):
        return c_mod(lhs, rhs)
    if _int_like(lhs) and _int_like(rhs):
        return lhs - _v_div(lhs, rhs) * rhs
    return np.fmod(lhs, rhs)


def _v_min(lhs, rhs):
    if not isinstance(lhs, np.ndarray) and not isinstance(rhs, np.ndarray):
        return min(lhs, rhs)
    # Keeps builtin min's pick-the-operand semantics (including NaN
    # behaviour: comparison False keeps the first operand).
    return np.where(rhs < lhs, rhs, lhs)


def _v_max(lhs, rhs):
    if not isinstance(lhs, np.ndarray) and not isinstance(rhs, np.ndarray):
        return max(lhs, rhs)
    return np.where(rhs > lhs, rhs, lhs)


def _v_relu(value):
    if not isinstance(value, np.ndarray):
        return _CALLS["relu"](value)
    return np.where(value > 0, value, 0)


def _v_ufunc(np_func, scalar_func):
    def call(value):
        if isinstance(value, np.ndarray):
            return np_func(value)
        return scalar_func(value)

    return call


def _v_cast(np_type, value):
    if isinstance(value, np.ndarray):
        # astype truncates float->int toward zero, same as np_type(x).
        return value.astype(np_type)
    return np_type(value)


#: Vectorized intrinsics; ``None`` marks variadic min/max, folded left
#: by the emitter to match builtin min/max's scan order.
_V_CALLS = {
    "min": _v_min,
    "max": _v_max,
    "abs": abs,
    "sqrt": _v_ufunc(np.sqrt, _CALLS["sqrt"]),
    "exp": _v_ufunc(np.exp, _CALLS["exp"]),
    "log": _v_ufunc(np.log, _CALLS["log"]),
    "relu": _v_relu,
}

_GLOBALS = {
    "__builtins__": {},
    "range": range,
    "max": max,
    "min": min,
    "abs": abs,
    "_np": np,
    "_c_div": c_div,
    "_c_mod": c_mod,
    "_v_div": _v_div,
    "_v_mod": _v_mod,
    "_v_cast": _v_cast,
}
for _name, _fn in _CALLS.items():
    _GLOBALS["_s_" + _name] = _fn
for _name, _fn in _V_CALLS.items():
    _GLOBALS["_v_" + _name] = _fn
del _name, _fn


# -- compiled kernel object ---------------------------------------------------


class KernelStats:
    """What the compiler did with one function (for tests/benchmarks)."""

    __slots__ = ("vector_nests", "vector_axes", "scalar_loops", "fallback")

    def __init__(self):
        self.vector_nests = 0
        self.vector_axes = 0
        self.scalar_loops = 0
        #: Reason string when the whole function fell back to the
        #: interpreter, else None.
        self.fallback: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "vector_nests": self.vector_nests,
            "vector_axes": self.vector_axes,
            "scalar_loops": self.scalar_loops,
            "fallback": self.fallback,
        }


class CompiledKernel:
    """An executable simulation kernel for one function fingerprint.

    Calling it runs the function body in place on ``arrays`` (a mapping
    of array name to ndarray), with semantics bit-identical to
    :func:`~repro.affine.interp.interpret`.  Use :func:`simulate` for
    the checked entry point (missing-buffer validation + reference
    mode); the kernel itself trusts its inputs.
    """

    __slots__ = ("func_name", "source", "stats", "_fn")

    def __init__(self, func_name: str, source: str, stats: KernelStats, fn):
        self.func_name = func_name
        self.source = source
        self.stats = stats
        self._fn = fn

    def __call__(self, arrays) -> None:
        self._fn(arrays)

    def __repr__(self):
        mode = "interpreted" if self.stats.fallback else "compiled"
        return f"<CompiledKernel {self.func_name!r} ({mode})>"


# -- source builder -----------------------------------------------------------


class _Builder:
    def __init__(self, func: FuncOp):
        self.func = func
        self.lines: List[str] = []
        self.stats = KernelStats()
        self._ids = itertools.count()
        #: iterator name -> local variable (scalar int or grid array).
        self.iters: Dict[str, str] = {}
        #: array name -> local variable holding the ndarray.
        self.arrays: Dict[str, str] = {}
        #: extra exec-namespace constants (numpy dtype constructors).
        self.consts: Dict[str, object] = {}

    # -- small utilities ---------------------------------------------

    def _fresh(self, prefix: str) -> str:
        return f"_{prefix}{next(self._ids)}"

    def _emit(self, line: str, depth: int) -> None:
        self.lines.append("    " * depth + line)

    def _array_local(self, name: str) -> str:
        local = self.arrays.get(name)
        if local is None:
            local = self.arrays[name] = self._fresh("a")
        return local

    def _const_name(self, prefix: str, value) -> str:
        for name, existing in self.consts.items():
            if existing is value:
                return name
        name = self._fresh(prefix)
        self.consts[name] = value
        return name

    # -- affine expression sources -----------------------------------

    def _affine_src(self, expr: AffineExpr) -> str:
        parts = []
        for name, coeff in sorted(expr.coeffs.items()):
            local = self.iters.get(name)
            if local is None:
                raise UnsupportedConstruct(f"free dimension {name!r}")
            if coeff == 1:
                parts.append(local)
            elif coeff == -1:
                parts.append(f"-{local}")
            else:
                parts.append(f"{coeff} * {local}")
        if expr.constant or not parts:
            parts.append(str(expr.constant))
        return " + ".join(parts)

    def _bound_src(self, bound: LoopBound) -> str:
        src = self._affine_src(bound.expr)
        if bound.divisor == 1:
            return f"({src})"
        if bound.is_lower:
            return f"-((-({src})) // {bound.divisor})"  # ceil division
        return f"(({src}) // {bound.divisor})"

    def _range_src(self, op: AffineForOp) -> Tuple[str, str]:
        lowers = [self._bound_src(b) for b in op.lowers]
        uppers = [self._bound_src(b) for b in op.uppers]
        lo = lowers[0] if len(lowers) == 1 else "max(" + ", ".join(lowers) + ")"
        hi = uppers[0] if len(uppers) == 1 else "min(" + ", ".join(uppers) + ")"
        return lo, hi

    def _subscript_src(self, indices: Sequence[AffineExpr]) -> str:
        if not indices:
            return "()"
        return ", ".join(f"({self._affine_src(e)})" for e in indices)

    # -- value sources ------------------------------------------------

    def _value_src(self, op: ValueOp, vector: bool) -> str:
        if isinstance(op, ConstantOp):
            if not isinstance(op.value, (bool, int, float)):
                raise UnsupportedConstruct(f"constant {op.value!r}")
            return repr(op.value)
        if isinstance(op, IndexOp):
            return f"({self._affine_src(op.expr)})"
        if isinstance(op, AffineLoadOp):
            local = self._array_local(op.array.name)
            return f"{local}[{self._subscript_src(op.indices)}]"
        if isinstance(op, ArithOp):
            lhs = self._value_src(op.lhs, vector)
            rhs = self._value_src(op.rhs, vector)
            if op.kind in ("+", "-", "*"):
                return f"({lhs} {op.kind} {rhs})"
            helper = "_v" if vector else "_c"
            if op.kind == "/":
                return f"{helper}_div({lhs}, {rhs})"
            if op.kind == "%":
                return f"{helper}_mod({lhs}, {rhs})"
            raise UnsupportedConstruct(f"arith op {op.kind!r}")
        if isinstance(op, CallOp):
            if op.func not in _CALLS:
                raise UnsupportedConstruct(f"intrinsic {op.func!r}")
            operands = [self._value_src(o, vector) for o in op.operands]
            prefix = "_v_" if vector else "_s_"
            if op.func in ("min", "max") and len(operands) != 2:
                if not operands:
                    raise UnsupportedConstruct(f"empty {op.func}() call")
                if not vector:
                    return f"_s_{op.func}({', '.join(operands)})"
                # Left fold matches builtin min/max's scan order.
                src = operands[0]
                for operand in operands[1:]:
                    src = f"_v_{op.func}({src}, {operand})"
                return src
            return f"{prefix}{op.func}({', '.join(operands)})"
        if isinstance(op, CastOp):
            np_type = op.dtype.np_dtype.type
            name = self._const_name("dt", np_type)
            operand = self._value_src(op.operand, vector)
            if vector:
                return f"_v_cast({name}, {operand})"
            return f"{name}({operand})"
        raise UnsupportedConstruct(f"value op {type(op).__name__}")

    # -- vectorization analysis ---------------------------------------

    @staticmethod
    def _match_nest(op: AffineForOp) -> Optional[Tuple[List[AffineForOp], AffineStoreOp]]:
        """The perfect loop band ending in a single store, if any."""
        loops = [op]
        current = op
        while len(current.body) == 1 and isinstance(current.body.ops[0], AffineForOp):
            current = current.body.ops[0]
            loops.append(current)
        if len(current.body) == 1 and isinstance(current.body.ops[0], AffineStoreOp):
            return loops, current.body.ops[0]
        return None

    @staticmethod
    def _scan_value(op: ValueOp, loads: List[AffineLoadOp], index_dims: Set[str]) -> None:
        if isinstance(op, AffineLoadOp):
            loads.append(op)
        elif isinstance(op, IndexOp):
            index_dims.update(op.expr.coeffs)
        elif isinstance(op, ArithOp):
            _Builder._scan_value(op.lhs, loads, index_dims)
            _Builder._scan_value(op.rhs, loads, index_dims)
        elif isinstance(op, CallOp):
            for operand in op.operands:
                _Builder._scan_value(operand, loads, index_dims)
        elif isinstance(op, CastOp):
            _Builder._scan_value(op.operand, loads, index_dims)

    @staticmethod
    def _parallel_set(loops: List[AffineForOp], store: AffineStoreOp) -> Set[str]:
        """Iterators of the band that can run as broadcast grids.

        See the module docstring for the three conditions.  Returns the
        empty set when the whole band must stay scalar.
        """
        names = [loop.iterator for loop in loops]
        if len(set(names)) != len(names):
            return set()

        loads: List[AffineLoadOp] = []
        index_dims: Set[str] = set()
        _Builder._scan_value(store.value, loads, index_dims)
        for load in loads:
            if load.array.name == store.array.name:
                # Read-own-cell: any other access pattern makes a cell's
                # update depend on neighbours written by other P points.
                if tuple(load.indices) != tuple(store.indices):
                    return set()

        parallel = set(names)
        # A bare IndexOp value would turn a weak Python int into a
        # strong int64 grid and change float promotion; keep its
        # dimensions scalar.
        parallel -= index_dims

        # Rectangularity: a dimension referenced by any bound in the
        # band cannot be a grid (the dependent loop's extent would vary
        # across the grid).
        for loop in loops:
            for bound in list(loop.lowers) + list(loop.uppers):
                parallel -= set(bound.expr.coeffs)

        # Injectivity fixpoint: every surviving dimension needs a store
        # position that is private to it among the survivors and free of
        # every scalar loop nested inside it.  Removing a dimension can
        # privatize a position for another, so iterate to a fixpoint,
        # dropping the outermost failing dimension first (deterministic
        # for a given band).
        changed = True
        while changed and parallel:
            changed = False
            for depth, name in enumerate(names):
                if name not in parallel:
                    continue
                others = parallel.union(names[depth + 1:]) - {name}
                private = any(
                    index.coeff(name) != 0
                    and all(index.coeff(other) == 0 for other in others)
                    for index in store.indices
                )
                if not private:
                    parallel.discard(name)
                    changed = True
                    break
        return parallel

    # -- emission -----------------------------------------------------

    def build(self) -> str:
        if len(self.func.body):
            for op in self.func.body:
                self._emit_op(op, 1)
        else:
            self._emit("pass", 1)
        # Array locals are discovered during emission; bind them now.
        prelude = ["def _kernel(arrays):"]
        for name, local in self.arrays.items():
            prelude.append(f"    {local} = arrays[{name!r}]")
        return "\n".join(prelude + self.lines) + "\n"

    def _emit_op(self, op: Op, depth: int) -> None:
        if isinstance(op, AffineForOp):
            nest = self._match_nest(op)
            if nest is not None:
                parallel = self._parallel_set(*nest)
                if parallel:
                    self._emit_vector_nest(nest[0], nest[1], parallel, depth)
                    return
            self._emit_scalar_for(op, depth)
        elif isinstance(op, AffineIfOp):
            self._emit_if(op, depth)
        elif isinstance(op, AffineStoreOp):
            self._emit_store(op, depth, vector=False)
        else:
            raise UnsupportedConstruct(f"op {type(op).__name__}")

    def _emit_scalar_for(self, op: AffineForOp, depth: int) -> None:
        self.stats.scalar_loops += 1
        lo, hi = self._range_src(op)
        local = self._fresh("i")
        self._emit(f"for {local} in range({lo}, {hi} + 1):", depth)
        self.iters[op.iterator] = local
        if len(op.body):
            for inner in op.body:
                self._emit_op(inner, depth + 1)
        else:
            self._emit("pass", depth + 1)
        del self.iters[op.iterator]

    def _emit_if(self, op: AffineIfOp, depth: int) -> None:
        conditions = []
        for constraint in op.conditions:
            relation = "==" if constraint.kind == EQ else ">="
            conditions.append(f"({self._affine_src(constraint.expr)}) {relation} 0")
        self._emit("if " + " and ".join(conditions) + ":", depth)
        if len(op.body):
            for inner in op.body:
                self._emit_op(inner, depth + 1)
        else:
            self._emit("pass", depth + 1)

    def _emit_store(self, op: AffineStoreOp, depth: int, vector: bool) -> None:
        local = self._array_local(op.array.name)
        value = self._value_src(op.value, vector)
        self._emit(f"{local}[{self._subscript_src(op.indices)}] = {value}", depth)

    def _emit_vector_nest(
        self,
        loops: List[AffineForOp],
        store: AffineStoreOp,
        parallel: Set[str],
        depth: int,
    ) -> None:
        self.stats.vector_nests += 1
        self.stats.vector_axes += len(parallel)
        saved = dict(self.iters)
        # Scalar rest loops first, preserving their relative order; the
        # hoisting is sound because no scalar bound references a grid
        # dimension (rectangularity) and every grid point only ever
        # reads its own cell of the stored array.
        for loop in loops:
            if loop.iterator in parallel:
                continue
            self.stats.scalar_loops += 1
            lo, hi = self._range_src(loop)
            local = self._fresh("i")
            self._emit(f"for {local} in range({lo}, {hi} + 1):", depth)
            self.iters[loop.iterator] = local
            depth += 1
        # Grids: one broadcast axis per parallel loop, in band order.
        grid_loops = [loop for loop in loops if loop.iterator in parallel]
        rank = len(grid_loops)
        for axis, loop in enumerate(grid_loops):
            lo, hi = self._range_src(loop)
            grid = self._fresh("g")
            src = f"_np.arange({lo}, {hi} + 1)"
            if rank > 1:
                shape = ", ".join("-1" if i == axis else "1" for i in range(rank))
                src += f".reshape({shape})"
            self._emit(f"{grid} = {src}", depth)
            self.iters[loop.iterator] = grid
        self._emit_store(store, depth, vector=True)
        self.iters = saved


# -- compilation + cache ------------------------------------------------------


def _interpreter_kernel(func: FuncOp, reason: str) -> CompiledKernel:
    stats = KernelStats()
    stats.fallback = reason

    def run(arrays):
        interpret(func, arrays)

    source = f"# interpreter fallback: {reason}\n"
    return CompiledKernel(func.name, source, stats, run)


def _build_kernel(func: FuncOp) -> CompiledKernel:
    builder = _Builder(func)
    try:
        source = builder.build()
    except UnsupportedConstruct as exc:
        _trace.count("sim.fallback_interpreted")
        return _interpreter_kernel(func, str(exc))
    namespace: Dict[str, object] = {}
    bindings = dict(_GLOBALS)
    bindings.update(builder.consts)
    exec(compile(source, "<repro.affine.compile kernel>", "exec"), bindings, namespace)
    return CompiledKernel(func.name, source, builder.stats, namespace["_kernel"])


def compile_func(func: FuncOp) -> CompiledKernel:
    """Compile ``func`` to a :class:`CompiledKernel`, with caching.

    Kernels are cached on the active intern context keyed by
    ``func.fingerprint()``, so structurally identical functions (the
    common case across DSE candidates and fuzz trials) compile once.
    The cache follows the context's capacity/wholesale-clear policy.
    """
    context = _intern.active()
    table = context.kernel_fns
    key = func.fingerprint()
    kernel = table.get(key)
    if kernel is not None:
        _trace.count("sim.kernel_cache_hits")
        return kernel
    _trace.count("sim.kernel_cache_misses")
    with _trace.span("sim.compile", category="sim", args={"func": func.name}):
        kernel = _build_kernel(func)
    if len(table) >= context.cap:
        table.clear()
    table[key] = kernel
    return kernel


def simulate(func: FuncOp, arrays) -> None:
    """Execute ``func`` in place on ``arrays`` via the compiled kernel.

    Drop-in replacement for :func:`~repro.affine.interp.interpret`
    (same missing-buffer check, same in-place semantics, bit-identical
    results).  Under reference mode it *is* the interpreter.
    """
    if _REFERENCE:
        interpret(func, arrays)
        return
    for array in func.arrays:
        if array.name not in arrays:
            raise KeyError(f"missing buffer for array {array.name!r}")
    kernel = compile_func(func)
    with _trace.span("sim.run", category="sim", args={"func": func.name}):
        kernel(arrays)


# -- reference-mode escape hatch ----------------------------------------------

_REFERENCE = os.environ.get("REPRO_SIM_REFERENCE", "") not in ("", "0")


def reference_mode() -> bool:
    """True when :func:`simulate` is forced through the interpreter."""
    return _REFERENCE


def set_reference_mode(flag: bool) -> bool:
    """Force (or release) interpreter-backed simulation; returns previous.

    Tests that drive worker processes should also set the
    ``REPRO_SIM_REFERENCE`` environment variable so spawned workers
    inherit the mode (same contract as ``REPRO_ISL_REFERENCE``).
    """
    global _REFERENCE
    previous = _REFERENCE
    _REFERENCE = bool(flag)
    return previous
