"""The ``compute`` operation: POM's algorithm-specification atom.

A compute describes one nested loop in a single declaration (paper
Fig. 4): an iteration domain (the ordered iterator list), a statement
expression, and a destination access.  Scheduling-primitive methods on
the object record directives into the owning function's schedule --
they never restructure the algorithm itself.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.diagnostics import DiagnosticError, caller_location
from repro.dsl.expr import Access, BinaryOp, Call, Cast, Const, Expr, IterRef, affine_form, wrap
from repro.dsl.placeholder import Placeholder
from repro.dsl.schedule import (
    After,
    Directive,
    Fuse,
    Interchange,
    Pipeline,
    Reverse,
    Shift,
    Skew,
    Split,
    Tile,
    Unroll,
)
from repro.dsl.var import Var


def _name_of(level) -> str:
    """Accept a Var or a plain string for loop-level arguments."""
    if isinstance(level, Var):
        return level.name
    if isinstance(level, str):
        return level
    raise TypeError(f"expected an iterator or its name, got {level!r}")


class Compute:
    """One nested loop: iterators, statement expression, destination."""

    def __init__(self, name: str, iters: Sequence[Var], expr, dest: Access, function=None):
        from repro.dsl.function import current_function

        if not name or not name.isidentifier():
            raise DiagnosticError(
                f"invalid compute name {name!r}",
                code="DSL001", location=caller_location(compute=str(name)),
            )
        iters = list(iters)
        if not iters:
            raise DiagnosticError(
                f"compute {name!r} needs at least one iterator",
                code="DSL002", location=caller_location(compute=name),
            )
        names = [it.name for it in iters]
        if len(set(names)) != len(names):
            raise DiagnosticError(
                f"compute {name!r} has duplicate iterators {names}",
                code="DSL003", location=caller_location(compute=name),
            )
        for it in iters:
            if not isinstance(it, Var) or not it.has_range:
                raise TypeError(
                    f"compute {name!r}: iterator {it!r} must be a ranged var"
                )
        if not isinstance(dest, Access):
            raise TypeError(f"compute {name!r}: destination must be an array access")
        self.name = name
        self.iters: List[Var] = iters
        self.expr: Expr = wrap(expr)
        self.dest: Access = dest
        used = set(self.expr.iter_names()) | set(dest.iter_names())
        unknown = used - set(names)
        if unknown:
            raise DiagnosticError(
                f"compute {name!r} references undeclared iterators {sorted(unknown)}",
                code="DSL004", location=caller_location(compute=name),
                notes=(f"declared iterators: {names}",),
            )
        # Computes are immutable, so the arrays they touch are read once.
        seen: Dict[str, Placeholder] = {dest.placeholder.name: dest.placeholder}
        for access in self.loads():
            seen.setdefault(access.placeholder.name, access.placeholder)
        self._arrays = list(seen.values())
        self.function = function if function is not None else current_function()
        if self.function is not None:
            self.function.register_compute(self)

    # -- structural queries ------------------------------------------------

    @property
    def iter_names(self) -> List[str]:
        return [it.name for it in self.iters]

    def loads(self) -> List[Access]:
        """All array reads of the statement (including a read-modify dest)."""
        return self.expr.loads()

    def store(self) -> Access:
        return self.dest

    def arrays(self) -> List[Placeholder]:
        """All placeholders touched, stores first, in first-seen order."""
        return list(self._arrays)

    def domain_bounds(self) -> Dict[str, tuple]:
        """Inclusive iterator bounds ``{name: (lo, hi)}``."""
        return {it.name: (it.lo, it.hi - 1) for it in self.iters}

    # -- scheduling primitives (Table II) -------------------------------------

    def _schedule(self):
        if self.function is None:
            raise RuntimeError(
                f"compute {self.name!r} has no owning function; "
                "create it inside a Function context to use scheduling primitives"
            )
        return self.function.schedule

    def _add(self, directive: Directive) -> "Compute":
        """Record a directive, stamping it with the caller's source line.

        Only DSL-facing methods pay for the stack walk; the DSE installs
        trial directives through ``Schedule.add`` directly, which stays
        location-free and cheap.
        """
        directive.loc = caller_location(
            function=None if self.function is None else self.function.name,
            compute=self.name,
        )
        self._schedule().add(directive)
        return self

    def interchange(self, i, j) -> "Compute":
        """Interchange loop levels ``i`` and ``j``."""
        return self._add(Interchange(self.name, _name_of(i), _name_of(j)))

    def split(self, i, factor: int, i0, i1) -> "Compute":
        """Split loop ``i`` by ``factor`` into ``(i0, i1)``."""
        return self._add(
            Split(self.name, _name_of(i), int(factor), _name_of(i0), _name_of(i1))
        )

    def tile(self, i, j, ti: int, tj: int, i0, j0, i1, j1) -> "Compute":
        """Tile loops ``(i, j)`` by ``(ti, tj)`` into ``(i0, j0, i1, j1)``."""
        return self._add(
            Tile(
                self.name, _name_of(i), _name_of(j), int(ti), int(tj),
                _name_of(i0), _name_of(j0), _name_of(i1), _name_of(j1),
            )
        )

    def skew(self, i, j, factor: int, ip, jp) -> "Compute":
        """Skew loop ``j`` by ``factor * i`` into new levels ``(ip, jp)``."""
        return self._add(
            Skew(self.name, _name_of(i), _name_of(j), int(factor), _name_of(ip), _name_of(jp))
        )

    def reverse(self, i, i_new) -> "Compute":
        """Reverse the iteration direction of loop ``i``."""
        return self._add(Reverse(self.name, _name_of(i), _name_of(i_new)))

    def shift(self, i, offset: int, i_new) -> "Compute":
        """Translate loop ``i`` by a constant ``offset``."""
        return self._add(Shift(self.name, _name_of(i), int(offset), _name_of(i_new)))

    def after(self, other: "Compute", level=None) -> "Compute":
        """Execute this compute after ``other`` at loop ``level``."""
        return self._add(
            After(self.name, other.name, None if level is None else _name_of(level))
        )

    def fuse(self, other: "Compute", level) -> "Compute":
        """Fuse loops with ``other`` down to ``level`` inclusive."""
        return self._add(Fuse(self.name, other.name, _name_of(level)))

    def pipeline(self, level, ii: int = 1) -> "Compute":
        """Pipeline the loop at ``level`` with target initiation interval."""
        return self._add(Pipeline(self.name, _name_of(level), int(ii)))

    def unroll(self, level, factor: int = 0) -> "Compute":
        """Unroll the loop at ``level`` (factor 0 = complete)."""
        return self._add(Unroll(self.name, _name_of(level), int(factor)))

    # -- reference semantics ----------------------------------------------------

    def reference_execute(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Run the statement over the declared domain, in declaration order.

        This defines the *algorithm semantics* against which every
        transformation is checked: destination elements are assigned in
        the sequential order of the original nest, which yields the usual
        accumulate behaviour when the destination is also read.

        It runs as one generated loop nest (:func:`_nest_source`) whose
        safe dims are whole-array grids; the recursive walk over
        ``Expr.evaluate`` (:meth:`_execute_level`) is kept as its oracle.
        """
        # ``__name__`` attributes a numpy warning raised by the store to
        # this module, as it is in the walk (CI errors on repro.* warnings).
        namespace = {"__builtins__": {}, "__name__": __name__, "range": range, "int": int}
        source = _nest_source(self, namespace)
        exec(_nest_code(source), namespace)
        namespace["_nest"](arrays)

    def _execute_level(self, depth: int, env: Dict[str, int], arrays) -> None:
        if depth == len(self.iters):
            value = self.expr.evaluate(env, arrays)
            point = tuple(int(i.evaluate(env, arrays)) for i in self.dest.indices)
            arrays[self.dest.array_name][point] = value
            return
        it = self.iters[depth]
        for value in range(it.lo, it.hi):
            env[it.name] = value
            self._execute_level(depth + 1, env, arrays)
        del env[it.name]

    def __repr__(self):
        return (
            f"compute({self.name!r}, [{', '.join(self.iter_names)}], "
            f"{self.expr!r}, {self.dest!r})"
        )


@functools.lru_cache(maxsize=512)
def _nest_code(source: str):
    """``source`` compiled once per process: the text holds no values
    (constants, bounds and arrays are bound per call into a fresh
    namespace), so equal text is equal code at any size."""
    return compile(source, "<reference nest>", "exec")


def _grid(lo: int, hi: int, axis: int, rank: int) -> np.ndarray:
    """The values of one grid iterator, laid along ``axis`` of ``rank``."""
    shape = [1] * rank
    shape[axis] = -1
    return np.arange(lo, hi).reshape(shape)


def _values(node: Expr) -> Iterator[Expr]:
    """``node`` and the sub-expressions whose value it uses: every node
    but those inside array indices."""
    yield node
    if not isinstance(node, Access):
        for child in node.children():
            yield from _values(child)


def _grid_iters(compute: Compute) -> Set[str]:
    """The iterators the reference nest runs as whole-array grids.

    ``p`` is a grid when some destination index is affine in ``p`` alone
    (each cell has one writer among the grid points, and its writes keep
    their declared order once the other loops run outside the grids),
    every read of the destination reads exactly the destination cell,
    ``p`` is never a value and every index naming ``p`` is affine.  The
    whole compute must work in one floating dtype, casts included:
    integers keep C division and numpy's overflow warnings per scalar.
    A ``min`` / ``max`` that mixes an array read with an operand reading
    none may only be the stored value: per point it can pick the Python
    scalar, which the statement's next operator would see unconverted.
    """
    dest = compute.dest
    dtype = dest.placeholder.dtype.np_dtype
    nodes = list(compute.expr.walk()) + list(dest.walk())
    accesses = [node for node in nodes if isinstance(node, Access)]
    dtypes = {node.placeholder.dtype.np_dtype for node in accesses}
    dtypes.update(node.dtype.np_dtype for node in nodes if isinstance(node, Cast))
    if dtype.kind != "f" or dtypes != {dtype}:
        return set()
    cell = [affine_form(index) for index in dest.indices]
    for node in accesses:
        if node is not dest and node.array_name == dest.array_name:
            if None in cell or [affine_form(i) for i in node.indices] != cell:
                return set()
    valued = set()
    for node in _values(compute.expr):
        if isinstance(node, IterRef):
            valued.add(node.name)
        elif isinstance(node, Call) and node.func in ("min", "max") and node is not compute.expr:
            if len({bool(arg.loads()) for arg in node.args}) > 1:
                return set()
    for node in accesses:
        for index in node.indices:
            if affine_form(index) is None:
                valued.update(index.iter_names())
    private = {form.dims()[0] for form in cell if form is not None and len(form.dims()) == 1}
    return private - valued


def _nest_source(compute: Compute, namespace: Dict[str, object]) -> str:
    """Python source of ``def _nest(arrays)``, ``compute``'s loop nest.

    Identical to :meth:`Compute._execute_level` by construction, not by
    test: each operator, intrinsic and cast calls the very
    ``BinaryOp.OPS`` / ``Call.FUNCS`` entry or ``Cast.convert`` the walk
    calls, and constants and loop bounds are the walk's own objects, all
    bound into ``namespace``; the one statement evaluates the value, then
    the destination indices (``int()`` unless a bare iterator, as in
    ``Access.evaluate``), then stores.  The :func:`_grid_iters` become
    ``np.arange`` grids, one broadcast axis each, so the statement runs
    over all of them at once; the other loops run outside them in their
    declared order.  With no grid it is the walk's own loop order.
    Locals are mangled (``_i0``, ``_a0``, ``_b0``): ``in`` is a legal
    DSL iterator name.
    """
    iters = {it.name: f"_i{n}" for n, it in enumerate(compute.iters)}
    grid_names = _grid_iters(compute)
    grids = [it for it in compute.iters if it.name in grid_names]
    arrays: Dict[str, str] = {}

    def bind(obj) -> str:
        name = f"_b{len(namespace)}"
        namespace[name] = obj
        return name

    def index(node: Expr) -> str:
        if isinstance(node, IterRef):
            return iters[node.name]
        if grid_names.intersection(node.iter_names()):
            return value(node)  # affine over grids: an int64 array
        return f"int({value(node)})"

    def access(node: Access) -> str:
        local = arrays.setdefault(node.array_name, f"_a{len(arrays)}")
        return f"{local}[({''.join(index(i) + ', ' for i in node.indices)})]"

    def value(node: Expr) -> str:
        if isinstance(node, IterRef):
            return iters[node.name]
        if isinstance(node, Const):
            return bind(node.value)
        if isinstance(node, Access):
            return access(node)
        if isinstance(node, Cast):
            return f"{bind(node.convert)}({value(node.value)})"
        if isinstance(node, BinaryOp):
            fn = node.OPS[node.op]
        elif isinstance(node, Call):
            fn = node.FUNCS[node.func]
        else:
            raise TypeError(f"no reference nest for {node!r}")
        return f"{bind(fn)}({', '.join(value(child) for child in node.children())})"

    store = f"{access(compute.dest)} = {value(compute.expr)}"
    lines = [f"    {local} = arrays[{name!r}]" for name, local in arrays.items()]
    lines += [
        f"    {iters[it.name]} = {bind(_grid)}({bind(it.lo)}, {bind(it.hi)}, {axis}, {len(grids)})"
        for axis, it in enumerate(grids)
    ]
    loops = [it for it in compute.iters if it.name not in grid_names]
    for depth, it in enumerate(loops, 1):
        lines.append(
            "    " * depth + f"for {iters[it.name]} in range({bind(it.lo)}, {bind(it.hi)}):"
        )
    lines.append("    " * (len(loops) + 1) + store)
    return "def _nest(arrays):\n" + "\n".join(lines) + "\n"


def compute(name: str, iters: Sequence[Var], expr, dest: Access) -> Compute:
    """Declare a compute inside the current function (paper spelling)."""
    return Compute(name, iters, expr, dest)
