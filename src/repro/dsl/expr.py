"""Expression AST for the POM DSL.

Expressions combine loop iterators, constants, placeholder accesses,
arithmetic operators, and a small library of intrinsic calls.  The same
AST serves three roles: it is *analyzed* (load/store extraction, affine
accesses for the polyhedral layers), *lowered* (to the affine dialect
and then HLS C), and *executed* (by the reference interpreter used as
ground truth in tests).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.isl.affine import AffineExpr

Scalar = Union[int, float]

_UNDERIVED = object()


class Expr:
    """Base class for DSL expressions (operator overloads build the AST).

    Nodes are never mutated after construction, so a node's affine form
    (see :func:`affine_form`) is derived once and kept on it.
    """

    _affine = _UNDERIVED

    def __add__(self, other):
        return BinaryOp("+", self, wrap(other))

    def __radd__(self, other):
        return BinaryOp("+", wrap(other), self)

    def __sub__(self, other):
        return BinaryOp("-", self, wrap(other))

    def __rsub__(self, other):
        return BinaryOp("-", wrap(other), self)

    def __mul__(self, other):
        return BinaryOp("*", self, wrap(other))

    def __rmul__(self, other):
        return BinaryOp("*", wrap(other), self)

    def __truediv__(self, other):
        return BinaryOp("/", self, wrap(other))

    def __rtruediv__(self, other):
        return BinaryOp("/", wrap(other), self)

    def __mod__(self, other):
        return BinaryOp("%", self, wrap(other))

    def __neg__(self):
        return BinaryOp("-", Const(0), self)

    def children(self) -> Sequence["Expr"]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def loads(self) -> List["Access"]:
        """All placeholder accesses appearing in this expression."""
        return [n for n in self.walk() if isinstance(n, Access)]

    def iter_names(self) -> List[str]:
        """Names of all loop iterators referenced, in first-seen order."""
        seen: Dict[str, None] = {}
        for node in self.walk():
            if isinstance(node, IterRef):
                seen.setdefault(node.name)
        return list(seen)

    def evaluate(self, env: Mapping[str, int], arrays: Mapping[str, "object"]) -> Scalar:
        raise NotImplementedError

    def substitute_iters(self, bindings: Mapping[str, "Expr"]) -> "Expr":
        """Replace iterator references by expressions (for transformations)."""
        raise NotImplementedError


def wrap(value) -> Expr:
    """Coerce a Python scalar (or pass through an Expr)."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(value)
    raise TypeError(f"cannot use {value!r} in a DSL expression")


class Const(Expr):
    """A literal scalar."""

    def __init__(self, value: Scalar):
        self.value = value

    def evaluate(self, env, arrays):
        return self.value

    def substitute_iters(self, bindings):
        return self

    def __repr__(self):
        return repr(self.value)


class IterRef(Expr):
    """A reference to a loop iterator by name."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, env, arrays):
        return env[self.name]

    def substitute_iters(self, bindings):
        return bindings.get(self.name, self)

    def __repr__(self):
        return self.name


class BinaryOp(Expr):
    """A binary arithmetic operation."""

    OPS: Dict[str, Callable[[Scalar, Scalar], Scalar]] = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: _int_div(a, b) if _is_integer(a) and _is_integer(b) else a / b,
        "%": lambda a, b: _int_mod(a, b) if _is_integer(a) and _is_integer(b) else np.fmod(a, b),
    }

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        if op not in self.OPS:
            raise ValueError(f"unsupported operator {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def children(self):
        return (self.lhs, self.rhs)

    def evaluate(self, env, arrays):
        return self.OPS[self.op](self.lhs.evaluate(env, arrays), self.rhs.evaluate(env, arrays))

    def substitute_iters(self, bindings):
        return BinaryOp(self.op, self.lhs.substitute_iters(bindings), self.rhs.substitute_iters(bindings))

    def __repr__(self):
        return f"({self.lhs} {self.op} {self.rhs})"


def _is_integer(value: Scalar) -> bool:
    """Whether a scalar takes C *integer* arithmetic.  Everything else,
    ``np.float32`` included, divides truly and takes ``fmod`` at its own
    width -- the rule the interpreter's ``c_div`` / ``c_mod`` apply."""
    return isinstance(value, (int, np.integer))


def _int_div(a: int, b: int) -> int:
    """C-style truncating integer division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a: int, b: int) -> int:
    """C-style remainder (sign follows the dividend)."""
    return a - _int_div(a, b) * b


def _at_width(np_func, math_func):
    """A math intrinsic at its operand's own width, like C's ``expf``:
    a numpy scalar or array goes through the numpy ufunc (``math.exp``
    would turn an ``np.float32`` into a double), a Python scalar through
    ``math``."""
    return lambda x: np_func(x) if isinstance(x, (np.generic, np.ndarray)) else math_func(x)


def _elementwise(scalar_func, array_func):
    """``scalar_func``, unless an operand is an ndarray (a grid statement
    of the reference nest): then ``array_func``, which picks elementwise
    what ``scalar_func`` picks per point."""

    def call(*args):
        for arg in args:
            if isinstance(arg, np.ndarray):
                return array_func(*args)
        return scalar_func(*args)

    return call


def _fold_where(keep_rhs):
    """Builtin ``min`` / ``max`` over arrays: an operand replaces the pick
    only when ``keep_rhs(operand, pick)`` holds, so a NaN pick stays and
    a NaN operand never wins -- Python's own rule."""

    def fold(first, *rest):
        for item in rest:
            first = np.where(keep_rhs(item, first), item, first)
        return first

    return fold


class Call(Expr):
    """An intrinsic call: min/max/abs/sqrt/exp and friends."""

    FUNCS: Dict[str, Callable[..., Scalar]] = {
        "min": _elementwise(min, _fold_where(lambda b, a: b < a)),
        "max": _elementwise(max, _fold_where(lambda b, a: b > a)),
        "abs": abs,
        "sqrt": _at_width(np.sqrt, math.sqrt),
        "exp": _at_width(np.exp, math.exp),
        "log": _at_width(np.log, math.log),
        "relu": _elementwise(
            lambda x: x if x > 0 else type(x)(0),
            lambda x: np.where(x > 0, x, x.dtype.type(0)),
        ),
    }

    def __init__(self, func: str, args: Sequence[Expr]):
        if func not in self.FUNCS:
            raise ValueError(f"unsupported intrinsic {func!r}")
        self.func = func
        self.args = [wrap(a) for a in args]

    def children(self):
        return tuple(self.args)

    def evaluate(self, env, arrays):
        return self.FUNCS[self.func](*(a.evaluate(env, arrays) for a in self.args))

    def substitute_iters(self, bindings):
        return Call(self.func, [a.substitute_iters(bindings) for a in self.args])

    def __repr__(self):
        return f"{self.func}({', '.join(map(repr, self.args))})"


class Cast(Expr):
    """An explicit type conversion."""

    def __init__(self, dtype, value: Expr):
        self.dtype = dtype
        self.value = wrap(value)

    def children(self):
        return (self.value,)

    def convert(self, raw: Scalar) -> Scalar:
        """C's conversion to the target type, at the target's own width:
        ``(float)`` rounds to single precision and ``(int8_t)`` wraps,
        where Python's ``float`` / ``int`` would keep a double or an
        unbounded integer.  A fixed-point target takes its float64 model."""
        return self.dtype.np_dtype.type(raw)

    def evaluate(self, env, arrays):
        return self.convert(self.value.evaluate(env, arrays))

    def substitute_iters(self, bindings):
        return Cast(self.dtype, self.value.substitute_iters(bindings))

    def __repr__(self):
        return f"({self.dtype}){self.value!r}"


class Access(Expr):
    """A read of ``placeholder[indices]`` (a write when used as dest)."""

    def __init__(self, placeholder, indices: Sequence[Expr]):
        from repro.dsl.placeholder import Placeholder  # cycle-breaking import

        if not isinstance(placeholder, Placeholder):
            raise TypeError(f"expected a placeholder, got {placeholder!r}")
        if len(indices) != len(placeholder.shape):
            raise ValueError(
                f"{placeholder.name} has {len(placeholder.shape)} dims, "
                f"got {len(indices)} indices"
            )
        self.placeholder = placeholder
        self.indices = [wrap(i) for i in indices]

    @property
    def array_name(self) -> str:
        return self.placeholder.name

    def children(self):
        return tuple(self.indices)

    def evaluate(self, env, arrays):
        point = tuple(int(i.evaluate(env, arrays)) for i in self.indices)
        return arrays[self.array_name][point]

    def substitute_iters(self, bindings):
        return Access(self.placeholder, [i.substitute_iters(bindings) for i in self.indices])

    def affine_indices(self) -> List[AffineExpr]:
        """Indices as affine expressions over iterator names.

        Raises :class:`ValueError` for non-affine index expressions.
        """
        return [to_affine(index) for index in self.indices]

    def __repr__(self):
        return f"{self.array_name}[{', '.join(map(repr, self.indices))}]"


def _int_const(expr: Expr) -> bool:
    return isinstance(expr, Const) and isinstance(expr.value, int)


def affine_form(expr: Expr) -> Optional[AffineExpr]:
    """``expr`` as an affine form over iterator names, or None when it is
    not affine: integer constants and iterators combined by ``+``, ``-``
    and ``*`` by an integer constant.  Derived once per node."""
    form = expr._affine
    if form is _UNDERIVED:
        form = None
        if isinstance(expr, IterRef):
            form = AffineExpr.var(expr.name)
        elif _int_const(expr):
            form = AffineExpr.const(expr.value)
        elif isinstance(expr, BinaryOp) and expr.op in "+-*":
            lhs, rhs = affine_form(expr.lhs), affine_form(expr.rhs)
            if expr.op == "*":
                if _int_const(expr.lhs) and rhs is not None:
                    form = rhs * expr.lhs.value
                elif _int_const(expr.rhs) and lhs is not None:
                    form = lhs * expr.rhs.value
            elif lhs is not None and rhs is not None:
                form = lhs + rhs if expr.op == "+" else lhs - rhs
        expr._affine = form
    return form


def to_affine(expr: Expr) -> AffineExpr:
    """Convert an index expression to an affine form (or raise ValueError)."""
    form = affine_form(expr)
    if form is None:
        # Name the innermost sub-expression that is not affine.
        while isinstance(expr, BinaryOp) and expr.op in "+-*":
            if expr.op != "*":
                expr = expr.lhs if affine_form(expr.lhs) is None else expr.rhs
            elif _int_const(expr.lhs) or _int_const(expr.rhs):
                expr = expr.rhs if _int_const(expr.lhs) else expr.lhs
            else:
                break
        if isinstance(expr, Const):
            raise ValueError(f"non-integer index constant {expr.value!r}")
        raise ValueError(f"index expression {expr!r} is not affine")
    return form


def minimum(*args) -> Call:
    return Call("min", list(args))


def maximum(*args) -> Call:
    return Call("max", list(args))
