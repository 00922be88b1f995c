"""A from-scratch integer set library (mini-isl) for the polyhedral IR.

This package substitutes for the Integer Set Library (isl) used by the
paper.  It provides exact-arithmetic affine expressions, affine
constraints, basic sets (conjunctions of constraints over named
dimensions), Fourier-Motzkin projection, multi-dimensional affine maps,
2d+1 schedule maps, and a CLooG-style AST builder that turns a union of
(domain, schedule) pairs into a loop AST with ``for``/``if``/``block``/
``user`` nodes -- the four node types named in Section V-B of the paper.
"""

from repro.isl.affine import AffineExpr
from repro.isl.constraint import Constraint
from repro.isl.sets import BasicSet
from repro.isl.maps import MultiAffineMap, ScheduleMap
from repro.isl.astbuild import (
    AstBuilder,
    BlockNode,
    ForNode,
    IfNode,
    UserNode,
)

__all__ = [
    "AffineExpr",
    "Constraint",
    "BasicSet",
    "MultiAffineMap",
    "ScheduleMap",
    "AstBuilder",
    "ForNode",
    "IfNode",
    "BlockNode",
    "UserNode",
]
