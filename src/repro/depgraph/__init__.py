"""Dependence graph IR: coarse- and fine-grained dependence analysis.

The first IR level of POM (paper Section V-A).  Coarse-grained analysis
extracts producer-consumer edges between computes from their load/store
sets; fine-grained analysis computes distance/direction vectors of
loop-carried dependences per node and stores them as node attributes to
guide lower-level transformations.
"""

from repro.depgraph.analysis import (
    RAW,
    WAR,
    WAW,
    CarriedDependence,
    NodeAnalysis,
    analyze_compute,
    cross_offsets,
    domain_of,
)
from repro.depgraph.graph import (
    DependenceEdge,
    DependenceGraph,
    DependenceNode,
    build_dependence_graph,
)
from repro.depgraph.vectors import DirectionVector, DistanceVector, permute

__all__ = [
    "CarriedDependence",
    "NodeAnalysis",
    "analyze_compute",
    "cross_offsets",
    "domain_of",
    "DependenceGraph",
    "DependenceEdge",
    "DependenceNode",
    "build_dependence_graph",
    "DistanceVector",
    "DirectionVector",
    "permute",
    "RAW",
    "WAR",
    "WAW",
]
