"""Coarse-grained dependence graph IR (paper Section V-A, Fig. 8).

Each node is a compute (a nested loop); each edge records a
producer-consumer relation discovered from load/store extraction.  The
graph preserves a *dependence map* (``map[S1][S2] = 1`` in the paper's
illustration), supports DFS-based data-path collection for the DSE
engine, and stores fine-grained analysis results as node attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.dsl.compute import Compute
from repro.dsl.function import Function
from repro.depgraph.analysis import NodeAnalysis, analyze_compute


@dataclass
class DependenceEdge:
    """A producer-consumer edge labelled with the arrays that carry it."""

    src: str
    dst: str
    arrays: Set[str] = field(default_factory=set)


@dataclass
class DependenceNode:
    """A graph node: one compute plus its fine-grained analysis."""

    compute: Compute
    analysis: Optional[NodeAnalysis] = None

    @property
    def name(self) -> str:
        return self.compute.name


class DependenceGraph:
    """The dependence graph IR of a function."""

    def __init__(self, function: Function):
        self.function = function
        self.nodes: Dict[str, DependenceNode] = {}
        self.edges: List[DependenceEdge] = []
        self.dependence_map: Dict[str, Dict[str, int]] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        computes = self.function.computes
        for compute in computes:
            self.nodes[compute.name] = DependenceNode(compute=compute)
            self.dependence_map[compute.name] = {}

        # Load & store extraction -> dependence reservation (Fig. 8 steps 1-2).
        # An edge S1 -> S2 exists when an earlier compute stores an array a
        # later compute loads (RAW) or re-stores (WAW ordering).
        edge_index: Dict[Tuple[str, str], DependenceEdge] = {}
        reads = [{a.array_name for a in compute.loads()} for compute in computes]
        writes = [compute.store().array_name for compute in computes]
        for i, producer in enumerate(computes):
            stored = writes[i]
            for j in range(i + 1, len(computes)):
                if stored in reads[j] or stored == writes[j]:
                    consumer = computes[j]
                    key = (producer.name, consumer.name)
                    edge = edge_index.get(key)
                    if edge is None:
                        edge = DependenceEdge(src=producer.name, dst=consumer.name)
                        edge_index[key] = edge
                        self.edges.append(edge)
                        self.dependence_map[producer.name][consumer.name] = 1
                    edge.arrays.add(stored)

    # -- structure queries -----------------------------------------------------

    def successors(self, name: str) -> List[str]:
        return [e.dst for e in self.edges if e.src == name]

    def sources(self) -> List[str]:
        """Nodes with no incoming edges."""
        targets = {e.dst for e in self.edges}
        return [n for n in self.nodes if n not in targets]

    def data_paths(self) -> List[List[str]]:
        """All source-to-sink paths, DFS order (Fig. 8 step 4)."""
        paths: List[List[str]] = []

        def dfs(node: str, path: List[str]) -> None:
            path = path + [node]
            succs = self.successors(node)
            if not succs:
                paths.append(path)
                return
            for succ in succs:
                dfs(succ, path)

        for source in self.sources():
            dfs(source, [])
        return paths

    # -- fine-grained analysis (Fig. 8 step 3) -----------------------------------

    def analyze(self) -> None:
        """Run fine-grained analysis on every node, storing attributes."""
        for node in self.nodes.values():
            node.analysis = analyze_compute(node.compute)

    def node_analysis(self, name: str) -> NodeAnalysis:
        node = self.nodes[name]
        if node.analysis is None:
            node.analysis = analyze_compute(node.compute)
        return node.analysis

    def __repr__(self):
        edges = ", ".join(f"{e.src}->{e.dst}" for e in self.edges)
        return f"DependenceGraph(nodes={list(self.nodes)}, edges=[{edges}])"


def build_dependence_graph(function: Function, analyze: bool = True) -> DependenceGraph:
    """Construct (and by default fully analyze) the dependence graph IR."""
    graph = DependenceGraph(function)
    if analyze:
        graph.analyze()
    return graph
