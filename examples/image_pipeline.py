"""Image-processing pipelines: multi-stage graphs through autoDSE.

Builds the paper's EdgeDetect application (smooth -> two Sobel
gradients -> magnitude), shows the dependence-graph structure POM
extracts (coarse-grained edges, data paths, per-node loop-carried
analysis), and lets the two-stage DSE optimize the whole pipeline under
the XC7Z020 budget.

Run:  python examples/image_pipeline.py
"""

from repro.depgraph import RAW, build_dependence_graph
from repro.hls.report import speedup
from repro.pipeline import estimate
from repro.workloads.image import blur, edge_detect

SIZE = 512


def inspect_graph(function):
    graph = build_dependence_graph(function)
    print(f"dependence graph of {function.name}: {graph}")
    print("  data paths:", [" -> ".join(p) for p in graph.data_paths()])
    for name in graph.nodes:
        analysis = graph.node_analysis(name)
        carried = [str(d) for d in analysis.carried if d.kind == RAW]
        print(f"  {name}: reduction dims={analysis.reduction_dims} carried={carried or 'none'}")


def main():
    for factory in (edge_detect, blur):
        baseline_fn = factory(SIZE)
        baseline = estimate(baseline_fn)

        function = factory(SIZE)
        inspect_graph(function)

        result = function.auto_DSE()
        print(f"\n{function.name} ({SIZE}x{SIZE}):")
        print("  baseline:", baseline.summary())
        print("  POM:     ", result.report.summary())
        print("  speedup: ", f"{speedup(baseline, result.report):.1f}x")
        print("  tiles:   ", result.tile_vectors())
        print("  II:      ", result.report.worst_ii())
        print()


if __name__ == "__main__":
    main()
