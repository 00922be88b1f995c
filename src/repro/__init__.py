"""POM: an optimizing framework on multi-level IR for FPGA accelerators.

A complete Python reproduction of "An Optimizing Framework on MLIR for
Efficient FPGA-based Accelerator Generation" (HPCA 2024): the POM DSL,
three explicit IR levels (dependence graph IR, polyhedral IR, annotated
affine dialect), FPGA-oriented polyhedral transformations, a virtual
HLS synthesis model, HLS C code generation, and the two-stage DSE
engine -- plus reimplementations of the paper's comparator frameworks,
its workloads, and an experiment harness regenerating every table and
figure of the evaluation.

Typical entry points::

    from repro import Function, compute, placeholder, var
    from repro import auto_dse, DseOptions
    from repro.pipeline import compile_to_hls_c, estimate

The public surface and its stability tiers are documented in
``docs/api.md``.  All names below resolve lazily (PEP 562) so that
``import repro`` stays cheap and instrumented modules can do
``from repro import trace`` without creating import cycles.
"""

import importlib

__version__ = "1.0.0"

#: Subpackages, re-exported lazily.
_SUBMODULES = (
    "dsl",
    "isl",
    "depgraph",
    "polyir",
    "affine",
    "hlsgen",
    "hls",
    "dse",
    "dataflow",
    "baselines",
    "workloads",
    "evaluation",
    "pipeline",
    "diagnostics",
    "trace",
    "util",
    "cli",
    "fuzz",
    "serve",
)

#: Top-level convenience re-exports: public name -> defining module.
_EXPORTS = {
    # DSL (paper Section IV)
    "Function": "repro.dsl",
    "compute": "repro.dsl",
    "placeholder": "repro.dsl",
    "var": "repro.dsl",
    # Design space exploration (paper Section VI)
    "auto_dse": "repro.dse",
    "DseOptions": "repro.dse",
    "DseResult": "repro.dse",
    "DseStats": "repro.dse",
    # Task-level dataflow designs (multi-kernel FIFO pipelines)
    "DataflowDesign": "repro.dataflow",
    "Pipeline": "repro.dataflow",
    "auto_dse_dataflow": "repro.dataflow",
    # Simulation (compiled numpy oracle)
    "simulate": "repro.affine",
    "interpret": "repro.affine",
    "CompiledKernel": "repro.affine",
    # Compile server (DSE-as-a-service)
    "ServeClient": "repro.serve",
    "ServeConfig": "repro.serve",
    "ReproServer": "repro.serve",
    # The engine's process state (memo, intern, tracer, fault plan)
    "SessionContext": "repro.session",
    # Tracing and metrics
    "Tracer": "repro.trace",
    "tracing": "repro.trace",
    "MetricsRegistry": "repro.trace",
    # Diagnostics
    "Diagnostic": "repro.diagnostics",
    "DiagnosticEngine": "repro.diagnostics",
    "DiagnosticError": "repro.diagnostics",
    "Severity": "repro.diagnostics",
}

__all__ = sorted({*(_SUBMODULES), *(_EXPORTS), "__version__"})


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name]), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"repro.{name}")
    else:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__():
    return __all__
