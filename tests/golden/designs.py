"""Design digests: the committed record of what every DSE input designs.

``designs.json`` holds one row per input -- the sha256 of the design
payload, ``total_cycles``, ``evaluations``, the sha256 of the emitted
HLS C and of ``print_func`` over the lowered IR -- plus one digest of
the 200 trial dicts of ``run_campaign(FuzzOptions(seed=0))``.  A change
that means to keep every design checks it; a change that means to alter
designs re-records it and names the changed rows.

The inputs are the sweep inputs the benchmark can draw: every kernel at
every size and resource fraction, cached and uncached, the two DNNs,
the pareto kernels and the dataflow designs.  They are listed here, not
imported from the benchmark harness, so the record does not move when
the harness does.  The ScaleHLS baseline's design of every kernel, at
every size and fraction and in its dataflow form (Fig. 13's: the
whole device) at the smallest size, is recorded too: cycles and the
digests of the installed function, with no payload or evaluation
count.

The C and ``print_func`` of a row are those of the installed design,
replayed: the function lowered again from its schedule.  That replay is
the oracle of the design a DSE result carries, so computing a row of a
DSE input also checks that the result's ``codegen()`` and the
``print_func`` of its own lowered functions give the same text.

Run from the repo root::

    PYTHONPATH=src python tests/golden/designs.py            # check every row
    PYTHONPATH=src python tests/golden/designs.py --record   # rewrite the file

Both print every row that differs from the file and exit 1 on a check
that finds one.  Set ``REPRO_ISL_REFERENCE=1`` to check the reference
isl paths.  Every row is a pure function of the tree: it does not
depend on the hash seed, the isl mode or the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, Iterable, List, NamedTuple, Optional

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "designs.json")

KERNELS = (
    "2mm", "3mm", "atax", "bicg", "blur", "conv2d", "doitgen", "edgedetect",
    "gaussian", "gemm", "gesummv", "heat-1d", "jacobi-1d", "jacobi-2d", "mvt",
    "seidel", "syrk", "trisolv",
)
PARETO_KERNELS = ("gemm", "bicg", "gesummv", "2mm", "3mm", "jacobi-2d", "edgedetect")
DATAFLOW_DESIGNS = ("image-pipeline", "conv-block")
DNNS = ("vgg16", "resnet18")
SIZES = (256, 512, 1024)
FRACTIONS = (0.25, 0.5, 1.0)
DATAFLOW_SIZES = (32, 64, 128)
DNN_SIZES = (4, 6, 8)
DNN_FRACTION = 0.25

#: The key of the fuzz-campaign digest row.
FUZZ_KEY = "fuzz:seed=0"


class Input(NamedTuple):
    """One design request: ``kind`` is dse, dse_nocache, dnn, pareto,
    dataflow, scalehls or scalehls_dataflow."""

    kind: str
    name: str
    size: int
    fraction: float

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.name}@{self.size}@{self.fraction:g}"


def inputs(kinds: Optional[Iterable[str]] = None) -> List[Input]:
    """Every recorded input, or those of ``kinds``, in file order."""
    rows = [Input(kind, name, size, fraction)
            for kind in ("dse", "dse_nocache")
            for name in KERNELS for size in SIZES for fraction in FRACTIONS]
    rows += [Input("dnn", name, size, DNN_FRACTION) for name in DNNS for size in DNN_SIZES]
    rows += [Input("pareto", name, size, fraction)
             for name in PARETO_KERNELS for size in SIZES for fraction in FRACTIONS]
    rows += [Input("dataflow", name, size, fraction)
             for name in DATAFLOW_DESIGNS for size in DATAFLOW_SIZES for fraction in FRACTIONS]
    rows += [Input("scalehls", name, size, fraction)
             for name in KERNELS for size in SIZES for fraction in FRACTIONS]
    rows += [Input("scalehls_dataflow", name, SIZES[0], 1.0) for name in KERNELS]
    if kinds is None:
        return rows
    wanted = set(kinds)
    return [row for row in rows if row.kind in wanted]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(item: Input) -> Dict[str, object]:
    """The row of one input, swept in a fresh session (empty isl tables)."""
    from repro import workloads
    from repro.affine import print_func
    from repro.dse import DseOptions, auto_dse
    from repro.pipeline import compile_to_hls_c
    from repro.serve import SessionContext
    from repro.serve.jobs import dse_design_payload

    with SessionContext().activate():
        built = workloads.get(item.name, item.size)
        if item.kind.startswith("scalehls"):
            from repro.baselines import scalehls

            result = scalehls.optimize(
                built, resource_fraction=item.fraction,
                dataflow=item.kind == "scalehls_dataflow",
            )
            return {
                "total_cycles": result.report.total_cycles,
                "c": _sha(compile_to_hls_c(result.function)),
                "print_func": _sha(print_func(result.function.lower())),
            }
        if item.kind == "dataflow":
            from repro.dataflow import auto_dse_dataflow

            result = auto_dse_dataflow(
                built, options=DseOptions(resource_fraction=item.fraction)
            )
            stages = result.design.topo_order()
            c_text = result.design.codegen()
            ir_text = "\n".join(print_func(stage.function.lower()) for stage in stages)
            carried = (
                result.codegen(),
                "\n".join(print_func(result.stage_func_ops[stage.name]) for stage in stages),
            )
        else:
            options = DseOptions(
                resource_fraction=item.fraction,
                cache=item.kind != "dse_nocache",
                objective="pareto" if item.kind == "pareto" else "single",
            )
            result = auto_dse(built, options=options)
            c_text = compile_to_hls_c(result.function)
            ir_text = print_func(result.function.lower())
            carried = (result.codegen(), print_func(result.func_op))
        if carried != (c_text, ir_text):
            raise AssertionError(
                f"{item.key}: the design the result carries emits other C or IR "
                "than the replay of its installed schedule"
            )
        payload = dse_design_payload(result, item.name, item.size)
    return {
        "payload": _sha(json.dumps(payload, sort_keys=True)),
        "total_cycles": result.report.total_cycles,
        "evaluations": result.stats.evaluations,
        "c": _sha(c_text),
        "print_func": _sha(ir_text),
    }


def fuzz_digest() -> str:
    """sha256 over the trial dicts of the seed-0, 200-trial campaign."""
    from repro.fuzz.runner import FuzzOptions, run_campaign
    from repro.serve import SessionContext

    with SessionContext().activate():
        campaign = run_campaign(FuzzOptions(seed=0))
    trials = [trial.as_dict() for trial in campaign.results]
    return _sha(json.dumps(trials, sort_keys=True))


def load() -> Dict[str, object]:
    with open(PATH) as handle:
        return json.load(handle)


def compute(items: Iterable[Input], fuzz: bool = True) -> Dict[str, object]:
    """Fresh rows for ``items`` (and the fuzz digest), keyed as in the file."""
    rows: Dict[str, object] = {item.key: digest(item) for item in items}
    if fuzz:
        rows[FUZZ_KEY] = fuzz_digest()
    return rows


def differences(recorded: Dict[str, object], fresh: Dict[str, object]) -> List[str]:
    """One line per key of ``fresh`` whose row differs from ``recorded``."""
    return [
        f"{key}: {json.dumps(recorded.get(key), sort_keys=True)}"
        f" -> {json.dumps(row, sort_keys=True)}"
        for key, row in fresh.items()
        if recorded.get(key) != row
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite designs.json with fresh rows")
    parser.add_argument("--kinds", nargs="*", default=None,
                        help="only these input kinds (no fuzz digest unless 'fuzz' is named)")
    args = parser.parse_args(argv)
    if args.record and args.kinds is not None:
        parser.error("--record rewrites the whole file; it takes no --kinds")
    fuzz = args.kinds is None or "fuzz" in args.kinds
    fresh = compute(inputs(args.kinds), fuzz=fuzz)
    recorded = load() if os.path.exists(PATH) else {}
    changed = differences(recorded, fresh)
    for line in changed:
        print(line)
    if args.record:
        with open(PATH, "w") as handle:
            json.dump(fresh, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded {len(fresh)} rows to {PATH} ({len(changed)} changed)")
        return 0
    print(f"checked {len(fresh)} rows: {len(changed)} differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
