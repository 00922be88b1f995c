"""C testbench generation: the HLS C-simulation ("csim") flow.

Real HLS projects validate the synthesizable C against golden data
before synthesis.  This module emits a self-contained translation unit:
the generated kernel, a ``main`` that fills every array with a
deterministic LCG pattern, runs the kernel, and prints a hash of every
output buffer.  ``cosimulate`` compiles it with a host C compiler and
compares the hashes against the affine-IR interpreter running the same
inputs -- closing the loop between the emitted artifact's *actual C
semantics* and the model the whole framework reasons with.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.dsl.dtypes import FixedType
from repro.dsl.function import Function
from repro.dsl.placeholder import Placeholder

_LCG_MULT = 1103515245
_LCG_ADD = 12345
_LCG_MOD = 1 << 31


def _lcg_stream(seed: int, count: int) -> List[int]:
    state = seed
    values = []
    for _ in range(count):
        state = (_LCG_MULT * state + _LCG_ADD) % _LCG_MOD
        values.append(state)
    return values


def deterministic_arrays(function: Function, seed: int = 1) -> Dict[str, np.ndarray]:
    """The exact buffers the generated testbench initializes.

    Floats take the value ``(lcg % 1000) / 250 - 2`` (small, exactly
    representable); integers take ``lcg % 8`` -- both reproducible in
    portable C without sharing an RNG implementation.
    """
    arrays: Dict[str, np.ndarray] = {}
    for index, placeholder in enumerate(function.placeholders()):
        stream = _lcg_stream(seed + index, placeholder.n_elements)
        if placeholder.dtype.is_float or isinstance(placeholder.dtype, FixedType):
            data = np.array(
                [(v % 1000) / 250.0 - 2.0 for v in stream],
                dtype=placeholder.dtype.np_dtype,
            )
        else:
            data = np.array([v % 8 for v in stream], dtype=placeholder.dtype.np_dtype)
        arrays[placeholder.name] = data.reshape(placeholder.shape)
    return arrays


def checksum(buffer: np.ndarray) -> int:
    """Order-sensitive 32-bit hash over the quantized buffer contents.

    Floats are quantized to 1/256 steps before hashing so that C's
    float arithmetic and numpy's match bit-for-bit on the mild values
    the testbench uses.  Ties round half away from zero, exactly as the
    emitted C does (add +/-0.5, truncate); Python's ``round`` is
    half-to-even and would hash an exact x.5 differently.
    """
    h = 2166136261
    flat = buffer.reshape(-1)
    for value in flat:
        scaled = float(value) * 256.0
        quantized = int(scaled + (0.5 if scaled >= 0 else -0.5)) & 0xFFFFFFFF
        h = (h ^ quantized) * 16777619 % (1 << 32)
    return h


def generate_testbench(function: Function, seed: int = 1) -> str:
    """The kernel plus a main() producing per-array checksums."""
    from repro.pipeline import compile_to_hls_c

    kernel = compile_to_hls_c(function)
    placeholders = function.placeholders()

    lines: List[str] = [kernel, "", "#include <stdio.h>", ""]
    lines.append("static unsigned int lcg_state;")
    lines.append("static unsigned int lcg_next(void) {")
    lines.append(f"  lcg_state = ({_LCG_MULT}u * lcg_state + {_LCG_ADD}u) % {_LCG_MOD}u;")
    lines.append("  return lcg_state;")
    lines.append("}")
    lines.append("")
    lines.append("int main(void) {")
    for placeholder in placeholders:
        dims = "".join(f"[{d}]" for d in placeholder.shape)
        lines.append(f"  static {_c_type(placeholder)} {placeholder.name}{dims};")
    for index, placeholder in enumerate(placeholders):
        total = placeholder.n_elements
        flat = f"({_c_type(placeholder)} *)&{placeholder.name}[0]" \
            if len(placeholder.shape) > 1 else placeholder.name
        lines.append(f"  lcg_state = {seed + index}u;")
        lines.append(f"  for (long n = 0; n < {total}; ++n) {{")
        if placeholder.dtype.is_float or isinstance(placeholder.dtype, FixedType):
            lines.append(
                f"    ({flat})[n] = ({_c_type(placeholder)})((double)(lcg_next() % 1000u) / 250.0 - 2.0);"
            )
        else:
            lines.append(f"    ({flat})[n] = ({_c_type(placeholder)})(lcg_next() % 8u);")
        lines.append("  }")
    call_args = ", ".join(p.name for p in placeholders)
    lines.append(f"  {function.name}({call_args});")
    for placeholder in placeholders:
        total = placeholder.n_elements
        flat = f"({_c_type(placeholder)} *)&{placeholder.name}[0]" \
            if len(placeholder.shape) > 1 else placeholder.name
        lines.append("  {")
        lines.append("    unsigned int h = 2166136261u;")
        lines.append(f"    for (long n = 0; n < {total}; ++n) {{")
        lines.append(
            f"      long pom_q = (long)(((double)({flat})[n]) * 256.0 + "
            f"((({flat})[n] >= 0) ? 0.5 : -0.5));"
        )
        lines.append("      h = (h ^ (unsigned int)pom_q) * 16777619u;")
        lines.append("    }")
        lines.append(f'    printf("{placeholder.name} %u\\n", h);')
        lines.append("  }")
    lines.append("  return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _c_type(placeholder: Placeholder) -> str:
    if isinstance(placeholder.dtype, FixedType):
        return "float"  # csim models ap_fixed with float on the host
    return placeholder.dtype.c_name


@dataclass
class CosimResult:
    """Outcome of a C co-simulation run."""

    matched: bool
    c_hashes: Dict[str, int]
    model_hashes: Dict[str, int]

    def mismatches(self) -> List[str]:
        return [
            name for name in self.model_hashes
            if self.c_hashes.get(name) != self.model_hashes[name]
        ]


def cosimulate(function: Function, seed: int = 1, compiler: Optional[str] = None) -> CosimResult:
    """Compile + run the testbench; compare with the affine interpreter.

    Raises :class:`RuntimeError` when no C compiler is available.
    """
    from repro.affine.interp import interpret
    from repro.pipeline import lower_to_affine

    cc = compiler or shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise RuntimeError("no C compiler available for co-simulation")

    arrays = deterministic_arrays(function, seed)
    model = {name: buffer.copy() for name, buffer in arrays.items()}
    interpret(lower_to_affine(function), model)
    model_hashes = {name: checksum(buffer) for name, buffer in model.items()}

    source = generate_testbench(function, seed)
    with tempfile.TemporaryDirectory() as tmp:
        src_path = Path(tmp) / "tb.c"
        bin_path = Path(tmp) / "tb"
        src_path.write_text(source.replace("#pragma HLS", "// #pragma HLS"))
        subprocess.run(
            [cc, "-O1", "-std=c99", str(src_path), "-o", str(bin_path), "-lm"],
            check=True, capture_output=True, text=True,
        )
        output = subprocess.run(
            [str(bin_path)], check=True, capture_output=True, text=True
        ).stdout

    c_hashes: Dict[str, int] = {}
    for line in output.splitlines():
        name, value = line.split()
        c_hashes[name] = int(value)
    matched = all(
        c_hashes.get(name) == model_hashes[name] for name in model_hashes
    )
    return CosimResult(matched, c_hashes, model_hashes)
