"""Data types supported by the POM DSL.

The paper (Section IV-A) supports signed/unsigned integers of 8/16/32/64
bits plus 32- and 64-bit floating point, and notes the set is easily
extended.  Each type knows its numpy equivalent (for the functional
simulator), its HLS C spelling (for code generation), and its bit width
(for BRAM accounting in the resource model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DType:
    """A scalar data type usable for variables and placeholders."""

    name: str
    bits: int
    is_float: bool
    signed: bool
    c_name: str

    @property
    def np_dtype(self) -> np.dtype:
        if self.is_float:
            return np.dtype(f"float{self.bits}")
        prefix = "int" if self.signed else "uint"
        return np.dtype(f"{prefix}{self.bits}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FixedType(DType):
    """An ``ap_fixed``-style fixed-point type: ``int_bits`` integer bits.

    The functional simulator models fixed-point values with float64
    carrying quantized values (quantization step ``2**-frac_bits``); the
    resource model treats arithmetic like integer logic of the same
    width, which is precisely why HLS designs use fixed point.
    """

    int_bits: int = 8

    @property
    def frac_bits(self) -> int:
        return self.bits - self.int_bits

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype("float64")


def fixed(total_bits: int, int_bits: int) -> FixedType:
    """An ``ap_fixed<total_bits, int_bits>`` type (paper Section IV-A:
    "our DSL can be easily extended to support more customized data
    types")."""
    if not 1 <= int_bits <= total_bits:
        raise ValueError(
            f"need 1 <= int_bits <= total_bits, got <{total_bits}, {int_bits}>"
        )
    return FixedType(
        name=f"fixed{total_bits}_{int_bits}",
        bits=total_bits,
        is_float=False,
        signed=True,
        c_name=f"ap_fixed<{total_bits}, {int_bits}>",
        int_bits=int_bits,
    )


int8 = DType("int8", 8, False, True, "int8_t")
int16 = DType("int16", 16, False, True, "int16_t")
int32 = DType("int32", 32, False, True, "int32_t")
int64 = DType("int64", 64, False, True, "int64_t")
uint8 = DType("uint8", 8, False, False, "uint8_t")
uint16 = DType("uint16", 16, False, False, "uint16_t")
uint32 = DType("uint32", 32, False, False, "uint32_t")
uint64 = DType("uint64", 64, False, False, "uint64_t")
float32 = DType("float32", 32, True, True, "float")
float64 = DType("float64", 64, True, True, "double")

# Aliases matching the paper's DSL spelling (Fig. 4 uses p_float32).
p_int8, p_int16, p_int32, p_int64 = int8, int16, int32, int64
p_uint8, p_uint16, p_uint32, p_uint64 = uint8, uint16, uint32, uint64
p_float32, p_float64 = float32, float64

ALL_TYPES = (
    int8, int16, int32, int64,
    uint8, uint16, uint32, uint64,
    float32, float64,
)


def by_name(name: str) -> DType:
    """Look up a type by its DSL name (raises KeyError if unknown)."""
    for dtype in ALL_TYPES:
        if dtype.name == name:
            return dtype
    raise KeyError(f"unknown dtype {name!r}")
