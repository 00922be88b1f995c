"""FPGA device models for the virtual HLS toolchain: the device zoo.

The paper targets a Xilinx XC7Z020 (220 DSP slices, 53,200 LUTs,
106,400 FFs, 4.9 Mb of block RAM) at a 100 MHz / 10 ns clock.  The
device model carries those budgets and supports fractional resource
constraints for the Fig. 11 sweep.

Beyond the paper's part, :data:`DEVICES` registers a zoo of
UltraScale-class devices so DSE can answer "which part do I need" as
well as "which schedule" (ROADMAP item 4).  Look parts up with
:func:`get_device`; the name syntax accepts scaling suffixes::

    get_device("xc7z020")            # the paper's part
    get_device("xczu9eg@50%")        # half of every budget
    get_device("xcku060@300mhz")     # retimed clock target

:data:`DEFAULT_DEVICE` is the paper's part.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

DEFAULT_CLOCK_NS = 10.0  # the paper's 100 MHz target

#: The resource axes a budget bounds, in report order.
BUDGET_AXES = ("dsp", "lut", "ff", "bram_bits")


@dataclass(frozen=True)
class FPGADevice:
    """An FPGA resource budget with a default clock target."""

    name: str
    dsp: int
    lut: int
    ff: int
    bram_bits: int
    bram_ports_per_bank: int = 2
    clock_ns: float = DEFAULT_CLOCK_NS
    #: Fraction of the base part this budget represents (1.0 = full part).
    fraction: float = 1.0
    #: The unscaled part this device derives from (None = this is a base
    #: part).  Excluded from equality/repr: two half-XC7Z020s are the
    #: same budget however they were derived.
    base: Optional["FPGADevice"] = field(default=None, repr=False, compare=False)

    def scaled(self, fraction: float) -> "FPGADevice":
        """This part with every budget scaled by ``fraction``.

        Used to vary resource constraints as in the paper's Fig. 11.
        Scaling composes through the *base* part: scaling an
        already-scaled device multiplies the fractions and re-derives
        the budgets (and the ``@P%`` name) from the base, so
        ``d.scaled(0.5).scaled(0.5) == d.scaled(0.25)`` exactly --
        no stacked ``@50%@50%`` names, no compounded truncation.

        Raises if the effective fraction truncates a nonzero budget to
        zero: a zero budget rejects every design, which used to surface
        far away as an inscrutable "no feasible candidate" DSE failure
        instead of at the misconfiguration.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        base = self.base if self.base is not None else self
        product = self.fraction * fraction
        budgets = {axis: int(getattr(base, axis) * product) for axis in BUDGET_AXES}
        truncated = sorted(
            axis
            for axis, scaled_value in budgets.items()
            if scaled_value == 0 and getattr(base, axis) > 0
        )
        if truncated:
            raise ValueError(
                f"fraction {product!r} truncates nonzero budget(s) to zero "
                f"on {base.name}: {', '.join(truncated)}"
            )
        if product == 1.0:
            return base
        name = f"{base.name}@{product * 100:g}%"
        return replace(
            self, name=name, fraction=product, base=base,
            clock_ns=self.clock_ns, **budgets,
        )

    def admits(self, usage) -> bool:
        """Whether ``usage`` fits this budget: the framework's one fit rule.

        ``usage`` is anything with ``dsp``, ``lut``, ``ff`` and
        ``bram_bits`` (a :class:`~repro.hls.report.Resources` tally or a
        :class:`~repro.dse.pareto.ParetoPoint`).  BRAM is an axis like
        the others; only dataflow FIFOs carry any (the kernel estimator
        counts no array storage, see ``docs/estimator.md``).
        """
        return not self.overruns(usage)

    def overruns(self, usage) -> Tuple[str, ...]:
        """The axes of ``usage`` over this budget (empty when it fits)."""
        return tuple(
            axis for axis in BUDGET_AXES if getattr(usage, axis) > getattr(self, axis)
        )

    def at_clock(self, mhz: float) -> "FPGADevice":
        """The same budgets retimed to a ``mhz`` clock target.

        Frequency scaling for the device zoo: budgets are unchanged,
        but the estimator's operator chaining (how many dependent ops
        fit in one cycle) follows the shorter period, trading cycle
        count against achievable parallelism per cycle.
        """
        if mhz <= 0:
            raise ValueError(f"clock frequency must be > 0 MHz, got {mhz}")
        return replace(self, clock_ns=1000.0 / mhz)

    @property
    def clock_mhz(self) -> float:
        return 1000.0 / self.clock_ns


def _mb(megabits: float) -> int:
    return int(megabits * 1024 * 1024)


#: The device zoo, keyed by lowercase part name.  Budgets are the
#: public datasheet numbers; clocks are typical HLS closure targets
#: for the family (7-series at 100 MHz as in the paper, UltraScale at
#: 200 MHz, UltraScale+ at 300 MHz).
DEVICES: Dict[str, FPGADevice] = {
    device.name: device
    for device in (
        # The paper's part: Zynq-7020 (Section VII-A).
        FPGADevice(name="xc7z020", dsp=220, lut=53_200, ff=106_400,
                   bram_bits=_mb(4.9), clock_ns=10.0),
        # Zynq-7045: the big 7-series SoC (ZC706 board).
        FPGADevice(name="xc7z045", dsp=900, lut=218_600, ff=437_200,
                   bram_bits=_mb(19.1), clock_ns=10.0),
        # Kintex UltraScale KU060 (the ADM-PCIE-8K5-class card).
        FPGADevice(name="xcku060", dsp=2_760, lut=331_680, ff=663_360,
                   bram_bits=_mb(38.0), clock_ns=5.0),
        # Zynq UltraScale+ ZU9EG (ZCU102 board).
        FPGADevice(name="xczu9eg", dsp=2_520, lut=274_080, ff=548_160,
                   bram_bits=_mb(32.1), clock_ns=10.0 / 3.0),
        # Virtex UltraScale+ VU9P (AWS F1-class; BRAM only, no URAM model).
        FPGADevice(name="xcvu9p", dsp=6_840, lut=1_182_240, ff=2_364_480,
                   bram_bits=_mb(75.9), clock_ns=10.0 / 3.0),
    )
}

#: The paper's target, under its modern (non-deprecated) name.
DEFAULT_DEVICE = DEVICES["xc7z020"]

_SUFFIX = re.compile(r"^(?:(?P<percent>\d+(?:\.\d+)?)%|(?P<mhz>\d+(?:\.\d+)?)mhz)$")


def device_names() -> Tuple[str, ...]:
    """Every registered part name, sorted."""
    return tuple(sorted(DEVICES))


def get_device(name: str) -> FPGADevice:
    """Look a device up by name, with optional scaling suffixes.

    ``name`` is a registered part name, case-insensitive, optionally
    followed by ``@``-separated modifiers: ``NN%`` scales every budget
    (:meth:`FPGADevice.scaled`) and ``NNNmhz`` retimes the clock
    (:meth:`FPGADevice.at_clock`).  Examples: ``"xc7z020"``,
    ``"XCZU9EG@50%"``, ``"xcku060@25%@300mhz"``.

    Raises :class:`ValueError` naming the known parts on an unknown
    name -- the same stable diagnostic everywhere (CLI, serve-job
    validation).
    """
    if not isinstance(name, str) or not name.strip():
        raise ValueError(f"device name must be a non-empty string, got {name!r}")
    parts = name.strip().lower().split("@")
    base = DEVICES.get(parts[0])
    if base is None:
        known = ", ".join(device_names())
        raise ValueError(f"unknown device {parts[0]!r}; available: {known}")
    device = base
    for modifier in parts[1:]:
        match = _SUFFIX.match(modifier)
        if match is None:
            raise ValueError(
                f"bad device modifier {modifier!r} in {name!r}; expected "
                f"'NN%' (budget scaling) or 'NNNmhz' (clock retarget)"
            )
        if match.group("percent") is not None:
            device = device.scaled(float(match.group("percent")) / 100.0)
        else:
            device = device.at_clock(float(match.group("mhz")))
    return device
