"""Unit tests for the device model and the device zoo."""

import pytest

from repro.hls.device import (
    BUDGET_AXES,
    DEFAULT_DEVICE,
    DEVICES,
    FPGADevice,
    device_names,
    get_device,
)
from repro.hls.report import Resources

XC7Z020 = DEFAULT_DEVICE


class TestXC7Z020:
    def test_paper_budgets(self):
        """Section VII-A: 220 DSPs, 53,200 LUTs, 106,400 FFs, 4.9 Mb."""
        assert XC7Z020.dsp == 220
        assert XC7Z020.lut == 53_200
        assert XC7Z020.ff == 106_400
        assert XC7Z020.bram_bits == int(4.9 * 1024 * 1024)

    def test_dual_port_brams(self):
        assert XC7Z020.bram_ports_per_bank == 2

    def test_default_device_is_the_papers_part(self):
        assert DEFAULT_DEVICE.name == "xc7z020"
        assert DEFAULT_DEVICE.clock_ns == 10.0


class TestDeviceZoo:
    def test_names_sorted_and_complete(self):
        assert device_names() == tuple(sorted(DEVICES))
        assert {"xc7z020", "xc7z045", "xcku060", "xczu9eg", "xcvu9p"} <= set(
            device_names()
        )

    @pytest.mark.parametrize("name", sorted(DEVICES))
    def test_every_part_has_positive_budgets(self, name):
        device = DEVICES[name]
        assert device.dsp > 0 and device.lut > 0
        assert device.ff > 0 and device.bram_bits > 0
        assert device.clock_ns > 0
        assert device.fraction == 1.0 and device.base is None

    def test_get_device_plain_lookup(self):
        assert get_device("xczu9eg") is DEVICES["xczu9eg"]

    def test_get_device_is_case_insensitive(self):
        assert get_device("XC7Z020") is DEFAULT_DEVICE
        assert get_device("  xc7z020  ") is DEFAULT_DEVICE

    def test_percent_suffix_scales_budgets(self):
        half = get_device("xc7z020@50%")
        assert half.dsp == 110
        assert half.name == "xc7z020@50%"

    def test_mhz_suffix_retimes_clock(self):
        fast = get_device("xc7z020@200mhz")
        assert fast.clock_ns == pytest.approx(5.0)
        assert fast.dsp == XC7Z020.dsp  # budgets untouched

    def test_suffixes_compose(self):
        device = get_device("xcku060@25%@300mhz")
        assert device.dsp == DEVICES["xcku060"].dsp // 4
        assert device.clock_ns == pytest.approx(1000.0 / 300.0)

    def test_unknown_name_lists_known_parts(self):
        with pytest.raises(ValueError, match="unknown device 'bogus'"):
            get_device("bogus")
        with pytest.raises(ValueError, match="xc7z020"):
            get_device("bogus")

    @pytest.mark.parametrize("bad", ["", "   ", None, 42])
    def test_non_string_or_empty_rejected(self, bad):
        with pytest.raises(ValueError, match="non-empty string"):
            get_device(bad)

    def test_bad_modifier_rejected(self):
        with pytest.raises(ValueError, match="bad device modifier 'fast'"):
            get_device("xc7z020@fast")


class TestAtClock:
    def test_clock_mhz_round_trip(self):
        assert 1000.0 / XC7Z020.at_clock(250).clock_ns == pytest.approx(250.0)

    def test_budgets_unchanged(self):
        retimed = XC7Z020.at_clock(300)
        assert (retimed.dsp, retimed.lut, retimed.ff, retimed.bram_bits) == (
            XC7Z020.dsp, XC7Z020.lut, XC7Z020.ff, XC7Z020.bram_bits
        )

    @pytest.mark.parametrize("mhz", [0, -100])
    def test_nonpositive_frequency_rejected(self, mhz):
        with pytest.raises(ValueError, match="must be > 0 MHz"):
            XC7Z020.at_clock(mhz)


class TestScaling:
    def test_scaled_budgets(self):
        half = XC7Z020.scaled(0.5)
        assert half.dsp == 110
        assert half.lut == 26_600
        assert half.ff == 53_200

    def test_scaled_name(self):
        assert "50%" in XC7Z020.scaled(0.5).name

    def test_full_scale_identity_budgets(self):
        full = XC7Z020.scaled(1.0)
        assert (full.dsp, full.lut, full.ff) == (220, 53_200, 106_400)

    def test_rescaling_multiplies_fractions(self):
        # Scaling a scaled device composes through the base part:
        # no @50%@50% name stacking, no compounded truncation.
        quarter = XC7Z020.scaled(0.5).scaled(0.5)
        assert quarter == XC7Z020.scaled(0.25)
        assert quarter.name == "xc7z020@25%"
        assert quarter.name.count("@") == 1
        assert quarter.fraction == 0.25
        assert quarter.base is XC7Z020

    def test_rescaling_rederives_from_base_budgets(self):
        # int(int(220 * 0.9) * 0.9) = 178, but int(220 * 0.81) = 178
        # too -- use a fraction where the orders differ: 220 * 0.55
        # truncates to 121, then 121 * 0.55 to 66; the base-derived
        # product gives int(220 * 0.3025) = 66 as well, so assert the
        # invariant directly instead of one cherry-picked case.
        for first in (0.55, 0.7, 0.9):
            for second in (0.55, 0.7, 0.9):
                stacked = XC7Z020.scaled(first).scaled(second)
                direct = XC7Z020.scaled(first * second)
                assert stacked == direct, (first, second)

    def test_rescale_back_to_base_returns_base(self):
        assert XC7Z020.scaled(1.0) is XC7Z020

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            XC7Z020.scaled(0.0)
        with pytest.raises(ValueError):
            XC7Z020.scaled(1.5)
        with pytest.raises(ValueError):
            XC7Z020.scaled(-0.5)

    def test_tiny_fraction_rejected_not_truncated(self):
        # 220 DSPs * 1e-3 truncates to 0: historically this produced a
        # budget that rejects every design and surfaced as a confusing
        # "no feasible candidate" far downstream.  Now it's immediate.
        with pytest.raises(ValueError, match="truncates nonzero budget"):
            XC7Z020.scaled(1e-3)

    def test_tiny_fraction_diagnostic_names_axes(self):
        with pytest.raises(ValueError, match="dsp"):
            XC7Z020.scaled(1e-3)
        # At 1e-6 even the LUT/FF/BRAM budgets truncate.
        with pytest.raises(ValueError, match="bram_bits.*dsp.*ff.*lut"):
            XC7Z020.scaled(1e-8)

    def test_tiny_composed_fraction_rejected(self):
        # The effective (product) fraction trips the zero-truncation
        # guard even when each individual step would be fine.
        with pytest.raises(ValueError, match="truncates nonzero budget"):
            XC7Z020.scaled(0.05).scaled(0.05)

    def test_smallest_viable_fraction_boundary(self):
        # 1/220 is the smallest fraction keeping every XC7Z020 budget
        # nonzero; just below it the DSP budget hits zero.
        smallest = 1.0 / XC7Z020.dsp
        scaled = XC7Z020.scaled(smallest)
        assert scaled.dsp == 1
        assert scaled.lut > 0 and scaled.ff > 0 and scaled.bram_bits > 0
        with pytest.raises(ValueError, match="dsp"):
            XC7Z020.scaled(smallest * 0.99)

    def test_zero_budget_axis_on_source_device_is_allowed(self):
        # An axis that is already zero on the source device cannot be
        # "truncated" -- only nonzero budgets trip the diagnostic.
        no_dsp = FPGADevice(name="softcore", dsp=0, lut=1000, ff=1000,
                            bram_bits=1000)
        scaled = no_dsp.scaled(0.5)
        assert scaled.dsp == 0 and scaled.lut == 500

    def test_frozen(self):
        with pytest.raises(Exception):
            XC7Z020.dsp = 1


class TestAdmits:
    """``FPGADevice.admits``: the one fit rule, over all four axes."""

    BUDGET = FPGADevice(name="part", dsp=22, lut=5_320, ff=10_640, bram_bits=513_802)

    def test_equality_is_admitted(self):
        at_budget = Resources(dsp=22, lut=5_320, ff=10_640, bram_bits=513_802)
        assert self.BUDGET.admits(at_budget)
        assert self.BUDGET.overruns(at_budget) == ()

    @pytest.mark.parametrize("axis", BUDGET_AXES)
    def test_each_axis_over_by_one_is_refused(self, axis):
        usage = Resources(**{axis: getattr(self.BUDGET, axis) + 1})
        assert not self.BUDGET.admits(usage)
        assert self.BUDGET.overruns(usage) == (axis,)

    def test_reads_a_pareto_point(self):
        from repro.dse.pareto import ParetoPoint

        point = ParetoPoint(
            key="k", parallelism=(), bank_cap=128, values=(1,), cycles=1,
            dsp=1, lut=1, ff=1, bram_bits=513_803, power_w=0.0,
        )
        assert self.BUDGET.overruns(point) == ("bram_bits",)

    @pytest.mark.parametrize("stages", [2, 3])
    def test_scaled_usage_is_the_even_split(self, stages):
        # 3 divides none of the budgets: the split by multiplication
        # must agree with flooring the budget there too.
        for axis in BUDGET_AXES:
            share = getattr(self.BUDGET, axis) // stages
            for value in (share - 1, share, share + 1):
                usage = Resources(**{axis: value})
                assert self.BUDGET.admits(usage.scaled(stages)) == (value <= share)

    def test_full_scale_budget_equals_the_device(self):
        assert DEFAULT_DEVICE.scaled(1.0) == DEFAULT_DEVICE


def test_bare_constant_is_gone():
    import repro.hls
    import repro.hls.device as device_module

    for module in (repro.hls, device_module):
        with pytest.raises(AttributeError, match="XC7Z020"):
            module.XC7Z020
