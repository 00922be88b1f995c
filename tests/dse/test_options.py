"""DseOptions: the one configuration form ``auto_dse`` accepts.

The loose-keyword and positional-device call forms had their
deprecation cycle and are gone (CHANGES.md, PR 18); what is pinned here
is the dataclass surface, its validation, and that each old form now
fails as a plain ``TypeError`` / ``AttributeError``.
"""

import dataclasses

import pytest

from repro.dse import MAX_PARALLELISM, DseOptions, auto_dse
from repro.hls import DEFAULT_DEVICE, get_device
from repro.workloads import polybench


def _outcome(result):
    return (
        result.report,
        result.tile_vectors(),
        result.evaluations,
        result.parallelism,
    )


class TestParity:
    def test_default_options_match_no_options(self):
        bare = auto_dse(polybench.gemm(16))
        explicit = auto_dse(polybench.gemm(16), options=DseOptions())
        assert _outcome(bare) == _outcome(explicit)


class TestRemovedForms:
    def test_loose_kwargs_are_a_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'cache'"):
            auto_dse(polybench.gemm(16), cache=False)
        with pytest.raises(TypeError, match="unexpected keyword argument 'cache'"):
            polybench.gemm(16).auto_DSE(cache=False)

    def test_positional_device_is_a_type_error(self):
        with pytest.raises(TypeError, match="must be a DseOptions, got FPGADevice"):
            auto_dse(polybench.gemm(16), DEFAULT_DEVICE)
        with pytest.raises(TypeError, match="must be a DseOptions, got FPGADevice"):
            polybench.gemm(16).auto_DSE(DEFAULT_DEVICE)

    def test_jobs_is_not_an_option(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'jobs'"):
            DseOptions(jobs=2)

    def test_surrogate_is_not_an_option(self):
        # PR 20: the exhaustive frontier run is `cache=False`.
        with pytest.raises(TypeError, match="unexpected keyword argument 'surrogate'"):
            DseOptions(surrogate=False)

    def test_from_kwargs_is_gone(self):
        with pytest.raises(AttributeError):
            DseOptions.from_kwargs(cache=False)


class TestErrors:
    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"resource_fraction": 0.0}, "resource_fraction must be > 0"),
            ({"clock_ns": -1.0}, "clock_ns must be > 0"),
            ({"max_parallelism": 0}, "max_parallelism must be >= 1"),
            ({"candidate_timeout_s": -1.0}, "candidate_timeout_s must be >= 0"),
            ({"time_budget_s": -1.0}, "deadline budget must be >= 0"),
            ({"resource_fraction": 0.001}, r"truncates nonzero budget\(s\) to zero on xc7z020: dsp"),
        ],
    )
    def test_validate_messages(self, changes, match):
        with pytest.raises(ValueError, match=match):
            DseOptions(**changes).validate()

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"resource_fraction": float("nan")}, "resource_fraction must be > 0 and <= 1"),
            ({"resource_fraction": float("inf")}, "resource_fraction must be > 0 and <= 1"),
            ({"resource_fraction": 2.0}, "resource_fraction must be > 0 and <= 1"),
            ({"clock_ns": float("nan")}, "clock_ns must be > 0 and finite"),
            ({"clock_ns": float("inf")}, "clock_ns must be > 0 and finite"),
            ({"candidate_timeout_s": float("nan")}, "candidate_timeout_s must be >= 0 and finite"),
            ({"time_budget_s": float("nan")}, "deadline budget must be >= 0 and finite"),
            ({"time_budget_s": float("inf")}, "deadline budget must be >= 0 and finite"),
        ],
        ids=["fraction-nan", "fraction-inf", "fraction-2", "clock-nan", "clock-inf",
             "timeout-nan", "budget-nan", "budget-inf"],
    )
    def test_non_finite_and_out_of_range_numbers_are_refused(self, changes, match):
        """nan compares false against every bound, and a fraction above 1
        used to run on the full device."""
        with pytest.raises(ValueError, match=match):
            DseOptions(**changes).validate()

    def test_fraction_is_checked_against_the_requested_device(self):
        # 0.1% of a ZU9EG still leaves 2 of its 2 520 DSPs.
        big = DseOptions(device=get_device("xczu9eg"), resource_fraction=0.001)
        assert big.validate() is big

    def test_the_full_device_is_a_valid_fraction(self):
        assert DseOptions(resource_fraction=1.0).validate().resource_fraction == 1.0

    def test_engine_rejects_invalid_options_identically(self):
        with pytest.raises(ValueError, match="resource_fraction must be > 0"):
            auto_dse(
                polybench.gemm(16), options=DseOptions(resource_fraction=-1.0)
            )


class TestDataclassSurface:
    def test_defaults(self):
        options = DseOptions()
        assert options.resource_fraction == 1.0
        assert options.max_parallelism == MAX_PARALLELISM
        assert options.cache is True

    def test_replace_returns_modified_copy(self):
        base = DseOptions()
        tweaked = base.replace(cache=False, max_parallelism=4)
        assert tweaked.cache is False and tweaked.max_parallelism == 4
        assert base.cache is True and base.max_parallelism == MAX_PARALLELISM

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(DseOptions)] == [
            "device", "resource_fraction", "clock_ns", "max_parallelism",
            "cache", "checkpoint", "resume",
            "candidate_timeout_s", "time_budget_s", "fault_plan",
            "objective",
        ]

    def test_exported_from_package_roots(self):
        import repro
        import repro.dse

        assert repro.DseOptions is DseOptions
        assert repro.dse.DseOptions is DseOptions
