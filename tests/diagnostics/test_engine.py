"""Unit tests for the diagnostic record, engine, and carrier error."""

import pytest

from repro.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticEngine,
    DiagnosticError,
    Severity,
    SourceLocation,
    caller_location,
    describe,
)

pytestmark = pytest.mark.diagnostics


class TestCodes:
    def test_every_code_has_a_description(self):
        for code, description in CODES.items():
            assert describe(code) == description
            assert description

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            describe("XXX999")

    def test_diagnostic_requires_registered_code(self):
        with pytest.raises(KeyError):
            Diagnostic(Severity.ERROR, "XXX999", "nope")


class TestDiagnostic:
    def test_oneline_includes_severity_and_code(self):
        d = Diagnostic(Severity.ERROR, "SCH001", "bad factor")
        assert d.oneline() == "error[SCH001]: bad factor"

    def test_render_includes_location_and_notes(self):
        loc = SourceLocation(
            file="/home/user/kernel.py", line=12, function="gemm", compute="s"
        )
        d = Diagnostic(
            Severity.WARNING, "LEG005", "carried dep", location=loc,
            notes=("achievable II is bounded",),
        )
        text = d.render()
        assert "warning[LEG005]" in text
        assert "kernel.py:12" in text
        assert "function 'gemm'" in text
        assert "compute 's'" in text
        assert "note: achievable II is bounded" in text


class TestCallerLocation:
    def test_points_at_test_code_not_framework(self):
        loc = caller_location(function="f", compute="c")
        assert loc.file is not None and loc.file.endswith("test_engine.py")
        assert loc.function == "f" and loc.compute == "c"


class TestEngine:
    def test_collects_and_classifies(self):
        engine = DiagnosticEngine()
        engine.error("VER002", "rank mismatch")
        engine.warning("VER006", "zero trip")
        engine.note("GEN001", "fyi")
        assert len(engine) == 3
        assert [d.code for d in engine.errors()] == ["VER002"]
        assert [d.code for d in engine.warnings()] == ["VER006"]
        assert engine.has_errors

    def test_render_tallies(self):
        engine = DiagnosticEngine()
        engine.error("VER002", "a")
        engine.error("VER003", "b")
        assert "2 error(s), 0 warning(s)" in engine.render()
        assert DiagnosticEngine().render() == "no diagnostics"

    def test_raise_if_errors_folds_remaining_into_notes(self):
        engine = DiagnosticEngine()
        engine.error("VER002", "first")
        engine.error("VER003", "second")
        with pytest.raises(DiagnosticError) as info:
            engine.raise_if_errors()
        assert info.value.code == "VER002"
        assert "second" in str(info.value)

    def test_no_errors_no_raise(self):
        engine = DiagnosticEngine()
        engine.warning("VER006", "only a warning")
        engine.raise_if_errors()


class TestDiagnosticError:
    def test_is_a_value_error(self):
        assert issubclass(DiagnosticError, ValueError)
        with pytest.raises(ValueError):
            raise DiagnosticError("legacy message")

    def test_wraps_plain_message_with_default_code(self):
        exc = DiagnosticError("something broke")
        assert exc.code == "GEN001"
        assert exc.diagnostic.severity is Severity.ERROR

    def test_carries_ready_made_diagnostic(self):
        d = Diagnostic(Severity.ERROR, "SCH002", "unknown compute")
        exc = DiagnosticError(d)
        assert exc.diagnostic is d
        assert "SCH002" in str(exc)
