"""The diagnostic record, the collecting engine, and the carrier error.

Mirrors MLIR's ``DiagnosticEngine`` in miniature: producers *emit*
diagnostics into an engine instead of raising bare exceptions, so a
driver (the legality preflight, the IR verifier, the DSE quarantine)
can collect everything wrong with an input and report it at once.
:class:`DiagnosticError` bridges to exception-style callers; it is a
:class:`ValueError` subclass so existing ``except ValueError`` handlers
and tests keep working.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.diagnostics.codes import CODES


class Severity(IntEnum):
    """Diagnostic severities, ordered so comparisons read naturally."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class SourceLocation:
    """Where a diagnostic originates.

    ``file``/``line`` point at user code (threaded from DSL calls via
    :func:`caller_location`); ``function``/``compute`` name the DSL
    entities involved so multi-kernel failures stay debuggable.
    """

    file: Optional[str] = None
    line: Optional[int] = None
    function: Optional[str] = None
    compute: Optional[str] = None

    def __str__(self) -> str:
        parts: List[str] = []
        if self.file is not None:
            where = os.path.basename(self.file)
            parts.append(f"{where}:{self.line}" if self.line else where)
        names = []
        if self.function is not None:
            names.append(f"function {self.function!r}")
        if self.compute is not None:
            names.append(f"compute {self.compute!r}")
        if names:
            parts.append(", ".join(names))
        return " in ".join(parts) if parts else "<unknown>"


# The package root (…/src/repro); frames inside it are framework frames.
_PKG_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep


def caller_location(
    function: Optional[str] = None, compute: Optional[str] = None
) -> SourceLocation:
    """The first stack frame *outside* the repro package.

    This is how DSL entry points (compute declarations, scheduling
    primitives) thread the user's source position into diagnostics.
    """
    frame = sys._getframe(1)
    while frame is not None:
        path = frame.f_code.co_filename
        if not os.path.abspath(path).startswith(_PKG_DIR):
            return SourceLocation(
                file=path, line=frame.f_lineno, function=function, compute=compute
            )
        frame = frame.f_back
    return SourceLocation(function=function, compute=compute)


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding: severity, stable code, message, context."""

    severity: Severity
    code: str
    message: str
    location: Optional[SourceLocation] = None
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.code not in CODES:
            raise KeyError(f"unregistered diagnostic code {self.code!r}")

    def oneline(self) -> str:
        return f"{self.severity.label}[{self.code}]: {self.message}"

    def render(self) -> str:
        lines = [self.oneline()]
        if self.location is not None:
            lines.append(f"  --> {self.location}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class DiagnosticError(ValueError):
    """An exception carrying a structured :class:`Diagnostic`.

    Accepts either a ready-made diagnostic or a plain message (with an
    optional code), so legacy ``raise SomeError("msg")`` call sites
    upgrade without ceremony.
    """

    def __init__(
        self,
        diagnostic,
        code: str = "GEN001",
        location: Optional[SourceLocation] = None,
        notes: Sequence[str] = (),
    ):
        if not isinstance(diagnostic, Diagnostic):
            diagnostic = Diagnostic(
                Severity.ERROR, code, str(diagnostic), location, tuple(notes)
            )
        self.diagnostic = diagnostic
        super().__init__(diagnostic.render())

    @property
    def code(self) -> str:
        return self.diagnostic.code


class DiagnosticEngine:
    """Collects diagnostics; the driver decides when errors become fatal."""

    def __init__(self):
        self.diagnostics: List[Diagnostic] = []

    # -- emission ----------------------------------------------------------

    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        return diagnostic

    def error(self, code: str, message: str, location=None, notes=()) -> Diagnostic:
        return self.emit(
            Diagnostic(Severity.ERROR, code, message, location, tuple(notes))
        )

    def warning(self, code: str, message: str, location=None, notes=()) -> Diagnostic:
        return self.emit(
            Diagnostic(Severity.WARNING, code, message, location, tuple(notes))
        )

    def note(self, code: str, message: str, location=None, notes=()) -> Diagnostic:
        return self.emit(
            Diagnostic(Severity.NOTE, code, message, location, tuple(notes))
        )

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        for diagnostic in diagnostics:
            self.emit(diagnostic)

    # -- queries -----------------------------------------------------------

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity >= Severity.ERROR for d in self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    # -- reporting ---------------------------------------------------------

    def render(self) -> str:
        """All diagnostics plus a one-line tally, human-readable."""
        if not self.diagnostics:
            return "no diagnostics"
        blocks = [d.render() for d in self.diagnostics]
        tally = (
            f"{len(self.errors())} error(s), {len(self.warnings())} warning(s)"
        )
        return "\n".join(blocks + [tally])

    def raise_if_errors(self) -> None:
        """Raise a :class:`DiagnosticError` for the first error collected.

        Remaining errors ride along as notes so nothing is lost when a
        caller only prints the exception.
        """
        errors = self.errors()
        if not errors:
            return
        first = errors[0]
        extra = tuple(d.oneline() for d in errors[1:])
        if extra:
            first = replace(first, notes=first.notes + extra)
        raise DiagnosticError(first)
