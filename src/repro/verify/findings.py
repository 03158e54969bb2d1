"""Finding / report containers shared by every checker in :mod:`repro.verify`.

A checker never raises on a bad input — it appends :class:`Finding`
records to a :class:`Report` so that one pass can surface *every*
violation (and so the repo-wide gate can aggregate results across
heterogeneous checkers).  Callers that want fail-fast behaviour use
:meth:`Report.raise_if_errors`, which throws :class:`VerificationError`
carrying the full report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the gate (guaranteed-wrong programs or
    structures); ``WARNING`` findings are reported but do not change the
    exit code (constructs that are only correct under extra assumptions,
    e.g. in-order message delivery).
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    ``rule`` is a stable kebab-case identifier (e.g. ``spmd-deadlock-cycle``);
    ``location`` is either ``path:line`` for source findings or a logical
    position such as ``rank 3 @ step 7`` for schedule findings.
    """

    rule: str
    severity: Severity
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity.value}: {self.location}: [{self.rule}] {self.message}"


@dataclass
class Report:
    """An append-only collection of findings from one or more checkers."""

    findings: list[Finding] = field(default_factory=list)

    def add(
        self,
        rule: str,
        message: str,
        *,
        location: str = "<input>",
        severity: Severity = Severity.ERROR,
    ) -> None:
        """Record one finding."""
        self.findings.append(
            Finding(rule=rule, severity=severity, location=location, message=message)
        )

    def extend(self, other: "Report") -> None:
        """Fold another report's findings into this one."""
        self.findings.extend(other.findings)

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity findings were recorded."""
        return not self.errors()

    def rules(self) -> set[str]:
        """The distinct rule identifiers present in this report."""
        return {f.rule for f in self.findings}

    def raise_if_errors(self, context: str = "verification failed") -> None:
        """Raise :class:`VerificationError` when any ERROR finding exists."""
        if not self.ok:
            raise VerificationError(context, self)

    def render(self) -> str:
        """Human-readable multi-line summary (one line per finding)."""
        if not self.findings:
            return "no findings"
        lines = [str(f) for f in self.findings]
        ne, nw = len(self.errors()), len(self.warnings())
        lines.append(f"{ne} error(s), {nw} warning(s)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)


def merge(reports: Iterable[Report]) -> Report:
    """Combine several reports into one."""
    out = Report()
    for r in reports:
        out.extend(r)
    return out


class VerificationError(ValueError):
    """A checker found ERROR-severity violations; carries the full report."""

    def __init__(self, context: str, report: Report):
        self.report = report
        detail = "\n".join(str(f) for f in report.errors())
        super().__init__(f"{context}:\n{detail}")
