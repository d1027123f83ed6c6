"""Structured diagnostic records and reports for the lint subsystem."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import SerializationError
from repro.serialize import Serializable


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering is meaningful (INFO < WARN < ERROR)."""

    INFO = 10
    WARN = 20
    ERROR = 30

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            valid = ", ".join(s.name.lower() for s in cls)
            raise ValueError(
                f"unknown severity {name!r}; expected one of {valid}") from None

    def __str__(self) -> str:  # "error" rather than "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    ``rule`` is the registry id (e.g. ``"spice.floating-node"``);
    ``target`` names the linted design; ``location`` pins the finding to
    a node, device, net or instance within it; ``hint`` suggests a fix.
    """

    rule: str
    severity: Severity
    target: str
    location: str
    message: str
    hint: str = ""

    def one_line(self) -> str:
        text = (f"{self.severity.name:5s} {self.rule:26s} "
                f"{self.target}:{self.location} — {self.message}")
        if self.hint:
            text += f" (fix: {self.hint})"
        return text

    def as_dict(self) -> Dict[str, str]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "target": self.target,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class LintReport(Serializable):
    """All diagnostics produced by one lint run over one subject.

    ``to_json``/``from_json`` follow the shared
    :class:`~repro.serialize.Serializable` protocol; ``as_json_obj`` is
    the CLI ``--json`` shape, with derived severity counts.
    """

    SCHEMA_NAME = "LintReport"
    SCHEMA_VERSION = 2

    target: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def payload(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    @classmethod
    def from_payload(cls, data: Dict[str, object]) -> "LintReport":
        try:
            return cls(
                target=str(data["target"]),
                diagnostics=[
                    Diagnostic(
                        rule=str(d["rule"]),
                        severity=Severity.parse(str(d["severity"])),
                        target=str(d["target"]),
                        location=str(d["location"]),
                        message=str(d["message"]),
                        hint=str(d.get("hint", "")),
                    )
                    for d in data["diagnostics"]
                ],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed LintReport record: {exc}") from exc

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    # -- queries -----------------------------------------------------------

    def at_least(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.at_least(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARN]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.INFO]

    @property
    def has_errors(self) -> bool:
        return any(d.severity >= Severity.ERROR for d in self.diagnostics)

    def rule_ids(self, min_severity: Severity = Severity.INFO) -> List[str]:
        """Distinct rule ids that fired at or above ``min_severity``."""
        seen: List[str] = []
        for d in self.diagnostics:
            if d.severity >= min_severity and d.rule not in seen:
                seen.append(d.rule)
        return seen

    # -- rendering ---------------------------------------------------------

    def summary(self) -> str:
        return (f"{self.target}: {len(self.errors)} error(s), "
                f"{len(self.warnings)} warning(s), {len(self.infos)} info(s)")

    def render_text(self, min_severity: Severity = Severity.WARN) -> str:
        shown = self.at_least(min_severity)
        lines = [d.one_line() for d in sorted(
            shown, key=lambda d: (-int(d.severity), d.rule, d.location))]
        lines.append(self.summary())
        return "\n".join(lines)

    def as_json_obj(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


def render_reports_json(reports: Sequence[LintReport],
                        indent: Optional[int] = 2) -> str:
    """JSON array of per-target report objects (CLI ``--json`` output)."""
    return json.dumps([r.as_json_obj() for r in reports], indent=indent)
