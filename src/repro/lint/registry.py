"""The rule registry: every static-analysis rule of the project.

Rules self-register at import time via the :func:`rule` decorator.  Each
kind is one pack over one subject type:

* ``"spice"`` — :mod:`repro.lint.spice_rules`, over a
  :class:`~repro.spice.netlist.Circuit`;
* ``"gates"`` — :mod:`repro.lint.gate_rules`, over a
  :class:`~repro.physd.netlist.GateNetlist`;
* ``"faults"`` — :mod:`repro.lint.fault_rules`, over a
  :class:`~repro.faults.inject.InjectionPlan`;
* ``"dev"`` — the ``repro.devlint`` rule modules, over a
  :class:`~repro.devlint.model.Project` of parsed Python source.  They
  register when :mod:`repro.devlint` is imported, so the SPICE
  pre-flight never loads them.

A rule is a callable ``check(subject, emit)`` where ``emit(location,
message, hint="", severity=None)`` records one finding; the registry
wraps it with the rule's id and default severity.  A rule id starts with
its kind (``"spice.floating-node"``, ``"dev.unseeded-rng"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import AnalysisError
from repro.lint.diagnostics import Diagnostic, LintReport, Severity

#: Valid rule kinds and the subject type each pack lints.
KINDS = ("spice", "gates", "faults", "dev")


@dataclass(frozen=True)
class LintRule:
    """One registered static-analysis rule."""

    rule_id: str
    kind: str
    severity: Severity
    description: str
    check: Callable


_REGISTRY: Dict[str, LintRule] = {}


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise AnalysisError(f"unknown rule kind {kind!r}; expected one of {KINDS}")


def rule(rule_id: str, kind: str, severity: Severity, description: str):
    """Class-level decorator registering a check function as a rule."""
    _check_kind(kind)
    if not rule_id.startswith(kind + "."):
        raise AnalysisError(
            f"rule id {rule_id!r} must start with its kind, {kind + '.'!r}")

    def decorator(check: Callable) -> Callable:
        if rule_id in _REGISTRY:
            raise AnalysisError(f"duplicate lint rule id {rule_id!r}")
        _REGISTRY[rule_id] = LintRule(rule_id, kind, severity, description, check)
        return check

    return decorator


def all_rules() -> List[LintRule]:
    return list(_REGISTRY.values())


def rules_for(kind: str) -> List[LintRule]:
    return [r for r in _REGISTRY.values() if r.kind == kind]


def rule_ids(kind: Optional[str] = None) -> List[str]:
    return [r.rule_id for r in _REGISTRY.values()
            if kind is None or r.kind == kind]


def run_rules(kind: str, subject, target: str) -> LintReport:
    """Run every registered rule of ``kind`` over ``subject``."""
    _check_kind(kind)
    report = LintReport(target)
    for lint_rule in rules_for(kind):
        def emit(location: str, message: str, hint: str = "",
                 severity: Optional[Severity] = None,
                 _rule: LintRule = lint_rule) -> None:
            report.add(Diagnostic(
                rule=_rule.rule_id,
                severity=_rule.severity if severity is None else severity,
                target=target, location=location, message=message, hint=hint,
            ))

        lint_rule.check(subject, emit)
    return report
