"""Solver-resilience hygiene: convergence retries must go through the
recovery ladder.

Before the ladder existed, every engine grew its own hard-coded retry
(`except ConvergenceError: solve again at gmin=1e-9`).  Those ad-hoc
blocks are invisible to the :class:`~repro.recovery.policy.RecoveryPolicy`
fingerprint, so two runs could differ in how they recover — and hence in
their result bits — while sharing a cache key.  The rule flags any
``except`` handler that catches :class:`~repro.errors.ConvergenceError`
and then calls a solver entry point directly from the handler body;
escalation belongs in :mod:`repro.recovery` (the
``TransientStepper`` rungs, ``dc_recover``), whose configuration *is*
fingerprinted.

``repro/recovery/`` itself is exempt (it is the one place retries are
implemented); anything else can opt out a reviewed special case with a
``# devlint: recovery-exempt`` module marker.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.diagnostics import Severity

from repro.devlint.model import Project, resolve_call_name
from repro.devlint.registry import rule

#: Final path components of solver entry points: a call whose dotted
#: name ends in one of these, made from inside a ConvergenceError
#: handler, is an inline retry.
_SOLVER_CALL_TAILS = {
    "solve", "_newton", "newton_step", "solve_dc", "run_transient",
    "run_ensemble_transient", "modified_newton",
}

#: The module tree that is allowed to implement retries.
_LADDER_PATH_FRAGMENT = "repro/recovery/"


def _caught_names(handler: ast.ExceptHandler) -> List[str]:
    caught = handler.type
    if caught is None:
        return []
    nodes = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    names: List[str] = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


@rule("dev.bare-convergence-retry", Severity.ERROR,
      "an 'except ConvergenceError' handler re-runs a solver inline "
      "instead of escalating through the repro.recovery ladder")
def check_bare_convergence_retry(project: Project, emit) -> None:
    for module in project:
        if module.tree is None:
            continue
        if _LADDER_PATH_FRAGMENT in module.rel:
            continue
        if module.has_module_marker("recovery-exempt"):
            continue
        aliases = module.import_aliases()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if "ConvergenceError" not in _caught_names(node):
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Call):
                        continue
                    name = resolve_call_name(sub.func, aliases)
                    tail = name.rsplit(".", 1)[-1] if name else ""
                    if tail in _SOLVER_CALL_TAILS:
                        emit(module, sub.lineno,
                             f"convergence failure handled by calling "
                             f"{tail}() inline — an ad-hoc retry the "
                             f"recovery-policy fingerprint cannot see",
                             hint="record the failure and escalate after "
                                  "the handler via repro.recovery "
                                  "(TransientStepper rungs, "
                                  "dc_recover)")
