"""Solver-resilience hygiene: convergence retries must go through the
recovery ladder.

Before the ladder existed, every engine grew its own hard-coded retry
(`except ConvergenceError: solve again at gmin=1e-9`).  Those ad-hoc
blocks are invisible to the ladder's fingerprinted constants
(:func:`~repro.recovery.policy.recovery_config_fingerprint`), so two
runs could differ in how they recover — and hence in their result bits —
while sharing a cache key.  The rule flags any
``except`` handler that catches :class:`~repro.errors.ConvergenceError`
and then calls a solver entry point from the handler body, directly or
through a function defined in the same module (followed one level
deep); escalation belongs in :mod:`repro.recovery` (the
``TransientStepper`` rungs, ``dc_recover``), whose configuration *is*
fingerprinted.

``repro/recovery/`` itself is exempt (it is the one place retries are
implemented); anything else can opt out a reviewed special case with a
``# devlint: recovery-exempt`` module marker.
"""

from __future__ import annotations

import ast
from typing import Dict, List

from repro.lint.diagnostics import Severity
from repro.lint.registry import rule

from repro.devlint.model import Project, resolve_call_name

#: Final path components of solver entry points: a call whose dotted
#: name ends in one of these, made from inside a ConvergenceError
#: handler, is an inline retry.
_SOLVER_CALL_TAILS = {
    "solve", "_newton", "solve_dc", "run_transient",
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


def _calls(nodes: List[ast.AST]) -> List[ast.Call]:
    return [sub for stmt in nodes for sub in ast.walk(stmt)
            if isinstance(sub, ast.Call)]


def _retry(call: ast.Call, functions: Dict[str, List[ast.AST]],
           aliases: Dict[str, str], follow: bool = True) -> str:
    """How ``call`` re-runs a solver: ``"solve_dc()"`` when it calls an
    entry point, ``"helper(), which calls solve_dc()"`` when it calls a
    same-module function whose own body does (``follow``), else ``""``."""
    name = resolve_call_name(call.func, aliases)
    tail = name.rsplit(".", 1)[-1] if name else ""
    if tail in _SOLVER_CALL_TAILS:
        return f"{tail}()"
    helpers = functions.get(name, []) if follow else []
    for inner in _calls([stmt for helper in helpers for stmt in helper.body]):
        retry = _retry(inner, functions, aliases, follow=False)
        if retry:
            return f"{name}(), which calls {retry}"
    return ""


@rule("dev.bare-convergence-retry", "dev", Severity.ERROR,
      "an 'except ConvergenceError' handler re-runs a solver inline "
      "instead of escalating through the repro.recovery ladder")
def check_bare_convergence_retry(project: Project, emit) -> None:
    for module in project:
        if _LADDER_PATH_FRAGMENT in module.rel:
            continue
        if module.has_module_marker("recovery-exempt"):
            continue
        aliases = module.import_aliases()
        functions: Dict[str, List[ast.AST]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, []).append(node)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if "ConvergenceError" not in _caught_names(node):
                continue
            for call in _calls(node.body):
                retry = _retry(call, functions, aliases)
                if retry:
                    emit(module.at(call.lineno),
                         f"convergence failure handled by calling {retry} "
                         f"inline — an ad-hoc retry the recovery "
                         f"ladder's fingerprint cannot see",
                         hint="record the failure and escalate after "
                              "the handler via repro.recovery "
                              "(TransientStepper rungs, dc_recover)")
