"""Observability and error-hygiene rules.

* Spans must be entered via ``with`` — a manual ``__enter__()`` leaks
  the span (and corrupts the contextvar nesting) on any exception raised
  before the matching ``__exit__``; a span that is created but never
  entered silently records nothing.
* Every :class:`~repro.errors.ReproError` subclass that overrides
  ``__init__`` must call ``super().__init__`` — that call is what
  captures the ``diagnostics`` tuple, the open span stack and the
  metrics snapshot that :meth:`~repro.errors.ReproError.context_report`
  renders.  Skipping it produces exceptions whose context report is
  silently empty.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.lint.diagnostics import Severity
from repro.lint.registry import rule

from repro.devlint.model import Project, PyModule

#: Local names a span constructor is bound to across the codebase.
_SPAN_NAMES = {"span", "_obs_span"}


def _span_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _SPAN_NAMES
    if isinstance(func, ast.Attribute):
        return func.attr == "span" and isinstance(
            func.value, ast.Name) and func.value.id in ("obs", "tracer")
    return False


def _scopes(module: PyModule) -> List[ast.AST]:
    """Module plus every function body — the units span usage is
    resolved within."""
    return [module.tree, *module.functions()]


def _direct_statements(scope: ast.AST) -> List[ast.stmt]:
    """Statements belonging to ``scope`` itself, excluding nested
    function bodies (they are their own scope)."""
    out: List[ast.stmt] = []
    stack: List[ast.stmt] = list(getattr(scope, "body", []))
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        out.append(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, ast.excepthandler):
                stack.extend(child.body)
    return out


@rule("dev.span-without-with", "dev", Severity.ERROR,
      "an obs span is opened manually (or never entered) instead of via "
      "a 'with' block")
def check_span_usage(project: Project, emit) -> None:
    for module in project:
        for scope in _scopes(module):
            statements = _direct_statements(scope)
            assigned: Dict[str, ast.stmt] = {}
            with_names: Set[str] = set()
            entered: Dict[str, ast.stmt] = {}

            for stmt in statements:
                if isinstance(stmt, ast.Expr) and _span_call(stmt.value):
                    emit(module.at(stmt.lineno),
                         "span(...) result is discarded — the span is "
                         "never entered and records nothing",
                         hint="use 'with span(...):' around the timed "
                              "region")
                    continue
                if isinstance(stmt, ast.Assign) and _span_call(stmt.value):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            assigned[target.id] = stmt
                    continue
                if isinstance(stmt, ast.With):
                    for item in stmt.items:
                        expr = item.context_expr
                        if isinstance(expr, ast.Name):
                            with_names.add(expr.id)
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("__enter__", "__exit__")
                            and isinstance(node.func.value, ast.Name)):
                        entered[node.func.value.id] = stmt

            for name, stmt in assigned.items():
                if name in entered:
                    emit(module.at(entered[name].lineno),
                         f"span {name!r} is driven through manual "
                         f"__enter__/__exit__ calls; an exception in "
                         f"between leaks the span",
                         hint=f"restructure as 'with {name}:' (wrap the "
                              f"body in a function if control flow "
                              f"makes that awkward)")
                elif name not in with_names:
                    emit(module.at(stmt.lineno),
                         f"span assigned to {name!r} is never entered "
                         f"with a 'with' block in this scope",
                         hint=f"use 'with {name}:' or drop the span")


def _repro_error_classes(project: Project) -> Set[str]:
    """Transitive set of class names deriving from ReproError anywhere
    in the project (plus ReproError itself)."""
    known: Set[str] = {"ReproError"}
    class_bases: Dict[str, Set[str]] = {}
    for module in project:
        for classdef in module.classes():
            bases = set()
            for base in classdef.bases:
                if isinstance(base, ast.Name):
                    bases.add(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.add(base.attr)
            class_bases.setdefault(classdef.name, set()).update(bases)
    changed = True
    while changed:
        changed = False
        for name, bases in class_bases.items():
            if name not in known and bases & known:
                known.add(name)
                changed = True
    return known


@rule("dev.error-super-init", "dev", Severity.ERROR,
      "a ReproError subclass overrides __init__ without calling "
      "super().__init__ — diagnostics and obs context are dropped")
def check_error_super_init(project: Project, emit) -> None:
    error_classes = _repro_error_classes(project)
    for module in project:
        for classdef in module.classes():
            if classdef.name == "ReproError":
                continue
            base_names = {base.id if isinstance(base, ast.Name)
                          else base.attr if isinstance(base, ast.Attribute)
                          else "" for base in classdef.bases}
            if not (base_names & error_classes):
                continue
            init = next((s for s in classdef.body
                         if isinstance(s, ast.FunctionDef)
                         and s.name == "__init__"), None)
            if init is None:
                continue
            calls_super = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__init__"
                for node in ast.walk(init))
            if not calls_super:
                emit(module.at(init.lineno),
                     f"{classdef.name}.__init__ never calls "
                     f"super().__init__ — the exception loses its "
                     f"diagnostics tuple, span stack and metrics "
                     f"snapshot",
                     hint="call super().__init__(message) first")
