"""Cache-key completeness rules.

The content-addressed result cache (PR 5) is only sound if its keys
capture *everything* a result depends on.  Two recurring hazards:

* a new field lands on a device / parameter / waveform class but the
  serializers in ``cache/keys.py`` are not updated — two circuits that
  differ only in the new field now share a key, and a warm cache replays
  the wrong result bit-exactly;
* a new engine constant changes numerics but is missing from the
  ``*config_fingerprint`` record — entries written before a constant
  tweak replay as if nothing changed (the exact hazard PR 6 handled by
  hand for ``permc_spec`` and the LTE controller constants).

Both rules are driven by marker comments in the audited code (see
:mod:`repro.devlint.model`), so the binding between a fields tuple and
the class it must cover lives next to the tuple itself and new bindings
need no analyzer change.
"""

from __future__ import annotations

import ast
import re
from typing import List, Set, Tuple

from repro.lint.diagnostics import Severity
from repro.lint.registry import rule

from repro.devlint.model import PyModule, Project

_FIELDS_MARKER_RE = re.compile(r"^fingerprint-fields\s+(?P<cls>[\w.]+)$")
_IGNORE_FIELDS_RE = re.compile(
    r"^fingerprint-ignore\s+(?P<fields>[\w,\s]+)$")

#: The module every full-tree run must find markers in — the guard that
#: keeps the rule from silently going dark if markers are deleted.
KEYS_MODULE_SUFFIX = "repro/cache/keys.py"


def _tuple_bindings(
        module: PyModule) -> List[Tuple[ast.Assign, str, List[str]]]:
    """``(assignment, class_name, tuple_field_names)`` for every
    module-level tuple carrying a ``fingerprint-fields`` marker."""
    bindings: List[Tuple[ast.Assign, str, List[str]]] = []
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        marker = _FIELDS_MARKER_RE.match(module.marker_at_or_above(
            stmt.lineno))
        if not marker:
            continue
        value = stmt.value
        names: List[str] = []
        if isinstance(value, (ast.Tuple, ast.List)):
            names = [elt.value for elt in value.elts
                     if isinstance(elt, ast.Constant)
                     and isinstance(elt.value, str)]
        bindings.append((stmt, marker.group("cls").rsplit(".", 1)[-1],
                         names))
    return bindings


def _branch_functions(module: PyModule) -> List[ast.FunctionDef]:
    """Functions carrying the ``fingerprint-branches`` marker."""
    found: List[ast.FunctionDef] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.FunctionDef) and (
                module.marker_at_or_above(node.lineno) ==
                "fingerprint-branches"):
            found.append(node)
    return found


def _type_is_branches(func: ast.FunctionDef) -> List[Tuple[str, ast.If]]:
    """``(class_name, if_node)`` for each ``if type(x) is Cls:`` test."""
    branches: List[Tuple[str, ast.If]] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], (ast.Is, ast.Eq))
                and isinstance(test.left, ast.Call)
                and isinstance(test.left.func, ast.Name)
                and test.left.func.id == "type"):
            continue
        comparator = test.comparators[0]
        cls = comparator.id if isinstance(comparator, ast.Name) else (
            comparator.attr if isinstance(comparator, ast.Attribute) else "")
        if cls:
            branches.append((cls, node))
    return branches


def _branch_ignored_fields(module: PyModule, branch: ast.If) -> Set[str]:
    """Fields exempted via ``# devlint: fingerprint-ignore a,b`` anywhere
    in the branch body's line range."""
    ignored: Set[str] = set()
    end = branch.body[-1].end_lineno or branch.body[-1].lineno
    for lineno in range(branch.lineno, end + 1):
        match = _IGNORE_FIELDS_RE.match(module.marker(lineno))
        if match:
            ignored.update(f.strip() for f in
                           match.group("fields").split(",") if f.strip())
    return ignored


def _referenced_attrs(branch: ast.If) -> Set[str]:
    """Attribute names read anywhere in the branch body (``x.width`` and
    string keys count as referencing ``width``)."""
    attrs: Set[str] = set()
    for stmt in branch.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str):
                attrs.add(node.value)
    return attrs


@rule("dev.fingerprint-missing-field", "dev", Severity.ERROR,
      "a device/parameter/waveform field is absent from its cache-key "
      "serializer in cache/keys.py")
def check_fingerprint_completeness(project: Project, emit) -> None:
    saw_markers = False
    for module in project:
        # -- fields-tuple bindings ----------------------------------------
        for stmt, class_name, tuple_fields in _tuple_bindings(module):
            saw_markers = True
            class_fields = project.class_fields(class_name)
            if class_fields is None:
                # WARN, not ERROR: legitimate when linting a subtree that
                # holds keys.py but not the device modules; a typo'd
                # class name still surfaces on every full run.
                emit(module.at(stmt.lineno),
                     f"fingerprint-fields marker names {class_name!r}, "
                     f"which is not defined in the linted tree",
                     hint="fix the marker or widen the devlint path",
                     severity=Severity.WARN)
                continue
            for missing in sorted(class_fields - set(tuple_fields)):
                emit(module.at(stmt.lineno),
                     f"{class_name}.{missing} is not in the fingerprint "
                     f"field tuple — circuits differing only in "
                     f"{missing!r} would share a cache key",
                     hint=f"add {missing!r} to the tuple (cache entries "
                          f"retire automatically)")
            for stale in sorted(set(tuple_fields) - class_fields):
                emit(module.at(stmt.lineno),
                     f"fingerprint tuple names {stale!r}, which is not a "
                     f"field of {class_name}",
                     hint="remove the stale entry or restore the field")

        # -- type-dispatch branch functions -------------------------------
        for func in _branch_functions(module):
            saw_markers = True
            for class_name, branch in _type_is_branches(func):
                class_fields = project.class_fields(class_name)
                if class_fields is None:
                    continue  # class outside the linted tree
                covered = _referenced_attrs(branch)
                ignored = _branch_ignored_fields(module, branch)
                for missing in sorted(class_fields - covered - ignored):
                    emit(module.at(branch.lineno),
                         f"{func.name}() branch for {class_name} never "
                         f"reads field {missing!r} — it cannot be part "
                         f"of the cache key",
                         hint=f"fingerprint {missing!r} or exempt it "
                              f"with '# devlint: fingerprint-ignore "
                              f"{missing}'")

    keys_module = project.module_matching(KEYS_MODULE_SUFFIX)
    if keys_module is not None and not saw_markers:
        emit(keys_module.at(1),
             "cache/keys.py carries no fingerprint-fields / "
             "fingerprint-branches markers — the completeness rule has "
             "nothing to check",
             hint="restore the '# devlint: fingerprint-*' markers on the "
                  "field tuples and dispatch functions")


@rule("dev.config-constant-unfingerprinted", "dev", Severity.ERROR,
      "a public engine constant is missing from the module's "
      "*config_fingerprint record — cached entries would survive a "
      "constant change")
def check_config_constants(project: Project, emit) -> None:
    for module in project:
        fingerprint_fns = [
            node for node in module.tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.endswith("config_fingerprint")]
        if not fingerprint_fns:
            continue
        referenced: Set[str] = set()
        for func in fingerprint_fns:
            for node in ast.walk(func):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if not re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
                continue
            if module.marker(stmt.lineno) == "not-keyed":
                continue
            if name in referenced:
                continue
            emit(module.at(stmt.lineno),
                 f"constant {name} is not referenced by any "
                 f"*config_fingerprint() in this module — changing it "
                 f"would not retire cached results",
                 hint=f"add {name} to the fingerprint record, or mark "
                      f"the assignment '# devlint: not-keyed' with a "
                      f"reason if it cannot affect numerics")


def fingerprint_bindings(
        project: Project) -> List[Tuple[str, str, List[str]]]:
    """Public inspection helper: ``(module_rel, class_name, fields)`` for
    every fields-tuple binding in the project (used by tests and docs)."""
    out: List[Tuple[str, str, List[str]]] = []
    for module in project:
        for _stmt, class_name, tuple_fields in _tuple_bindings(module):
            out.append((module.rel, class_name, tuple_fields))
    return out
