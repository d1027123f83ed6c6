"""Serialization schema hygiene and cross-process safety rules.

* Every :class:`~repro.serialize.Serializable` subclass must implement
  the full protocol (``SCHEMA_VERSION``, ``payload``, ``from_payload``).
* A Serializable whose **payload field set changed** must bump its
  ``SCHEMA_VERSION``.  "Changed since when?" is answered by a committed
  manifest (``schema_manifest.json`` next to this module) recording each
  schema's version and payload keys; the rule statically re-derives both
  from the AST and flags any drift.  ``repro devlint
  --update-schema-manifest`` rewrites the manifest after a legitimate
  change (bump first, then refresh).
* Work shipped through :mod:`repro.parallel` / the campaign runner must
  be picklable; lambdas and function-local ``def``\\ s passed as the task
  callable fail only at runtime, inside a worker, with a cryptic
  ``PicklingError`` — the rule names them at the call site instead.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, List, Optional, Set

from repro.lint.diagnostics import Severity
from repro.lint.registry import rule

from repro.devlint.model import Project, PyModule

MANIFEST_NAME = "schema_manifest.json"

#: Worker-pool entry points and, in positional order, the parameters of
#: each that are shipped to worker processes and therefore must be
#: picklable, whether passed by position or by keyword.
_SHIPPED_PARAMETERS = {
    "parallel_map": ("fn",),
    "run_campaign": ("fn",),
    "ObsTask": ("fn",),
    "monte_carlo_ensemble": ("build", "extract"),
}


def _manifest_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        MANIFEST_NAME)


def load_manifest() -> Dict[str, Dict[str, object]]:
    """The committed schema manifest; empty when missing (first run)."""
    try:
        with open(_manifest_path(), "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _serializable_classes(
        module: PyModule) -> List[ast.ClassDef]:
    found: List[ast.ClassDef] = []
    for classdef in module.classes():
        for base in classdef.bases:
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else "")
            if base_name == "Serializable":
                found.append(classdef)
                break
    return found


def _class_constant(classdef: ast.ClassDef,
                    name: str) -> Optional[object]:
    """Value of a simple ``NAME = <constant>`` class attribute."""
    for stmt in classdef.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(value, ast.Constant):
                    return value.value
                return None
    return None


def _method(classdef: ast.ClassDef,
            name: str) -> Optional[ast.FunctionDef]:
    for stmt in classdef.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def payload_keys(classdef: ast.ClassDef) -> Optional[List[str]]:
    """Sorted string keys of the dict literals returned by ``payload()``.

    ``None`` when there is no ``payload`` method or its returns carry no
    dict literal (dynamic payloads cannot be manifest-checked).
    """
    method = _method(classdef, "payload")
    if method is None:
        return None
    keys: Set[str] = set()
    saw_literal = False
    for node in ast.walk(method):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        for sub in ast.walk(node.value):
            if isinstance(sub, ast.Dict):
                saw_literal = True
                for key in sub.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                            key.value, str):
                        keys.add(key.value)
    return sorted(keys) if saw_literal else None


@rule("dev.serializable-incomplete", "dev", Severity.ERROR,
      "a Serializable subclass is missing part of the protocol "
      "(SCHEMA_VERSION, payload, from_payload)")
def check_serializable_protocol(project: Project, emit) -> None:
    for module in project:
        for classdef in _serializable_classes(module):
            missing = []
            if _class_constant(classdef, "SCHEMA_VERSION") is None:
                missing.append("SCHEMA_VERSION")
            if _method(classdef, "payload") is None:
                missing.append("payload()")
            if _method(classdef, "from_payload") is None:
                missing.append("from_payload()")
            if missing:
                emit(module.at(classdef.lineno),
                     f"{classdef.name} subclasses Serializable but lacks "
                     f"{', '.join(missing)}",
                     hint="implement the full protocol so round-trips "
                          "are versioned (see repro/serialize.py)")


@rule("dev.schema-version-unbumped", "dev", Severity.ERROR,
      "a Serializable payload's field set drifted from the committed "
      "schema manifest without a SCHEMA_VERSION bump")
def check_schema_manifest(project: Project, emit) -> None:
    manifest = load_manifest()
    for module in project:
        for classdef in _serializable_classes(module):
            version = _class_constant(classdef, "SCHEMA_VERSION")
            name = _class_constant(classdef, "SCHEMA_NAME") or classdef.name
            fields = payload_keys(classdef)
            if fields is None or not isinstance(version, int):
                continue  # protocol-completeness rule covers these
            entry = manifest.get(str(name))
            if entry is None:
                emit(module.at(classdef.lineno),
                     f"schema {name!r} is not registered in "
                     f"{MANIFEST_NAME}",
                     hint="run 'repro devlint --update-schema-manifest' "
                          "and commit the result")
                continue
            recorded_version = entry.get("version")
            recorded_fields = sorted(entry.get("fields", []))  # type: ignore[arg-type]
            if fields != recorded_fields and version == recorded_version:
                added = sorted(set(fields) - set(recorded_fields))
                removed = sorted(set(recorded_fields) - set(fields))
                delta = "; ".join(filter(None, [
                    f"added {added}" if added else "",
                    f"removed {removed}" if removed else ""]))
                emit(module.at(classdef.lineno),
                     f"payload fields of {name!r} changed ({delta}) but "
                     f"SCHEMA_VERSION is still {version}",
                     hint="bump SCHEMA_VERSION, then run 'repro devlint "
                          "--update-schema-manifest'")
            elif fields != recorded_fields or version != recorded_version:
                emit(module.at(classdef.lineno),
                     f"{MANIFEST_NAME} is stale for {name!r} "
                     f"(recorded v{recorded_version}, code is v{version})",
                     hint="run 'repro devlint --update-schema-manifest' "
                          "and commit the result")


def compute_manifest(project: Project) -> Dict[str, Dict[str, object]]:
    """Recompute the manifest record for every Serializable in
    ``project`` (the ``--update-schema-manifest`` implementation)."""
    manifest: Dict[str, Dict[str, object]] = {}
    for module in project:
        for classdef in _serializable_classes(module):
            version = _class_constant(classdef, "SCHEMA_VERSION")
            name = _class_constant(classdef, "SCHEMA_NAME") or classdef.name
            fields = payload_keys(classdef)
            if fields is None or not isinstance(version, int):
                continue
            manifest[str(name)] = {
                "version": version,
                "fields": fields,
                "module": module.rel,
            }
    return manifest


def write_manifest(manifest: Dict[str, Dict[str, object]],
                   path: Optional[str] = None) -> str:
    path = path or _manifest_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _local_defs(func: ast.FunctionDef) -> Set[str]:
    """Names bound by ``def``/``lambda =`` directly inside ``func``."""
    names: Set[str] = set()
    for stmt in ast.walk(func):
        if stmt is func:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Lambda):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


@rule("dev.unpicklable-task", "dev", Severity.ERROR,
      "a lambda or function-local def is passed to a worker-pool entry "
      "point; it cannot be pickled into worker processes")
def check_unpicklable_task(project: Project, emit) -> None:
    for module in project:
        for func in module.functions():
            local_names = _local_defs(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                callee_name = callee.id if isinstance(
                    callee, ast.Name) else (
                        callee.attr if isinstance(callee, ast.Attribute)
                        else "")
                shipped = _SHIPPED_PARAMETERS.get(callee_name)
                if shipped is None:
                    continue
                for task in node.args[:len(shipped)] + [
                        kw.value for kw in node.keywords if kw.arg in shipped]:
                    if isinstance(task, ast.Lambda):
                        emit(module.at(task.lineno),
                             f"lambda passed to {callee_name}() cannot be "
                             f"pickled into worker processes",
                             hint="hoist it to a module-level function "
                                  "(bind config with functools.partial)")
                    elif isinstance(task, ast.Name) and task.id in local_names:
                        emit(module.at(task.lineno),
                             f"{task.id!r} is defined inside "
                             f"{func.name}() but passed to {callee_name}(); "
                             f"local functions cannot be pickled into "
                             f"worker processes",
                             hint="hoist it to module level (bind config "
                                  "with functools.partial)")
