"""Source model for the devlint analyzer: parsed modules + marker comments.

Devlint rules operate on a :class:`Project` — a set of Python source
files parsed to ASTs, with the raw source lines kept alongside so rules
can read the structured **marker comments** that bind analyzer knowledge
to the code it describes:

* ``# devlint: fingerprint-fields <ClassName>`` — trailing on a
  module-level ``_X_FIELDS = (...)`` tuple: declares that the tuple must
  enumerate every public field of ``ClassName`` (cache-key completeness).
* ``# devlint: fingerprint-branches`` — on a ``def`` line (or the line
  above it): the function dispatches on ``type(x) is SomeClass`` and each
  branch must reference every public constructor field of its class.
* ``# devlint: fingerprint-ignore field1,field2`` — inside such a
  branch: exempt the named fields (e.g. values that are genuinely
  derived from already-fingerprinted ones).
* ``# devlint: not-keyed`` — trailing on a module-level ALL-CAPS
  constant in a module that exposes a ``*config_fingerprint`` function:
  declares the constant cannot change numerical results, so it is
  deliberately absent from the engine fingerprint.
* ``# devlint: keyed-path`` — anywhere in a module: treat the module as
  part of the cache-keyed/solver path even though its path is not in the
  built-in keyed-prefix list.

Marker parsing is purely lexical: the analyzer never imports the code it
lints, so the deliberately broken fixtures of ``tests/devlint_corpus``
are read, never run.  A false positive is handled through the binding
markers or by fixing the rule; there is no per-line suppression marker.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import AnalysisError

_MARKER_RE = re.compile(r"#\s*devlint:\s*(?P<body>.+?)\s*$")


@dataclass
class PyModule:
    """One parsed source file."""

    path: str  #: absolute path
    rel: str   #: path relative to the project root, ``/``-separated
    source: str
    lines: List[str]
    tree: ast.Module

    def at(self, lineno: int) -> str:
        """The diagnostic location of 1-based ``lineno``: ``rel:L<n>``."""
        return f"{self.rel}:L{lineno}"

    # -- marker access -----------------------------------------------------

    def marker(self, lineno: int) -> str:
        """The ``# devlint: ...`` marker body on 1-based ``lineno``
        (empty string when the line carries none)."""
        if not 1 <= lineno <= len(self.lines):
            return ""
        match = _MARKER_RE.search(self.lines[lineno - 1])
        return match.group("body") if match else ""

    def marker_at_or_above(self, lineno: int) -> str:
        """Marker on ``lineno`` itself, falling back to the line above —
        the two placements accepted for ``def``/assignment markers."""
        return self.marker(lineno) or self.marker(lineno - 1)

    def has_module_marker(self, body: str) -> bool:
        """True when any line of the module carries ``# devlint: <body>``."""
        for line in self.lines:
            match = _MARKER_RE.search(line)
            if match is not None and match.group("body") == body:
                return True
        return False

    # -- AST helpers -------------------------------------------------------

    def functions(self) -> Iterable[ast.FunctionDef]:
        """Every function/method definition in the module (nested too)."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node  # type: ignore[misc]

    def classes(self) -> Iterable[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node

    def import_aliases(self) -> Dict[str, str]:
        """Best-effort map of local name -> canonical dotted module/object.

        ``import numpy as np`` yields ``{"np": "numpy"}``; ``from numpy
        import random as nr`` yields ``{"nr": "numpy.random"}``.  Relative
        imports are resolved only to their written form (level dots
        dropped), which is enough for the repro-internal modules rules
        care about.
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")
        return aliases


def resolve_call_name(node: ast.AST,
                      aliases: Dict[str, str]) -> str:
    """Canonical dotted name of a call target, through the import map.

    ``np.random.normal`` with ``np -> numpy`` resolves to
    ``"numpy.random.normal"``; unresolvable shapes (calls on locals,
    subscripts, ...) return the raw dotted text, or ``""``.
    """
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
    else:
        return ""
    parts.reverse()
    head = aliases.get(parts[0], parts[0])
    return ".".join([head, *parts[1:]])


def dataclass_fields(classdef: ast.ClassDef,
                     include_private: bool = False) -> List[str]:
    """Init-participating field names of a (assumed) dataclass body.

    Annotated assignments in declaration order, skipping ``ClassVar``
    annotations, ``field(init=False)`` declarations and (by default)
    underscore-prefixed names.  Plain un-annotated class attributes
    (e.g. ``nonlinear = False``) are not dataclass fields and are
    excluded naturally.
    """
    names: List[str] = []
    for stmt in classdef.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name):
            continue
        name = stmt.target.id
        if not include_private and name.startswith("_"):
            continue
        annotation = ast.dump(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        if isinstance(stmt.value, ast.Call):
            call_name = stmt.value.func
            is_field = (isinstance(call_name, ast.Name)
                        and call_name.id == "field") or (
                            isinstance(call_name, ast.Attribute)
                            and call_name.attr == "field")
            if is_field and any(
                    kw.arg == "init"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in stmt.value.keywords):
                continue
        names.append(name)
    return names


def is_dataclass_def(classdef: ast.ClassDef) -> bool:
    """True when the class carries a ``@dataclass`` /
    ``@dataclasses.dataclass(...)`` decorator."""
    for deco in classdef.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.id if isinstance(target, ast.Name) else (
            target.attr if isinstance(target, ast.Attribute) else "")
        if name == "dataclass":
            return True
    return False


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Child -> parent links for ancestor queries."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


class Project:
    """A set of parsed modules under one root — the devlint subject."""

    def __init__(self, root: str, modules: Sequence[PyModule]):
        self.root = root
        self.modules: List[PyModule] = sorted(modules, key=lambda m: m.rel)
        self._by_rel = {m.rel: m for m in self.modules}

    def __iter__(self):
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def module_matching(self, suffix: str) -> Optional[PyModule]:
        """The module whose relative path ends with ``suffix``."""
        for module in self.modules:
            if module.rel.endswith(suffix):
                return module
        return None

    def find_classes(self, name: str) -> List[Tuple[PyModule, ast.ClassDef]]:
        """Every class definition named ``name`` across the project."""
        found: List[Tuple[PyModule, ast.ClassDef]] = []
        for module in self.modules:
            for classdef in module.classes():
                if classdef.name == name:
                    found.append((module, classdef))
        return found

    def class_fields(self, name: str,
                     include_bases: bool = True) -> Optional[Set[str]]:
        """Union of dataclass fields of ``name`` (and its in-project
        bases); ``None`` when the class is not defined in the project.

        Only ``@dataclass``-decorated bases contribute — annotated class
        attributes of a plain base (e.g. ``Device.nonlinear``) are not
        init fields of the subclass, matching dataclass semantics.
        """
        found = self.find_classes(name)
        if not found:
            return None
        fields: Set[str] = set()
        for _module, classdef in found:
            fields.update(dataclass_fields(classdef))
            if not include_bases:
                continue
            for base in classdef.bases:
                base_name = base.id if isinstance(base, ast.Name) else (
                    base.attr if isinstance(base, ast.Attribute) else "")
                if not base_name or base_name == name:
                    continue
                if not any(is_dataclass_def(base_def)
                           for _m, base_def in self.find_classes(base_name)):
                    continue
                inherited = self.class_fields(base_name)
                if inherited:
                    fields.update(inherited)
        return fields


def load_project(paths: Sequence[str],
                 root: Optional[str] = None) -> Project:
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`.

    ``paths`` may mix files and directories.  A file that does not parse
    raises :class:`~repro.errors.AnalysisError` naming it and the line.
    """
    root = os.path.abspath(root or os.getcwd())
    files: List[str] = []
    for path in paths:
        path = os.path.abspath(path)
        if os.path.isfile(path):
            files.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames
                           if d not in ("__pycache__", ".git")]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    files.append(os.path.join(dirpath, filename))

    modules: List[PyModule] = []
    seen: Set[str] = set()
    for path in files:
        if path in seen:
            continue
        seen.add(path)
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise AnalysisError(
                f"{rel}: line {exc.lineno}: {exc.msg}") from exc
        modules.append(PyModule(path=path, rel=rel, source=source,
                                lines=source.splitlines(), tree=tree))
    return Project(root, modules)
