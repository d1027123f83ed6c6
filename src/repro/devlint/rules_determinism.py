"""Determinism rules: unseeded randomness, wall-clock reads, unsorted
iteration feeding canonical digests.

The reproduction's core contract is bit-identical results across
engines, worker counts and warm cache replays; each rule here names a
way Python code silently breaks that contract before any golden test
can catch it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.diagnostics import Severity
from repro.lint.registry import rule

from repro.devlint.model import (
    PyModule,
    Project,
    parent_map,
    resolve_call_name,
)

#: ``numpy.random`` attributes that are fine to call: seeded-generator
#: constructors and the seeding machinery itself.
_NP_RANDOM_OK = {
    "default_rng", "Generator", "PCG64", "PCG64DXSM", "MT19937", "Philox",
    "SFC64", "SeedSequence", "BitGenerator", "RandomState",
}

#: stdlib ``random`` module functions that draw from the shared global
#: (hence unseeded, order-dependent) stream.
_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "sample", "shuffle", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed", "setstate", "binomialvariate",
}

#: Wall-clock reads that leak host time into results.  Monotonic and
#: perf-counter clocks are exempt: they only ever feed telemetry and
#: timeouts, never values.
_WALLCLOCK_CALLS = {
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
}

#: Module-path fragments that put a file on the cache-keyed/solver path:
#: anything here feeds cache keys, solver results, or golden metrics.
KEYED_PATH_FRAGMENTS = (
    "repro/cache/",
    "repro/serialize.py",
    "repro/spice/analysis/",
    "repro/spice/devices/",
    "repro/spice/waveforms.py",
    "repro/mtj/",
    "repro/cells/",
    "repro/recovery/",
)


def _is_keyed(module: PyModule) -> bool:
    if module.has_module_marker("keyed-path"):
        return True
    return any(fragment in module.rel for fragment in KEYED_PATH_FRAGMENTS)


@rule("dev.unseeded-rng", "dev", Severity.ERROR,
      "np.random.* / random.* convenience calls draw from an unseeded "
      "global stream; results change run to run")
def check_unseeded_rng(project: Project, emit) -> None:
    for module in project:
        aliases = module.import_aliases()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, aliases)
            if not name:
                continue
            _check_rng_call(module, node, name, emit)


def _check_rng_call(module: PyModule, node: ast.Call, name: str,
                    emit) -> None:
    parts = name.split(".")
    if name.startswith("numpy.random."):
        attr = parts[-1]
        if attr == "default_rng":
            if not node.args and not node.keywords:
                emit(module.at(node.lineno),
                     "np.random.default_rng() without a seed draws an "
                     "OS-entropy stream",
                     hint="pass an explicit seed or a spawned SeedSequence "
                          "(repro.parallel.spawn_rngs)")
            return
        if attr in _NP_RANDOM_OK:
            return
        emit(module.at(node.lineno),
             f"np.random.{attr} uses numpy's unseeded global stream",
             hint="draw from a seeded np.random.Generator instead")
        return
    if name == "random.Random" or name == "random.SystemRandom":
        if name == "random.SystemRandom" or (
                not node.args and not node.keywords):
            emit(module.at(node.lineno),
                 f"{name}() without a seed is irreproducible",
                 hint="pass an explicit seed: random.Random(seed)")
        return
    if parts[0] == "random" and len(parts) == 2 and (
            parts[1] in _STDLIB_RANDOM_FNS):
        emit(module.at(node.lineno),
             f"random.{parts[1]} draws from the shared global stream",
             hint="use a seeded random.Random(seed) instance or numpy "
                  "Generator")


@rule("dev.wallclock-dependence", "dev", Severity.ERROR,
      "wall-clock read (time.time / datetime.now / date.today) inside a "
      "cache-keyed or solver-path module")
def check_wallclock(project: Project, emit) -> None:
    for module in project:
        if not _is_keyed(module):
            continue
        aliases = module.import_aliases()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, aliases)
            if name in _WALLCLOCK_CALLS:
                emit(module.at(node.lineno),
                     f"{name}() reads the wall clock on the cache-keyed "
                     f"path; the value can leak into results or keys",
                     hint="use time.monotonic()/perf_counter() for "
                          "intervals, or take the timestamp at the edge "
                          "of the system and pass it in")


def _digest_callers(module: PyModule) -> List[ast.FunctionDef]:
    """Functions that call ``stable_digest``/``canonical_json`` plus
    ``payload`` methods of ``Serializable`` subclasses — the functions
    whose output reaches a canonical digest."""
    aliases = module.import_aliases()
    digest_fns: List[ast.FunctionDef] = []
    serializable_classes: Set[str] = set()
    for classdef in module.classes():
        for base in classdef.bases:
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else "")
            if base_name == "Serializable":
                serializable_classes.add(classdef.name)
    seen: Set[int] = set()

    def add(func: ast.FunctionDef) -> None:
        if id(func) not in seen:
            seen.add(id(func))
            digest_fns.append(func)

    for classdef in module.classes():
        if classdef.name not in serializable_classes:
            continue
        for stmt in classdef.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "payload":
                add(stmt)
    for func in module.functions():
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = resolve_call_name(node.func, aliases)
                if name.rsplit(".", 1)[-1] in ("stable_digest",
                                               "canonical_json"):
                    add(func)
                    break
    return digest_fns


def _inside_sorted(node: ast.AST,
                   parents: Dict[ast.AST, ast.AST],
                   stop: ast.AST) -> bool:
    """Is ``node`` (transitively) an argument of a ``sorted(...)`` call
    below ``stop``?"""
    cursor: Optional[ast.AST] = node
    while cursor is not None and cursor is not stop:
        if isinstance(cursor, ast.Call) and isinstance(
                cursor.func, ast.Name) and cursor.func.id == "sorted":
            return True
        cursor = parents.get(cursor)
    return False


@rule("dev.unsorted-digest-iteration", "dev", Severity.ERROR,
      "unsorted dict-view or set iteration in a function feeding "
      "stable_digest/canonical_json — element order leaks into digests")
def check_unsorted_digest_iteration(project: Project, emit) -> None:
    # canonical_json sorts *dict keys* itself, so dicts and dict
    # comprehensions are safe; the hazard is materialising .items() /
    # .keys() / .values() or a set into an order-carrying list/tuple.
    for module in project:
        for func in _digest_callers(module):
            parents = parent_map(func)
            for node in ast.walk(func):
                iter_expr = None
                if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                    iter_expr = node.generators[0].iter
                elif isinstance(node, ast.For):
                    iter_expr = node.iter
                if iter_expr is None:
                    continue
                bad = ""
                if isinstance(iter_expr, ast.Call) and isinstance(
                        iter_expr.func, ast.Attribute) and (
                        iter_expr.func.attr in ("items", "keys", "values")):
                    bad = f".{iter_expr.func.attr}()"
                elif isinstance(iter_expr, (ast.Set, ast.SetComp)):
                    bad = "a set"
                if not bad:
                    continue
                if _inside_sorted(iter_expr, parents, func):
                    continue
                emit(module.at(iter_expr.lineno),
                     f"iteration over {bad} inside "
                     f"{getattr(func, 'name', '?')}() feeds a canonical "
                     f"digest without a defined order",
                     hint="wrap the iterable in sorted(...)")
