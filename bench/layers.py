"""Per-layer self time, measured from outside the program.

A traced benchmark child wraps the public functions and methods of each
layer (named after the repo module that owns it) and times every call.
A call's *self time* is its duration minus the time spent in wrapped
calls it made, so the self times of all layers plus the time of the flow
call spent in no layer (``unattributed.s``) add up to the traced wall
time.

Function targets are rebound in every loaded ``repro.*`` module that
holds the original object, so ``from x import f`` call sites are covered
too.  Method targets are replaced on their class.  A target that no
longer exists (a later refactor renamed or removed it) makes its layer
metric read ``None`` and is reported by name; the run goes on.

The program's own counters come from :func:`repro.obs.metrics` after a
run under :func:`repro.obs.enable_tracing` (the engines only flush their
counters while a tracing session is active).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Layer:
    """One per-layer time metric: ``<stem>.<suffix>`` seconds of self
    time summed over ``targets`` (``"module:attr"`` or
    ``"module:Class.method"``), plus ``<stem>.calls`` when ``calls``."""

    stem: str
    targets: Tuple[str, ...]
    suffix: str = "s"
    calls: bool = False
    #: Rebind only in the named module (LAPACK/SuperLU handles that are
    #: bound under private names in one solver module).
    local: bool = False

    @property
    def time_metric(self) -> str:
        return f"{self.stem}.{self.suffix}"


_ENGINE = "repro.spice.analysis.engine"
_SPARSE = "repro.spice.analysis.sparse"
_ENSEMBLE = "repro.spice.analysis.ensemble"

LAYERS: Tuple[Layer, ...] = (
    Layer("cells", ("repro.cells.characterize:characterize_standard",
                    "repro.cells.characterize:characterize_proposed",
                    "repro.cells.characterize:leakage_power",
                    "repro.cells.nvlatch_1bit:build_standard_latch",
                    "repro.cells.nvlatch_2bit:build_proposed_latch",
                    "repro.cells.miniarray:build_mini_array"),
          suffix="self_s"),
    Layer("lint.preflight", ("repro.lint:preflight",), calls=True),
    Layer("analysis.run_transient",
          ("repro.spice.analysis.transient:run_transient",),
          suffix="self_s", calls=True),
    Layer("analysis.solve_dc", ("repro.spice.analysis.dc:solve_dc",),
          calls=True),
    Layer("engine.workspace_build",
          ("repro.recovery.ladder:TransientStepper.__init__",)),
    Layer("engine.begin_step", (f"{_ENGINE}:MNAWorkspace.begin_step",)),
    Layer("engine.assemble", (f"{_ENGINE}:MNAWorkspace.assemble",),
          calls=True),
    Layer("engine.newton", (f"{_ENGINE}:FastNewtonSolver.solve",
                            f"{_SPARSE}:SparseNewtonSolver.solve"),
          suffix="self_s"),
    Layer("engine.update_state", (f"{_ENGINE}:MNAWorkspace.update_state",)),
    Layer("engine.lu_factor", (f"{_ENGINE}:_getrf", f"{_SPARSE}:splu"),
          calls=True, local=True),
    Layer("engine.lu_solve", (f"{_ENGINE}:_getrs",), local=True),
    Layer("ensemble.workspace_build",
          (f"{_ENSEMBLE}:EnsembleWorkspace.__init__",)),
    Layer("ensemble.begin_step", (f"{_ENSEMBLE}:EnsembleWorkspace.begin_step",)),
    Layer("ensemble.assemble", (f"{_ENSEMBLE}:EnsembleWorkspace.assemble",)),
    Layer("ensemble.newton", (f"{_ENSEMBLE}:EnsembleNewtonSolver.solve",),
          suffix="self_s"),
    Layer("ensemble.update_state",
          (f"{_ENSEMBLE}:EnsembleWorkspace.update_state",)),
    Layer("physd.generate_benchmark",
          ("repro.physd.benchmarks:generate_benchmark",)),
    Layer("physd.build_floorplan", ("repro.physd.floorplan:build_floorplan",)),
    Layer("physd.global_place",
          ("repro.physd.placement.global_place:global_place",)),
    Layer("physd.legalize", ("repro.physd.placement.legalize:legalize",)),
    Layer("core.find_mergeable_pairs",
          ("repro.core.merge:find_mergeable_pairs",)),
    Layer("core.plan_replacement", ("repro.core.replace:plan_replacement",)),
    Layer("core.evaluate_system", ("repro.core.evaluate:evaluate_system",)),
)

#: Time metric of the flow call's own self time (no layer claimed it).
UNATTRIBUTED = "unattributed.s"
_ROOT = "<flow>"
#: The sparse ``splu`` factor object's ``solve`` is C code that cannot be
#: rebound, so the ``splu`` wrapper hands out a proxy whose ``solve`` is
#: timed under this metric.
_SPLU_SOLVE_METRIC = "engine.lu_solve.s"


class SelfTimer:
    """Stack-based self-time accounting for wrapped calls."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[List[float]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        self_s.setdefault(name, 0.0)
        calls.setdefault(name, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def run(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as the root frame; its self time is the flow's
        unattributed time."""
        return self.wrap(_ROOT, fn)(*args, **kwargs)

    def total(self) -> float:
        return sum(self.self_s.values())


class _TimedLU:
    """SuperLU factor proxy with a timed ``solve``."""

    def __init__(self, lu, solve: Callable):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name: str):
        return getattr(self._lu, name)


def _resolve(target: str):
    """``(owner, attr, original)`` for a target, or raise LookupError."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{module_name}: {exc}") from exc
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target}: no attribute {part!r}")
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise LookupError(f"{target}: no method {attr!r}")
        return owner, attr, owner.__dict__[attr]
    if not hasattr(owner, attr):
        raise LookupError(f"{target}: no attribute {attr!r}")
    return owner, attr, getattr(owner, attr)


def _rebind_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(timer: SelfTimer, layers: Sequence[Layer] = LAYERS) -> List[str]:
    """Wrap every layer target; returns the targets that did not
    resolve (their layers then read ``None``)."""
    # Every target module is imported before anything is rebound, so the
    # module scan sees every early copy and a later ``from x import f``
    # already reads the wrapper.
    resolved = []
    missing: List[str] = []
    for layer in layers:
        for target in layer.targets:
            try:
                resolved.append((layer, target) + _resolve(target))
            except LookupError as exc:
                missing.append(target)
                print(f"bench: wrap target {target} not found ({exc}); "
                      f"{layer.time_metric} reads null", file=sys.stderr)
    for layer, target, owner, attr, original in resolved:
        name = layer.time_metric
        if target == f"{_SPARSE}:splu":
            def factor(*args, _splu=original, **kwargs):
                lu = _splu(*args, **kwargs)
                return _TimedLU(lu, timer.wrap(_SPLU_SOLVE_METRIC, lu.solve))

            wrapper = timer.wrap(name, factor)
        else:
            wrapper = timer.wrap(name, original)
        if isinstance(owner, type) or layer.local:
            setattr(owner, attr, wrapper)
        else:
            _rebind_everywhere(original, wrapper)
    return missing


def layer_metrics(timer: SelfTimer, missing: Sequence[str],
                  layers: Sequence[Layer] = LAYERS) -> Dict[str, Optional[float]]:
    """Per-layer time and call metrics from one traced run."""
    out: Dict[str, Optional[float]] = {}
    for layer in layers:
        broken = any(t in missing for t in layer.targets)
        name = layer.time_metric
        out[name] = None if broken else timer.self_s.get(name, 0.0)
        if layer.calls:
            out[f"{layer.stem}.calls"] = (
                None if broken else timer.calls.get(name, 0))
    out[UNATTRIBUTED] = timer.self_s.get(_ROOT, 0.0)
    return out


def counter_metrics() -> Dict[str, float]:
    """Exact program counters from :func:`repro.obs.metrics`."""
    from repro.obs import metrics

    counters = metrics().snapshot()["counters"]

    def get(name: str) -> float:
        return counters.get(name, 0)

    timesteps = get("engine.timesteps")
    iterations = get("engine.newton_iterations")
    factorizations = get("engine.jacobian_factorizations")
    reuses = get("engine.jacobian_reuses")
    return {
        "engine.timesteps": timesteps,
        "engine.newton_iterations": iterations,
        "engine.jacobian_factorizations": factorizations,
        "engine.jacobian_reuses": reuses,
        "engine.iters_per_step": iterations / timesteps if timesteps else 0.0,
        "engine.reuse_ratio": (reuses / (reuses + factorizations)
                               if reuses + factorizations else 0.0),
        "analysis.ensemble_fallbacks": get("analysis.ensemble_fallbacks"),
        "recovery.rungs": sum(v for k, v in counters.items()
                              if k.startswith("recovery.rung.")),
        "cache.lookups": get("cache.hit") + get("cache.miss"),
    }


#: Program-counter metric names and units, in report order.
COUNTERS = {"engine.timesteps": "count", "engine.newton_iterations": "count",
            "engine.jacobian_factorizations": "count",
            "engine.jacobian_reuses": "count",
            "engine.iters_per_step": "iters/step", "engine.reuse_ratio": "ratio",
            "analysis.ensemble_fallbacks": "count", "recovery.rungs": "count",
            "cache.lookups": "count"}


def layer_units(layers: Sequence[Layer] = LAYERS) -> Dict[str, str]:
    """Every per-layer time and call metric with its unit, report order."""
    units: Dict[str, str] = {}
    for layer in layers:
        units[layer.time_metric] = "s"
        if layer.calls:
            units[f"{layer.stem}.calls"] = "count"
    units[UNATTRIBUTED] = "s"
    return units
