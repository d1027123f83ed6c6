"""Applying :class:`~repro.faults.models.FaultSpec` lists to the latch cells.

The central primitive is :func:`inject` (circuit-level specs onto a built
circuit) plus :func:`apply_kwarg_faults` (kwargs-level specs onto builder
keyword arguments); :func:`faulty_builder` composes both into a drop-in
replacement for a cell builder, which is how injected cells flow through
the *unmodified* characterisation code via the ``build=`` hooks of
:mod:`repro.cells.characterize` — the measurement path is identical for
nominal and faulty cells, so any metric difference is attributable to the
injection alone.

Injection happens strictly *after* the cell builder returns and strictly
*before* any analysis runs: the analysis's ERC pre-flight therefore sees
the faulty circuit (a stuck-open fault can legitimately trip it), and
the fast engine's workspace, which caches device references at run
time, always observes the mutation.

:class:`InjectionPlan` bundles a built circuit with the specs aimed at it
— the subject of the ``"faults"`` lint pack
(:mod:`repro.lint.fault_rules`), whose ``faults.unreachable-injection``
rule statically flags specs that cannot reach any device of the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FaultInjectionError
from repro.faults.models import FaultSpec, fault_model
from repro.spice.netlist import Circuit


@dataclass(frozen=True)
class InjectionPlan:
    """A built circuit plus the fault specs aimed at it.

    The subject type of the ``"faults"`` lint kind: :meth:`lint` runs
    the fault rule pack over it.
    """

    circuit: Circuit
    specs: Tuple[FaultSpec, ...]
    name: str = ""

    def lint(self):
        """Run the ``"faults"`` rule pack over this plan."""
        from repro.lint import run_rules

        return run_rules("faults", self, self.name or self.circuit.name)


def split_specs(
    specs: Sequence[FaultSpec],
) -> Tuple[List[FaultSpec], List[FaultSpec]]:
    """Partition specs into ``(kwargs_level, circuit_level)`` by the
    declared level of each spec's model (unknown models raise)."""
    kwargs_level: List[FaultSpec] = []
    circuit_level: List[FaultSpec] = []
    for spec in specs:
        model = fault_model(spec.model)
        (kwargs_level if model.level == "kwargs" else circuit_level).append(spec)
    return kwargs_level, circuit_level


def apply_kwarg_faults(
    kwargs: Dict[str, Any], specs: Sequence[FaultSpec]
) -> Dict[str, Any]:
    """Fold every kwargs-level spec over builder keyword arguments.

    Circuit-level specs in ``specs`` are ignored here (they are applied
    by :func:`inject` after the build); the split is what lets one flat
    spec list drive both stages.
    """
    kwargs_level, _ = split_specs(specs)
    out = dict(kwargs)
    for spec in kwargs_level:
        out = fault_model(spec.model).transform_kwargs(out, spec)
    return out


def inject(
    target: Any,
    specs: Sequence[FaultSpec],
    rng: Optional[np.random.Generator] = None,
) -> Any:
    """Apply every circuit-level spec to ``target``, in order, in place.

    ``target`` is a :class:`~repro.spice.netlist.Circuit` or a latch
    handle exposing ``.circuit`` (``StandardNVLatch``/``ProposedNVLatch``)
    and is returned for chaining.  ``rng`` feeds probabilistic faults
    (stuck-at with magnitude < 1, read-disturb); deterministic specs work
    without one.

    Kwargs-level specs cannot be applied to an already-built circuit and
    raise :class:`~repro.errors.FaultInjectionError` — route them through
    :func:`apply_kwarg_faults` / :func:`faulty_builder` instead.
    """
    circuit = target.circuit if hasattr(target, "circuit") else target
    if not isinstance(circuit, Circuit):
        raise FaultInjectionError(
            f"cannot inject into {type(target).__name__!r}: expected a "
            f"Circuit or a latch handle with a .circuit attribute")
    kwargs_level, circuit_level = split_specs(specs)
    if kwargs_level:
        raise FaultInjectionError(
            f"spec(s) {[s.model for s in kwargs_level]} operate on builder "
            f"kwargs and cannot be injected into the built circuit "
            f"{circuit.name!r}; build the cell through faulty_builder() "
            f"instead")
    for spec in circuit_level:
        fault_model(spec.model).apply(circuit, spec, rng)
    return target


def faulty_builder(
    build: Callable[..., Any],
    specs: Sequence[FaultSpec],
    rng: Optional[np.random.Generator] = None,
) -> Callable[..., Any]:
    """Wrap a cell builder so every cell it returns carries ``specs``.

    The wrapper has the same call signature as ``build``: kwargs-level
    specs transform the keyword arguments before the build, circuit-level
    specs are injected into the returned cell's circuit afterwards.  The
    result drops into every ``build=`` hook of
    :mod:`repro.cells.characterize`.

    Note on positional arguments: kwargs-level models only see *keyword*
    arguments, so pass ``vdd=...`` (etc.) by name when combining with
    models like ``cell.vdd-droop`` — the characterisation helpers already
    do.
    """
    # Validate the model names eagerly: a typo should fail at plan time,
    # not on the first sample of a 10k-run campaign.
    kwargs_level, circuit_level = split_specs(specs)

    def build_with_faults(*args: Any, **kwargs: Any) -> Any:
        cell = build(*args, **apply_kwarg_faults(kwargs, kwargs_level))
        return inject(cell, circuit_level, rng)

    build_with_faults.__name__ = getattr(build, "__name__", "build") + "+faults"
    build_with_faults.fault_specs = tuple(specs)  # type: ignore[attr-defined]
    return build_with_faults


def build_faulty_standard(
    specs: Sequence[FaultSpec],
    rng: Optional[np.random.Generator] = None,
    **kwargs: Any,
):
    """Build the standard 1-bit latch with ``specs`` injected."""
    from repro.cells.nvlatch_1bit import build_standard_latch

    return faulty_builder(build_standard_latch, specs, rng)(**kwargs)


def build_faulty_proposed(
    specs: Sequence[FaultSpec],
    rng: Optional[np.random.Generator] = None,
    **kwargs: Any,
):
    """Build the proposed 2-bit latch with ``specs`` injected."""
    from repro.cells.nvlatch_2bit import build_proposed_latch

    return faulty_builder(build_proposed_latch, specs, rng)(**kwargs)
