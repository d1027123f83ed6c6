"""System-level area/read-energy accounting (paper Table III).

For a design with ``N`` flip-flops of which ``M`` pairs merge:

* baseline (all 1-bit NV back-up):  area = N·A₁,  energy = N·E₁
* proposed:  area = M·A₂ + (N − 2M)·A₁,  energy = M·E₂ + (N − 2M)·E₁

where A₁/E₁ are the per-bit area and read energy of the standard NV
component (half the "two standard 1-bit latch" composite) and A₂/E₂ the
2-bit cell's.  This is exactly the accounting behind the paper's
Table III — its printed rows are linear in the Table II cell constants,
which :mod:`tests.test_evaluate` verifies against the paper's own
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, List, Optional, Sequence, Union

from repro.core.merge import MergeResult
from repro.errors import MergeError
from repro.obs import span as _obs_span
from repro.parallel import parallel_map
from repro.serialize import Serializable
from repro.layout.cell_layout import plan_proposed_2bit, standard_pair_area
from repro.layout.design_rules import DesignRules, RULES_40NM
from repro.units import MICRO, to_femtojoules, to_square_microns


@dataclass(frozen=True)
class NVCellCosts:
    """Cell-level constants feeding the system accounting (SI units)."""

    #: Area per bit of the standard 1-bit NV component [m²].
    area_1bit: float
    #: Read energy per bit of the standard component [J].
    energy_1bit: float
    #: Area of the proposed 2-bit component [m²].
    area_2bit: float
    #: Read energy of the proposed component (both bits) [J].
    energy_2bit: float

    def __post_init__(self) -> None:
        for name in ("area_1bit", "energy_1bit", "area_2bit", "energy_2bit"):
            if getattr(self, name) <= 0:
                raise MergeError(f"cost {name!r} must be positive")


#: The paper's own cell constants (Table II typical column): A₁ = 5.635/2 µm²,
#: E₁ = 5.650/2 fJ, A₂ = 3.696 µm², E₂ = 4.587 fJ.  Used by the validation
#: tests that re-derive the paper's Table III rows.
PAPER_COSTS = NVCellCosts(
    area_1bit=5.635 / 2 * MICRO * MICRO,
    energy_1bit=5.650 / 2 * 1e-15,
    area_2bit=3.696 * MICRO * MICRO,
    energy_2bit=4.587e-15,
)


def costs_from_layout(
    energy_1bit: float,
    energy_2bit: float,
    rules: DesignRules = RULES_40NM,
) -> NVCellCosts:
    """Combine our layout-engine areas with measured read energies."""
    with _obs_span("evaluate.costs_from_layout", category="evaluate"):
        return NVCellCosts(
            area_1bit=standard_pair_area(rules) / 2.0,
            energy_1bit=energy_1bit,
            area_2bit=plan_proposed_2bit(rules).area,
            energy_2bit=energy_2bit,
        )


@dataclass
class SystemResult(Serializable):
    """One Table III row.

    Serialisation follows the shared :class:`~repro.serialize.Serializable`
    protocol — ``to_json()`` carries a versioned ``"schema"`` field and
    ``from_json()`` tolerates its absence (campaign checkpoints written
    before the protocol existed).  Floats round-trip exactly through
    JSON's repr-based serialisation.
    """

    SCHEMA_NAME = "SystemResult"
    SCHEMA_VERSION = 1

    benchmark: str
    total_flip_flops: int
    merged_pairs: int
    area_baseline: float
    energy_baseline: float
    area_proposed: float
    energy_proposed: float

    @property
    def area_improvement(self) -> float:
        """Fractional area reduction (paper's 'Improvement Area %')."""
        return 1.0 - self.area_proposed / self.area_baseline

    @property
    def energy_improvement(self) -> float:
        return 1.0 - self.energy_proposed / self.energy_baseline

    def payload(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "total_flip_flops": self.total_flip_flops,
            "merged_pairs": self.merged_pairs,
            "area_baseline": self.area_baseline,
            "energy_baseline": self.energy_baseline,
            "area_proposed": self.area_proposed,
            "energy_proposed": self.energy_proposed,
        }

    @classmethod
    def from_payload(cls, data: dict) -> "SystemResult":
        try:
            return cls(
                benchmark=str(data["benchmark"]),
                total_flip_flops=int(data["total_flip_flops"]),
                merged_pairs=int(data["merged_pairs"]),
                area_baseline=float(data["area_baseline"]),
                energy_baseline=float(data["energy_baseline"]),
                area_proposed=float(data["area_proposed"]),
                energy_proposed=float(data["energy_proposed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MergeError(f"malformed SystemResult record {data!r}: "
                             f"{exc}") from exc

    def as_row(self) -> str:
        """Tab-separated row in the paper's Table III units (µm², fJ, %)."""
        return "\t".join([
            self.benchmark,
            str(self.total_flip_flops),
            str(self.merged_pairs),
            f"{to_square_microns(self.area_baseline):.3f}",
            f"{to_femtojoules(self.energy_baseline):.3f}",
            f"{to_square_microns(self.area_proposed):.3f}",
            f"{to_femtojoules(self.energy_proposed):.3f}",
            f"{100 * self.area_improvement:.2f}%",
            f"{100 * self.energy_improvement:.2f}%",
        ])


def evaluate_system(
    benchmark: str,
    total_flip_flops: int,
    merged: Union[MergeResult, int],
    costs: NVCellCosts,
) -> SystemResult:
    """Compute a Table III row from the flip-flop count, the pairing
    outcome, and the cell-level costs."""
    pairs = merged if isinstance(merged, int) else len(merged.pairs)
    if total_flip_flops < 0 or pairs < 0:
        raise MergeError("counts must be non-negative")
    if 2 * pairs > total_flip_flops:
        raise MergeError(
            f"{pairs} pairs cannot fit in {total_flip_flops} flip-flops"
        )
    with _obs_span("evaluate.system", category="evaluate",
                   attrs={"benchmark": benchmark,
                          "flip_flops": total_flip_flops,
                          "merged_pairs": pairs}):
        singles = total_flip_flops - 2 * pairs
        return SystemResult(
            benchmark=benchmark,
            total_flip_flops=total_flip_flops,
            merged_pairs=pairs,
            area_baseline=total_flip_flops * costs.area_1bit,
            energy_baseline=total_flip_flops * costs.energy_1bit,
            area_proposed=pairs * costs.area_2bit
            + singles * costs.area_1bit,
            energy_proposed=pairs * costs.energy_2bit
            + singles * costs.energy_1bit,
        )


def _flow_result(benchmark: str, config: Any = None) -> SystemResult:
    """Worker: one full system flow → its Table III row.

    Module-level (hence picklable) and returning only the compact
    :class:`SystemResult`, not the placement-heavy flow artefacts, so the
    process-pool path ships kilobytes instead of megabytes.  The flow
    import is deferred: :mod:`repro.core.flow` imports this module.  The
    flow's collector pause holds until those artefacts are dropped here:
    otherwise the first collection after the flow would scan all of them
    once on the way out.
    """
    from repro.core.flow import gc_paused, run_system_flow

    with _obs_span("evaluate.flow", category="evaluate",
                   attrs={"benchmark": benchmark}), gc_paused():
        return run_system_flow(benchmark, config).result


def evaluate_benchmarks(
    benchmarks: Optional[Sequence[str]] = None,
    config: Any = None,
    workers: Optional[int] = None,
) -> List[SystemResult]:
    """Table III rows for the given benchmarks, benchmarks in parallel.

    ``benchmarks=None`` runs the paper's full benchmark list; results are
    returned in benchmark order and are identical for any ``workers``
    setting.  This is the engine behind :meth:`repro.api.Session.table3`.
    """
    if benchmarks is None:
        from repro.physd.benchmarks import BENCHMARKS

        benchmarks = list(BENCHMARKS)
    with _obs_span("evaluate.benchmarks", category="evaluate",
                   attrs={"count": len(benchmarks)}):
        return parallel_map(partial(_flow_result, config=config),
                            benchmarks, workers=workers)
