"""Renderers for the paper's Tables I, II and III.

Each ``build_*`` function runs the underlying experiment; each
``render_*`` function formats results (with the paper's reference values
alongside) as a plain-text table for the benchmark logs and
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cells.characterize import (
    LatchMetrics,
    characterize_proposed,
    characterize_standard,
)
from repro.cells.sizing import DEFAULT_SIZING, LatchSizing
from repro.errors import AnalysisError
from repro.mtj.parameters import MTJParameters, PAPER_TABLE_I
from repro.spice.corners import CORNER_ORDER, SimulationCorner, _sweep_corners
from repro.units import (
    MICRO,
    to_femtojoules,
    to_kiloohms,
    to_microamps,
    to_square_microns,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.evaluate import SystemResult
    from repro.core.flow import FlowConfig


def render_text_table(headers: Sequence[str], rows: Iterable[Sequence[str]],
                      title: str = "") -> str:
    """Fixed-width text table."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table I — circuit-level setup
# ---------------------------------------------------------------------------


def table1_rows(params: MTJParameters = PAPER_TABLE_I,
                vdd: float = 1.1, temperature_c: float = 27.0) -> List[Tuple[str, str]]:
    """Parameter/value pairs of the paper's Table I, from our model."""
    return [
        ("VDD and Temperature", f"{vdd:g} V and {temperature_c:g} C"),
        ("MTJ radius", f"{params.radius / 1e-9:.0f} nm"),
        ("Free/Oxide layer thickness",
         f"{params.free_layer_thickness / 1e-9:.2f}/"
         f"{params.oxide_thickness / 1e-9:.2f} nm"),
        ("RA", f"{params.resistance_area_product / (MICRO * MICRO):.2f} Ohm um^2"),
        ("TMR @ 0V", f"{params.tmr_zero_bias * 100:.0f}%"),
        ("Critical current", f"{to_microamps(params.critical_current):.0f} uA"),
        ("Switching current", f"{to_microamps(params.switching_current):.0f} uA"),
        ("'AP'/'P' resistance",
         f"{to_kiloohms(params.resistance_ap):.1f} kOhm/"
         f"{to_kiloohms(params.resistance_p):.1f} kOhm"),
    ]


def render_table1(params: MTJParameters = PAPER_TABLE_I) -> str:
    return render_text_table(
        ("Parameter", "Value"), table1_rows(params),
        title="Table I — circuit-level setup",
    )


# ---------------------------------------------------------------------------
# Table II — latch comparison across corners
# ---------------------------------------------------------------------------

#: Paper Table II reference values for the rendered comparison:
#: metric → (two-standard (worst, typ, best), proposed (worst, typ, best)).
PAPER_TABLE_II = {
    "read_energy_fj": ((6.348, 5.650, 4.916), (4.799, 4.587, 4.327)),
    "read_delay_ps": ((310.0, 187.0, 127.0), (600.0, 360.0, 228.0)),
    "leakage_pw": ((4998.0, 1565.0, 424.0), (4960.0, 1528.0, 394.0)),
}
PAPER_TABLE_II_TRANSISTORS = (22, 16)
PAPER_TABLE_II_AREA = (5.635, 3.696)


@dataclass
class Table2Data:
    """Per-process-corner metrics for both designs, plus the derived
    per-metric worst/typical/best columns (see corners.py on why the
    paper's columns are per-metric extremes)."""

    standard: Dict[str, LatchMetrics] = field(default_factory=dict)
    proposed: Dict[str, LatchMetrics] = field(default_factory=dict)
    #: NV backend the characterisation ran against.
    backend: str = "mtj"

    def _column(self, design: str, metric: str, how: str) -> float:
        metrics = self.standard if design == "standard" else self.proposed
        scale = 2.0 if (design == "standard" and metric != "read_delay") else 1.0
        values = [getattr(metrics[c], metric) * scale for c in metrics]
        if how == "typical":
            return getattr(metrics["typical"], metric) * scale
        return max(values) if how == "worst" else min(values)

    def column_values(self, design: str, metric: str) -> Tuple[float, float, float]:
        """(worst, typical, best) of a metric; standard-design energies and
        leakage are doubled to compare equal bit counts, delays are not
        (the paper's two 1-bit latches restore in parallel)."""
        return tuple(self._column(design, metric, how)
                     for how in ("worst", "typical", "best"))

    def all_reads_ok(self) -> bool:
        return all(m.read_values_ok
                   for m in list(self.standard.values()) + list(self.proposed.values()))


def _characterize_both(
    corner: SimulationCorner,
    sizing: LatchSizing,
    dt: float,
    include_write: bool,
    backend: str = "mtj",
) -> Tuple[LatchMetrics, LatchMetrics]:
    """Worker: (standard, proposed) metrics at one corner (picklable —
    the backend travels by registry name)."""
    return (
        characterize_standard(corner, sizing, dt=dt,
                              include_write=include_write, backend=backend),
        characterize_proposed(corner, sizing, dt=dt,
                              include_write=include_write, backend=backend),
    )


def _build_table2(
    sizing: LatchSizing = DEFAULT_SIZING,
    corners: Sequence[str] = CORNER_ORDER,
    dt: float = 1e-12,
    include_write: bool = True,
    workers: Optional[int] = None,
    backend: Any = "mtj",
) -> Table2Data:
    """Characterise both designs at every process corner (runs the full
    transient simulations — the corners run in parallel through
    :func:`repro.spice.corners._sweep_corners`).  ``backend`` selects the
    NV storage technology (see :mod:`repro.nv`)."""
    from repro.nv.base import get_backend

    nv = get_backend(backend)
    both = _sweep_corners(
        partial(_characterize_both, sizing=sizing, dt=dt,
                include_write=include_write, backend=nv.name),
        corners=corners, workers=workers,
    )
    data = Table2Data(backend=nv.name)
    for corner_name, (standard, proposed) in both.items():
        data.standard[corner_name] = standard
        data.proposed[corner_name] = proposed
    return data


def render_table2(data: Table2Data) -> str:
    """Side-by-side rendering with the paper's values."""
    def fmt3(values: Tuple[float, float, float], scale: float, digits: int = 2) -> str:
        return "/".join(f"{v * scale:.{digits}f}" for v in values)

    rows = []
    specs = [
        ("Read energy [fJ]", "read_energy", 1e15, "read_energy_fj"),
        ("Read delay [ps]", "read_delay", 1e12, "read_delay_ps"),
        ("Leakage [pW]", "leakage", 1e12, "leakage_pw"),
    ]
    for label, metric, scale, paper_key in specs:
        std = data.column_values("standard", metric)
        prop = data.column_values("proposed", metric)
        paper_std, paper_prop = PAPER_TABLE_II[paper_key]
        rows.append((label,
                     fmt3(std, scale), "/".join(f"{v:g}" for v in paper_std),
                     fmt3(prop, scale), "/".join(f"{v:g}" for v in paper_prop)))
    std_count = 2 * data.standard["typical"].transistor_count
    prop_count = data.proposed["typical"].transistor_count
    rows.append(("# transistors", str(std_count),
                 str(PAPER_TABLE_II_TRANSISTORS[0]),
                 str(prop_count), str(PAPER_TABLE_II_TRANSISTORS[1])))

    from repro.layout.cell_layout import plan_proposed_2bit, standard_pair_area
    rows.append(("Area [um^2]",
                 f"{to_square_microns(standard_pair_area()):.3f}",
                 f"{PAPER_TABLE_II_AREA[0]:g}",
                 f"{to_square_microns(plan_proposed_2bit().area):.3f}",
                 f"{PAPER_TABLE_II_AREA[1]:g}"))
    return render_text_table(
        ("Metric (worst/typ/best)", "2x standard (ours)", "2x standard (paper)",
         "proposed (ours)", "proposed (paper)"),
        rows,
        title="Table II — two standard 1-bit latches vs proposed 2-bit latch",
    )


# ---------------------------------------------------------------------------
# Table III — system-level results
# ---------------------------------------------------------------------------


def _build_table3(
    benchmarks: Optional[Sequence[str]] = None,
    config: Optional[FlowConfig] = None,
    workers: Optional[int] = None,
    backend: Any = "mtj",
) -> List[Tuple[SystemResult, int]]:
    """Run the system flow per benchmark (benchmarks in parallel through
    :func:`repro.core.evaluate.evaluate_benchmarks`); returns (our result,
    paper pair count) tuples in benchmark order.

    With no explicit ``config``, the cell-level costs come from the
    selected backend's :meth:`~repro.nv.base.NVBackend.cell_costs`; a
    caller-supplied ``config`` wins outright (its ``costs`` already pin
    the technology).
    """
    from repro.core.evaluate import evaluate_benchmarks
    from repro.physd.benchmarks import BENCHMARKS

    if config is None:
        from repro.core.flow import FlowConfig
        from repro.nv.base import get_backend

        config = FlowConfig(costs=get_backend(backend).cell_costs())
    names = list(benchmarks) if benchmarks else list(BENCHMARKS)
    results = evaluate_benchmarks(names, config=config, workers=workers)
    return [(result, BENCHMARKS[name].paper_merged_pairs)
            for name, result in zip(names, results)]


def render_table3(results: Sequence[Tuple[SystemResult, int]]) -> str:
    from repro.physd.benchmarks import BENCHMARKS

    rows = []
    total_area_impr = 0.0
    total_energy_impr = 0.0
    for result, paper_pairs in results:
        spec = BENCHMARKS[result.benchmark]
        paper_area_impr = 100 * (1 - spec.paper_area_2bit / spec.paper_area_1bit)
        paper_energy_impr = 100 * (1 - spec.paper_energy_2bit / spec.paper_energy_1bit)
        rows.append((
            result.benchmark,
            str(result.total_flip_flops),
            f"{result.merged_pairs} / {paper_pairs}",
            f"{to_square_microns(result.area_baseline):.1f}",
            f"{to_square_microns(result.area_proposed):.1f}",
            f"{100 * result.area_improvement:.2f}% / {paper_area_impr:.2f}%",
            f"{to_femtojoules(result.energy_proposed):.1f}",
            f"{100 * result.energy_improvement:.2f}% / {paper_energy_impr:.2f}%",
        ))
        total_area_impr += result.area_improvement
        total_energy_impr += result.energy_improvement
    n = max(1, len(results))
    rows.append((
        "AVERAGE", "", "", "", "",
        f"{100 * total_area_impr / n:.2f}% (paper 26%)",
        "",
        f"{100 * total_energy_impr / n:.2f}% (paper 14%)",
    ))
    return render_text_table(
        ("Benchmark", "FFs", "2-bit FFs (ours/paper)", "Area 1-bit [um^2]",
         "Area 2-bit [um^2]", "Area impr (ours/paper)",
         "Energy 2-bit [fJ]", "Energy impr (ours/paper)"),
        rows,
        title="Table III — system-level results",
    )
