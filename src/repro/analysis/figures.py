"""Figure generators (paper Figs 6–9).

* :func:`render_control_sequence` — ASCII timing diagram of a control
  schedule (Figs 6(a)/6(b)/7(b)),
* :func:`render_layout_ascii` / :func:`layout_svg` — the 2-bit cell
  layout (Fig 8),
* :func:`floorplan_ascii` / :func:`floorplan_svg` — a placed design with
  mergeable flip-flop pairs circled (Fig 9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cells.control import ControlSchedule
from repro.errors import AnalysisError
from repro.layout.cell_layout import CellPlan
from repro.units import to_microns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.merge import MergeResult
    from repro.physd.placement.result import Placement


def render_control_sequence(
    schedule: ControlSchedule,
    signals: Optional[Sequence[str]] = None,
    width: int = 88,
) -> str:
    """ASCII timing diagram: one line per signal, sampled uniformly.

    High level renders as ``▔``, low as ``▁``, mid-slew as ``/`` or
    ``\\`` — enough to reproduce the waveform sequences of Figs 6/7.
    """
    if width < 10:
        raise AnalysisError("diagram width must be at least 10 columns")
    names = list(signals) if signals else sorted(schedule.signals)
    half = schedule.vdd / 2.0
    dt = schedule.stop_time / width
    label_width = max(len(n) for n in names) + 1

    lines = [f"{schedule.name}  (0 .. {schedule.stop_time * 1e9:.2f} ns, "
             f"{width} columns of {dt * 1e12:.0f} ps)"]
    for name in names:
        waveform = schedule.signal(name)
        chars = []
        prev_high = waveform.value(0.0) >= half
        for k in range(width):
            t = (k + 0.5) * dt
            high = waveform.value(t) >= half
            if high and not prev_high:
                chars.append("/")
            elif prev_high and not high:
                chars.append("\\")
            else:
                chars.append("▔" if high else "▁")
            prev_high = high
        lines.append(f"{name.rjust(label_width)} {''.join(chars)}")

    # Phase ruler.
    ruler = [" "] * width
    for phase in schedule.phases:
        start_col = int(phase.start / schedule.stop_time * width)
        if 0 <= start_col < width:
            ruler[start_col] = "|"
    lines.append(f"{'phase'.rjust(label_width)} {''.join(ruler)}")
    lines.append(f"{''.rjust(label_width)} "
                 + ", ".join(f"{p.name}@{p.start * 1e9:.2f}ns"
                             for p in schedule.phases))
    return "\n".join(lines)


def render_layout_ascii(plan: CellPlan) -> str:
    """Fig 8 as a stick diagram (delegates to the plan)."""
    return plan.to_ascii()


def layout_svg(plan: CellPlan) -> str:
    """Fig 8 as SVG (delegates to the plan)."""
    return plan.to_svg()


def _merged_ff_names(merge: MergeResult) -> Dict[str, int]:
    """Map merged flip-flop name → pair index."""
    names: Dict[str, int] = {}
    for k, pair in enumerate(merge.pairs):
        names[pair.ff_a] = k
        names[pair.ff_b] = k
    return names


def floorplan_ascii(
    placement: Placement,
    merge: Optional[MergeResult] = None,
    columns: int = 100,
) -> str:
    """Fig 9 as a character grid: ``.`` logic, ``F`` unmerged flip-flop,
    ``A``–``Z`` (cycling) the two members of each merged pair."""
    die = placement.floorplan.die
    rows_count = max(1, int(round(die.height / die.width * columns * 0.5)))
    grid = [[" "] * columns for _ in range(rows_count)]

    def cell_of(x: float, y: float) -> Tuple[int, int]:
        col = min(columns - 1, max(0, int((x - die.x_min) / die.width * columns)))
        row = min(rows_count - 1,
                  max(0, int((y - die.y_min) / die.height * rows_count)))
        return rows_count - 1 - row, col  # y grows upward, text grows down

    for inst in placement.netlist.combinational_instances():
        r, c = cell_of(*_center_xy(placement, inst.name))
        if grid[r][c] == " ":
            grid[r][c] = "."

    merged = _merged_ff_names(merge) if merge else {}
    for inst in placement.netlist.sequential_instances():
        r, c = cell_of(*_center_xy(placement, inst.name))
        if inst.name in merged:
            grid[r][c] = chr(ord("A") + merged[inst.name] % 26)
        else:
            grid[r][c] = "F"

    header = (f"{placement.netlist.name}: die "
              f"{to_microns(die.width):.1f} x {to_microns(die.height):.1f} um; "
              f"F = unmerged FF, letters = merged pairs (same letter = one pair)")
    border = "+" + "-" * columns + "+"
    body = [border] + ["|" + "".join(row) + "|" for row in grid] + [border]
    return "\n".join([header] + body)


def _center_xy(placement: Placement, name: str) -> Tuple[float, float]:
    center = placement.center(name)
    return center.x, center.y


def floorplan_svg(
    placement: Placement,
    merge: Optional[MergeResult] = None,
    width_px: float = 720.0,
) -> str:
    """Fig 9 as SVG: logic cells grey, flip-flops blue, merged pairs
    circled in red (the paper's encircled neighbours)."""
    die = placement.floorplan.die
    scale = width_px / die.width
    height_px = die.height * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {width_px:.0f} {height_px:.0f}">',
        f'<rect width="{width_px:.0f}" height="{height_px:.0f}" fill="#fafafa" '
        f'stroke="#000"/>',
    ]

    def to_px(x: float, y: float) -> Tuple[float, float]:
        return (x - die.x_min) * scale, height_px - (y - die.y_min) * scale

    for inst in placement.netlist.combinational_instances():
        rect = placement.cell_rect(inst.name)
        px, py = to_px(rect.x_min, rect.y_max)
        parts.append(
            f'<rect x="{px:.1f}" y="{py:.1f}" width="{rect.width * scale:.1f}" '
            f'height="{rect.height * scale:.1f}" fill="#d9d9d9"/>'
        )
    for inst in placement.netlist.sequential_instances():
        rect = placement.cell_rect(inst.name)
        px, py = to_px(rect.x_min, rect.y_max)
        parts.append(
            f'<rect x="{px:.1f}" y="{py:.1f}" width="{rect.width * scale:.1f}" '
            f'height="{rect.height * scale:.1f}" fill="#4d7dbf">'
            f'<title>{inst.name}</title></rect>'
        )
    if merge:
        for pair in merge.pairs:
            ca = placement.center(pair.ff_a)
            cb = placement.center(pair.ff_b)
            cx, cy = to_px((ca.x + cb.x) / 2.0, (ca.y + cb.y) / 2.0)
            radius = max(ca.distance_to(cb) / 2.0 * scale * 1.4, 6.0)
            parts.append(
                f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{radius:.1f}" '
                f'fill="none" stroke="#c0392b" stroke-width="1.5">'
                f'<title>{pair.ff_a} + {pair.ff_b} '
                f'({pair.distance * 1e6:.2f} um)</title></circle>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def render_transient_ascii(
    result,
    signals: Sequence[str],
    t0: float = 0.0,
    t1: Optional[float] = None,
    width: int = 90,
    height: int = 8,
    v_max: float = 1.2,
) -> str:
    """ASCII analog waveform plot of a transient result.

    Unlike :func:`render_control_sequence` (which draws the *commanded*
    digital levels), this renders the *simulated* analog voltages — the
    true Fig 6 view: each signal gets a ``height``-row strip, sampled at
    ``width`` points over [t0, t1].
    """
    import numpy as np

    if t1 is None:
        t1 = float(result.times[-1])
    if t1 <= t0:
        raise AnalysisError(f"empty window [{t0}, {t1}]")
    if width < 10 or height < 2:
        raise AnalysisError("plot must be at least 10x2 characters")

    sample_times = np.linspace(t0, t1, width)
    label_width = max(len(s) for s in signals) + 1
    lines: List[str] = [
        f"transient {t0 * 1e9:.2f}..{t1 * 1e9:.2f} ns "
        f"({(t1 - t0) / width * 1e12:.0f} ps/column, "
        f"0..{v_max:g} V over {height} rows)"
    ]
    for signal in signals:
        wave = np.interp(sample_times, result.times, result.voltage(signal))
        rows = [[" "] * width for _ in range(height)]
        for col, value in enumerate(wave):
            level = min(height - 1,
                        max(0, int(round(value / v_max * (height - 1)))))
            rows[height - 1 - level][col] = "*"
        for k, row in enumerate(rows):
            label = signal.rjust(label_width) if k == height // 2 else " " * label_width
            edge = f"{v_max:4.1f}V" if k == 0 else ("  0V " if k == height - 1
                                                    else "     ")
            lines.append(f"{label} {edge}|{''.join(row)}|")
        lines.append("")
    return "\n".join(lines)
