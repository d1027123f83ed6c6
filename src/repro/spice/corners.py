"""Combined CMOS + MTJ simulation corners (paper Table II columns).

The paper sweeps ±3σ of the MTJ's RA, TMR and switching current; the
leakage spread in its Table II (≈ 3–4× between adjacent columns) further
implies a CMOS threshold-voltage corner.  We simulate three *process*
corners:

* ``fast``    — CMOS fast/leaky (V_T −3σ, mobility +10 %) with MTJ −3σ
  (low RA → high read current, low TMR → small margin, high I_c);
* ``typical`` — nominal everything;
* ``slow``    — CMOS slow/tight (V_T +3σ, mobility −10 %) with MTJ +3σ.

V_T sigma is 15 mV (3σ = 45 mV), chosen so the leakage spread of an off
transistor at the 40LP subthreshold slope matches the paper's
≈ 3.2× / 3.7× column ratios: exp(45 mV / (n·V_t)) ≈ 3.6.

Note on Table II column semantics: the paper's *worst* column shows the
worst value of **every** metric simultaneously (max energy, max delay,
max leakage), which no single physical corner produces — a fast/leaky
process maximises energy and leakage but *minimises* delay.  The table
generator therefore evaluates all three process corners and reports, per
metric, the worst/typical/best values across them (see
:mod:`repro.analysis.tables`), matching the per-metric-extreme convention
the paper's numbers imply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, TypeVar

from repro.mtj.parameters import MTJParameters
from repro.mtj.variation import MTJCorner, MTJVariation
from repro.parallel import parallel_map
from repro.spice.devices.mosfet import MOSFETModel, NMOS_40LP, PMOS_40LP

_R = TypeVar("_R")

#: 1σ of the threshold voltage [V].
VTH_SIGMA = 0.015
#: 3σ relative mobility deviation.
MOBILITY_3SIGMA = 0.10


@dataclass(frozen=True)
class CMOSCorner:
    """CMOS process corner as threshold shift + mobility scale."""

    name: str
    vth_shift: float = 0.0
    mobility_scale: float = 1.0

    def nmos(self, base: MOSFETModel = NMOS_40LP) -> MOSFETModel:
        return base.with_corner(self.vth_shift, self.mobility_scale)

    def pmos(self, base: MOSFETModel = PMOS_40LP) -> MOSFETModel:
        return base.with_corner(self.vth_shift, self.mobility_scale)


@dataclass(frozen=True)
class SimulationCorner:
    """One simulated process point: a CMOS corner paired with an MTJ corner."""

    name: str
    cmos: CMOSCorner
    mtj: MTJCorner
    mtj_variation: MTJVariation = MTJVariation()

    def nmos_model(self) -> MOSFETModel:
        return self.cmos.nmos()

    def pmos_model(self) -> MOSFETModel:
        return self.cmos.pmos()

    def mtj_params(self, base: MTJParameters) -> MTJParameters:
        return self.mtj.apply(base, self.mtj_variation)


CORNERS: Dict[str, SimulationCorner] = {
    "fast": SimulationCorner(
        name="fast",
        cmos=CMOSCorner("fast-leaky", vth_shift=-3.0 * VTH_SIGMA,
                        mobility_scale=1.0 + MOBILITY_3SIGMA),
        mtj=MTJCorner.WORST,
    ),
    "typical": SimulationCorner(
        name="typical",
        cmos=CMOSCorner("nominal"),
        mtj=MTJCorner.TYPICAL,
    ),
    "slow": SimulationCorner(
        name="slow",
        cmos=CMOSCorner("slow-tight", vth_shift=3.0 * VTH_SIGMA,
                        mobility_scale=1.0 - MOBILITY_3SIGMA),
        mtj=MTJCorner.BEST,
    ),
}

#: Canonical simulation order.
CORNER_ORDER = ("fast", "typical", "slow")

#: Table II column order (per-metric extremes derived from the corners).
TABLE_COLUMNS = ("worst", "typical", "best")


def _sweep_corners(
    fn: Callable[[SimulationCorner], _R],
    corners: Sequence[str] = CORNER_ORDER,
    workers: Optional[int] = None,
) -> Dict[str, _R]:
    """Evaluate ``fn`` at every named corner, corners in parallel.

    Returns ``{corner_name: fn(CORNERS[name])}`` preserving the order of
    ``corners``.  ``fn`` must be picklable (module-level function or
    ``functools.partial``) for the process-pool path; the result is
    identical for any ``workers`` setting (see :mod:`repro.parallel`).
    """
    names = list(corners)
    results = parallel_map(fn, [CORNERS[name] for name in names],
                           workers=workers)
    return dict(zip(names, results))
