"""Tests for floorplanning, global placement, and legalisation."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.flow import gc_paused
from repro.errors import PlacementError
from repro.physd.benchmarks import BenchmarkSpec, generate_benchmark, generate_from_spec
from repro.physd.floorplan import build_floorplan
from repro.physd.placement import global_place, legalize, place_design
from repro.physd.placement.global_place import _spread_axis


@pytest.fixture(scope="module")
def s344():
    return generate_benchmark("s344", seed=2)


class TestFloorplan:
    def test_utilization_respected(self, s344):
        fp = build_floorplan(s344, utilization=0.7)
        assert s344.total_cell_area() / fp.core_area == pytest.approx(0.7, rel=0.1)

    def test_rows_tile_the_die(self, s344):
        fp = build_floorplan(s344, utilization=0.7)
        assert len(fp.rows) >= 2
        assert fp.rows[0].y == 0.0
        assert fp.rows[-1].y + fp.rows[-1].height == pytest.approx(fp.die.height)

    def test_row_capacity_exceeds_demand(self, s344):
        fp = build_floorplan(s344, utilization=0.7)
        demand = sum(i.cell.width for i in s344.instances.values())
        assert fp.row_capacity > demand * 1.2

    def test_nearest_row_clamps(self, s344):
        fp = build_floorplan(s344, utilization=0.7)
        assert fp.nearest_row(-1.0) == 0
        assert fp.nearest_row(1.0) == len(fp.rows) - 1

    def test_rejects_extreme_utilization(self, s344):
        with pytest.raises(PlacementError):
            build_floorplan(s344, utilization=0.99)

    def test_aspect_ratio_changes_shape(self, s344):
        wide = build_floorplan(s344, utilization=0.7, aspect_ratio=0.5)
        tall = build_floorplan(s344, utilization=0.7, aspect_ratio=2.0)
        assert wide.die.width > tall.die.width


class TestSpreadAxis:
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=2,
                    max_size=50))
    def test_preserves_order(self, values):
        arr = np.array(values)
        spread = _spread_axis(arr, 0.0, 100.0, 0.65)
        assert np.all(np.argsort(arr, kind="stable")
                      == np.argsort(spread, kind="stable"))

    @given(st.lists(st.floats(min_value=10, max_value=90), min_size=2,
                    max_size=50))
    def test_stays_in_bounds(self, values):
        spread = _spread_axis(np.array(values), 0.0, 100.0, 0.65)
        assert np.all(spread >= 0.0) and np.all(spread <= 100.0)

    def test_full_blend_is_uniform(self):
        values = np.array([50.0, 50.1, 50.2, 49.9])
        spread = _spread_axis(values, 0.0, 100.0, 1.0)
        assert np.ptp(spread) > 40.0  # decollapsed


class TestGlobalPlace:
    def test_positions_inside_die(self, s344):
        fp = build_floorplan(s344, utilization=0.7)
        positions = global_place(s344, fp, seed=1)
        for x, y in positions.values():
            assert fp.die.x_min <= x <= fp.die.x_max
            assert fp.die.y_min <= y <= fp.die.y_max

    def test_deterministic(self, s344):
        fp = build_floorplan(s344, utilization=0.7)
        a = global_place(s344, fp, seed=1)
        b = global_place(s344, fp, seed=1)
        assert a == b

    def test_connected_cells_attract(self, s344):
        fp = build_floorplan(s344, utilization=0.7)
        positions = global_place(s344, fp, seed=1)
        # Scan-chain-adjacent flops should be much closer than random pairs.
        import math

        def dist(a, b):
            return math.hypot(positions[a][0] - positions[b][0],
                              positions[a][1] - positions[b][1])

        chained = np.mean([dist(f"ff{j}", f"ff{j + 1}") for j in range(14)])
        random_pairs = np.mean([dist("ff0", "ff14"), dist("ff2", "ff11")])
        assert chained < random_pairs * 1.5

    def test_empty_netlist_rejected(self):
        from repro.cells.library import build_default_library
        from repro.physd.netlist import GateNetlist

        nl = GateNetlist("empty", build_default_library())
        with pytest.raises(PlacementError):
            fp = None
            positions = global_place(nl, fp)  # noqa: F841


class TestGlobalPlaceMemory:
    def test_transient_peak_stays_near_the_result(self):
        # The matrix build keeps its edges in typed arrays and drops each
        # temporary once used, so global placement's traced peak above
        # its inputs stays a small multiple of the dict it returns: 2.2x
        # on s38584 at seed 1, where Python edge lists, int64 triplets
        # and negation temporaries read 4.6x (11.9 MB over 2.6 MB).
        netlist = generate_benchmark("s38584", seed=1)
        floorplan = build_floorplan(netlist)
        gc.collect()
        with gc_paused():
            tracemalloc.start()
            try:
                positions = global_place(netlist, floorplan, seed=1)
                result, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(positions) == netlist.num_instances
        assert peak < 3.5 * result, (
            f"peak +{peak / 1e6:.1f} MB over a "
            f"{result / 1e6:.1f} MB result")


class TestLegalize:
    @pytest.fixture(scope="class")
    def placement(self):
        nl = generate_benchmark("s838", seed=4)
        return place_design(nl, utilization=0.7, seed=4)

    def test_validates_clean(self, placement):
        placement.validate()

    def test_every_instance_placed(self, placement):
        assert set(placement.positions) == set(placement.netlist.instances)

    def test_rows_aligned(self, placement):
        row_ys = {row.y for row in placement.floorplan.rows}
        for name, (_x, y) in placement.positions.items():
            assert any(abs(y - ry) < 1e-12 for ry in row_ys)

    def test_hpwl_positive_and_finite(self, placement):
        hpwl = placement.hpwl()
        assert 0.0 < hpwl < 1.0  # metres — sanity bound

    def test_legalization_stays_close_to_global(self):
        nl = generate_benchmark("s344", seed=9)
        fp = build_floorplan(nl, utilization=0.6)
        gp = global_place(nl, fp, seed=9)
        placement = legalize(nl, fp, gp)
        displacements = []
        for name, (gx, gy) in gp.items():
            c = placement.center(name)
            displacements.append(np.hypot(c.x - gx, c.y - gy))
        # Median displacement under ~3 row heights.
        assert np.median(displacements) < 3 * fp.rows[0].height

    def test_overfull_design_raises(self):
        spec = BenchmarkSpec("tiny", "test", 4, 20, 2, 2, 0)
        nl = generate_from_spec(spec, seed=1)
        fp = build_floorplan(nl, utilization=0.5)
        # Shrink rows artificially to force an overflow.
        from repro.physd.floorplan import Floorplan, Row

        tiny_rows = [Row(0, 0.0, 0.0, 2e-6, fp.rows[0].height)]
        from repro.layout.geometry import Rect

        tiny = Floorplan(die=Rect(0, 0, 2e-6, fp.rows[0].height),
                         rows=tiny_rows, utilization=0.5)
        gp = global_place(nl, fp, seed=1)
        with pytest.raises(PlacementError):
            legalize(nl, tiny, gp)


class TestPlacementResultValidation:
    def test_detects_overlap(self, s344):
        placement = place_design(s344, utilization=0.7, seed=1)
        ffs = [i.name for i in s344.sequential_instances()]
        # Force two flops onto the same spot.
        placement.positions[ffs[0]] = placement.positions[ffs[1]]
        with pytest.raises(PlacementError):
            placement.validate()

    def test_detects_out_of_core(self, s344):
        placement = place_design(s344, utilization=0.7, seed=1)
        name = next(iter(placement.positions))
        placement.positions[name] = (placement.floorplan.die.x_max + 1e-6, 0.0)
        with pytest.raises(PlacementError):
            placement.validate()

    def test_missing_position_raises(self, s344):
        placement = place_design(s344, utilization=0.7, seed=1)
        name = next(iter(placement.positions))
        del placement.positions[name]
        with pytest.raises(PlacementError):
            placement.cell_rect(name)
