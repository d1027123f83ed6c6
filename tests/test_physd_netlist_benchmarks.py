"""Tests for the gate netlist container and the benchmark generators."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cells.library import build_default_library
from repro.errors import NetlistError
from repro.physd.benchmarks import (
    BENCHMARKS,
    BenchmarkSpec,
    CLOCK_NET,
    generate_benchmark,
    generate_from_spec,
)
from repro.physd.netlist import GateNetlist, Instance, Net
from repro.physd.placement.legalize import _Cluster


@pytest.fixture(scope="module")
def library():
    return build_default_library()


class TestGateNetlist:
    def test_add_instance_registers_nets(self, library):
        nl = GateNetlist("t", library)
        nl.add_instance("g0", "NAND2_X1", ["a", "b", "y"])
        assert set(nl.nets) == {"a", "b", "y"}
        assert nl.nets["y"].instances == ["g0"]

    def test_duplicate_instance_rejected(self, library):
        nl = GateNetlist("t", library)
        nl.add_instance("g0", "INV_X1", ["a", "y"])
        with pytest.raises(NetlistError):
            nl.add_instance("g0", "INV_X1", ["y", "z"])

    def test_remove_instance_unhooks_nets(self, library):
        nl = GateNetlist("t", library)
        nl.add_instance("g0", "INV_X1", ["a", "y"])
        nl.remove_instance("g0")
        assert "g0" not in nl.nets["a"].instances
        with pytest.raises(NetlistError):
            nl.remove_instance("g0")

    def test_sequential_partition(self, library):
        nl = GateNetlist("t", library)
        nl.add_instance("ff0", "DFF_X1", ["d", "clk", "q"])
        nl.add_instance("g0", "INV_X1", ["q", "y"])
        assert [i.name for i in nl.sequential_instances()] == ["ff0"]
        assert [i.name for i in nl.combinational_instances()] == ["g0"]
        assert nl.num_flip_flops == 1

    def test_total_cell_area(self, library):
        nl = GateNetlist("t", library)
        nl.add_instance("g0", "INV_X1", ["a", "y"])
        assert nl.total_cell_area() == pytest.approx(library["INV_X1"].area)

    def test_validate_empty_rejected(self, library):
        with pytest.raises(NetlistError):
            GateNetlist("t", library).validate()

    def test_port_nets(self, library):
        nl = GateNetlist("t", library)
        nl.add_net("pi0", is_port=True)
        nl.add_instance("g0", "INV_X1", ["pi0", "y"])
        assert [n.name for n in nl.port_nets()] == ["pi0"]

    def test_port_flag_sticky(self, library):
        nl = GateNetlist("t", library)
        nl.add_net("x", is_port=True)
        nl.add_net("x", is_port=False)
        assert nl.nets["x"].is_port


class TestSlottedRecords:
    """``Instance``, ``Net`` and the legaliser's ``_Cluster`` are slotted:
    no per-object ``__dict__``, with the dataclass behaviour of before."""

    def test_records_have_no_instance_dict(self, library):
        records = [Instance("g0", library["INV_X1"]), Net("a"),
                   _Cluster("g0", 0.0, 1e-7)]
        for record in records:
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_default_lists_are_fresh(self, library):
        assert Net("a").instances is not Net("b").instances
        cell = library["INV_X1"]
        assert Instance("g0", cell).nets is not Instance("g1", cell).nets
        assert Instance("g0", cell).nets == []
        assert Net("a").is_port is False

    def test_repr_and_eq_are_generated(self, library):
        net = Net("n1", ["g0", "g1"], is_port=True)
        assert repr(net) == "Net(name='n1', instances=['g0', 'g1'], is_port=True)"
        assert net == Net(name="n1", instances=["g0", "g1"], is_port=True)
        assert net != Net("n1", ["g0", "g1"])
        cell = library["INV_X1"]
        assert Instance("g0", cell, ["a", "y"]) == Instance("g0", cell, ["a", "y"])
        assert Instance("g0", cell, ["a", "y"]) != Instance("g0", cell, ["y"])
        assert [f.name for f in dataclasses.fields(Instance)] == [
            "name", "cell", "nets"]
        assert [f.name for f in dataclasses.fields(Net)] == [
            "name", "instances", "is_port"]

    def test_generated_netlist_survives_pickle(self):
        netlist = generate_benchmark("s344", seed=1)
        copy = pickle.loads(pickle.dumps(netlist))
        assert list(copy.instances.values()) == list(netlist.instances.values())
        assert list(copy.nets.values()) == list(netlist.nets.values())


class TestBenchmarkSpecs:
    def test_all_13_paper_benchmarks_present(self):
        assert len(BENCHMARKS) == 13
        assert {"s344", "s838", "s1423", "s5378", "s13207", "s38584",
                "s35932", "b14", "b15", "b17", "b18", "b19", "or1200"} \
            == set(BENCHMARKS)

    def test_flip_flop_counts_match_paper_table3(self):
        expected = {"s344": 15, "s838": 32, "s1423": 74, "s5378": 176,
                    "s13207": 627, "s38584": 1424, "s35932": 1728,
                    "b14": 215, "b15": 416, "b17": 1317, "b18": 3020,
                    "b19": 6042, "or1200": 2887}
        for name, count in expected.items():
            assert BENCHMARKS[name].num_flip_flops == count

    def test_paper_merged_pairs_match_table3(self):
        expected = {"s344": 5, "s838": 12, "s1423": 23, "s5378": 64,
                    "s13207": 259, "s38584": 473, "s35932": 472,
                    "b14": 90, "b15": 189, "b17": 542, "b18": 1260,
                    "b19": 2530, "or1200": 1269}
        for name, pairs in expected.items():
            assert BENCHMARKS[name].paper_merged_pairs == pairs

    def test_paper_reference_areas_linear_in_counts(self):
        # Paper area for the 1-bit baseline = N × 2.817 µm² (±rounding).
        for spec in BENCHMARKS.values():
            assert spec.paper_area_1bit == pytest.approx(
                spec.num_flip_flops * 2.817, rel=0.002)


class TestGenerator:
    @pytest.fixture(scope="class")
    def s344(self):
        return generate_benchmark("s344", seed=3)

    def test_exact_ff_count(self, s344):
        assert s344.num_flip_flops == 15

    def test_gate_count(self, s344):
        assert len(s344.combinational_instances()) == 160

    def test_clock_net_reaches_every_ff(self, s344):
        clock_pins = set(s344.nets[CLOCK_NET].instances)
        for ff in s344.sequential_instances():
            assert ff.name in clock_pins

    def test_scan_chain_links_consecutive_ffs(self, s344):
        # ff1's pin list must include ff0's Q net.
        ff1 = s344.instance("ff1")
        assert "ff0_q" in ff1.nets

    def test_q_net_is_last_pin(self, s344):
        for ff in s344.sequential_instances():
            assert ff.nets[-1] == f"{ff.name}_q"

    def test_deterministic_given_seed(self):
        a = generate_benchmark("s838", seed=5)
        b = generate_benchmark("s838", seed=5)
        assert sorted(a.instances) == sorted(b.instances)
        assert all(a.instances[k].nets == b.instances[k].nets for k in a.instances)

    def test_different_seeds_differ(self):
        a = generate_benchmark("s838", seed=5)
        b = generate_benchmark("s838", seed=6)
        assert any(a.instances[k].nets != b.instances[k].nets for k in a.instances)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(NetlistError):
            generate_benchmark("s000")

    def test_validates(self, s344):
        s344.validate()  # must not raise

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=5, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_custom_specs_respect_counts(self, n_ff, n_gates):
        spec = BenchmarkSpec("custom", "test", n_ff, n_gates, 4, 4, 0)
        nl = generate_from_spec(spec, seed=1)
        assert nl.num_flip_flops == n_ff
        assert len(nl.combinational_instances()) == n_gates

    def test_rejects_zero_ffs(self):
        spec = BenchmarkSpec("bad", "test", 0, 10, 2, 2, 0)
        with pytest.raises(NetlistError):
            generate_from_spec(spec)
