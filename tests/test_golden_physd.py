"""Bit-for-bit pin of the physical-design pipeline.

``tests/golden/physd_digests.json`` holds one sha256 per benchmark and
seed over everything the Table III flow's placement stages produce, in
insertion order:

* the generated netlist — every instance (name, cell, nets) and every
  net (name, member instances, port flag);
* the ``global_place`` centre positions;
* the ``legalize`` lower-left positions.

Positions enter the hash as ``float.hex``, so the digest moves when any
float expression, RNG draw or iteration order in the generator, the
placer or the legaliser changes, even by one ulp.  Table III pair counts
follow from the legal positions; ``tests/test_golden_table3.py`` pins the
flow metrics on top.  The CG's dot products run in BLAS, so a different
BLAS kernel could also move the bits; the digests read the same with 1,
2 and 4 BLAS threads.  Regenerate only for an intentional change that
moves placement bits, with a note in the commit message:

    PYTHONPATH=src python -c "import tests.test_golden_physd as t; t.regenerate()"
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import PlacementError
from repro.physd.benchmarks import generate_benchmark
from repro.physd.floorplan import build_floorplan
from repro.physd.placement import global_place, legalize, place_design

GOLDEN_PATH = Path(__file__).parent / "golden" / "physd_digests.json"

GOLDEN_BENCHMARKS = ("s838", "s1423", "s5378", "b14")
GOLDEN_SEEDS = (1, 4)


def physd_digest(name: str, seed: int) -> str:
    """sha256 of the netlist, global and legal positions of one run of
    the flow's placement stages (``place_design`` defaults)."""
    netlist = generate_benchmark(name, seed=seed)
    floorplan = build_floorplan(netlist)
    global_positions = global_place(netlist, floorplan, seed=seed)
    legal = legalize(netlist, floorplan, global_positions)

    digest = hashlib.sha256()

    def feed(*fields: str) -> None:
        digest.update(("\x1f".join(fields) + "\n").encode())

    for inst in netlist.instances.values():
        feed("instance", inst.name, inst.cell.name, *inst.nets)
    for net in netlist.nets.values():
        feed("net", net.name, str(net.is_port), *net.instances)
    for inst_name, (x, y) in global_positions.items():
        feed("global", inst_name, x.hex(), y.hex())
    for inst_name, (x, y) in legal.positions.items():
        feed("legal", inst_name, x.hex(), y.hex())
    return digest.hexdigest()


def _key(name: str, seed: int) -> str:
    return f"{name}@{seed}"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as f:
        return json.load(f)


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("name", GOLDEN_BENCHMARKS)
def test_pipeline_bits_unchanged(golden, name, seed):
    assert physd_digest(name, seed) == golden["digests"][_key(name, seed)], (
        f"{name} at seed {seed}: netlist, global or legal positions moved")


@pytest.mark.xfail(strict=True, raises=PlacementError,
                   reason="site-grid flooring drops a cluster that sits "
                          "up to 1e-15 m left of its neighbour's end one "
                          "pitch onto it; a fix moves Table III pair counts")
def test_s35932_legalises_without_overlap():
    placement = place_design(generate_benchmark("s35932", seed=1), seed=1)
    placement.validate()


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Rewrite the golden file from fresh runs (see module docs)."""
    golden = {
        "note": "sha256 of netlist, global_place and legalize bits; see "
                "tests/test_golden_physd.py.",
        "digests": {_key(name, seed): physd_digest(name, seed)
                    for name in GOLDEN_BENCHMARKS for seed in GOLDEN_SEEDS},
    }
    with GOLDEN_PATH.open("w") as f:
        json.dump(golden, f, indent=2)
        f.write("\n")
