"""Hand-derived oracle for the engine's epoch accounting pass.

Both engine tiers resolve their LLC probes differently but charge every
epoch through one accounting pass.  These tests drive tiny hand-made
epochs through a 4-chip ring whose LLC slices hold one line each, and
check every charge against values worked out by hand from the
``EngineParams`` defaults, never from engine code:

* a request is 32 bytes (64 with write data), a response or a dirty
  write-back 128 + 16 = 144 bytes;
* an SM -> LLC leg costs ``2 * latency_noc`` = 80 cycles on chip and
  80 + 120 per ring hop across chips; each probe adds ``latency_llc``
  = 40 and a full miss ``latency_dram`` = 200 (plus a leg from the last
  probed chip to a remote home);
* ring routes take the shorter direction, ties toward increasing chip
  id, and charge every traversed segment.
"""

import dataclasses

import numpy as np
import pytest

from repro.arch import baseline
from repro.arch.config import CacheConfig
from repro.sim import EngineParams, SimulationEngine, make_organization
from repro.sim.run import scaled_config
from repro.workloads.generator import EpochTrace, KernelTrace

PAGE = 0x40000  # page-aligned base of the page homed at chip 2


def tiny_config():
    """Baseline geometry with one-line (1-set, 1-way) LLC slices."""
    config = scaled_config(baseline(), 1.0 / 64)
    chip = dataclasses.replace(
        config.chip, llc_slice=CacheConfig(size_bytes=128, associativity=1))
    return config.with_updates(chip=chip)


def pick_lines(engine):
    """B and C share a page but not a slice; D shares only B's slice."""
    line = engine.config.line_size
    b = PAGE
    slice_b = engine.slice_of(b)
    c = next(PAGE + k * line for k in range(1, 32)
             if engine.slice_of(PAGE + k * line) != slice_b)
    d = next(PAGE + 0x100000 + k * line for k in range(4096)
             if engine.slice_of(PAGE + 0x100000 + k * line) == slice_b)
    return b, c, d


def run_epoch(organization, accesses, batched, **params):
    """Run one epoch; return the engine and what it held before settling."""
    config = tiny_config()
    engine = SimulationEngine(
        config, make_organization(organization, config),
        params=EngineParams(batched=batched, **params))
    lines = dict(zip("BCD", pick_lines(engine)))
    epoch = EpochTrace(
        chips=np.array([a[0] for a in accesses], dtype=np.int64),
        clusters=np.zeros(len(accesses), dtype=np.int64),
        addrs=np.array([lines[a[1]] for a in accesses], dtype=np.int64),
        writes=np.array([a[2] == "W" for a in accesses], dtype=bool),
        compute_cycles=1.0)
    seen = {}
    settle = engine._settle_epoch

    def spy(epoch, kstats):
        seen["latency"] = list(engine._latency_sum)
        seen["crossbar"] = [x.epoch_bytes() for x in engine.crossbars]
        seen["dram"] = [p.epoch_bytes() for p in engine.dram]
        seen["ring"] = engine.ring.segment_loads()
        seen["inter_chip_bytes"] = engine.stats.inter_chip_bytes
        seen["dram_bytes"] = engine.stats.dram_bytes
        settle(epoch, kstats)

    engine._settle_epoch = spy
    engine.run([KernelTrace(name="k", epochs=(epoch,))], benchmark="hand")
    return engine, seen, lines


# B's page is first touched by chip 2, so B and C are homed there; D's
# page is first touched by chip 2 as well.
TRACE = ((2, "B", "W"),   # local miss; B enters chip 2's LLC dirty
         (0, "B", "R"),   # 2 hops from B's home
         (2, "B", "R"),   # local LLC hit
         (1, "C", "R"),   # 1 hop from C's home, miss
         (2, "D", "W"))   # local miss evicting dirty B (same slice)

# Per-access hand values (requester -> bytes, latency):
#   memory-side probes the home slice:
#     1. chip 2 local miss:  xbar2 64+144, DRAM2 208, 80+40+200
#     2. chip 0 remote hit:  ring 0->2 32 / 2->0 144, xbar0 and xbar2
#        176 each, 80+2*120+40
#     3. chip 2 local hit:   xbar2 176, 80+40
#     4. chip 1 remote miss: ring 1->2 32 / 2->1 144, xbar1 and xbar2
#        176 each, DRAM2 176, 80+120+40+200
#     5. chip 2 local miss:  xbar2 208, DRAM2 208, write-back DRAM2 144,
#        80+40+200
#   sm-side probes the requester's slice, then goes to the home memory
#   over the dedicated network (no crossbar charge on that leg):
#     2. chip 0 local miss:  xbar0 176, DRAM2 176, ring 0->2 / 2->0,
#        80+40 + 200 + 80+2*120
#     4. chip 1 local miss:  xbar1 176, DRAM2 176, ring 1->2 / 2->1,
#        80+40 + 200 + 80+120
#     1, 3 and 5 as for memory-side.
# Ring segments: 0->2 crosses (0,1),(1,2); 2->0 crosses (2,3),(3,0);
# 1->2 is (1,2) and 2->1 is (2,1).
RING = {(0, 1): 32.0, (1, 2): 64.0, (2, 3): 144.0, (3, 0): 144.0,
        (2, 1): 144.0}

EXPECTED = {
    "memory-side": {
        "inter_chip_bytes": 176 + 176,
        "dram_bytes": 208 + 176 + 208 + 144,
        "llc_hits": 2,
        "origins": {"local_llc": 1, "remote_llc": 1,
                    "local_mem": 2, "remote_mem": 1},
        "slice_requests": {("B", 2): 4, ("C", 2): 1},
        "latency": [360.0, 440.0, 320.0 + 120.0 + 320.0, 0.0],
        "crossbar": [176.0, 176.0, 208 + 176 + 176 + 176 + 208.0, 0.0],
        "dram": [0.0, 0.0, 208 + 176 + 208 + 144.0, 0.0],
    },
    "sm-side": {
        "inter_chip_bytes": 176 + 176,
        "dram_bytes": 208 + 176 + 176 + 208 + 144,
        "llc_hits": 1,
        "origins": {"local_llc": 1, "remote_llc": 0,
                    "local_mem": 2, "remote_mem": 2},
        "slice_requests": {("B", 2): 3, ("B", 0): 1, ("C", 1): 1},
        "latency": [640.0, 520.0, 320.0 + 120.0 + 320.0, 0.0],
        "crossbar": [176.0, 176.0, 208 + 176 + 208.0, 0.0],
        "dram": [0.0, 0.0, 208 + 176 + 176 + 208 + 144.0, 0.0],
    },
}


@pytest.mark.parametrize("batched", (True, False),
                         ids=("kernel", "serial"))
@pytest.mark.parametrize("organization", sorted(EXPECTED))
def test_hand_derived_epoch_charges(organization, batched):
    engine, seen, lines = run_epoch(organization, TRACE, batched)
    want = EXPECTED[organization]
    stats = engine.stats
    assert stats.accesses == 5
    assert stats.llc_lookups == 5
    assert stats.llc_hits == want["llc_hits"]
    assert seen["inter_chip_bytes"] == want["inter_chip_bytes"]
    assert seen["dram_bytes"] == want["dram_bytes"]
    assert stats.responses_by_origin == want["origins"]
    slices = engine.config.chip.llc_slices
    requests = {chip * slices + engine.slice_of(lines[name]): count
                for (name, chip), count in want["slice_requests"].items()}
    assert {g: n for g, n in enumerate(stats.slice_requests) if n} \
        == requests
    assert seen["latency"] == want["latency"]
    assert seen["crossbar"] == want["crossbar"]
    assert seen["dram"] == want["dram"]
    assert seen["ring"] == RING
    assert engine.stats.vector_epochs == (1 if batched else 0)


def test_l1_read_hit_is_accounted_as_no_llc_traffic():
    # Chip 0 reads B twice through one L1 cluster, then writes it.  The
    # second read hits the L1 and charges nothing; the write-through
    # write hits the LLC locally.  B's page is homed at chip 0.
    trace = ((0, "B", "R"), (0, "B", "R"), (0, "B", "W"))
    engine, seen, lines = run_epoch("memory-side", trace, batched=True,
                                    model_l1=True)
    stats = engine.stats
    assert stats.accesses == 3
    assert stats.llc_lookups == 2
    assert stats.llc_hits == 1
    assert stats.responses_by_origin == {"local_llc": 1, "remote_llc": 0,
                                         "local_mem": 1, "remote_mem": 0}
    assert seen["latency"] == [320.0 + 120.0, 0.0, 0.0, 0.0]
    assert seen["crossbar"] == [176.0 + 208.0, 0.0, 0.0, 0.0]
    assert seen["dram"] == [176.0, 0.0, 0.0, 0.0]
    assert seen["dram_bytes"] == 176
    assert seen["inter_chip_bytes"] == 0
    assert seen["ring"] == {}
    assert stats.slice_requests[engine.slice_of(lines["B"])] == 2
    assert sum(stats.slice_requests) == 2


def test_l1_read_hit_adds_no_latency_even_with_an_infinite_leg():
    # An unprobed stage must add exactly nothing: an infinite on-chip
    # leg makes both LLC-bound accesses infinite, and the L1 read hit
    # between them must not turn the sum into NaN (inf * 0).
    trace = ((0, "B", "R"), (0, "B", "R"), (0, "B", "W"))
    with np.errstate(invalid="raise"):
        _engine, seen, _lines = run_epoch(
            "memory-side", trace, batched=True, model_l1=True,
            latency_noc=float("inf"))
    assert seen["latency"] == [float("inf"), 0.0, 0.0, 0.0]
