"""Regression tests for the batched epoch fast path.

The batched path must be *bit-identical* to the per-access path: same
functional cache decisions, same resource charges, same latencies.  The
tests compare ``RunStats.comparable_dict()`` (which excludes host-side
telemetry such as wall clock and path counters) across several specs and
every organization, and pin the fallback rules for configurations that
need per-access side effects or that the bank kernels decline.
"""

import dataclasses

import pytest

from repro.arch import baseline, with_coherence
from repro.llc.base import PARTITION_LOCAL, LookupStage, RoutePlan
from repro.llc.organizations import MemorySideLLC, StaticLLC
from repro.sim import EngineParams
from repro.sim.run import scaled_config, simulate
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec

SCALE = 1.0 / 64
DENSITY = 512

ORGS = ("memory-side", "sm-side", "static", "dynamic", "sac")


def spec(name, weight_true, weight_false, weight_private, epochs=2,
         write_fraction=0.25, preference="sm-side", seed=11):
    phase = PhaseSpec(weight_true=weight_true, weight_false=weight_false,
                      weight_private=weight_private,
                      write_fraction=write_fraction)
    return BenchmarkSpec(
        name=name, suite="test", num_ctas=16, footprint_mb=8,
        true_shared_mb=2, false_shared_mb=2, preference=preference,
        kernels=(KernelSpec(name="k", phase=phase, epochs=epochs),),
        seed=seed)


SPECS = (
    spec("shared-heavy", 0.6, 0.2, 0.2, epochs=3),
    spec("private-heavy", 0.1, 0.1, 0.8, preference="memory-side", seed=5),
    spec("false-sharing", 0.2, 0.6, 0.2, write_fraction=0.4, seed=23),
)


def both_paths(bench, organization, config=None, params_kwargs=None):
    kwargs = params_kwargs or {}
    serial = simulate(bench, organization, config=config, scale=SCALE,
                      accesses_per_epoch=DENSITY,
                      params=EngineParams(batched=False, **kwargs))
    batched = simulate(bench, organization, config=config, scale=SCALE,
                       accesses_per_epoch=DENSITY,
                       params=EngineParams(batched=True, **kwargs))
    return serial, batched


class TestBitIdentical:
    @pytest.mark.parametrize("bench", SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("organization", ORGS)
    def test_batched_matches_serial(self, bench, organization):
        serial, batched = both_paths(bench, organization)
        assert batched.comparable_dict() == serial.comparable_dict()

    def test_batched_path_actually_ran(self):
        _, batched = both_paths(SPECS[0], "memory-side")
        assert batched.vector_epochs > 0
        assert batched.slow_epochs == 0

    def test_serial_flag_forces_slow_path(self):
        serial, _ = both_paths(SPECS[0], "memory-side")
        assert serial.vector_epochs == 0
        assert serial.slow_epochs > 0

    def test_with_l1_modeled(self):
        # An L1 between the SMs and the LLC filters the probe stream
        # access by access, so every epoch runs on the serial path.
        serial, batched = both_paths(SPECS[0], "memory-side",
                                     params_kwargs={"model_l1": True})
        assert batched.vector_epochs == 0
        assert batched.slow_epochs > 0
        assert batched.comparable_dict() == serial.comparable_dict()


class TestVectorizedProbe:
    """The vectorized tag-store kernels vs the serial reference engine."""

    @pytest.mark.parametrize("bench", SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("organization", ("memory-side", "sm-side"))
    def test_vector_kernel_matches_serial(self, bench, organization):
        serial, vec = both_paths(bench, organization)
        # Uniform single-stage organizations resolve every epoch through
        # the grouped stack-distance kernel.
        assert vec.vector_epochs > 0
        assert serial.vector_epochs == 0
        assert vec.comparable_dict() == serial.comparable_dict()

    @pytest.mark.parametrize("bench", SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("organization", ("static", "dynamic", "sac"))
    def test_partitioned_orgs_stay_on_the_kernel(self, bench, organization):
        # Way-partitioned organizations resolve their two-stage epochs
        # through the staged vector solver; results stay identical to
        # the serial engine and no epoch demotes.
        serial, vec = both_paths(bench, organization)
        assert vec.vector_epochs > 0
        assert vec.demotions == 0
        assert serial.demotions == 0  # no bank attached -> not a demotion
        assert vec.comparable_dict() == serial.comparable_dict()

    def test_l1_modeling_runs_serial(self):
        # An L1 is known before the epoch starts, so the engine routes
        # it to the serial path up front: no bank call, no demotion.
        vec = simulate(SPECS[0], "memory-side", scale=SCALE,
                       accesses_per_epoch=DENSITY,
                       params=EngineParams(model_l1=True))
        assert vec.slow_epochs > 0
        assert vec.vector_epochs == 0
        assert vec.demotions == 0


class TestFallbacks:
    def test_sac_profiling_epochs_batch(self):
        # SAC's batched observer (observe_batch) reproduces the
        # per-access counter updates, so profiling heads take the fast
        # path too — and the profiling decisions (hence the physics)
        # must match the serial reference bit-for-bit.
        serial, batched = both_paths(SPECS[0], "sac")
        assert batched.slow_epochs == 0
        assert batched.vector_epochs > 0
        assert batched.comparable_dict() == serial.comparable_dict()

    def test_hardware_coherence_falls_back(self):
        config = with_coherence(baseline(), "hardware")
        serial, batched = both_paths(SPECS[0], "sm-side", config=config)
        assert batched.vector_epochs == 0
        assert batched.slow_epochs > 0
        assert batched.comparable_dict() == serial.comparable_dict()

    def test_ladm_falls_back(self):
        # LADM's second-touch insertion filter is per-access state.
        serial, batched = both_paths(SPECS[0], "ladm")
        assert batched.vector_epochs == 0
        assert batched.comparable_dict() == serial.comparable_dict()


class _PartitionedMemorySide(MemorySideLLC):
    """Memory-side plans over way-partitioned slices.

    Every plan is a single unpartitioned stage, so the engine asks the
    grouped kernel, which declines partitioned caches.
    """

    name = "partitioned-memory-side"

    def attach(self, ctx):
        ways = ctx.config.chip.llc_slice.associativity
        ctx.set_llc_partitioning({PARTITION_LOCAL: ways - 1, 1: 1})


class _StaticThenMemorySide(StaticLLC):
    """Static for the first kernel, then memory-side over unpartitioned
    slices that still hold the remote partition's lines (no flush).

    The leftover partition-1 lines are foreign-slot residents, which the
    grouped kernel declines until they drain.
    """

    name = "static-then-memory-side"

    def __init__(self, num_chips):
        super().__init__(num_chips)
        self._memory_side = MemorySideLLC(num_chips)
        self._static = True

    def plan(self, chip, home):
        if self._static:
            return super().plan(chip, home)
        return self._memory_side.plan(chip, home)

    def flush_partitions(self):
        return []

    def end_kernel(self, ctx):
        if self._static:
            self._static = False
            ctx.set_llc_partitioning(None)


class _OverlappingStages(StaticLLC):
    """Remote requests probe the requester's *local* partition first.

    Stage-0 probes of two-stage accesses then share rows with the
    single-stage probes, which breaks the staged solver's
    row-disjointness requirement.
    """

    name = "overlapping-stages"

    @staticmethod
    def _build(chip, home):
        if chip == home:
            return RoutePlan(stages=(LookupStage(chip=chip), ))
        return RoutePlan(stages=(LookupStage(chip=chip),
                                 LookupStage(chip=home)))


def _two_kernel_spec():
    phase = PhaseSpec(weight_true=0.4, weight_false=0.3, weight_private=0.3,
                      write_fraction=0.3)
    return BenchmarkSpec(
        name="two-kernels", suite="test", num_ctas=16, footprint_mb=8,
        true_shared_mb=2, false_shared_mb=2, preference="sm-side",
        kernels=(KernelSpec(name="k1", phase=phase, epochs=2),
                 KernelSpec(name="k2", phase=phase, epochs=3)),
        seed=29)


def _run_with(factory, bench, batched):
    config = scaled_config(baseline(), SCALE)
    return simulate(bench, factory(config.num_chips), config=config,
                    scale=1.0, accesses_per_epoch=DENSITY,
                    params=EngineParams(batched=batched))


class TestDeclines:
    """Runtime kernel declines rerun the epoch serially, bit-identically.

    Each case builds an organization whose epochs pass every up-front
    check but that the bank declines at call time; the declined epochs
    count as demotions and the physics must equal the serial engine's.
    """

    @pytest.mark.parametrize("factory,bench", [
        (_PartitionedMemorySide, SPECS[0]),
        (_StaticThenMemorySide, _two_kernel_spec()),
        (_OverlappingStages, SPECS[2]),
    ], ids=["grouped-partitioned", "grouped-foreign-slot",
            "staged-row-overlap"])
    def test_declined_epochs_match_serial(self, factory, bench):
        serial = _run_with(factory, bench, batched=False)
        vec = _run_with(factory, bench, batched=True)
        assert vec.demotions > 0
        assert serial.demotions == 0
        assert vec.vector_epochs + vec.demotions == serial.slow_epochs
        assert vec.slow_epochs == vec.demotions
        assert vec.comparable_dict() == serial.comparable_dict()

    def test_no_write_allocate_llc_runs_serial(self):
        base = baseline()
        llc = dataclasses.replace(base.chip.llc_slice, write_allocate=False)
        config = dataclasses.replace(
            base, chip=dataclasses.replace(base.chip, llc_slice=llc))
        serial, vec = both_paths(SPECS[2], "memory-side", config=config)
        assert vec.vector_epochs == 0
        assert vec.demotions == 0
        assert vec.slow_epochs == serial.slow_epochs > 0
        assert vec.comparable_dict() == serial.comparable_dict()
