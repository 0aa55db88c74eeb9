"""Pinned results for the engine variants that run on the serial tier.

The suite benchmark pins only the Fig. 8 and Fig. 14 configurations.
This test pins, for every variant that routes epochs to the serial
engine (the per-access L1 filter, page migration, the MESI and
write-invalidate directories, LADM's insertion filter, queueing and
non-integer latencies, the last also on the kernel tier), a SHA-256
digest of each organization's ``comparable_dict()`` over the fast-path
test specs.  A change to how the serial tier probes or charges that
moves any simulated field fails here, whichever variant it touches.

To re-record after a deliberate model change, run
``PYTHONPATH=src:tests/sim python tests/sim/test_serial_variants.py``
and paste the printed table over ``DIGESTS``.
"""

import hashlib
import json

import pytest

from repro.arch import baseline, with_coherence
from repro.sim import EngineParams
from repro.sim.run import simulate

from test_engine_fastpath import DENSITY, SCALE, SPECS

ORGS = ("memory-side", "sm-side", "dynamic", "sac", "ladm")

# A small miss window makes the MLP latency bound bind in part of the
# epochs, so the per-chip latency sums reach ``cycles``.
MLP = {"max_outstanding_per_chip": 64}
FRACTIONAL = {"latency_noc": 37.5, "latency_llc": 41.25,
              "latency_ring_hop": 118.3, "latency_dram": 203.7}

#: variant -> (EngineParams kwargs, coherence protocol, page allocation).
#: Migration needs round-robin homes: under first touch the dominant
#: accessor already owns nearly every page.
VARIANTS = {
    "serial": ({"batched": False}, "software", "first-touch"),
    "l1": (dict(MLP, model_l1=True), "software", "first-touch"),
    "migration": ({"page_migration": True}, "software", "round-robin"),
    "queueing": (dict(MLP, batched=False, model_queueing=True),
                 "software", "first-touch"),
    "fractional": (dict(MLP, batched=False, **FRACTIONAL),
                   "software", "first-touch"),
    "fractional-kernel": (dict(MLP, **FRACTIONAL),
                          "software", "first-touch"),
    "mesi": ({}, "hardware-mesi", "first-touch"),
    "hardware": ({}, "hardware", "first-touch"),
    "hardware-l1": (dict(MLP, model_l1=True), "hardware", "first-touch"),
}

#: Variants whose epochs all run on the serial tier.
SERIAL_ONLY = frozenset(VARIANTS) - {"fractional-kernel"}

DIGESTS = {
    ('serial', 'memory-side'):
        '575d86cbc16acb8a197c6144da3ee680304a86b277c193ddfefdecc3318a013a',
    ('serial', 'sm-side'):
        '689078cdd9111829ffd0fa90ddde1003914e7ff68be6be67a1d5fd0a02c84807',
    ('serial', 'dynamic'):
        '366595b84036a2ade625a76a1bec23b80c67f5adcb2e2e9e0e5b3438177e8d98',
    ('serial', 'sac'):
        'ad8059614db76216623abb1e7f03ae4ef9982211da5013ed047d2e4f6b2d5097',
    ('serial', 'ladm'):
        '50d4a6622348f1164a421190406e8dd7a6bdf5277b046d7b7e98557b9c4a54ad',
    ('l1', 'memory-side'):
        'cd5059c5edcb17eb080474ebe9736051f6ae13011a9d25f43e148bd94a4095c7',
    ('l1', 'sm-side'):
        'b22c79e5d387a43d5f832eba9a86a8a068abb20995fd41ed4c9242da25652975',
    ('l1', 'dynamic'):
        'f9697ee6287247ec27975b6bad064a3278dd0c567f3c1f8a892874a9571d0222',
    ('l1', 'sac'):
        'fc76e786520d1b2b4f350aa5500ac17593d0893eba4c6a1715fe1761b3471307',
    ('l1', 'ladm'):
        '6c900c8313065e4b954700f45dbd44e90355508177274dadb6cde26c1ac9b2e0',
    ('migration', 'memory-side'):
        '3a9b0bbc89c3d1862cdb0461fd96b80b390e997fc5d32bfc457c9961b8de76e4',
    ('migration', 'sm-side'):
        '01670f1ddd339ef6fc323d7262941ae262fec82a8e3c98b4bd62a3a6d7ae9936',
    ('migration', 'dynamic'):
        '73f8c89750accf3c596136773fab177630d83a7fdf1861fe7c5759590c35af12',
    ('migration', 'sac'):
        'e67379c6fd01a6db49ee42bbb2826ab945e171ea036697a63a37caeda495effe',
    ('migration', 'ladm'):
        '9b86d730caf14db4b59b18cac82a34e53858342fbc67cf0f37fb2a4ae530712d',
    ('queueing', 'memory-side'):
        'ba0e522e850e2792778021398364dfe2f25bd30907bcff0a8b70217ced06aee0',
    ('queueing', 'sm-side'):
        '904f3c064f3327867f81fc77640be02c8d2342c43e96eb2c1cf4200d7fd11b05',
    ('queueing', 'dynamic'):
        '4b9485ca8c4b31b696708f8ff1c436cb738d943dbdadba3064c77ac76864d512',
    ('queueing', 'sac'):
        '9932718f64e00d42f261e6ee400d242333f4d07705471cefedae2ee1659574f0',
    ('queueing', 'ladm'):
        '6f9f9195221bc8c8626efa5ba1567db1b44de11126513b6970d45f3128bcf8d4',
    ('fractional', 'memory-side'):
        'f0565c4607a5772ecb288bae727577d8b434b634cd1a796cb145b099aab0569d',
    ('fractional', 'sm-side'):
        '81b33b07e9209b4533f4942076afc29fba17ee4acef143037c43744ab71ba76e',
    ('fractional', 'dynamic'):
        '88f25d8025e95b872da33727bff42128be17f12bf5c4fa88e123dd3272d6bfb2',
    ('fractional', 'sac'):
        '031ba67a9e46f3499bf94e1afbeb57995778617a4c446ba7fcef519e21c9491d',
    ('fractional', 'ladm'):
        'ed614362ab3d86220db3643609b5b6048e77f3dffff18070d4b289af82463126',
    ('fractional-kernel', 'memory-side'):
        'f0565c4607a5772ecb288bae727577d8b434b634cd1a796cb145b099aab0569d',
    ('fractional-kernel', 'sm-side'):
        '81b33b07e9209b4533f4942076afc29fba17ee4acef143037c43744ab71ba76e',
    ('fractional-kernel', 'dynamic'):
        '88f25d8025e95b872da33727bff42128be17f12bf5c4fa88e123dd3272d6bfb2',
    ('fractional-kernel', 'sac'):
        '031ba67a9e46f3499bf94e1afbeb57995778617a4c446ba7fcef519e21c9491d',
    ('fractional-kernel', 'ladm'):
        'ed614362ab3d86220db3643609b5b6048e77f3dffff18070d4b289af82463126',
    ('mesi', 'memory-side'):
        '575d86cbc16acb8a197c6144da3ee680304a86b277c193ddfefdecc3318a013a',
    ('mesi', 'sm-side'):
        'e776f6fb507b3fe0264fb349bc34701097b6c8f8d167504071c768ff7873be58',
    ('mesi', 'dynamic'):
        '5a1db4e05ea9e2f56188c591bc183efb35e312bf72196b56b79287060db065be',
    ('mesi', 'sac'):
        '6edc1fbc50d8c7d2d854a032c98142ca7a4b30d9f007aed49f4c4a6bcc535195',
    ('mesi', 'ladm'):
        '32b59d12a25e590855d113849fc0635bf5433b2f6c4b6ce433def3fc699b9a2b',
    ('hardware', 'memory-side'):
        '575d86cbc16acb8a197c6144da3ee680304a86b277c193ddfefdecc3318a013a',
    ('hardware', 'sm-side'):
        '011e8c3aece65dd88f43f55027ac543eba48c4504979fca6165e5d37056cfc3b',
    ('hardware', 'dynamic'):
        '20113c65f6a1871589f089f2027685c901329bbe5dbba4e76489cd4b33617a33',
    ('hardware', 'sac'):
        '5b7b9d1ac75671898024f6e6c01a40a2ab0d80aa582220ee95ca00d20db55d36',
    ('hardware', 'ladm'):
        'f435ca2b06d74f424bb8d173fcd35a69e7b5fb3f8b205896b8deb364db596c40',
    ('hardware-l1', 'memory-side'):
        'cd5059c5edcb17eb080474ebe9736051f6ae13011a9d25f43e148bd94a4095c7',
    ('hardware-l1', 'sm-side'):
        '3e328e2db4053c507fd595c7270dae9028680174ab136894ebf40b23d660eca9',
    ('hardware-l1', 'dynamic'):
        '30f6ade8c310e5f575959a5d5944fbee727f5c6fba2deffcbd5f779486169d48',
    ('hardware-l1', 'sac'):
        'bcb25a4ca2dcd1d5fec380af92be63c09ad85448b2d03a60818c3e8a76a05e93',
    ('hardware-l1', 'ladm'):
        '2758d80b13aa84787632c04f235d9feafae93b8850ea5eb413563a62620568d9',
}


def run_variant(variant, organization):
    kwargs, protocol, allocation = VARIANTS[variant]
    config = with_coherence(baseline(), protocol).with_updates(
        page_allocation=allocation)
    runs = [simulate(bench, organization, config=config, scale=SCALE,
                     accesses_per_epoch=DENSITY,
                     params=EngineParams(**kwargs))
            for bench in SPECS]
    text = json.dumps([stats.comparable_dict() for stats in runs],
                      sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), runs


@pytest.mark.parametrize("organization", ORGS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_matches_pinned_digest(variant, organization):
    digest, runs = run_variant(variant, organization)
    if variant in SERIAL_ONLY:
        assert all(stats.vector_epochs == 0 for stats in runs)
    assert digest == DIGESTS[variant, organization]


if __name__ == "__main__":
    for name in VARIANTS:
        for org in ORGS:
            print(f"    ({name!r}, {org!r}):\n"
                  f"        {run_variant(name, org)[0]!r},")
