"""Golden traces: SHA-256 of ``timing=off`` trace CSVs, pinned.

A trace CSV holds the loss, gradient norm, estimate norm, step size and
the oracle and communication ledgers at every recorded iteration, so an
unchanged hash means an unchanged run, bit for bit.  A change that moves
the RNG stream or a floating-point summation order changes these hashes;
such a change must say so and regenerate them in the same commit.

To regenerate, print ``_digest(spec)`` for every entry of GOLDEN.
"""

import hashlib

import pytest

from vradapt.engine import ExperimentConfig, run, trace_csv_text

BASE = dict(dataset="synthetic:600:40:1", T=300, cadence=7, timing="off", seed=11)
QUAD = dict(problem="quadratic", n=40, cond=1000.0, scheduler="adaptive")

# (case id, config overrides, expected SHA-256 of the trace CSV)
GOLDEN = [
    (
        "saga-adaptive",
        dict(method="saga", presets=True, scheduler="adaptive"),
        "59b31bfbb1bce91b66dd663d0a3554c6b11b3aad98b8751ec0834fbd1c3b7165",
    ),
    (
        "saga-theoretical",
        dict(method="saga", presets=True, scheduler="theoretical"),
        "3a30bf476c7034408efb2fd717c53237086a4288ba0fa8931cd60913755662ef",
    ),
    (
        "page-adaptive",
        dict(method="page", presets=True, scheduler="adaptive"),
        "2983b0931bd8eef4c8c9dc2f8db5d332b8ffcd4b4fb6b029bc651ab58b7b3b71",
    ),
    (
        "page-theoretical",
        dict(method="page", presets=True, scheduler="theoretical"),
        "711531dd45f12e2aa4ac77d73636c6907c9b362224e7e2ad5c16f1a46fba3dfb",
    ),
    (
        "page-with-replacement",
        dict(method="page", presets=True, with_replacement=True, scheduler="adaptive"),
        "5382d2f77ce39db7acef6abf56a6a5a205f6ec9d1a538272a86a2db805edd35c",
    ),
    (
        "zerosarah-adaptive",
        dict(method="zerosarah", presets=True, scheduler="adaptive"),
        "a366176ea7aa89f84fdead2f018970ee594996a5788de4311d030ee9a7b2fa27",
    ),
    (
        "zerosarah-theoretical",
        dict(method="zerosarah", presets=True, scheduler="theoretical"),
        "405c738cdadb94615d03b73819c752adccbc30aa4e86d4690a96c6c679af8cda",
    ),
    (
        "lsvrg-adaptive",
        dict(method="lsvrg", presets=True, scheduler="adaptive"),
        "1c9b18355263531ebc2704f417f4b7e2f17d468b7bafc742c2f66bc464524f59",
    ),
    (
        "lsvrg-with-replacement",
        dict(method="lsvrg", b=9, p=0.05, with_replacement=True, scheduler="theoretical"),
        "6bdf2eb85c23253f820ceada580223e59ddad28f7189e0ce3e7e84f01c9696dc",
    ),
    (
        "sega-adaptive",
        dict(method="sega", b=8, scheduler="adaptive"),
        "65cdfcf83f3c6e45696811d677f7fef9c00c47bc5f3be2f61f6be61b9d5f8a64",
    ),
    (
        "jaguar-adaptive",
        dict(method="jaguar", b=8, scheduler="adaptive"),
        "279ce240e452b9187f5f4afced9c0d4c18b0a03dcf375961089262dfb0b1d794",
    ),
    (
        "ef21-topk",
        dict(method="ef21", compressor="topk", k=5, clients=6, scheduler="adaptive"),
        "d948c86ee0ae7028025554e2407ba5bcaba7b6e4c6c6882cf7536cb5a9289c4d",
    ),
    (
        "dasha-randk",
        dict(method="dasha", compressor="randk", k=5, clients=6, scheduler="adaptive"),
        "893bfeae4cca4bb193de090109f47e6cf8fb25ae7c134c87dc35d5fdc095141e",
    ),
    (
        "diana-randk",
        dict(method="diana", compressor="randk", k=5, clients=6, scheduler="adaptive"),
        "cdf329b29713f2d5ddef4162642aecb1168f654be9e368d6832faaf56a84a6c1",
    ),
    (
        "ef21-round-robin",
        dict(method="ef21", compressor="topk", k=5, clients=6, scheme="round-robin",
             scheduler="adaptive"),
        "7042dcd905459da60369e1ada6fddb39b67c2c2a20d8a271bb8e618c052afb17",
    ),
    (
        "dasha-round-robin",
        dict(method="dasha", compressor="randk", k=5, clients=6, scheme="round-robin",
             scheduler="adaptive"),
        "b9c6c23c65ac5b74adfba8812f8cd5515a170f877e737cf1080cbd85fc14dac3",
    ),
    (
        "diana-round-robin",
        dict(method="diana", compressor="randk", k=5, clients=6, scheme="round-robin",
             scheduler="adaptive"),
        "f2bf400b49c7a3c3ebc9a305825af9b8d21bf3909e77452c5e7a06d014791dac",
    ),
    # the client-server updates with no compressor randomness: these pin
    # the update algebra apart from the compressor's random stream
    (
        "ef21-identity",
        dict(method="ef21", compressor="identity", clients=6, scheduler="adaptive"),
        "7fd31fc85d01be4a2527ddba074bc6d1f08d3b323b2300f1472c204ffa5ba319",
    ),
    (
        "diana-identity",
        dict(method="diana", compressor="identity", clients=6, scheduler="adaptive"),
        "89b152ad61150e9e481c240d3ed3e000204085bba58058fac8c48b442334a4ac",
    ),
    (
        "dasha-identity",
        dict(method="dasha", compressor="identity", clients=6, scheduler="adaptive"),
        "5c6ea617ea44bbf4cafe1b9bffefbde2ff0fde7fb730b92facdb58338f75aef5",
    ),
    # unequal client shares: 27 components over 4 clients are 7, 7, 7, 6
    (
        "ef21-quadratic",
        dict(problem="quadratic", n=27, d=9, method="ef21", compressor="topk", k=3,
             clients=4, scheduler="adaptive"),
        "a9a249eea9598d001a5c9bc3635e60663ee413f62bc12fea966c5f7934bdda64",
    ),
    (
        "dasha-quadratic",
        dict(problem="quadratic", n=27, d=9, method="dasha", compressor="randk", k=3,
             clients=4, scheduler="adaptive"),
        "43a07b0b100c7e50dc4fd14e401132836bb2beb0b3dbd8e536c6131223cdd9f2",
    ),
    (
        "diana-quadratic",
        dict(problem="quadratic", n=27, d=9, method="diana", compressor="randk", k=3,
             clients=4, scheduler="adaptive"),
        "f8cb25191845c2373a6a96dfdfa22b535093baf0f66f19c3084b033fbb340fa7",
    ),
    # the step-size rules not covered above
    (
        "page-adam",
        dict(method="page", presets=True, scheduler="adam", lr=0.05),
        "5dddd2479da2f42996a612d5e9f0fbedb7b26549b290843b5dd73adc33c30681",
    ),
    (
        "zerosarah-tuned",
        dict(method="zerosarah", presets=True, scheduler="tuned", multiplier=4.0),
        "42624ff84ca0c238c18ec0f7421840f1d1bcfa29df80aab02429f2ea73238490",
    ),
    (
        "lsvrg-constant",
        dict(method="lsvrg", presets=True, scheduler="constant", gamma=0.5),
        "9708793d56fcd7d7d746a61e66fcfcd4a87c46d66dbf8caab8689323b9bc12f0",
    ),
    (
        "saga-pl-quadratic",
        dict(problem="quadratic", n=40, d=10, cond=1000.0, method="saga", b=8, scheduler="pl"),
        "a9ba0ca23342bd6cfc62b3b489df282ae2a1e66d636401aa947c3f5144aeeea4",
    ),
    # the batch methods on dense components, also at d=1, where the
    # steps' column sums still add in row order (numpy's mean(axis=0)
    # would sum the then contiguous component axis pairwise)
    (
        "saga-quadratic",
        dict(QUAD, d=10, method="saga", b=8),
        "fb3a5b7bf22b53936ab0cb2a861ec37a97f9217fd41c604e0b94a512c2493b28",
    ),
    (
        "zerosarah-quadratic",
        dict(QUAD, d=10, method="zerosarah", b=8),
        "522c6e6837a1bb148ceb0a092a2296fb5f6c8ce26e949d12f833244779230691",
    ),
    (
        "lsvrg-quadratic",
        dict(QUAD, d=10, method="lsvrg", b=8, p=0.2),
        "ef2e4a9f99bf6c06ad3f011a293bf871606ae15cdb964455c551084eb9cdfd23",
    ),
    (
        "page-quadratic",
        dict(QUAD, d=10, method="page", b=8, p=0.2),
        "a545f4c9dc4fe8f4043bf2615ae7e052ef02c367762b22fca300f853e109a310",
    ),
    (
        "saga-quadratic-d1",
        dict(QUAD, d=1, method="saga", b=10),
        "493c89cc4046fc3f42b73475c8549036ff3a5d44eb92fe8f337a59c05c2599b2",
    ),
    (
        "zerosarah-quadratic-d1",
        dict(QUAD, d=1, method="zerosarah", b=10),
        "bec15d23e590cf3af4c97749a40b4c9227bdb341ac04def419683fd0d5f3beb1",
    ),
    (
        "lsvrg-quadratic-d1",
        dict(QUAD, d=1, method="lsvrg", b=10, p=0.2),
        "45629d8a9935bf240c883181ecf4a9f185ea73672d2e5a5d9e4ccdb37c876096",
    ),
    (
        "page-quadratic-d1",
        dict(QUAD, d=1, method="page", b=30, p=0.2),
        "4b955dec05d5f5519641acab11546ef1ca157554a0f11ea3718997720007cd27",
    ),
]


def _digest(overrides):
    res = run(ExperimentConfig(**{**BASE, **overrides}))
    return hashlib.sha256(trace_csv_text(res.trace).encode()).hexdigest()


@pytest.mark.parametrize(
    "overrides,expected", [(o, h) for _, o, h in GOLDEN], ids=[c for c, _, _ in GOLDEN]
)
def test_trace_hash_is_pinned(overrides, expected):
    assert _digest(overrides) == expected
