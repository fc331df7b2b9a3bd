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

# (case id, config overrides, expected SHA-256 of the trace CSV)
GOLDEN = [
    (
        "saga-adaptive",
        dict(method="saga", presets=True, scheduler="adaptive"),
        "713ce60943034e309d7aed70d7a0aae4fef49720b7e888af85cbc58d8f7afd5c",
    ),
    (
        "saga-theoretical",
        dict(method="saga", presets=True, scheduler="theoretical"),
        "89d4529e5793a6d538cdc8022d04b9fc27333d2d8b40865ba47ff3e8def3e20d",
    ),
    (
        "page-adaptive",
        dict(method="page", presets=True, scheduler="adaptive"),
        "b1c27600591a5686293660d0ba7320ee39e41e05c67ebc67d36a8bc6081e5152",
    ),
    (
        "page-theoretical",
        dict(method="page", presets=True, scheduler="theoretical"),
        "06c66cca7ce5ae1f8c4b8961a9587f98a60a9a507d5b4bbf8e2ac2defe9d0651",
    ),
    (
        "page-with-replacement",
        dict(method="page", presets=True, with_replacement=True, scheduler="adaptive"),
        "5382d2f77ce39db7acef6abf56a6a5a205f6ec9d1a538272a86a2db805edd35c",
    ),
    (
        "zerosarah-adaptive",
        dict(method="zerosarah", presets=True, scheduler="adaptive"),
        "e1ef004a6f9a8483ec8e15f41142f156f0cc5bfaf44b3c443b261a387b6e873e",
    ),
    (
        "zerosarah-theoretical",
        dict(method="zerosarah", presets=True, scheduler="theoretical"),
        "fc64b770c6475202834dea2e71b22797bbe45651f9848c441038d186cc2e30b9",
    ),
    (
        "lsvrg-adaptive",
        dict(method="lsvrg", presets=True, scheduler="adaptive"),
        "20647d7b03d57d836485e620364e14eee5451cb29011c286460b20421ce9b049",
    ),
    (
        "lsvrg-with-replacement",
        dict(method="lsvrg", b=9, p=0.05, with_replacement=True, scheduler="theoretical"),
        "6bdf2eb85c23253f820ceada580223e59ddad28f7189e0ce3e7e84f01c9696dc",
    ),
    (
        "sega-adaptive",
        dict(method="sega", b=8, scheduler="adaptive"),
        "80affea92b6679fcf9a3e7eaa557b4d9d29ed7ed4b49434ed690df820bdc13d9",
    ),
    (
        "jaguar-adaptive",
        dict(method="jaguar", b=8, scheduler="adaptive"),
        "104d759be57522cd715ce320ec4e834ac64362e075ad03f328d551645405603b",
    ),
    (
        "ef21-topk",
        dict(method="ef21", compressor="topk", k=5, clients=6, scheduler="adaptive"),
        "d948c86ee0ae7028025554e2407ba5bcaba7b6e4c6c6882cf7536cb5a9289c4d",
    ),
    (
        "dasha-randk",
        dict(method="dasha", compressor="randk", k=5, clients=6, scheduler="adaptive"),
        "6d11c137b187e322865ab05595e5a401edd8b3bca4f652891407f0efb9a1c593",
    ),
    (
        "diana-randk",
        dict(method="diana", compressor="randk", k=5, clients=6, scheduler="adaptive"),
        "3e8544a30e4c932a3a39797f44c55aac037e152dfc25fd996965c71b9d1c8a14",
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
        "54930e202efb2cbf4a45a99eef28d2d83114e32895b8562767fbd5158a847720",
    ),
    (
        "diana-round-robin",
        dict(method="diana", compressor="randk", k=5, clients=6, scheme="round-robin",
             scheduler="adaptive"),
        "1b89ed92b41037398ac7ed2d6654584f43713b3905f980cb67b6d60981343f64",
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
        "fc1e5f9f398d3c2e52bc273257acccec6b8ab8d7cd9a8b3af7f51b5e29ba167f",
    ),
    (
        "diana-quadratic",
        dict(problem="quadratic", n=27, d=9, method="diana", compressor="randk", k=3,
             clients=4, scheduler="adaptive"),
        "9437b981ef2c411e37a5d9e244011dcd7307cbe0430475ce094a2a0ec0ba02b1",
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
