"""Golden traces: SHA-256 of ``timing=off`` trace CSVs, pinned.

A trace CSV holds the loss, gradient norm, estimate norm, step size and
the oracle and communication ledgers at every recorded iteration, so an
unchanged hash means an unchanged run, bit for bit.  A change that moves
the RNG stream or a floating-point summation order changes these hashes;
such a change must say so and regenerate them in the same commit.

Each case also pins a trajectory digest (``TRAJECTORY``): the SHA-256
of the ``TRAJECTORY_FIELDS`` of every row, read by name and printed with
``repr``.  It leaves out the loss and any column a trace gains later, so
a change that moves only the loss or adds a column regenerates GOLDEN
while TRAJECTORY holds, which shows that no iterate, step size or ledger
moved.

Cases with a ``file`` entry run on a dataset with uneven rows (see
``FILES``), written to a libsvm file once per process and read back
through ``dataset=``.

To regenerate, run this file as a script from anywhere:

    python tests/test_golden_traces.py

It prints the GOLDEN list and the TRAJECTORY table as they stand here,
comments and layout included, with each hash replaced by the current
digest of its run, and names the cases whose digest changed on stderr.
Paste them over the ones below.
"""

import functools
import hashlib
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from test_problems import _dominant_dataset, _ragged_dataset  # noqa: E402
from vradapt.data import Dataset, synthetic_dataset, write_libsvm  # noqa: E402
from vradapt.engine import ExperimentConfig, run, trace_csv_text  # noqa: E402

BASE = dict(dataset="synthetic:600:40:1", T=300, cadence=7, timing="off", seed=11)
QUAD = dict(problem="quadratic", n=40, cond=1000.0, scheduler="adaptive")


def _dense_row_dataset():
    """The benchmark's shape, 4000 rows of 14 binary features out of 123,
    with row 0 holding all 123."""
    ds = synthetic_dataset(4000, 123, seed=0)
    lengths = np.diff(ds.indptr)
    lengths[0] = ds.d
    indices = np.concatenate([np.arange(ds.d), ds.indices[ds.indptr[1]:]])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return Dataset(indptr, indices, np.ones(len(indices)), ds.labels, ds.n, ds.d)


# uneven rows: rows of 0 to 12 entries with signed zeros; one-hot groups
# with a dominant category; one row much longer than the rest
FILES = {
    "ragged": lambda: _ragged_dataset(0),
    "dominant": lambda: _dominant_dataset(0),
    "dense-row": _dense_row_dataset,
}

# (case id, config overrides, expected SHA-256 of the trace CSV)
GOLDEN = [
    (
        "saga-adaptive",
        dict(method="saga", presets=True, scheduler="adaptive"),
        "845d120e70a1ce864741ebf386e02b489978b3de33189c135bd6da60e0e2f1a9",
    ),
    (
        "saga-theoretical",
        dict(method="saga", presets=True, scheduler="theoretical"),
        "1d96838c1d68ff9dae16f068dd8a038afc2c1b294362ba8bdf45f487bf3dd710",
    ),
    (
        "page-adaptive",
        dict(method="page", presets=True, scheduler="adaptive"),
        "da25a49e574f02bbdf53ce398f9bcf57b16ae4bf441a7706ce26d8f58ba24d50",
    ),
    (
        "page-theoretical",
        dict(method="page", presets=True, scheduler="theoretical"),
        "8d9e1cf049fef92d24381a5b3f92f4e8862224f269565d803092a855a75c4e37",
    ),
    (
        "page-with-replacement",
        dict(method="page", presets=True, with_replacement=True, scheduler="adaptive"),
        "9331d0f2fc3d07456498a4b6913d9930657f1ed4206271b6d98e9c656548af54",
    ),
    (
        "zerosarah-adaptive",
        dict(method="zerosarah", presets=True, scheduler="adaptive"),
        "3eb48ac37c58ae7b38166fe53e63e0776b7abd3a2b90cf88ecc7cc911641ca41",
    ),
    (
        "zerosarah-theoretical",
        dict(method="zerosarah", presets=True, scheduler="theoretical"),
        "e642196b4dbcfc6b5091946df4a5a4ad8ad87dfb1f1660bb3a26e876fefefd42",
    ),
    (
        "lsvrg-adaptive",
        dict(method="lsvrg", presets=True, scheduler="adaptive"),
        "8b85d9c9271fdd205bad7a36e2519d39201e43741a2f2edf9fbe79991517dbcd",
    ),
    (
        "lsvrg-with-replacement",
        dict(method="lsvrg", b=9, p=0.05, with_replacement=True, scheduler="theoretical"),
        "8cb45c9d73fbe795954c6188c2c1a71acc33a613a1b1ba457127939e7bdecf62",
    ),
    (
        "sega-adaptive",
        dict(method="sega", b=8, scheduler="adaptive"),
        "3e0daac8bf87bbc27d9cf52bef9bb23b58c7ebc075e27873ae1668559fa94aef",
    ),
    (
        "jaguar-adaptive",
        dict(method="jaguar", b=8, scheduler="adaptive"),
        "9c98ef19a351629cee00b93d0efdab9b7dfb120fd009a6cfb4ac1a98ed5d087c",
    ),
    (
        "ef21-topk",
        dict(method="ef21", compressor="topk", k=5, clients=6, scheduler="adaptive"),
        "56210f8c687f23b646183750f9034f968958d3cbe10cb10090aedfadce1cc7d5",
    ),
    (
        "dasha-randk",
        dict(method="dasha", compressor="randk", k=5, clients=6, scheduler="adaptive"),
        "d988efc8e21134f04d8eb903d0e53e87bec4c00337cf8e8831b86629199acd13",
    ),
    (
        "diana-randk",
        dict(method="diana", compressor="randk", k=5, clients=6, scheduler="adaptive"),
        "6b420815a5110114c8665bb55d8e64a8c55bbb6bcf59193503503a0746f0e239",
    ),
    (
        "ef21-round-robin",
        dict(method="ef21", compressor="topk", k=5, clients=6, scheme="round-robin",
             scheduler="adaptive"),
        "f542596ce59e38ada526f20d1f5f76083d3fb130d9e512f4c94b6dc4ab355829",
    ),
    (
        "dasha-round-robin",
        dict(method="dasha", compressor="randk", k=5, clients=6, scheme="round-robin",
             scheduler="adaptive"),
        "4ad311d8f739bac35001c53713959d7ccad65a1ca351fc1ab6b1670f58bbb671",
    ),
    (
        "diana-round-robin",
        dict(method="diana", compressor="randk", k=5, clients=6, scheme="round-robin",
             scheduler="adaptive"),
        "40bb8ff403eacad79543c741d5b00635fb7b32e824a0cbe3d135334e7b4b7da6",
    ),
    # the client-server updates with no compressor randomness: these pin
    # the update algebra apart from the compressor's random stream
    (
        "ef21-identity",
        dict(method="ef21", compressor="identity", clients=6, scheduler="adaptive"),
        "8ad06737f20010d4d675d499c7fe264a94ae31e4db7fd2ced0e1c82590b65dd5",
    ),
    (
        "diana-identity",
        dict(method="diana", compressor="identity", clients=6, scheduler="adaptive"),
        "90b2e6b5f4e706d9465cff66b228a02f5f4c28f593af2db9ac6d00393b1f0f20",
    ),
    (
        "dasha-identity",
        dict(method="dasha", compressor="identity", clients=6, scheduler="adaptive"),
        "90a9a0a59b0505d9a8fd72af4fa33df46f986652b385856ba83c24e0dfe45521",
    ),
    # unequal client shares: 27 components over 4 clients are 7, 7, 7, 6
    (
        "ef21-quadratic",
        dict(problem="quadratic", n=27, d=9, method="ef21", compressor="topk", k=3,
             clients=4, scheduler="adaptive"),
        "5b0f77082f6eaaeb7f51da0017ae1480cb8a32d7c30274f218d13cb8946dd3b4",
    ),
    (
        "dasha-quadratic",
        dict(problem="quadratic", n=27, d=9, method="dasha", compressor="randk", k=3,
             clients=4, scheduler="adaptive"),
        "265de9ad2ae6cc0ec5c2873c9693f9ecdf21cbc68dca7a531f5eb86e735a622d",
    ),
    (
        "diana-quadratic",
        dict(problem="quadratic", n=27, d=9, method="diana", compressor="randk", k=3,
             clients=4, scheduler="adaptive"),
        "dfdd688005eb37e8191b98039b4ca49e8b46ecc0a873132bade2154c1d81cc2f",
    ),
    # the step-size rules not covered above
    (
        "page-adam",
        dict(method="page", presets=True, scheduler="adam", lr=0.05),
        "0701dc04978fbfaba91f6a4d7225c6a5ac9cfba99edb70c30753dabd93bbb6e8",
    ),
    (
        "zerosarah-tuned",
        dict(method="zerosarah", presets=True, scheduler="tuned", multiplier=4.0),
        "353a9c78254ca2a24ac605d0299ccef4bf973f46caaca798d4bbd89b241505d6",
    ),
    (
        "lsvrg-constant",
        dict(method="lsvrg", presets=True, scheduler="constant", gamma=0.5),
        "04465bba66a9982843ae7831831d35f87d687767785146bd33317151af4fcb7f",
    ),
    (
        "saga-pl-quadratic",
        dict(problem="quadratic", n=40, d=10, cond=1000.0, method="saga", b=8, scheduler="pl"),
        "b5ad1a11a82343a912730a4d6626fd87798a826a9e2865a8214189babcb5c2e5",
    ),
    # the batch methods on dense components, also at d=1, where the
    # steps' column sums still add in row order (numpy's mean(axis=0)
    # would sum the then contiguous component axis pairwise)
    (
        "saga-quadratic",
        dict(QUAD, d=10, method="saga", b=8),
        "61664cccb3b905137014f4d558eed02a4fedcd87a605d53563b7745f8140daa5",
    ),
    (
        "zerosarah-quadratic",
        dict(QUAD, d=10, method="zerosarah", b=8),
        "6473322bba4e805c42117e4f2171619b7e4c6b4d69de69068062371b1bc6d66b",
    ),
    (
        "lsvrg-quadratic",
        dict(QUAD, d=10, method="lsvrg", b=8, p=0.2),
        "6253d214b40f1263b962639ffacf8f2adee31cf42ebf84a40f35928de04295e5",
    ),
    (
        "page-quadratic",
        dict(QUAD, d=10, method="page", b=8, p=0.2),
        "701b176bda195d759ba315f1d1d1396c1756a3d824666d262d7781b6ff0acbdb",
    ),
    (
        "saga-quadratic-d1",
        dict(QUAD, d=1, method="saga", b=10),
        "367ff920b1d53aa67200d454830eb1ccf0fcefc60b6aec38070a0a692b8de1d5",
    ),
    (
        "zerosarah-quadratic-d1",
        dict(QUAD, d=1, method="zerosarah", b=10),
        "dbef53f0861baffe7b37f379d3e96b883e3aa21e648caf144e74ce9c3454bdbd",
    ),
    (
        "lsvrg-quadratic-d1",
        dict(QUAD, d=1, method="lsvrg", b=10, p=0.2),
        "69fed22a6306b3a66ea54ab2f7ac7f3d68566dce21e9c20d2f78d97f4190d6c6",
    ),
    (
        "page-quadratic-d1",
        dict(QUAD, d=1, method="page", b=30, p=0.2),
        "d218b7803eccd3278f2a1f73da59baf2175df1f39d110f87ecb2aecf2ba12c73",
    ),
    # the row-gathering methods and JAGUAR on uneven rows (``FILES``)
    (
        "saga-ragged",
        dict(file="ragged", method="saga", presets=True, scheduler="adaptive"),
        "683657dd7b95aa05a50dda516f7edc2fd82af01aa9db86a2ec2706b2b2e1c2f8",
    ),
    (
        "zerosarah-ragged",
        dict(file="ragged", method="zerosarah", presets=True, scheduler="adaptive"),
        "6d5e0aad3cd59e45116801383132d4856a961d0b5df9ed5c55ded91b6399563a",
    ),
    (
        "lsvrg-ragged",
        dict(file="ragged", method="lsvrg", presets=True, scheduler="adaptive"),
        "341c345279df0078263710f3e57529ac5d4726c4f283fe140ef5526a0a6ce317",
    ),
    (
        "page-ragged",
        dict(file="ragged", method="page", presets=True, scheduler="adaptive"),
        "c8c0b7a0e60bffcd9d531747f686abd691ddd197cbb61414b433c9832af02a4c",
    ),
    (
        "jaguar-ragged",
        dict(file="ragged", method="jaguar", b=8, scheduler="adaptive"),
        "f0563b34baba1d2ab576930e6779da1a0b48051854ec3ba70e9ef219bb9a8634",
    ),
    (
        "saga-dominant",
        dict(file="dominant", method="saga", presets=True, scheduler="adaptive"),
        "bf6662fa279a738ebbe4113128cce5a31dee0a252f57bcd42367083215f41de4",
    ),
    (
        "zerosarah-dominant",
        dict(file="dominant", method="zerosarah", presets=True, scheduler="adaptive"),
        "0ece22818fb358ea5af4816d31abc665db459e96d4aa7cb38c82fb8b5ff55f7f",
    ),
    (
        "lsvrg-dominant",
        dict(file="dominant", method="lsvrg", presets=True, scheduler="adaptive"),
        "b3d1ed0460491c993f113e96922c755fab66d4152a2ea229b42bf51e3160a3f4",
    ),
    (
        "page-dominant",
        dict(file="dominant", method="page", presets=True, scheduler="adaptive"),
        "bf634c9476966c8e962877c2465e99050cd34748aeb0958d979b12211a036168",
    ),
    # batches drawn with replacement repeat rows, and each repeat adds
    (
        "page-dominant-with-replacement",
        dict(file="dominant", method="page", presets=True, with_replacement=True,
             scheduler="adaptive"),
        "a15f725cb211f1751e21c60c1708b0910e8c27570bf06c22c3d7de2654d7dcb1",
    ),
    (
        "lsvrg-dominant-with-replacement",
        dict(file="dominant", method="lsvrg", presets=True, with_replacement=True,
             scheduler="adaptive"),
        "e2941486bd35a0dcc9fe2aed8841ef9608f162efacc4f337d070cdbab8d9618e",
    ),
    (
        "jaguar-dominant",
        dict(file="dominant", method="jaguar", b=8, scheduler="adaptive"),
        "2fc9cf51d95d0bd81f4a87a03167e194adbc598edca257a3177fc13170533ecb",
    ),
    (
        "saga-dense-row",
        dict(file="dense-row", method="saga", presets=True, scheduler="adaptive"),
        "5693efc070c1937a13ce51d8054b14f80a21df5fcae004ca435b6da85363b0d3",
    ),
    (
        "zerosarah-dense-row",
        dict(file="dense-row", method="zerosarah", presets=True, scheduler="adaptive"),
        "a402ec60e7cfd06ed3f32fc724848705c69b440464c122c2306283375e25d76e",
    ),
    (
        "lsvrg-dense-row",
        dict(file="dense-row", method="lsvrg", presets=True, scheduler="adaptive"),
        "45952ece14e54376128b6f9c7f62cc79ae79575a8b948f22f0ca991187d71cf7",
    ),
    (
        "page-dense-row",
        dict(file="dense-row", method="page", presets=True, scheduler="adaptive"),
        "66105d9db6e9bd7c755668cf328396c979c29395ce6a2b8ad9c4092861d528f9",
    ),
    (
        "jaguar-dense-row",
        dict(file="dense-row", method="jaguar", b=8, scheduler="adaptive"),
        "01af8f0bb6e1b7e4962abf71afc2763ea5c8f8eebb185558ca41f89e9fb053aa",
    ),
]


TRAJECTORY_FIELDS = ("t", "grad_norm", "est_norm", "gamma", "grad_calls", "partial_calls", "bits")

# case id -> SHA-256 of the trajectory fields of its trace (see above)
TRAJECTORY = {
    "saga-adaptive": "1c58424c429ad203eff8302496bb5fcae4a5945c568ebfa099cf7144ab1d0309",
    "saga-theoretical": "4f8ce08e4475702358c4302007166f86ae10eacd2b90d9245b0a3c2dcee1aa9e",
    "page-adaptive": "feded71cb64713f88101e8ef7926d1663db81bd4a9baaed55acb87171a154a9c",
    "page-theoretical": "86d4e203d0fcfcbccc9ede235d5c50e9b0b51206b4f7910787cfa896c26aeeb1",
    "page-with-replacement": "0b3bde924cdd3fd98d9629c47a9e5521b830d2a133b594b1445e48c9552f52eb",
    "zerosarah-adaptive": "b46e6399b32566e9d661b28c08449838f04b97fc56d802a06b9423141c519040",
    "zerosarah-theoretical": "d9f0d4bdd39c865f0f7ce7db804a18a4a590d381d9adc65ea13164d43fea294c",
    "lsvrg-adaptive": "96e0ef98e28a247d7e9e1073e2b6dd626093ba9876bb31c51f76761f7c0fbe4b",
    "lsvrg-with-replacement": "21d3f78677f553abc2b4b6ee3ddcceb8607ff50f7072331f5e0ae4432192ac29",
    "sega-adaptive": "f0ce6a6b91e1330d60943c9e2f130d3493363bc40924d4d6504a73d02b8f6795",
    "jaguar-adaptive": "34115df24f0c384b3483f42ebd66ac766fafd90e61e2506b29275795ca3f343b",
    "ef21-topk": "0bc640116e008e90f831db9f0fee768102921cadd48bbc1fef2990b1c31e5b36",
    "dasha-randk": "e3ebb8376b9c2c6c0e1908ca73cbc5edf073e7dd705b439d10ddd83af07b6cff",
    "diana-randk": "2cee9504edacc88f77ebf3360363590d79188f7c200d12a00316ac2a7f27754c",
    "ef21-round-robin": "8f91cb267e897635e27382f8f40e406df096b393b88076788cd2dcb1d23ff63f",
    "dasha-round-robin": "9d7a26441f022aef518c1e240ba159dc1193dc6d612005ea78abf92c7898705a",
    "diana-round-robin": "eefcdf08ec6c9dedd800343e56c2b8b5719993c21ecd6e4d59d57d290225ba1f",
    "ef21-identity": "560866a64c0a6387369ca2bcfa4e78c7ef9dbae6a0b1e895c3a7ef7115c32762",
    "diana-identity": "ddb32f911a5706996481e5269e4a10ec1a2ae2ca65316ca38e63adb6d4859958",
    "dasha-identity": "4d4f4942d9967be2f36e2591b8517acc670f83a89061fd1b5b5ea1dd9282b7db",
    "ef21-quadratic": "a35cf678e2a2bc15c33970210d044ca5ed73919bf3a76d0f0a4249b525420df6",
    "dasha-quadratic": "d49b06dd57ffae11759a741ec726ad6c5ae249994da631f9f92162c3d39f83e9",
    "diana-quadratic": "e29aab5c4cfbce4eb0e52ec6676842f40e02d7ab046846dc9e5bbda3604d582a",
    "page-adam": "fbaea3d0a6f6b2bd15477d546b6072a83b986e614aa4cbaffc080e24b1226805",
    "zerosarah-tuned": "65080f60440f7ff341719df0b63f1382fb00e5e9c9d932efcc0e239878a79a49",
    "lsvrg-constant": "b10a7dfc6c37f0e83a346053489bbbd02b72c426922b9a5e491196ca4684fbbc",
    "saga-pl-quadratic": "f72ec96684ac872cd6779255ecbe638404276643d5611f53045d4d775f0094e1",
    "saga-quadratic": "7f65b30ec5b63791d6fb876ecbb4de6b71807e56d22b9ba42d8bdb10bf7de4d0",
    "zerosarah-quadratic": "ca322fbdc92b779ca8ae32a44dfc799709fda73c2504f4183936ff4351be0226",
    "lsvrg-quadratic": "0ff0bdc75787df07d92c7b6ea61e7a963d71b84eb21473d25b17066e56f47af7",
    "page-quadratic": "3a7308365c1026c88f0bac575f8393a99b18f343c291781bdb99880b6729cf5b",
    "saga-quadratic-d1": "01c047bfcb3b5a36c6b25fe40143b220e3e8c244df1dc211c80d019be07e0d56",
    "zerosarah-quadratic-d1": "40462eacc75c708a3222c02f5fd87b25ad40fb9178222e5a611a6e0b026d717a",
    "lsvrg-quadratic-d1": "8f65b92193c88e1b840aab7135b430d3c01a0e7ff8541d7586b3cd563feea625",
    "page-quadratic-d1": "0e9e4166c8b2f188d1c7217eeb0992dc6c610b3d9e9ee64ff290df5e16e6826f",
    "saga-ragged": "da53f3ffef8bb8f4fbf62d1f5ec5d1d45904e48b0e8fa327c7b7af1e55be2f56",
    "zerosarah-ragged": "99512574654c055300d986822e00dcc2ea82a8296845917b879e800b92f10fc0",
    "lsvrg-ragged": "5b47276d2a11fb38f8c5f2471f3deae8ad5a94841cbd70da6d5ee0ae0a7ed5ae",
    "page-ragged": "cb4a3af7a0f7d00566799720646d7fc394866f749f81c8a21bab444632b5999b",
    "jaguar-ragged": "98e47c7d8fe2474e33396a249d9fcc86d0880bffce422ee2215a982431038437",
    "saga-dominant": "7d6099e7fd0b169b58f6566031d3c6249ae18e0060a9e09d1975b2df51e8970e",
    "zerosarah-dominant": "b47630df0f4066a889451f8b6e52f5801786d196cf354d4b7908586227487808",
    "lsvrg-dominant": "6bcebe292812444f5b0ad9e4a9f02c324127db31a10fccbeb2e2faf25e71d267",
    "page-dominant": "0f92c2ef8ff15beb032b5537001e817d6cd6b316f52b38fead0af718ff42275b",
    "page-dominant-with-replacement": "9cd30597f0d8afb38ad575413a2207cd95a7fd3638aa77bc6cb810bb4c99c09b",
    "lsvrg-dominant-with-replacement": "19c26f5a27d13baece002dbad0622ee7956e7d61c04a557ca323cd5ed59bc103",
    "jaguar-dominant": "5f7f70cfd5e9eb473008b148b7d548dfbd7030bb91294824bf9d0cbfd219f1ba",
    "saga-dense-row": "5b243766f1621284ab8273323138f5d4f574d354fe0f5ab4ecc99e4a0cf7ce3b",
    "zerosarah-dense-row": "33d3362bef08065f2b40699ab0b53c9be9e27acefafefe3c7a45b562718d7559",
    "lsvrg-dense-row": "7a7a770a771ca888db3913de04d89c05e85fbe3e860933cffb6464e387046f8c",
    "page-dense-row": "64358509fc7df0a5ee2c4ce1233adfba7e3cc9227addb584206f3e6451f64cfa",
    "jaguar-dense-row": "2a0fa1ffd3a9a697fd3e31c8325681c9c652cde77e30f73c0fa8d453d4392e5a",
}


_temp_dir = functools.cache(tempfile.TemporaryDirectory)


@functools.cache
def _dataset_file(name):
    """``FILES[name]`` written to a libsvm file that lasts the process:
    the config entries that read it back."""
    ds = FILES[name]()
    path = str(Path(_temp_dir().name) / f"{name}.libsvm")
    write_libsvm(ds, path)
    return dict(dataset=path, force_dim=ds.d)


def _trace(overrides):
    config = {**BASE, **overrides}
    if "file" in config:
        config.update(_dataset_file(config.pop("file")))
    return run(ExperimentConfig(**config)).trace


def _digest(overrides):
    return hashlib.sha256(trace_csv_text(_trace(overrides)).encode()).hexdigest()


def _trajectory_digest(overrides):
    lines = (
        ",".join(repr(getattr(row, name)) for name in TRAJECTORY_FIELDS) + "\n"
        for row in _trace(overrides)
    )
    return hashlib.sha256("".join(lines).encode()).hexdigest()


CASE_IDS = [c for c, _, _ in GOLDEN]


@pytest.mark.parametrize("overrides,expected", [(o, h) for _, o, h in GOLDEN], ids=CASE_IDS)
def test_trace_hash_is_pinned(overrides, expected):
    assert _digest(overrides) == expected


@pytest.mark.parametrize(
    "overrides,expected", [(o, TRAJECTORY[c]) for c, o, _ in GOLDEN], ids=CASE_IDS
)
def test_trajectory_is_pinned(overrides, expected):
    assert _trajectory_digest(overrides) == expected


def test_every_case_has_one_trajectory():
    assert list(TRAJECTORY) == CASE_IDS


@pytest.mark.parametrize("name", ["GOLDEN", "TRAJECTORY"])
def test_regenerated_listing_keeps_the_layout(name):
    listing, changed = regenerated_listing(name, lambda overrides: "0" * 64)
    assert changed == CASE_IDS
    assert listing.count(f'"{"0" * 64}"') == len(GOLDEN)
    assert listing.replace("0" * 64, "") == re.sub("[0-9a-f]{64}", "", listing_source(name))


def listing_source(name):
    """The source text of the listing ``name`` (GOLDEN or TRAJECTORY),
    as this file has it: from its first line to its closing bracket."""
    source = Path(__file__).read_text()
    start = source.index(f"\n{name} = ") + 1
    return source[start:re.compile(r"^[\]}]\n", re.M).search(source, start).end()]


def regenerated_listing(name, digest):
    """``listing_source(name)`` with every hash replaced by ``digest`` of
    its case's overrides, and the ids of the cases whose digest changed."""
    pinned = [h for _, _, h in GOLDEN] if name == "GOLDEN" else list(TRAJECTORY.values())
    listing = listing_source(name)
    parts, pos, changed = [], 0, []
    for (case, overrides, _), expected in zip(GOLDEN, pinned):
        at = listing.index(f'"{expected}"', pos) + 1
        value = digest(overrides)
        parts += [listing[pos:at], value]
        pos = at + len(expected)
        if value != expected:
            changed.append(case)
    return "".join(parts) + listing[pos:], changed


if __name__ == "__main__":
    for name, digest in (("GOLDEN", _digest), ("TRAJECTORY", _trajectory_digest)):
        listing, changed = regenerated_listing(name, digest)
        print(listing)
        summary = ", ".join(changed) or "-"
        print(f"{name}: {len(changed)} of {len(GOLDEN)} digests changed: {summary}", file=sys.stderr)
