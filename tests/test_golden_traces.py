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
moved.  The logistic cases' trajectories depend on numpy's vectorised
(SIMD) ``exp``, as their loss column already did: the loss weights
take it, so a numpy whose ``exp`` rounds otherwise moves them.

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
        "e8f1199fc27fa2e2edb35bb082630cec1f78860a7bbb4cacd05941a8849dd8fa",
    ),
    (
        "saga-theoretical",
        dict(method="saga", presets=True, scheduler="theoretical"),
        "e341c81f73910c2a842ffcac7ee0a4971b36a04e7d8b9ceae3a4f0b9aa46d110",
    ),
    (
        "page-adaptive",
        dict(method="page", presets=True, scheduler="adaptive"),
        "80036e624314bb9c50537aaf445ec717070220d7f15454f66c33ebcd0cf7d893",
    ),
    (
        "page-theoretical",
        dict(method="page", presets=True, scheduler="theoretical"),
        "17cd919455d5ff228a1a37f6a47fec9d8d89d509de3b29909b30656bbc37ffe5",
    ),
    (
        "page-with-replacement",
        dict(method="page", presets=True, with_replacement=True, scheduler="adaptive"),
        "478e428f98f03b1140a0967dfc28a515dfa9e80610dc1323d518387ee1f49b34",
    ),
    (
        "zerosarah-adaptive",
        dict(method="zerosarah", presets=True, scheduler="adaptive"),
        "3f610ea174196d0ee10d95396f89c8affaecbdf76526030e244c9b80926b8087",
    ),
    (
        "zerosarah-theoretical",
        dict(method="zerosarah", presets=True, scheduler="theoretical"),
        "e15fa63e6d769b0cd56cfd9dcf11882287e2bb1fef989277796b7ebd83c00da8",
    ),
    (
        "lsvrg-adaptive",
        dict(method="lsvrg", presets=True, scheduler="adaptive"),
        "2f22922ebc9ea70ae1fcb08f3761c3a9808c9fc8babe315fb471cc32b89c8550",
    ),
    (
        "lsvrg-with-replacement",
        dict(method="lsvrg", b=9, p=0.05, with_replacement=True, scheduler="theoretical"),
        "eee15d04c8e94918d03685c0b9e1a398a2b577852aa29020b67a60ee4457d6bf",
    ),
    (
        "sega-adaptive",
        dict(method="sega", b=8, scheduler="adaptive"),
        "0bf2f3bc26cb2d8228c2bdd2654e0a674b74ef73f4154d709868ba8b2ebc08b7",
    ),
    (
        "jaguar-adaptive",
        dict(method="jaguar", b=8, scheduler="adaptive"),
        "3c15bc6140887cb2299385f9bc2686966ed900991426ed3f55e1b45fe1776d1a",
    ),
    (
        "ef21-topk",
        dict(method="ef21", compressor="topk", k=5, clients=6, scheduler="adaptive"),
        "4119f5168ddac3aeec32202a7f5425dce57dc0ff32dca66a5df8dc3ab5270cf4",
    ),
    (
        "dasha-randk",
        dict(method="dasha", compressor="randk", k=5, clients=6, scheduler="adaptive"),
        "1b8c1efcae49f43ea7645446440b496cfd05bb435a83c46f6f74b9fdf106ebd1",
    ),
    (
        "diana-randk",
        dict(method="diana", compressor="randk", k=5, clients=6, scheduler="adaptive"),
        "58b74908a889c538cf021a4eecf04c30627521c501987fd804bba605f8218151",
    ),
    (
        "ef21-round-robin",
        dict(method="ef21", compressor="topk", k=5, clients=6, scheme="round-robin",
             scheduler="adaptive"),
        "5b2c58136911143b1c4057b735839a6910f67bdc7d5d9c5e23e90cd78683a0b5",
    ),
    (
        "dasha-round-robin",
        dict(method="dasha", compressor="randk", k=5, clients=6, scheme="round-robin",
             scheduler="adaptive"),
        "002d3691f25141e697fbcae9160a1ca227a15b5ebf8535de4fa720a2484875f9",
    ),
    (
        "diana-round-robin",
        dict(method="diana", compressor="randk", k=5, clients=6, scheme="round-robin",
             scheduler="adaptive"),
        "4f1a1214962f86bbe5a1ec441742c2b4e6859565d777816785216efff6f30af6",
    ),
    # the client-server updates with no compressor randomness: these pin
    # the update algebra apart from the compressor's random stream
    (
        "ef21-identity",
        dict(method="ef21", compressor="identity", clients=6, scheduler="adaptive"),
        "1f613d0384a9824ee2a2ad1a8f29fc7521f0222ee7213e20b56bd5622372a219",
    ),
    (
        "diana-identity",
        dict(method="diana", compressor="identity", clients=6, scheduler="adaptive"),
        "908e4f73f93950b8ffb56697bbfc71a2cf1d8e59eee69c7ae8cb5d2dcb141069",
    ),
    (
        "dasha-identity",
        dict(method="dasha", compressor="identity", clients=6, scheduler="adaptive"),
        "5218944bb182d0dc63210ec6bbd8f7fe64f508e38feebf2811c190c53b4967a3",
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
        "b7f3c49692edcbc3e7f92fb0e586d755d980c2252accfaab7d2a0f378f6978bf",
    ),
    (
        "zerosarah-tuned",
        dict(method="zerosarah", presets=True, scheduler="tuned", multiplier=4.0),
        "99019dfb1ff04694cfc375d58e3e212b561f8c7bc2c406b07335d11550242e1b",
    ),
    (
        "lsvrg-constant",
        dict(method="lsvrg", presets=True, scheduler="constant", gamma=0.5),
        "6fa9fade247fcea147ee586d92c84b8c554053b3013cd3f84b12027a614b5ff6",
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
        "bc3cddae7fdc1fa80d7c34a1cf0df64c919c241ed3f35db848c84bf8b1f599b2",
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
        "c936649682e5c176463dcb3c3090c9a2057d52765fb3f0ee8ef5d2dd81d54f72",
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
        "56ccbca432dc0a19d81690a21a76aebf35c8ade83fc7fb19882430764fd04516",
    ),
    (
        "zerosarah-ragged",
        dict(file="ragged", method="zerosarah", presets=True, scheduler="adaptive"),
        "b5e9b1707488510d640d03291d250d99ee116dde16a6a2f0afed59fbaf4c290f",
    ),
    (
        "lsvrg-ragged",
        dict(file="ragged", method="lsvrg", presets=True, scheduler="adaptive"),
        "f5ddbd42f7bcbf5978f981cdca6d11bcd3a262bce27d1cfe60ddb01897048fe9",
    ),
    (
        "page-ragged",
        dict(file="ragged", method="page", presets=True, scheduler="adaptive"),
        "e93b89d2f729056bf445033000d8047eabd93e67b2517518756e6114453145a3",
    ),
    (
        "jaguar-ragged",
        dict(file="ragged", method="jaguar", b=8, scheduler="adaptive"),
        "72add37fafd3747a826316107bb2b6a06f94db6e17561a88c9a4f64fcf584503",
    ),
    (
        "saga-dominant",
        dict(file="dominant", method="saga", presets=True, scheduler="adaptive"),
        "d56878c106d5584f5ecd64f085b525ba8ab5d5d646daea8756f3e80354cac487",
    ),
    (
        "zerosarah-dominant",
        dict(file="dominant", method="zerosarah", presets=True, scheduler="adaptive"),
        "7404f7f49b0f97e7531519b16c871ef05ac8a7ed8534a295a07edb977286f925",
    ),
    (
        "lsvrg-dominant",
        dict(file="dominant", method="lsvrg", presets=True, scheduler="adaptive"),
        "138ecfd279d58fd5329c86decbacac4fc85e8de10eb09ab5440052e6250d1829",
    ),
    (
        "page-dominant",
        dict(file="dominant", method="page", presets=True, scheduler="adaptive"),
        "cc3762c3500fbdaf17ac9593e351fe6bc2f85ad8e019d94f2a149599341b996b",
    ),
    # batches drawn with replacement repeat rows, and each repeat adds
    (
        "page-dominant-with-replacement",
        dict(file="dominant", method="page", presets=True, with_replacement=True,
             scheduler="adaptive"),
        "02b930e0e79e51d5aa79c6a8829ac195fb57994bfc505ede561089749b8ea01c",
    ),
    (
        "lsvrg-dominant-with-replacement",
        dict(file="dominant", method="lsvrg", presets=True, with_replacement=True,
             scheduler="adaptive"),
        "2f0de87998ca61b7f86c4ba9e1f2c3181ba0922c1ed26248313ca354c41d7edb",
    ),
    (
        "jaguar-dominant",
        dict(file="dominant", method="jaguar", b=8, scheduler="adaptive"),
        "584715f466572208966f0c468d8abd7674dc720eb3d05c792f8dda0fe66f38f0",
    ),
    (
        "saga-dense-row",
        dict(file="dense-row", method="saga", presets=True, scheduler="adaptive"),
        "f937bf30dcb2794238c7fed6036507a1afec4f551815d88a7fc11e8ebf7b5291",
    ),
    (
        "zerosarah-dense-row",
        dict(file="dense-row", method="zerosarah", presets=True, scheduler="adaptive"),
        "e599f756c6634de25725cae3f9586b1f015004a29d23674c1c2f78a686e51274",
    ),
    (
        "lsvrg-dense-row",
        dict(file="dense-row", method="lsvrg", presets=True, scheduler="adaptive"),
        "c5d7e174aeff0de67d1232f9e449f75dd17f443b662100c411bd8a293e29694d",
    ),
    (
        "page-dense-row",
        dict(file="dense-row", method="page", presets=True, scheduler="adaptive"),
        "a7fe14e831a476f99644b9443f0f6a3334ac4d714dbb45f0d4ceabdcbace46a0",
    ),
    (
        "jaguar-dense-row",
        dict(file="dense-row", method="jaguar", b=8, scheduler="adaptive"),
        "02f1a5e592a2ef01111c26e3148f489f34f200d63ea0260452d8d10e0c4c526b",
    ),
]


TRAJECTORY_FIELDS = ("t", "grad_norm", "est_norm", "gamma", "grad_calls", "partial_calls", "bits")

# case id -> SHA-256 of the trajectory fields of its trace (see above)
TRAJECTORY = {
    "saga-adaptive": "7f687df968e5004a39a17f640c507cc3b0736bef06c1bd91d80355569e5b80e4",
    "saga-theoretical": "6e1f110f2ff0d17a0d4daeb3e85e0ca328db86f72812526748e5f041674dbeef",
    "page-adaptive": "93d37c219912b8c8c65a0ffa6af4a4d4ca2514d8220f7538a341ee9b2b5e7995",
    "page-theoretical": "574eb6ab79b365c35f15eb110bea92e91c771e2317252010635369b1cc61a474",
    "page-with-replacement": "7acbfa1648002e57c7e43304835161956f1bb831da075d52a254b56b76e65e07",
    "zerosarah-adaptive": "ffa320ca20dc42da25c49952ee5edb3ff445ebe8bb675e012a0ada7131e003cb",
    "zerosarah-theoretical": "8223f94159699f725a7ce1a4af0e814cb44e39da8045b5720f9f3999a5ecacdd",
    "lsvrg-adaptive": "f240f518833e5b8d5ae51313a2bd1a6b7ee03ad1fdd49fbea3d15b86928708cb",
    "lsvrg-with-replacement": "8b3ba39157daf036aba4f4ebb12ac8b237ab2e7ec416ae94a0ccf755836bf771",
    "sega-adaptive": "862af73a1a5dbcb5743a316164ce624043aff90a5229dd7e65e1dad38e3ba0ce",
    "jaguar-adaptive": "9e9646a74e9814c80a184ea602b910fad7b172c55e367a939ff807668b696247",
    "ef21-topk": "7d5df71439b8e3b50ebc5d7db93d34abc002f17e8cdeaf626288fbde0afc2a90",
    "dasha-randk": "54e2a0b648f6e62cf3717626f6c1c5773434e55a6f339f3582ad11a65d828ba3",
    "diana-randk": "f71c81344eb62ad9151bcf7590a70745783e61ac4c099545cca6e5c0f0c49282",
    "ef21-round-robin": "f2dc1e49fd232793caf8048aeffd822bc06fe2f36c83995efaca1be3ae2d760e",
    "dasha-round-robin": "65d9194b9f17e68fc2ad339c7017f267f5dfaace375d76da8001cac8802cebb8",
    "diana-round-robin": "9911d7ef0a5376430272ed5822778aa0b1503d9c620b7289fa9f0b04258f554e",
    "ef21-identity": "89f095986fb4e527d319ff4ce79987291872166f7b0ce458eef5ec4649dcc69f",
    "diana-identity": "17b38d14ece3dff6ee57d32e88b70b668de060346fdf2572253971c06700cb57",
    "dasha-identity": "dbd8e1ad8e38f3b4429bc7e2f0940fef69dc1e68921b6a443b8bbbce5ae43fdd",
    "ef21-quadratic": "a35cf678e2a2bc15c33970210d044ca5ed73919bf3a76d0f0a4249b525420df6",
    "dasha-quadratic": "d49b06dd57ffae11759a741ec726ad6c5ae249994da631f9f92162c3d39f83e9",
    "diana-quadratic": "e29aab5c4cfbce4eb0e52ec6676842f40e02d7ab046846dc9e5bbda3604d582a",
    "page-adam": "0318731d8570b52f4ad46d71280f07a418455e0703872ead97404f5ce5f81da7",
    "zerosarah-tuned": "a34c80cd44c070d1fcedb8fb7745c6ed53d12643e0978f99ea8854c85838afcf",
    "lsvrg-constant": "1e1c0c2d56d980eb580debaa2d343e72b0ccf12a75d066dc36d78833c7b14a1d",
    "saga-pl-quadratic": "f72ec96684ac872cd6779255ecbe638404276643d5611f53045d4d775f0094e1",
    "saga-quadratic": "7f65b30ec5b63791d6fb876ecbb4de6b71807e56d22b9ba42d8bdb10bf7de4d0",
    "zerosarah-quadratic": "e56a3cec348a9aa7bc75e182d864c503c2906c775de5306a198ae6ab0762899b",
    "lsvrg-quadratic": "0ff0bdc75787df07d92c7b6ea61e7a963d71b84eb21473d25b17066e56f47af7",
    "page-quadratic": "3a7308365c1026c88f0bac575f8393a99b18f343c291781bdb99880b6729cf5b",
    "saga-quadratic-d1": "01c047bfcb3b5a36c6b25fe40143b220e3e8c244df1dc211c80d019be07e0d56",
    "zerosarah-quadratic-d1": "84f640acdda5bd5c953da199ce826b6b39229f9271ebac6f58986a43b0e26d72",
    "lsvrg-quadratic-d1": "8f65b92193c88e1b840aab7135b430d3c01a0e7ff8541d7586b3cd563feea625",
    "page-quadratic-d1": "0e9e4166c8b2f188d1c7217eeb0992dc6c610b3d9e9ee64ff290df5e16e6826f",
    "saga-ragged": "d3581929a33b62cee3c67d30e4978242793008d2f294d8f3a8a15983a58552c5",
    "zerosarah-ragged": "05728c219f3f1361a9503ae64c1c461e994cd911b4f63fcbb48e3316814043b8",
    "lsvrg-ragged": "c99ad29f894e056c9b49ace4b98f4bf89b37410bc5b5e28d275850e66fc6255a",
    "page-ragged": "de05b8fd5fa10a5a9e332fd26026ac54217aee9f729b38f873ffca9893bab924",
    "jaguar-ragged": "6de7dc743f0a9f415037cd9c7150294941d302b3175e7aa6b5430b25480fb492",
    "saga-dominant": "5b778962c9b9682a06f8e6a562e9c6c7d47a101d3bd9112fbd04dc1eb62e3e0b",
    "zerosarah-dominant": "879e8cb188637b9014e27127ca7d42212ba59ac897e645cf2d17b4b7edb966f2",
    "lsvrg-dominant": "7cf977ba9e7926d58c75084000680d6f409886e8144e5e255e4572cd9cb0422f",
    "page-dominant": "29e4ceed55127e1099573e1481fd2fb0de534a7099605a35bd7c9fa5abf1dd5d",
    "page-dominant-with-replacement": "277225b7daee0f946a5cb02ce294905f681b31f084c878a2093e5765784182db",
    "lsvrg-dominant-with-replacement": "c677c9c11bfb258587ee529d587fdf5d593947fc37c0eaa3ffa4bf20a753e892",
    "jaguar-dominant": "9dd71f156b8bd5b8aff606d3dbc543910d1b46e102edc953be265987577a2336",
    "saga-dense-row": "c05535894068196b2b31a9f6374facd18c48a5a3ed1af78960eec5b9baf45327",
    "zerosarah-dense-row": "5be99d93d8b0aa78a3500defd6a6d886a20bce51f0316b0e932119fe84e4e826",
    "lsvrg-dense-row": "287f1f4ca679f7c254ae34abe338aeab6029acc52bb8ecc157954f669a005d19",
    "page-dense-row": "497f50a3878f8f53cbcc6015ae54c6a69039a33a16b2195911dae5c92bf63959",
    "jaguar-dense-row": "b23c67dc600f96f560efbed9bab848da5cbb297226c8b4b81bc5ca03dd0b0ec8",
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
