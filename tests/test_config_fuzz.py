"""Random config files through ``vradapt run``: every one either runs
(exit 0, or 2 on divergence) or is one ``error:`` line and exit 1, never
an uncaught exception or a traceback.

Each key gets valid and invalid values: every method and scheduler, and
out-of-range, non-finite and unparsable numbers.  Problems stay small
(quadratics up to 12x6, ``synthetic:`` data up to 30x8, T <= 20), so the
examples run in a few seconds.  Examples are drawn from a fixed seed and
nothing is stored, so the test is repeatable and leaves no files.

Hypothesis's draws also depend on the literals it mines from every
loaded module, so an edit anywhere in ``src/`` or ``tests/`` can move
them.  A second test runs 300 configs built from the same values by a
seeded numpy generator, whose draws depend on its seed alone.

Those two accept a run that ends at exit 0 or 2, so a non-finite value
that a check lets through would pass them.  A third test sets each
real-valued key to nan, inf and -inf where a run reads it, and wants
exit 1 with one ``error:`` line naming the key.
"""

import contextlib
import dataclasses
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vradapt.cli import EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, main
from vradapt.engine import SCHEDULERS, ExperimentConfig
from vradapt.estimators import METHODS


class Values:
    """One set of config values, drawn two ways: by a Hypothesis
    strategy, and by ``draw(rng)`` from a numpy generator."""

    def __init__(self, strategy, draw):
        self.strategy, self.draw = strategy, draw

    def __or__(self, other):
        return Values(
            self.strategy | other.strategy,
            lambda rng: (self if rng.random() < 0.5 else other).draw(rng),
        )


def ints(lo, hi):
    return Values(
        st.integers(lo, hi).map(str),
        lambda rng: str(lo + int(rng.integers(0, hi - lo, endpoint=True, dtype=np.uint64))),
    )


def floats(lo, hi):
    # numpy draws the ends of the range now and then, as Hypothesis does
    return Values(
        st.floats(lo, hi).map(repr),
        lambda rng: repr(float(rng.choice((lo, hi)) if rng.random() < 0.1 else rng.uniform(lo, hi))),
    )


def one_of(*values):
    return Values(st.sampled_from(values), lambda rng: values[rng.integers(len(values))])


# any float (numpy: 64 random bits), the edges of the float range more
# often than by chance
ANY_FLOAT = Values(
    st.floats().map(repr),
    lambda rng: repr(float(rng.integers(0, 2**64, dtype=np.uint64).view(np.float64))),
)
FLOATS = one_of("inf", "-inf", "nan", "0", "-1", "1e308", "5e-324") | ANY_FLOAT

# (valid values, invalid values) per config key
KEYS = {
    "method": (one_of(*METHODS), one_of("sarah")),
    "problem": (one_of("quadratic", "logistic"), one_of("cubic")),
    "dataset": (
        one_of("synthetic:30:8:1", "synthetic:12:3:2"),
        one_of(
            "synthetic:0:4:1", "synthetic:5:x:1", "synthetic:5", "synthetic:9:-1:0",
            "synthetic:6:0:1", "synthetic:6:2:-1", "/no/such/file",
        ),
    ),
    "limit": (ints(1, 40), ints(-2, 0)),
    "force_dim": (ints(1, 10), ints(-2, 0)),
    "n": (ints(1, 12), ints(-1, 0)),
    "d": (ints(1, 6), ints(-1, 0)),
    "problem_seed": (ints(0, 5), ints(-2, -1)),
    "eig_lo": (floats(0.1, 1.0), FLOATS),
    "eig_hi": (floats(1.0, 3.0), FLOATS),
    "cond": (floats(1.0, 1e4), FLOATS),
    "b": (ints(1, 14), ints(-1, 0)),
    "p": (floats(0.01, 1.0), FLOATS),
    "k": (ints(1, 8), ints(-1, 0)),
    "clients": (ints(1, 8), ints(-1, 0)),
    "compressor": (one_of("identity", "topk", "randk"), one_of("quantize")),
    "scheme": (one_of("contiguous", "round-robin"), one_of("striped")),
    "with_replacement": (one_of("yes", "off"), one_of("maybe")),
    "value_bits": (ints(1, 64), ints(-2, 0)),
    "index_bits": (ints(1, 64), ints(-2, 0)),
    "presets": (one_of("true", "false"), one_of("sometimes")),
    "scheduler": (one_of(*SCHEDULERS), one_of("cosine")),
    "alpha": (floats(0.01, 0.33), FLOATS),
    "multiplier": (floats(0.1, 10.0), FLOATS),
    "gamma": (floats(1e-3, 1.0), FLOATS),
    "lr": (floats(1e-4, 0.1), FLOATS),
    "mu": (floats(0.01, 1.0), FLOATS),
    "T": (ints(0, 20), ints(-2, -1)),
    "seed": (ints(0, 2**64 - 1), ints(-2, -1)),
    "cadence": (ints(1, 5), ints(-1, 0)),
    "tol": (floats(0.0, 1.0), FLOATS),
    "timing": (one_of("on", "off"), one_of("maybe")),
}
# an empty or unparsable value, which any key may get instead
JUNK = one_of("", "x", "1.5", "--")
# a key that is bad itself, next to the keys that get a bad value
BAD_KEYS = sorted(KEYS) + ["batchsize"]


def _invalid(key):
    return (KEYS[key][1] if key in KEYS else one_of("4")) | JUNK


def _config_text(config):
    return "".join(f"{key}={value}\n" for key, value in config.items())


@st.composite
def configs(draw):
    """A config file: the method and any other keys at valid values, and
    half the time one key (possibly an unknown one) at an invalid one."""
    valid = {key: values.strategy for key, (values, _) in KEYS.items()}
    config = draw(st.fixed_dictionaries({"method": valid.pop("method")}, optional=valid))
    bad = draw(st.none() | st.sampled_from(BAD_KEYS))
    if bad is not None:
        config[bad] = draw(_invalid(bad).strategy)
    return _config_text(config)


def seeded_configs(seed, count):
    """``count`` config files built as ``configs`` builds them, from the
    same values, but drawn by a numpy generator: unlike Hypothesis's,
    these draws depend on the seed alone."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        config = {"method": KEYS["method"][0].draw(rng)}
        for key, (values, _) in KEYS.items():
            if key != "method" and rng.random() < 0.5:
                config[key] = values.draw(rng)
        if rng.random() < 0.5:
            bad = BAD_KEYS[rng.integers(len(BAD_KEYS))]
            config[bad] = _invalid(bad).draw(rng)
        yield _config_text(config)


def test_every_config_key_is_drawn():
    assert set(KEYS) == {f.name for f in dataclasses.fields(ExperimentConfig)}


def run_config(text):
    """Exit code, stdout and stderr of ``vradapt run`` on a config file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                # overflow on the way to a detected divergence is expected
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main(["run", "--config", path, "--out", os.path.join(tmp, "t.csv")])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(text=configs())
# found by this test: an infinite eigenvalue bound overflowed numpy's sampler
@example(text="method=sega\neig_hi=inf\n")
def test_random_config_runs_or_is_one_error_line(text):
    _assert_runs_or_is_one_error_line(text)


def test_seeded_configs_run_or_are_one_error_line():
    for text in seeded_configs(seed=2016, count=300):
        _assert_runs_or_is_one_error_line(text)


# the setting under which a run reads each real-valued key, on a base
# config that reads every other key at its default
READ_BY = {
    "gamma": "scheduler=constant\n",
    "lr": "scheduler=adam\n",
    "multiplier": "scheduler=tuned\n",
    "mu": "scheduler=pl\n",
    "alpha": "scheduler=adaptive\n",
    "tol": "",
    "cond": "problem=quadratic\n",
    "p": "",
    "eig_lo": "",
    "eig_hi": "",
}
REAL_KEYS = [key for key, (_, invalid) in KEYS.items() if invalid is FLOATS]
# make_quadratic takes eig_lo and eig_hi as one range
NAMED = {"eig_lo": "eigenvalue range", "eig_hi": "eigenvalue range"}


def test_every_real_key_is_read():
    assert set(READ_BY) == set(REAL_KEYS)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", REAL_KEYS)
def test_non_finite_real_setting_is_one_error_line_naming_it(key, value):
    text = "method=lsvrg\nb=2\np=0.5\nn=6\nd=3\nT=3\n" + READ_BY[key] + f"{key}={value}\n"
    code, out, err = run_config(text)
    lines = err.splitlines()
    assert code == EXIT_USAGE, (text, code, out)
    assert len(lines) == 1 and lines[0].startswith("error: "), (text, err)
    assert f"{NAMED.get(key, key)} must" in lines[0], (text, err)


# sizes whose arrays pass 2**48 bytes, which numpy refuses at once; a
# size that could really be allocated (under overcommit) is never used
@pytest.mark.parametrize("sizes", ["n=100000000000000000\nd=4\n", "n=6\nd=100000000000000000\n"])
def test_oversized_problem_is_one_error_line(sizes):
    code, out, err = run_config("method=saga\nb=2\nT=5\n" + sizes)
    lines = err.splitlines()
    assert code == EXIT_USAGE, (sizes, code, out)
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate "), err


def _assert_runs_or_is_one_error_line(text):
    code, out, err = run_config(text)
    assert code in (EXIT_OK, EXIT_DIVERGED, EXIT_USAGE), (text, code)
    assert "Traceback" not in out + err, text
    if code == EXIT_USAGE:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (text, err)
