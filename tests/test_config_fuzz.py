"""Random config files through ``vradapt run``: every one either runs
(exit 0, or 2 on divergence) or is one ``error:`` line and exit 1, never
an uncaught exception or a traceback.

Each key gets valid and invalid values: every method and scheduler, and
out-of-range, non-finite and unparsable numbers.  Problems stay small
(quadratics up to 12x6, ``synthetic:`` data up to 30x8, T <= 20), so the
examples run in a few seconds.  Examples are drawn from a fixed seed and
nothing is stored, so the test is repeatable and leaves no files.
"""

import contextlib
import dataclasses
import io
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vradapt.cli import EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, main
from vradapt.engine import SCHEDULERS, ExperimentConfig
from vradapt.estimators import METHODS


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def floats(lo, hi):
    return st.floats(lo, hi).map(repr)


# any float, the edges of the float range more often than by chance
FLOATS = st.sampled_from(("inf", "-inf", "nan", "0", "-1", "1e308", "5e-324")) | st.floats().map(repr)

# (valid values, invalid values) per config key
KEYS = {
    "method": (st.sampled_from(METHODS), st.just("sarah")),
    "problem": (st.sampled_from(("quadratic", "logistic")), st.just("cubic")),
    "dataset": (
        st.sampled_from(("synthetic:30:8:1", "synthetic:12:3:2")),
        st.sampled_from((
            "synthetic:0:4:1", "synthetic:5:x:1", "synthetic:5", "synthetic:9:-1:0",
            "synthetic:6:0:1", "synthetic:6:2:-1", "/no/such/file",
        )),
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
    "compressor": (st.sampled_from(("identity", "topk", "randk")), st.just("quantize")),
    "scheme": (st.sampled_from(("contiguous", "round-robin")), st.just("striped")),
    "with_replacement": (st.sampled_from(("yes", "off")), st.just("maybe")),
    "value_bits": (ints(1, 64), ints(-2, 0)),
    "index_bits": (ints(1, 64), ints(-2, 0)),
    "presets": (st.sampled_from(("true", "false")), st.just("sometimes")),
    "scheduler": (st.sampled_from(SCHEDULERS), st.just("cosine")),
    "alpha": (floats(0.01, 0.33), FLOATS),
    "multiplier": (floats(0.1, 10.0), FLOATS),
    "gamma": (floats(1e-3, 1.0), FLOATS),
    "lr": (floats(1e-4, 0.1), FLOATS),
    "mu": (floats(0.01, 1.0), FLOATS),
    "T": (ints(0, 20), ints(-2, -1)),
    "seed": (ints(0, 2**64 - 1), ints(-2, -1)),
    "cadence": (ints(1, 5), ints(-1, 0)),
    "tol": (floats(0.0, 1.0), FLOATS),
    "timing": (st.sampled_from(("on", "off")), st.just("maybe")),
}
# an empty or unparsable value, which any key may get instead
JUNK = st.sampled_from(("", "x", "1.5", "--"))


@st.composite
def configs(draw):
    """A config file: the method and any other keys at valid values, and
    half the time one key (possibly an unknown one) at an invalid one."""
    valid = {key: values for key, (values, _) in KEYS.items()}
    config = draw(st.fixed_dictionaries({"method": valid.pop("method")}, optional=valid))
    bad = draw(st.none() | st.sampled_from(sorted(KEYS) + ["batchsize"]))
    if bad is not None:
        invalid = KEYS[bad][1] if bad in KEYS else st.just("4")
        config[bad] = draw(invalid | JUNK)
    return "".join(f"{key}={value}\n" for key, value in config.items())


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
    code, out, err = run_config(text)
    assert code in (EXIT_OK, EXIT_DIVERGED, EXIT_USAGE), (text, code)
    assert "Traceback" not in out + err, text
    if code == EXIT_USAGE:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (text, err)
