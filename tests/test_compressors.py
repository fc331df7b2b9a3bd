import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vradapt.compressors import (
    CompressedVector,
    IdentityCompressor,
    RandK,
    TopK,
    _keep_dense,
    _threshold_drop,
    check_biased_contract,
    check_unbiased_contract,
    make_compressor,
)


class TestTopK:
    def test_pinned_example(self):
        out = TopK(1, 3).compress(np.array([3.0, -1.0, 2.0]))
        assert list(out.indices) == [0]
        assert list(out.values) == [3.0]

    def test_values_unchanged_and_indices_sorted(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(9)
            out = TopK(4, 9).compress(x)
            assert np.all(np.diff(out.indices) > 0)
            assert np.array_equal(out.values, x[out.indices])

    def test_tie_breaks_to_lowest_index(self):
        out = TopK(1, 3).compress(np.array([2.0, -2.0, 1.0]))
        assert list(out.indices) == [0]
        out = TopK(1, 3).compress(np.array([-2.0, 2.0, 1.0]))
        assert list(out.indices) == [0]

    def test_k_equals_d_is_identity(self):
        x = np.array([0.3, -0.2, 0.0, 5.0])
        assert np.array_equal(TopK(4, 4).compress(x).to_dense(), x)

    def test_k_validation(self):
        x = np.zeros(3)
        for k in (0, 4, -1):
            with pytest.raises(ValueError):
                TopK(k, 3).compress(x)

    def test_contraction_exact_rational(self):
        # Fraction arithmetic: dropped energy <= (1 - k/d) * total energy,
        # with zero floating tolerance
        rng = np.random.default_rng(1)
        for d, k in ((3, 1), (5, 2), (8, 3), (10, 10)):
            for _ in range(25):
                x = rng.standard_normal(d)
                out = TopK(k, d).compress(x)
                kept = set(int(i) for i in out.indices)
                dropped = sum(
                    Fraction(float(v)) ** 2 for j, v in enumerate(x) if j not in kept
                )
                total = sum(Fraction(float(v)) ** 2 for v in x)
                assert dropped <= Fraction(d - k, d) * total


class TestRandK:
    def test_scales_by_d_over_k(self):
        rng = np.random.default_rng(2)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = RandK(2, 4).compress(x, rng)
        assert len(out.indices) == 2
        assert np.allclose(out.values, x[out.indices] * 2.0)

    def test_enumeration_mean_and_moment_exact(self):
        # d=4, k=2: scaling factor 2 is a power of two, so every outcome
        # is float-exact and the Fraction average telescopes to x itself
        x = np.array([1.0, -0.5, 2.0, 0.25])
        comp = RandK(2, 4)
        outcomes = [c.to_dense() for c in comp.enumerate_outcomes(x)]
        assert len(outcomes) == 6
        mean = [Fraction(0)] * 4
        moment = Fraction(0)
        for dense in outcomes:
            for j in range(4):
                mean[j] += Fraction(float(dense[j]))
            moment += sum(Fraction(float(v)) ** 2 for v in dense)
        n_out = Fraction(len(outcomes))
        assert [m / n_out for m in mean] == [Fraction(float(v)) for v in x]
        energy = sum(Fraction(float(v)) ** 2 for v in x)
        assert moment / n_out == Fraction(2) * energy

    def test_k_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RandK(0, 3).compress(np.zeros(3), rng)
        with pytest.raises(ValueError):
            RandK(4, 3).compress(np.zeros(3), rng)

    def test_sampled_unbiasedness(self):
        rng = np.random.default_rng(3)
        comp = RandK(2, 6)
        x = rng.standard_normal(6)
        acc = np.zeros(6)
        trials = 40000
        for _ in range(trials):
            acc += comp.compress(x, rng).to_dense()
        assert np.allclose(acc / trials, x, atol=0.05)


class TestSampleDense:
    """The batched samplers the verifier uses give, row by row, what the
    one-vector operators give."""

    def test_topk_rows_match_top_k_with_ties(self):
        V = np.array(
            [
                [1.0, -1.0, 1.0, 0.5, -1.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [2.0, -3.0, 3.0, -2.0, 3.0],
                [-0.0, 0.0, 1e-300, -1e-300, 7.0],
            ]
        )
        V = np.concatenate([V, np.random.default_rng(0).standard_normal((20, 5))])
        for k in range(1, 6):
            out = TopK(k, 5).sample_dense(V)
            for row, got in zip(V, out):
                want = TopK(k, 5).compress(row).to_dense()
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        # NaN (ranked last), infinities, and ties straddling the k-th place;
        # compared by bit pattern, so a kept NaN keeps its sign too
        inf, nan = np.inf, np.nan
        special = np.array(
            [
                [nan, 1.0, -2.0, 0.5, 3.0],
                [inf, -inf, 1.0, nan, -0.0],
                [-nan, nan, 2.0, -2.0, 0.5],
                [1.0, 2.0, -2.0, 2.0, 0.5],
                [0.5, -0.5, 0.5, -1.0, 0.25],
                [-inf, inf, -inf, 0.0, nan],
                [nan, nan, nan, nan, nan],
            ]
        )
        for k in range(1, 6):
            out = TopK(k, 5).sample_dense(special)
            for row, got in zip(special, out):
                want = TopK(k, 5).compress(row).to_dense()
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_topk_over_leading_axes(self):
        V = np.random.default_rng(1).standard_normal((3, 4, 6))
        out = TopK(2, 6).sample_dense(V)
        assert out.shape == V.shape
        for idx in np.ndindex(3, 4):
            assert np.array_equal(out[idx], TopK(2, 6).compress(V[idx]).to_dense())

    def test_randk_rows_match_rand_k_on_the_same_subset(self):
        V = np.random.default_rng(2).standard_normal((3, 4, 6))
        V[0, 0] = 1.0
        # two generators in the same state: one draws the whole block,
        # the other one vector at a time, in the same order
        out = RandK(2, 6).sample_dense(V, np.random.default_rng(3))
        one_at_a_time = np.random.default_rng(3)
        assert out.shape == V.shape
        for idx in np.ndindex(3, 4):
            want = RandK(2, 6).compress(V[idx], one_at_a_time).to_dense()
            assert np.array_equal(out[idx], want)

    def test_randk_ties_among_uniforms_keep_the_argsort_subset(self):
        class Scripted:
            """A generator whose uniforms are given, ties included."""

            def __init__(self, uniforms):
                self.uniforms = np.asarray(uniforms, dtype=float)

            def random(self, shape):
                assert shape == self.uniforms.shape
                return self.uniforms.copy()

        U = np.array(
            [
                [[0.5, 0.25, 0.25, 0.75, 0.125], [0.25, 0.5, 0.75, 0.125, 0.0625]],
                [[0.25, 0.25, 0.25, 0.25, 0.25], [0.75, 0.5, 0.5, 0.5, 0.125]],
            ]
        )
        V = np.random.default_rng(7).standard_normal(U.shape)
        V[0, 0, 1] = -0.0
        for k in range(1, 6):
            got = RandK(k, 5).sample_dense(V, Scripted(U))
            want = _keep_dense(V, U.argsort(axis=-1)[..., :k], 5 / k)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_threshold_runs_without_ties_and_defers_on_them(self):
        # the partition threshold itself gives the kept sets when no tie
        # straddles a row's k-th place and no NaN is present; otherwise
        # it returns None and the caller sorts
        key = -np.abs(np.random.default_rng(8).standard_normal((4, 3, 9)))
        for k in range(1, 10):
            drop = _threshold_drop(key, k)
            assert drop is not None
            first_k = np.argsort(key, axis=-1, kind="stable")[..., :k]
            kept = np.zeros(key.shape, dtype=bool)
            np.put_along_axis(kept, first_k, True, axis=-1)
            assert np.array_equal(drop, ~kept)
        tied = key.copy()
        tied[2, 1, :2] = -5.0
        assert _threshold_drop(tied, 1) is None
        assert _threshold_drop(tied, 2) is not None
        nan = key.copy()
        nan[0, 0, 4] = np.nan
        assert all(_threshold_drop(nan, k) is None for k in range(1, 9))
        assert _threshold_drop(nan, 9) is not None

    def test_randk_subsets_are_uniform(self):
        V = np.ones((6000, 4))
        out = RandK(2, 4).sample_dense(V, np.random.default_rng(4))
        kept = out != 0.0
        assert np.all(kept.sum(axis=1) == 2)
        assert np.all(out[kept] == 2.0)
        counts = {}
        for row in kept:
            key = tuple(np.flatnonzero(row))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        # each of the 6 subsets has probability 1/6: 1000 +- 4 sigma
        assert all(abs(c - 1000) < 4 * np.sqrt(6000 * (1 / 6) * (5 / 6)) for c in counts.values())

    @pytest.mark.parametrize("scale", [1.0, 7.0 / 3.0])
    @pytest.mark.parametrize(
        "shape,source",
        [((16, 5, 7), (16, 5, 7)), ((5, 7), (5, 7)), ((16, 5, 7), (5, 7)), ((7,), (7,))],
        ids=["SxCxd", "Cxd", "broadcast", "d"],
    )
    def test_keep_dense_is_the_along_axis_take_and_put(self, shape, source, scale):
        rng = np.random.default_rng(6)
        base = rng.standard_normal(source)
        # signed zeros among the entries, kept and dropped
        base.reshape(-1)[::4] = -0.0
        base.reshape(-1)[1::4] = 0.0
        V = np.broadcast_to(base, shape)
        kept = rng.random(shape).argsort(axis=-1)[..., :3]
        want = np.zeros(shape)
        np.put_along_axis(want, kept, scale * np.take_along_axis(V, kept, axis=-1), axis=-1)
        got = _keep_dense(V, kept, scale)
        assert got.shape == shape and got.flags.writeable
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.any(np.signbit(got) & (got == 0.0))

    def test_identity_is_a_copy(self):
        V = np.random.default_rng(5).standard_normal((2, 3, 4))
        out = IdentityCompressor(4).sample_dense(np.broadcast_to(V, V.shape))
        assert np.array_equal(out, V)
        out[0, 0, 0] = 99.0
        assert V[0, 0, 0] != 99.0


def _argsort_reference(compressor, V, seed):
    """The dense outputs as a full sort selects them: the stable argsort
    of -|v| for top-k, the argsort of the same uniforms for rand-k."""
    k, d = compressor.k, compressor.dim
    if compressor.randomized:
        kept = np.random.default_rng(seed).random(V.shape).argsort(axis=-1)[..., :k]
        return _keep_dense(V, kept, d / k)
    return _keep_dense(V, np.argsort(-np.abs(V), axis=-1, kind="stable")[..., :k])


def _assert_sample_dense_is_the_sort(compressor, V, seed):
    with np.errstate(over="ignore"):  # d/k times the largest floats
        got = compressor.sample_dense(V, np.random.default_rng(seed))
        want = _argsort_reference(compressor, V, seed)
    assert got.shape == V.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# few distinct magnitudes, so rows tie often; signed zeros, NaN, +-inf
_TIE_PRONE = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 2.0, np.inf, -np.inf, np.nan]


class TestThresholdMatchesSort:
    """``sample_dense`` selects by a partition threshold; the kept sets,
    and so the outputs, are bit for bit those of the full sort.  Rows
    of up to 16 entries and longer ones both appear: numpy sorts and
    partitions short rows by another method."""

    @pytest.mark.parametrize("cls", [TopK, RandK])
    @pytest.mark.parametrize("shape", [(1, 10, 10), (3, 4, 16), (2, 10, 17), (10, 123), (5, 40)])
    def test_seeded_corpus(self, cls, shape):
        rng = np.random.default_rng(sum(shape))
        d = shape[-1]
        blocks = [
            rng.standard_normal(shape),
            rng.choice(_TIE_PRONE, size=shape),
            np.round(rng.standard_normal(shape)),
            np.zeros(shape),
        ]
        for V in blocks:
            for k in sorted({1, 2, d // 2 or 1, d - 1 or 1, d}):
                _assert_sample_dense_is_the_sort(cls(k, d), V, seed=k)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_any_shape_and_values(self, data):
        S = data.draw(st.integers(1, 3), label="S")
        C = data.draw(st.integers(1, 4), label="C")
        d = data.draw(st.one_of(st.integers(1, 16), st.integers(17, 40)), label="d")
        k = data.draw(st.integers(1, d), label="k")
        entry = st.one_of(st.sampled_from(_TIE_PRONE), st.floats())
        V = data.draw(arrays(np.float64, (S, C, d), elements=entry), label="V")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        for cls in (TopK, RandK):
            _assert_sample_dense_is_the_sort(cls(k, d), V, seed)


class TestContracts:
    def test_topk_passes_biased_contract(self):
        rng = np.random.default_rng(0)
        report = check_biased_contract(TopK(2, 6), 500, rng)
        assert report["passed"]
        assert report["delta"] == pytest.approx(3.0)

    def test_identity_passes_both(self):
        rng = np.random.default_rng(1)
        comp = IdentityCompressor(5)
        assert check_biased_contract(comp, 200, rng)["passed"]
        assert check_unbiased_contract(comp, 200, rng)["passed"]

    def test_randk_passes_unbiased_contract(self):
        rng = np.random.default_rng(2)
        report = check_unbiased_contract(RandK(2, 6), 20000, rng)
        assert report["passed"]
        assert report["omega"] == pytest.approx(3.0)

    @pytest.mark.parametrize("dim,mode", [(8, "enumeration"), (10, "sampled")])
    def test_enumeration_follows_the_compressors_dim(self, dim, mode):
        report = check_unbiased_contract(RandK(2, dim), 2000, np.random.default_rng(5))
        assert report["mode"] == mode and report["passed"]

    @pytest.mark.parametrize("check", [check_biased_contract, check_unbiased_contract])
    def test_probes_have_the_compressors_dim(self, check):
        class Recording:
            randomized = True
            dim, delta, omega = 3, 1.0, 1.0

            def __init__(self):
                self.shapes = []

            def sample_dense(self, V, rng):
                self.shapes.append(np.shape(V))
                return np.array(V)

        comp = Recording()
        assert check(comp, 50, np.random.default_rng(0))["passed"]
        assert comp.shapes == [(50, 3)]

    def test_drop_all_fails_biased_contract(self):
        class DropAll:
            randomized = False
            delta = 2.0
            dim = 4

            def compress(self, x, rng=None):
                return CompressedVector(
                    indices=np.array([], dtype=np.int64),
                    values=np.array([]),
                    dim=len(x),
                )

            def sample_dense(self, V, rng=None):
                return np.zeros(np.shape(V))

        rng = np.random.default_rng(3)
        report = check_biased_contract(DropAll(), 200, rng)
        assert not report["passed"]

    def test_unscaled_rand_k_fails_unbiased_contract(self):
        class UnscaledRandK:
            def __init__(self, k, dim):
                self.k = k
                self.dim = dim
                self.randomized = True
                self.omega = dim / k

            def compress(self, x, rng):
                kept = np.sort(rng.permutation(self.dim)[: self.k])
                # missing the d/k scaling -> biased toward zero
                return CompressedVector(indices=kept, values=x[kept], dim=self.dim)

            def enumerate_outcomes(self, x):
                for kept in itertools.combinations(range(self.dim), self.k):
                    idx = np.array(kept, dtype=np.int64)
                    yield CompressedVector(indices=idx, values=x[idx], dim=self.dim)

        rng = np.random.default_rng(4)
        report = check_unbiased_contract(UnscaledRandK(1, 4), 200, rng)
        assert not report["passed"]

    @pytest.mark.parametrize("seed", range(5))
    def test_unscaled_random_k_is_judged_on_its_mean_margin(self, seed):
        # keeping k of d coordinates at random, unscaled, leaves on average
        # exactly (1 - k/d) ||x||^2 of error: contractive with delta = d/k,
        # though not probe by probe, and not with delta = d/(2k)
        class UnscaledRandK:
            dim = 10

            def __init__(self, k, delta, randomized=True):
                self.k, self.delta, self.randomized = k, delta, randomized

            def sample_dense(self, V, rng):
                kept = rng.random(V.shape).argsort(axis=-1)[..., : self.k]
                out = np.zeros(V.shape)
                np.put_along_axis(out, kept, np.take_along_axis(V, kept, axis=-1), axis=-1)
                return out

        d, k = 10, 2

        def check(compressor):
            return check_biased_contract(compressor, 2000, np.random.default_rng(seed))

        tight = check(UnscaledRandK(k, d / k))
        assert tight["passed"] and tight["stderr"] > 0.0
        assert not check(UnscaledRandK(k, d / (2 * k)))["passed"]
        # judged probe by probe, as a deterministic compressor is, it fails
        assert not check(UnscaledRandK(k, d / k, randomized=False))["passed"]


class TestPlumbing:
    @pytest.mark.parametrize("cls", [TopK, RandK])
    def test_fractional_k_is_rejected(self, cls):
        # k = 2.5 would keep 2 coordinates but register d/k = 4 instead of 5
        with pytest.raises(ValueError, match=r"k must be an integer in \[1, 10\], got 2.5"):
            cls(2.5, 10)
        assert cls(2.0, 10).k == 2

    @pytest.mark.parametrize("k", [2.0, np.int64(2)])
    def test_integral_k_keeps_k_coordinates(self, k):
        # k = 2.0 passed the check and then failed to slice (TypeError)
        x = np.arange(1.0, 6.0)
        assert np.array_equal(TopK(k, 5).compress(x).indices, [3, 4])
        got = RandK(k, 5).compress(x, np.random.default_rng(0))
        want = RandK(2, 5).compress(x, np.random.default_rng(0))
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize(
        "cls,args,message",
        [
            pytest.param(cls, args, message, id="-".join([cls.__name__, *map(str, args)]))
            for cls, args, message in [
                (TopK, (2, 10.5), "dim must be an integer, got 10.5"),
                (RandK, (2, 10.5), "dim must be an integer, got 10.5"),
                (TopK, (2, float("nan")), "dim must be >= 1, got nan"),
                (RandK, (2, float("nan")), "dim must be >= 1, got nan"),
                (TopK, (2, float("inf")), "dim must be an integer, got inf"),
                (RandK, (2, float("inf")), "dim must be an integer, got inf"),
                (TopK, (1, 0), "dim must be >= 1, got 0"),
                (IdentityCompressor, (2.5,), "dim must be an integer, got 2.5"),
                (IdentityCompressor, (0,), "dim must be >= 1, got 0"),
                (IdentityCompressor, (float("inf"),), "dim must be an integer, got inf"),
            ]
        ],
    )
    def test_dimension_is_checked_before_k(self, cls, args, message):
        # a fractional d would register delta or omega = d/k for a vector
        # of int(d) coordinates; nan and inf are named, not blamed on k
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(*args)

    @pytest.mark.parametrize("cls", [TopK, RandK])
    def test_integral_float_dimension_is_accepted(self, cls):
        comp = cls(2, 10.0)
        assert (comp.k, comp.dim) == (2, 10)
        assert getattr(comp, "delta" if cls is TopK else "omega") == 5.0
        assert IdentityCompressor(3.0).dim == 3

    @pytest.mark.parametrize(
        "call",
        [
            lambda: TopK(2, 10).compress(np.arange(4.0)),
            lambda: TopK(2, 10).sample_dense(np.ones((3, 4))),
            lambda: TopK(7, 10).sample_dense(np.ones(4)),
            lambda: RandK(2, 10).compress(np.arange(4.0), np.random.default_rng(0)),
            lambda: RandK(5, 10).sample_dense(np.ones((2, 4)), np.random.default_rng(0)),
            lambda: IdentityCompressor(10).compress(np.arange(4.0)),
            lambda: IdentityCompressor(10).sample_dense(np.ones((2, 4))),
        ],
        ids=[
            "topk-compress",
            "topk-sample_dense",
            "topk-sample_dense-k>length",
            "randk-compress",
            "randk-sample_dense",
            "identity-compress",
            "identity-sample_dense",
        ],
    )
    def test_vector_of_another_length_is_rejected(self, call):
        # rand-k rescaled every entry of a short vector by d/k (a biased
        # operator), top-k returned it unchanged or a message of dim 4
        with pytest.raises(ValueError, match="^dim is 10, got a vector of length 4$"):
            call()

    @pytest.mark.parametrize("comp", [TopK(2, 4), RandK(2, 4), IdentityCompressor(4)])
    def test_compress_takes_one_vector(self, comp):
        rng = np.random.default_rng(0)
        for bad in (np.ones((1, 4)), np.float64(1.0)):
            with pytest.raises(ValueError, match=r"^dim is 4, got an array of shape "):
                comp.compress(bad, rng)
        with pytest.raises(ValueError, match=r"^dim is 4, got an array of shape \(\)$"):
            comp.sample_dense(np.float64(1.0), rng)

    def test_to_dense(self):
        v = CompressedVector(
            indices=np.array([1, 3], dtype=np.int64), values=np.array([2.0, -1.0]), dim=5
        )
        assert np.array_equal(v.to_dense(), np.array([0.0, 2.0, 0.0, -1.0, 0.0]))

    def test_factory(self):
        assert isinstance(make_compressor("topk", 10, 3), TopK)
        assert isinstance(make_compressor("randk", 10, 3), RandK)
        assert isinstance(make_compressor("identity", 10), IdentityCompressor)
        with pytest.raises(ValueError):
            make_compressor("topk", 10, None)
        with pytest.raises(ValueError):
            make_compressor("quantize", 10, 3)
        for kind in ("TopK", "RANDK", "Identity"):
            with pytest.raises(ValueError, match=f"^unknown compressor kind {kind!r}$"):
                make_compressor(kind, 10, 3)

    def test_factory_checks_the_kind_before_k(self):
        for kind in ("quantize", "", "TopK"):
            with pytest.raises(ValueError, match=f"^unknown compressor kind {kind!r}$"):
                make_compressor(kind, 10)
        for kind in ("topk", "randk"):
            with pytest.raises(ValueError, match=f"^compressor {kind!r} needs k$"):
                make_compressor(kind, 10)

    def test_identity_roundtrip(self):
        x = np.random.default_rng(5).standard_normal(7)
        comp = IdentityCompressor(7)
        assert np.array_equal(comp.compress(x).to_dense(), x)
