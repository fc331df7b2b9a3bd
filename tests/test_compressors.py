import itertools
from fractions import Fraction

import numpy as np
import pytest

from vradapt.compressors import (
    CompressedVector,
    IdentityCompressor,
    RandK,
    TopK,
    check_biased_contract,
    check_unbiased_contract,
    dense_bits_cost,
    make_compressor,
    rand_k,
    top_k,
)


class TestTopK:
    def test_pinned_example(self):
        out = top_k(np.array([3.0, -1.0, 2.0]), 1)
        assert list(out.indices) == [0]
        assert list(out.values) == [3.0]

    def test_values_unchanged_and_indices_sorted(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(9)
            out = top_k(x, 4)
            assert np.all(np.diff(out.indices) > 0)
            assert np.array_equal(out.values, x[out.indices])

    def test_tie_breaks_to_lowest_index(self):
        out = top_k(np.array([2.0, -2.0, 1.0]), 1)
        assert list(out.indices) == [0]
        out = top_k(np.array([-2.0, 2.0, 1.0]), 1)
        assert list(out.indices) == [0]

    def test_k_equals_d_is_identity(self):
        x = np.array([0.3, -0.2, 0.0, 5.0])
        assert np.array_equal(top_k(x, 4).to_dense(), x)

    def test_k_validation(self):
        x = np.zeros(3)
        for k in (0, 4, -1):
            with pytest.raises(ValueError):
                top_k(x, k)

    def test_contraction_exact_rational(self):
        # Fraction arithmetic: dropped energy <= (1 - k/d) * total energy,
        # with zero floating tolerance
        rng = np.random.default_rng(1)
        for d, k in ((3, 1), (5, 2), (8, 3), (10, 10)):
            for _ in range(25):
                x = rng.standard_normal(d)
                out = top_k(x, k)
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
        out = rand_k(x, 2, rng)
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
            rand_k(np.zeros(3), 0, rng)
        with pytest.raises(ValueError):
            rand_k(np.zeros(3), 4, rng)

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
                want = top_k(row, k).to_dense()
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_topk_over_leading_axes(self):
        V = np.random.default_rng(1).standard_normal((3, 4, 6))
        out = TopK(2, 6).sample_dense(V)
        assert out.shape == V.shape
        for idx in np.ndindex(3, 4):
            assert np.array_equal(out[idx], top_k(V[idx], 2).to_dense())

    def test_randk_rows_match_rand_k_on_the_same_subset(self):
        V = np.random.default_rng(2).standard_normal((3, 4, 6))
        V[0, 0] = 1.0
        # two generators in the same state: one draws the whole block,
        # the other one vector at a time, in the same order
        out = RandK(2, 6).sample_dense(V, np.random.default_rng(3))
        one_at_a_time = np.random.default_rng(3)
        assert out.shape == V.shape
        for idx in np.ndindex(3, 4):
            want = rand_k(V[idx], 2, one_at_a_time).to_dense()
            assert np.array_equal(out[idx], want)

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

    def test_identity_is_a_copy(self):
        V = np.random.default_rng(5).standard_normal((2, 3, 4))
        out = IdentityCompressor(4).sample_dense(np.broadcast_to(V, V.shape))
        assert np.array_equal(out, V)
        out[0, 0, 0] = 99.0
        assert V[0, 0, 0] != 99.0


class TestContracts:
    def test_topk_passes_biased_contract(self):
        rng = np.random.default_rng(0)
        report = check_biased_contract(TopK(2, 6), 6, 500, rng)
        assert report["passed"]
        assert report["delta"] == pytest.approx(3.0)

    def test_identity_passes_both(self):
        rng = np.random.default_rng(1)
        comp = IdentityCompressor(5)
        assert check_biased_contract(comp, 5, 200, rng)["passed"]
        assert check_unbiased_contract(comp, 5, 200, rng)["passed"]

    def test_randk_passes_unbiased_contract(self):
        rng = np.random.default_rng(2)
        report = check_unbiased_contract(RandK(2, 6), 6, 20000, rng)
        assert report["passed"]
        assert report["omega"] == pytest.approx(3.0)

    def test_drop_all_fails_biased_contract(self):
        class DropAll:
            randomized = False
            unbiased = False
            delta = 2.0

            def compress(self, x, rng=None):
                return CompressedVector(
                    indices=np.array([], dtype=np.int64),
                    values=np.array([]),
                    dim=len(x),
                )

            def sample_dense(self, V, rng=None):
                return np.zeros(np.shape(V))

        rng = np.random.default_rng(3)
        report = check_biased_contract(DropAll(), 4, 200, rng)
        assert not report["passed"]

    def test_unscaled_rand_k_fails_unbiased_contract(self):
        class UnscaledRandK:
            def __init__(self, k, dim):
                self.k = k
                self.dim = dim
                self.randomized = True
                self.unbiased = True
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
        report = check_unbiased_contract(UnscaledRandK(1, 4), 4, 200, rng)
        assert not report["passed"]


class TestBits:
    def test_pinned_dense_cost(self):
        assert dense_bits_cost(123, 64) == 7872


class TestPlumbing:
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

    def test_identity_roundtrip(self):
        x = np.random.default_rng(5).standard_normal(7)
        comp = IdentityCompressor(7)
        assert np.array_equal(comp.compress(x).to_dense(), x)
