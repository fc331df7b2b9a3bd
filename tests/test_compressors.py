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
    _draw_subsets,
    _EveryOutcome,
    _subset_table,
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
        # is float-exact and the Fraction average telescopes to x itself;
        # the outcomes are the operator's own rows, one per kept subset
        x = np.array([1.0, -0.5, 2.0, 0.25])
        comp = RandK(2, 4)
        outcomes = comp.sample_dense(np.broadcast_to(x, (6, 4)), _EveryOutcome())
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
        # rand-2 of 6 draws from the table of subsets, rand-5 of 40 from
        # uniforms
        for k, d in ((2, 6), (5, 40)):
            V = np.random.default_rng(2).standard_normal((3, 4, d))
            V[0, 0] = 1.0
            # two generators in the same state: one draws the whole block,
            # the other one vector at a time, in the same order
            out = RandK(k, d).sample_dense(V, np.random.default_rng(3))
            one_at_a_time = np.random.default_rng(3)
            assert out.shape == V.shape
            for idx in np.ndindex(3, 4):
                want = RandK(k, d).compress(V[idx], one_at_a_time).to_dense()
                assert np.array_equal(out[idx], want)

    def test_randk_ties_among_uniforms_keep_the_argsort_subset(self):
        class Scripted:
            """A generator whose uniforms are given, ties included, and
            which draws no integers."""

            def __init__(self, uniforms):
                self.uniforms = np.asarray(uniforms, dtype=float)

            def random(self, shape):
                assert shape == self.uniforms.shape
                return self.uniforms.copy()

        # d = 40: from k = 4 to 36 the table of all subsets would pass
        # 1 MiB, so the kept set is the first k of an argsort of uniforms
        rng = np.random.default_rng(7)
        U = rng.choice([0.0625, 0.125, 0.25, 0.5, 0.75], size=(2, 2, 40))
        U[1, 0] = 0.25
        V = rng.standard_normal(U.shape)
        V[0, 0, 1] = -0.0
        for k in (4, 5, 20, 36):
            got = RandK(k, 40).sample_dense(V, Scripted(U))
            want = _kept_by_sort(V, U.argsort(axis=-1)[..., :k], 40 / k)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_threshold_runs_without_ties_and_defers_on_them(self):
        # the mask drops exactly what the first k positions of the argsort
        # do not keep: from the partition threshold when no tie straddles
        # a row's k-th place and no NaN is present, and from the ranks in
        # the argsort when one does
        key = -np.abs(np.random.default_rng(8).standard_normal((4, 3, 9)))
        tied = key.copy()
        tied[2, 1, :2] = -5.0
        nan = key.copy()
        nan[0, 0, 4] = np.nan
        for block in (key, tied, nan):
            for kind in (None, "stable"):
                for k in range(1, 10):
                    first_k = np.argsort(block, axis=-1, kind=kind)[..., :k]
                    kept = np.zeros(block.shape, dtype=bool)
                    np.put_along_axis(kept, first_k, True, axis=-1)
                    assert np.array_equal(_threshold_drop(block, k, kind), ~kept)

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


def _kept_by_sort(V, kept, scale=1.0):
    """Zeros with V's entries at positions ``kept`` along the last axis,
    times ``scale``."""
    out = np.zeros(V.shape)
    np.put_along_axis(out, kept, scale * np.take_along_axis(V, kept, axis=-1), axis=-1)
    return out


def _combinations(n, k):
    """All k-subsets of range(n), in ``itertools.combinations`` order, as
    the rows of an int64 array."""
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.int64).reshape(-1, k)


def _argsort_reference(compressor, V, seed):
    """The dense outputs as a full sort selects them: the stable argsort
    of -|v| for top-k (the identity too, at k = d).  For rand-k, the
    subsets the same integers pick from the combinations list, or, where
    the sampler keeps no table, the argsort of the same uniforms."""
    k, d = compressor.k, compressor.dim
    if compressor.randomized:
        rng = np.random.default_rng(seed)
        if _subset_table(d, k) is None:
            kept = rng.random(V.shape).argsort(axis=-1)[..., :k]
        else:
            combos = _combinations(d, k)
            kept = combos[rng.integers(0, len(combos), size=V.shape[:-1])]
        return _kept_by_sort(V, kept, d / k)
    return _kept_by_sort(V, np.argsort(-np.abs(V), axis=-1, kind="stable")[..., :k])


def _assert_sample_dense_is_the_sort(compressor, V, seed):
    with np.errstate(over="ignore"):  # d/k times the largest floats
        got = compressor.sample_dense(V, np.random.default_rng(seed))
        want = _argsort_reference(compressor, V, seed)
    assert got.shape == V.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _assert_identity_is_its_input(V):
    got = IdentityCompressor(V.shape[-1]).sample_dense(V)
    assert got.shape == V.shape and not np.shares_memory(got, V)
    assert np.array_equal(got.view(np.int64), V.view(np.int64))


# few distinct magnitudes, so rows tie often; signed zeros, NaN, +-inf
_TIE_PRONE = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 2.0, np.inf, -np.inf, np.nan]


class TestThresholdMatchesSort:
    """``sample_dense`` selects by a partition threshold (top-k, and
    rand-k where the sampler keeps no table of subsets); the kept sets,
    and so the outputs, are bit for bit those of ``_argsort_reference``,
    and the identity's (top-k at k = d) is its input.  Rows of up to 16
    entries and longer ones both appear: numpy sorts and partitions short
    rows by another method.  Rand-k keeps no table, and so selects from
    uniforms, at d = 123 and d = 40 for k = d // 2."""

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
        for comp in (TopK(k, d), RandK(k, d), IdentityCompressor(d)):
            _assert_sample_dense_is_the_sort(comp, V, seed)
        _assert_identity_is_its_input(V)

    @pytest.mark.parametrize("shape", [(1, 10, 10), (3, 4, 16), (2, 10, 17), (10, 123), (7,)])
    def test_identity_is_top_d(self, shape):
        rng = np.random.default_rng(sum(shape))
        V = rng.choice(_TIE_PRONE, size=shape)
        # NaNs of both signs, and one with a payload
        V.reshape(-1)[::7] = -np.nan
        V.reshape(-1)[3::11] = np.frombuffer(np.uint64(0x7FF8_0000_0000_0ABC).tobytes())[0]
        for block in (V, rng.standard_normal(shape), np.broadcast_to(V[..., :1], shape)):
            _assert_sample_dense_is_the_sort(IdentityCompressor(shape[-1]), block, 0)
            _assert_identity_is_its_input(block)


class TestSubsetDraws:
    """``_draw_subsets`` picks each k-subset with one integer into a
    cached table of all of them, in ``itertools.combinations`` order,
    and draws from uniforms, as before the table, where the table would
    pass 1 MiB."""

    @pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (5, 5), (6, 3), (10, 5), (20, 4), (300, 1)])
    def test_table_is_the_combinations_list(self, n, k):
        rows, masks = _subset_table(n, k)
        want = _combinations(n, k)
        assert rows.dtype == (np.uint8 if n <= 256 else np.uint16)
        assert np.array_equal(rows, want)
        assert masks.dtype == bool and masks.shape == (len(want), n)
        assert all(np.array_equal(np.flatnonzero(m), w) for m, w in zip(masks, want))
        assert not rows.flags.writeable and not masks.flags.writeable
        # built once, kept for the module
        assert _subset_table(n, k)[0] is rows

    @pytest.mark.parametrize("n,k", [(40, 4), (40, 5), (40, 36), (123, 3), (123, 7), (20, 10)])
    def test_no_table_past_one_mib(self, n, k):
        assert _subset_table(n, k) is None

    @pytest.mark.parametrize("n,k", [(20, 4), (10, 3), (10, 5), (123, 2), (123, 122)])
    def test_verifier_sizes_have_tables(self, n, k):
        assert _subset_table(n, k) is not None

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("n,k", [(6, 3), (20, 4), (9, 9)])
    def test_draw_is_the_combinations_list_at_twin_integers(self, n, k, shape):
        combos = _combinations(n, k)
        picks = np.random.default_rng(5).integers(0, len(combos), size=shape)
        rows = _draw_subsets(np.random.default_rng(5), n, k, shape)
        masks = _draw_subsets(np.random.default_rng(5), n, k, shape, mask=True)
        assert rows.shape == (*shape, k) and masks.shape == (*shape, n)
        assert np.array_equal(rows, combos[picks])
        want = np.zeros((*shape, n), dtype=bool)
        np.put_along_axis(want, combos[picks], True, axis=-1)
        assert np.array_equal(masks, want)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("n,k", [(40, 5), (123, 7)])
    def test_past_the_limit_the_draw_is_the_argsort_of_uniforms(self, n, k, shape):
        # bit for bit the draws before the table: the first k positions of
        # an argsort of uniforms, and their mask by the partition threshold
        rows = _draw_subsets(np.random.default_rng(6), n, k, shape)
        uniforms = np.random.default_rng(6).random((*shape, n))
        assert np.array_equal(rows, uniforms.argsort(axis=-1)[..., :k])
        masks = _draw_subsets(np.random.default_rng(6), n, k, shape, mask=True)
        assert np.array_equal(masks, ~_threshold_drop(uniforms, k))

    @pytest.mark.parametrize("n,k", [(1, 1), (6, 3), (10, 5), (9, 9)])
    def test_every_outcome_draws_the_whole_table_in_order(self, n, k):
        rows, masks = _subset_table(n, k)
        assert np.array_equal(_draw_subsets(_EveryOutcome(), n, k, (len(rows),)), rows)
        assert np.array_equal(_draw_subsets(_EveryOutcome(), n, k, (len(rows),), mask=True), masks)

    @pytest.mark.parametrize(
        "call,named",
        [
            (lambda g: g.random(6), "random"),
            (lambda g: g.random((6, 4)), "random"),
            (lambda g: g.permutation(6), "permutation"),
            (lambda g: g.integers(0, 6, size=(5,)), r"integers\(0, 6, size=\(5,\)\)"),
            (lambda g: g.integers(0, 6, size=(2, 3)), r"integers\(0, 6, size=\(2, 3\)\)"),
            (lambda g: g.integers(0, 6, size=6), r"integers\(0, 6, size=6\)"),
            (lambda g: g.integers(0, 6), r"integers\(0, 6, size=None\)"),
            (lambda g: g.integers(1, 6, size=(6,)), r"integers\(1, 6, size=\(6,\)\)"),
        ],
        ids=["random", "random-block", "permutation", "fewer", "other-shape", "int-size",
             "no-size", "low-1"],
    )
    def test_every_outcome_refuses_draws_it_cannot_list(self, call, named):
        with pytest.raises(ValueError, match=f"^cannot enumerate {named}"):
            call(_EveryOutcome())

    @pytest.mark.parametrize("mask", [False, True])
    def test_all_twenty_subsets_are_equally_likely(self, mask):
        draws = _draw_subsets(np.random.default_rng(8), 6, 3, (20000,), mask=mask)
        kept = [tuple(np.flatnonzero(m)) for m in draws] if mask else map(tuple, draws)
        counts = {}
        for key in kept:
            counts[key] = counts.get(key, 0) + 1
        assert sorted(counts) == list(itertools.combinations(range(6), 3))
        # each has probability 1/20: 1000 +- 4 sigma
        sigma = np.sqrt(20000 * (1 / 20) * (19 / 20))
        assert all(abs(c - 1000) < 4 * sigma for c in counts.values())


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

    def test_sampled_verdict_needs_two_trials(self):
        # one draw has no standard error: a randomized biased check passed
        # on it with stderr 0, the unbiased one warned and reported nan
        class RandomKeep:
            randomized, dim, delta = True, 10, 5.0

            def sample_dense(self, V, rng):
                return np.where(rng.random(V.shape) < 0.2, V, 0.0)

        rng = np.random.default_rng(0)
        message = r"^a sampled check needs trials >= 2, got 1$"
        with pytest.raises(ValueError, match=message):
            check_biased_contract(RandomKeep(), 1, rng)
        with pytest.raises(ValueError, match=message):
            check_unbiased_contract(RandK(10, 40), 1, rng)
        # a pointwise or an enumerated verdict judges one probe
        assert check_biased_contract(TopK(2, 10), 1, rng)["passed"]
        assert check_unbiased_contract(RandK(2, 10), 1, rng)["mode"] == "enumeration"
        for check in (check_biased_contract, check_unbiased_contract):
            with pytest.raises(ValueError, match=r"^trials must be >= 1, got 0$"):
                check(IdentityCompressor(4), 0, rng)

    @pytest.mark.parametrize(
        "check,comp,constant",
        [
            (check_biased_contract, RandK(2, 10), "delta"),
            (check_unbiased_contract, TopK(2, 10), "omega"),
            (check_unbiased_contract, TopK(2, 4), "omega"),
        ],
        ids=["biased-randk", "unbiased-topk", "unbiased-topk-dim4"],
    )
    def test_unregistered_constant_is_named(self, check, comp, constant):
        # named, not an AttributeError
        name = type(comp).__name__
        with pytest.raises(ValueError, match=f"^{name} registers no {constant}$"):
            check(comp, 100, np.random.default_rng(0))

    @pytest.mark.parametrize("dim,mode", [(8, "enumeration"), (40, "sampled")])
    def test_enumeration_follows_the_compressors_dim(self, dim, mode):
        # RandK(2, 8) has a subset table, RandK(10, 40) none (it would pass 1 MiB)
        report = check_unbiased_contract(RandK(dim // 4, dim), 2000, np.random.default_rng(5))
        assert report["mode"] == mode and report["passed"]

    def test_rand_5_of_10_is_checked_exactly(self):
        # the compressor ``verify --method diana|dasha`` checks: 252 outcomes
        report = check_unbiased_contract(RandK(5, 10), 2000, np.random.default_rng(5))
        assert report["mode"] == "enumeration" and report["passed"]
        assert report["stderr"] == 0.0 and report["margin"] <= 1e-12

    def test_an_operator_the_stand_in_cannot_enumerate_is_an_error(self):
        # unbiased with omega = 2, so a sampled check would pass it; with a
        # k and a subset table it is enumerated, and its coin draw refused
        class CoinKeep:
            dim, k, omega = 10, 5, 2.0

            def sample_dense(self, V, rng):
                return np.where(rng.random(V.shape) < 0.5, 2.0 * V, 0.0)

        with pytest.raises(ValueError, match="^cannot enumerate random"):
            check_unbiased_contract(CoinKeep(), 2000, np.random.default_rng(0))

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

            def sample_dense(self, V, rng):
                kept = _draw_subsets(rng, self.dim, self.k, V.shape[:-1], mask=True)
                # missing the d/k scaling -> biased toward zero
                return np.where(kept, V, 0.0)

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
