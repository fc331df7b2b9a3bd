"""``engine.run_generator``: ``np.random.default_rng``'s stream, but for
small draws without replacement, which come a row at a time from a
block of rejection-sampled rows."""

import itertools

import numpy as np
import pytest

from vradapt.engine import BLOCK_ROWS, _blocked, run_generator

# (n, b): the race's ZeroSARAH batch, fullpass's JAGUAR coordinates, a
# small fixture, b = 1, b = n, and b(b - 1) = 2n exactly
BLOCKED = [(4000, 64), (123, 8), (40, 4), (7, 1), (3, 3), (10, 5)]


@pytest.mark.parametrize("n, b", BLOCKED)
def test_every_row_holds_b_distinct_indices_below_n(n, b):
    assert _blocked(n, b)
    rng = run_generator(5)
    # past two block ends, so refilled blocks are checked too
    rows = np.array([rng.choice(n, b, replace=False) for _ in range(2 * BLOCK_ROWS + 3)])
    assert rows.shape == (2 * BLOCK_ROWS + 3, b) and rows.dtype == np.int64
    assert rows.min() >= 0 and rows.max() < n
    assert all(len(set(row)) == b for row in rows.tolist())


def test_numpy_integer_sizes_draw_as_ints():
    ints, numpy_ints = run_generator(2), run_generator(2)
    for _ in range(BLOCK_ROWS + 1):
        row = ints.choice(40, 4, replace=False)
        assert row.tolist() == numpy_ints.choice(np.int64(40), np.int64(4), replace=False).tolist()


def test_outside_the_rule_no_block():
    assert not _blocked(4000, 252)  # SAGA's and PAGE's presets
    assert not _blocked(1, 2) and not _blocked(0, 1) and not _blocked(10, 0)
    assert not _blocked(40.0, 4) and not _blocked(40, (4,))


# chi-square thresholds, each the 0.999 quantile of its law (19 and 119
# degrees of freedom), stated before the draws were counted
SUBSETS_CHI2_MAX = 43.82
TRIPLES_CHI2_MAX = 172.42


def chi_square(counts, cells):
    expected = sum(counts.values()) / len(cells)
    return sum((counts.get(cell, 0) - expected) ** 2 / expected for cell in cells)


def test_draws_are_uniform_over_subsets_and_ordered_triples():
    rng = run_generator(20260)
    draws = [tuple(rng.choice(6, 3, replace=False).tolist()) for _ in range(60000)]
    subsets, triples = {}, {}
    for draw in draws:
        triples[draw] = triples.get(draw, 0) + 1
        key = tuple(sorted(draw))
        subsets[key] = subsets.get(key, 0) + 1
    assert chi_square(subsets, list(itertools.combinations(range(6), 3))) <= SUBSETS_CHI2_MAX
    assert chi_square(triples, list(itertools.permutations(range(6), 3))) <= TRIPLES_CHI2_MAX


@pytest.mark.parametrize("n, b", [(1, 2), (2, 3), (0, 1)])
def test_more_than_n_raises_as_numpy_does(n, b):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(0).choice(n, b, replace=False)
    with pytest.raises(ValueError) as block_error:
        run_generator(0).choice(n, b, replace=False)
    assert str(block_error.value) == str(numpy_error.value)


def test_every_other_draw_is_default_rngs():
    # only choice(n, b, replace=False) inside the rule leaves the stream
    seed = 77
    rng, reference = run_generator(seed), np.random.default_rng(seed)
    draws = [
        lambda g: g.random(),
        lambda g: g.integers(0, 4000, size=64),
        lambda g: g.choice(4000, 252, replace=False),
        lambda g: g.choice(4000, 64, replace=True),
        lambda g: g.choice(6, 3, replace=False, p=np.full(6, 1 / 6)),
        lambda g: g.choice(6, 3, replace=False, shuffle=False),
        lambda g: g.standard_normal(3),
    ]
    for _ in range(50):
        for draw in draws:
            assert np.array_equal(draw(rng), draw(reference))
