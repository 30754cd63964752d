"""The masked matcher against brute force and against scipy's solver."""

from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from cloudtrack.matching import match

# float sums of up to nine weights in another order
TOTAL_TOL = 1e-12


def brute_force(weight, mask, max_cardinality):
    """Best value over every matching of mask's edges, by row and column set.

    The value is the total weight, or (edges, total weight) when
    max_cardinality; the second item is how many matchings reach it.
    """
    n, m = mask.shape

    @lru_cache(maxsize=None)
    def best(i, used):
        if i == n:
            return ((0, 0.0) if max_cardinality else 0.0), 1
        value, ways = best(i + 1, used)
        for j in range(m):
            if mask[i, j] and not used >> j & 1:
                rest, rest_ways = best(i + 1, used | 1 << j)
                if max_cardinality:
                    cand = (rest[0] + 1, rest[1] + weight[i, j])
                else:
                    cand = rest + weight[i, j]
                if cand > value:
                    value, ways = cand, rest_ways
                elif cand == value:
                    ways += rest_ways
        return value, ways

    return best(0, 0)


def scipy_reference(weight, mask, max_cardinality):
    """scipy's dense solver on a matrix that encodes the masked objective.

    Weights lie in [-1, 1] and there are at most nine rows, so a
    sentinel of 100 per edge outweighs any total weight.
    """
    if max_cardinality:
        benefit = np.where(mask, 100.0 + weight, 0.0)
    else:
        benefit = np.where(mask & (weight > 0.0), weight, 0.0)
    rows, cols = linear_sum_assignment(benefit, maximize=True)
    keep = benefit[rows, cols] > 0.0
    return rows[keep], cols[keep]


def value(weight, rows, cols, max_cardinality):
    total = float(weight[rows, cols].sum())
    return (len(rows), total) if max_cardinality else total


def assert_same_value(got, want):
    if isinstance(want, tuple):
        assert got[0] == want[0]
        got, want = got[1], want[1]
    assert abs(got - want) <= TOTAL_TOL


def assert_valid(mask, rows, cols):
    assert rows.dtype.kind == cols.dtype.kind == "i"
    assert np.all(np.diff(rows) > 0)
    assert len(set(cols.tolist())) == len(cols)
    assert mask[rows, cols].all()


def random_instance(rng, kind):
    n, m = (int(k) for k in rng.integers(0, 10, size=2))
    if kind == "ties":
        # a few small integers: many matchings share the best value
        weight = rng.integers(-1, 3, size=(n, m)) / 2.0
    else:
        weight = rng.uniform(-1.0, 1.0, size=(n, m))
    density = {"empty": 0.0, "full": 1.0}.get(kind, rng.uniform())
    mask = rng.uniform(size=(n, m)) < density
    return weight, mask


OBJECTIVES = pytest.mark.parametrize(
    "max_cardinality", [False, True], ids=["weight", "cardinality"]
)


@OBJECTIVES
@pytest.mark.parametrize("kind", ["random", "ties", "empty", "full"])
def test_matches_brute_force_and_scipy(kind, max_cardinality):
    rng = np.random.default_rng(["random", "ties", "empty", "full"].index(kind))
    unique = 0
    for _ in range(150):
        weight, mask = random_instance(rng, kind)
        rows, cols = match(weight, mask, max_cardinality=max_cardinality)
        assert_valid(mask, rows, cols)
        got = value(weight, rows, cols, max_cardinality)
        want, ways = brute_force(weight, mask, max_cardinality)
        assert_same_value(got, want)
        ref_rows, ref_cols = scipy_reference(weight, mask, max_cardinality)
        assert_same_value(got, value(weight, ref_rows, ref_cols, max_cardinality))
        if ways == 1:
            unique += 1
            assert rows.tolist() == ref_rows.tolist()
            assert cols.tolist() == ref_cols.tolist()
    assert unique > 0


@OBJECTIVES
def test_empty_sides_and_masks(max_cardinality):
    for shape in ((0, 0), (0, 4), (3, 0), (3, 4)):
        rows, cols = match(
            np.ones(shape), np.zeros(shape, dtype=bool), max_cardinality=max_cardinality
        )
        assert rows.size == cols.size == 0


def test_weight_objective_leaves_edges_that_cannot_help():
    mask = np.ones((2, 2), dtype=bool)
    # a lone edge of weight <= 0 and a contested block of them
    rows, cols = match(np.array([[-1.0]]), np.array([[True]]))
    assert rows.size == 0
    weight = np.array([[0.0, -1.0], [-2.0, -4.0]])
    rows, cols = match(weight, mask)
    assert rows.size == 0
    rows, cols = match(weight, mask, max_cardinality=True)
    assert (rows.tolist(), cols.tolist()) == ([0, 1], [1, 0])


def test_cardinality_comes_before_weight():
    # the heaviest single edge blocks both others
    weight = np.array([[10.0, 1.0], [1.0, 0.0]])
    mask = np.array([[True, True], [True, False]])
    rows, cols = match(weight, mask)
    assert (rows.tolist(), cols.tolist()) == ([0], [0])
    rows, cols = match(weight, mask, max_cardinality=True)
    assert (rows.tolist(), cols.tolist()) == ([0, 1], [1, 0])


def test_weights_off_the_mask_are_never_read():
    weight = np.array([[np.nan, 0.5], [0.7, np.inf]])
    mask = np.array([[False, True], [True, False]])
    for flag in (False, True):
        rows, cols = match(weight, mask, max_cardinality=flag)
        assert (rows.tolist(), cols.tolist()) == ([0, 1], [1, 0])
    with pytest.raises(ValueError):
        match(weight, ~mask)
    with pytest.raises(ValueError):
        match(np.zeros((2, 3)), np.zeros((3, 2), dtype=bool))


def test_lone_edges_beside_a_contested_block():
    # rows 0-1 contest columns 0-1; rows 2 and 3 each own one column
    weight = np.array([
        [0.6, 0.55, 0.0, 0.0],
        [0.59, 0.05, 0.0, 0.0],
        [0.0, 0.0, 0.9, 0.0],
        [0.0, 0.0, 0.0, 0.2],
    ])
    mask = weight > 0.0
    rows, cols = match(weight, mask)
    assert (rows.tolist(), cols.tolist()) == ([0, 1, 2, 3], [1, 0, 2, 3])


@OBJECTIVES
def test_fully_contested_frame_equals_scipy(max_cardinality):
    # the gate off on a dense frame: 80 x 80, every pair an edge
    rng = np.random.default_rng(80)
    weight = rng.uniform(0.0, 1.0, size=(80, 80))
    rows, cols = match(
        weight, np.ones((80, 80), dtype=bool), max_cardinality=max_cardinality
    )
    ref_rows, ref_cols = linear_sum_assignment(weight, maximize=True)
    assert rows.tolist() == ref_rows.tolist()
    assert cols.tolist() == ref_cols.tolist()
