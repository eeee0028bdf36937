import itertools
import math

import numpy as np
import pytest

from spandet.geometry import Interval, giou_1d, span_l1
from spandet.matching import build_match_cost, hungarian


def brute_force(cost):
    """Exhaustive minimum over injective column assignments."""
    n, m = cost.shape
    best, best_pairs = math.inf, None
    for perm in itertools.permutations(range(n), m):
        total = sum(cost[perm[j], j] for j in range(m))
        if total < best:
            best, best_pairs = total, [(perm[j], j) for j in range(m)]
    return best, best_pairs


def test_single_cell():
    assert hungarian(np.array([[5.0]])) == [(0, 0)]


def test_two_by_two():
    assert hungarian(np.array([[1.0, 2.0], [2.0, 1.0]])) == [(0, 0), (1, 1)]


def test_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(123)
    for trial in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, n + 1))
        cost = rng.normal(size=(n, m)) * float(rng.choice([0.1, 1.0, 25.0]))
        got = hungarian(cost)
        got_total = sum(cost[i, j] for i, j in got)
        want_total, want_pairs = brute_force(cost)
        assert abs(got_total - want_total) < 1e-9, f"trial {trial}"
        assert got == want_pairs  # continuous costs: optimum is a.s. unique


def test_rectangular_leaves_rows_unmatched():
    cost = np.array([[10.0], [1.0], [5.0]])
    assert hungarian(cost) == [(1, 0)]


def test_empty_targets():
    assert hungarian(np.zeros((3, 0))) == []


def test_errors():
    with pytest.raises(ValueError, match="more targets"):
        hungarian(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        hungarian(np.array([[np.nan, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="2D"):
        hungarian(np.zeros(3))


def test_ties_resolve_lexicographically():
    # both assignments cost 2; [(0,0),(1,1)] is the smaller pair sequence
    assert hungarian(np.array([[2.0, 1.0], [1.0, 0.0]])) == [(0, 0), (1, 1)]
    assert hungarian(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]
    assert hungarian(np.zeros((4, 2))) == [(0, 0), (1, 1)]


def test_row_permutation_equivariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n, m = 6, int(rng.integers(1, 7))
        cost = rng.normal(size=(n, m))
        base = dict((j, i) for i, j in hungarian(cost))
        perm = rng.permutation(n)
        permuted = hungarian(cost[perm])
        for i, j in permuted:
            assert perm[i] == base[j]


def test_column_constant_shift_invariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        cost = rng.normal(size=(5, 3))
        shifted = cost.copy()
        shifted[:, 1] += 17.5
        assert hungarian(cost) == hungarian(shifted)


def pair_cost(pred, gt, p):
    """One-pair cost matrix from the scalar geometry."""
    return build_match_cost(np.array([[span_l1(pred, gt)]]),
                            np.array([[giou_1d(pred, gt)]]), np.array([p]), (10.0, 1.0, 4.0))


def test_match_cost_same_geometry_full_confidence():
    iv = Interval(0.5, 0.4)
    assert abs(pair_cost(iv, iv, 1.0)[0, 0] - (-5.0)) < 1e-12   # 10*0 + 1*(-1) + 4*(-1)


def test_match_cost_zero_confidence():
    iv = Interval(0.5, 0.4)
    assert abs(pair_cost(iv, iv, 0.0)[0, 0] - (-1.0)) < 1e-12   # class term drops by 4


def test_match_cost_disjoint_hand_value():
    pred = Interval(0.1, 0.2)     # [0, 0.2]
    gt = Interval(0.8, 0.4)       # [0.6, 1.0]
    # 10*(|0.1-0.8| + |0.2-0.4|) + 0.4 - 4 = 9 - 3.6
    assert abs(pair_cost(pred, gt, 1.0)[0, 0] - 5.4) < 1e-12


def test_match_cost_broadcasts_rows_and_columns():
    l1 = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    giou = np.array([[0.9, -0.1], [0.2, 0.0], [-0.5, 0.7]])
    probs = np.array([0.25, 0.5, 1.0])
    cost = build_match_cost(l1, giou, probs, (10.0, 2.0, 4.0))
    for i in range(3):
        for j in range(2):
            assert cost[i, j] == 10.0 * l1[i, j] - 2.0 * giou[i, j] - 4.0 * probs[i]


def test_match_cost_rejects_bad_probability():
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError, match="probability"):
            build_match_cost(np.zeros((2, 1)), np.zeros((2, 1)), np.array([0.5, bad]))
