"""Optimal bipartite assignment between predicted and ground-truth intervals.

Rectangular minimum-cost assignment via Jonker-Volgenant shortest augmenting
paths (rows = predictions, columns = targets, N >= M). Ties between equally
cheap assignments resolve to the lexicographically smallest (pred, gt) pair
sequence; totals are compared with ``math.fsum`` so exact-arithmetic ties are
recognized reliably.
"""

from __future__ import annotations

import math

import numpy as np

Assignment = list[tuple[int, int]]


def build_match_cost(l1: np.ndarray, giou: np.ndarray, probs: np.ndarray,
                     weights: tuple[float, float, float] = (10.0, 1.0, 4.0)) -> np.ndarray:
    """Cost matrix (N preds x M gts): w_span*L1 - w_giou*gIoU - w_class*p.

    `l1` and `giou` are the (N, M) pairwise span L1 and gIoU, `probs` the (N,)
    foreground probabilities. Assignment is treated as a constant downstream;
    no gradient flows here.
    """
    probs = np.asarray(probs, dtype=np.float64)
    bad = ~((probs >= 0.0) & (probs <= 1.0))
    if bad.any():
        raise ValueError(f"foreground probability {probs[bad][0]} outside [0, 1]")
    w_span, w_giou, w_class = weights
    return w_span * np.asarray(l1) - w_giou * np.asarray(giou) - w_class * probs[:, None]


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimal-cost injective assignment covering every column.

    Returns (row, col) pairs sorted by column. Requires rows >= cols and
    finite entries.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2D, got shape {cost.shape}")
    n, m = cost.shape
    if m == 0:
        return []
    if m > n:
        raise ValueError(f"more targets than predictions ({m} > {n})")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")

    base = _solve_jv(cost)
    best_total = _total(cost, base)
    return _lexicographic_refine(cost, best_total)


def _total(cost: np.ndarray, pairs: Assignment) -> float:
    # fsum is correctly rounded: equal exact sums compare equal as floats
    return math.fsum(cost[i, j] for i, j in sorted(pairs, key=lambda p: p[1]))


def _lexicographic_refine(cost: np.ndarray, best_total: float) -> Assignment:
    """Fix columns left to right, each time taking the smallest row index that
    still admits an optimal completion."""
    n, m = cost.shape
    avail = list(range(n))
    fixed: Assignment = []
    for j in range(m):
        chosen = None
        chosen_total = math.inf
        for p in avail:
            rest = [r for r in avail if r != p]
            sub = cost[np.ix_(rest, range(j + 1, m))]
            completion = [(rest[i], j + 1 + jj) for i, jj in _solve_jv(sub)]
            total = _total(cost, fixed + [(p, j)] + completion)
            if total == best_total:
                chosen = p
                break
            if total < chosen_total:  # float-noise fallback, first (= smallest) row wins
                chosen, chosen_total = p, total
        fixed.append((chosen, j))
        avail.remove(chosen)
    return fixed


def _solve_jv(cost: np.ndarray) -> Assignment:
    """Shortest-augmenting-path assignment; deterministic scan order."""
    n, m = cost.shape
    if m == 0:
        return []
    # rows of `a` are the columns of `cost` (targets), so every target gets matched
    a = cost.T
    INF = math.inf
    u = [0.0] * (m + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)   # match[col] = row (1-based), 0 = free
    way = [0] * (n + 1)
    for i in range(1, m + 1):
        match[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = a[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    pairs = [(j - 1, match[j] - 1) for j in range(1, n + 1) if match[j] != 0]
    return sorted(pairs, key=lambda p: p[1])
