"""Independent scalar reference for the five-term detection objective, used to
cross-check the tensor implementation. Pure python floats and brute-force
matching; shares no code with the library."""

import itertools
import math

import numpy as np

from spandet.geometry import Interval


def l1(a, b):
    """Span L1 between two (c, w) pairs."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def giou(a, b):
    """Generalized IoU between two (c, w) pairs, with the union and hull
    taken from the endpoints."""
    a1, a2 = a[0] - a[1] / 2, a[0] + a[1] / 2
    b1, b2 = b[0] - b[1] / 2, b[0] + b[1] / 2
    inter = max(0.0, min(a2, b2) - max(a1, b1))
    union = (a2 - a1) + (b2 - b1) - inter
    hull = max(a2, b2) - min(a1, b1)
    return inter / union - (hull - union) / hull


def sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def reference_objective(pred_cw, pred_logits, dn_cw, dn_idx, gts, lw,
                        alpha=0.25, gamma=2.0):
    n, m = len(pred_cw), len(gts)
    best, best_perm = math.inf, None
    for perm in itertools.permutations(range(n), m):
        c = sum(lw.span * l1(pred_cw[perm[j]], gts[j])
                - lw.giou * giou(pred_cw[perm[j]], gts[j])
                - lw.focal * sig(pred_logits[perm[j]]) for j in range(m))
        if c < best:
            best, best_perm = c, perm
    matched = set(best_perm or ())
    l_span = sum(l1(pred_cw[best_perm[j]], gts[j]) for j in range(m)) / m if m else 0.0
    l_giou = sum(1 - giou(pred_cw[best_perm[j]], gts[j]) for j in range(m)) / m if m else 0.0
    l_focal = 0.0
    for i in range(n):
        p = sig(pred_logits[i])
        pt = p if i in matched else 1 - p
        at = alpha if i in matched else 1 - alpha
        l_focal += -at * (1 - pt) ** gamma * math.log(max(pt, 1e-12))
    l_focal /= n
    if dn_cw is not None:
        d = len(dn_cw)
        l_dn_span = sum(l1(dn_cw[q], gts[dn_idx[q]]) for q in range(d)) / d
        l_dn_giou = sum(1 - giou(dn_cw[q], gts[dn_idx[q]]) for q in range(d)) / d
    else:
        l_dn_span = l_dn_giou = 0.0
    return (lw.span * l_span + lw.giou * l_giou + lw.focal * l_focal
            + lw.dn_span * l_dn_span + lw.dn_giou * l_dn_giou)


def random_instance(seed, n=3, m=2, with_dn=True, dn_count=4):
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.05, 0.6, size=n)
    centers = np.array([rng.uniform(w / 2, 1 - w / 2) for w in widths])
    cw = np.stack([centers, widths], axis=1)
    logits = rng.normal(size=n) * 2
    gws = rng.uniform(0.05, 0.6, size=m)
    gcs = np.array([rng.uniform(w / 2, 1 - w / 2) for w in gws])
    gts = [Interval(c, w) for c, w in zip(gcs, gws)]
    if with_dn:
        dn = np.stack([np.array([rng.uniform(w / 2, 1 - w / 2), w])
                       for w in rng.uniform(0.05, 0.6, size=dn_count)])
        dn_idx = np.array([q % m for q in range(dn_count)])
    else:
        dn, dn_idx = None, None
    return cw, logits, dn, dn_idx, gts
