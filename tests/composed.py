"""The detection objective's geometry and focal terms as chains of elementwise
reference ops: the forms the fused ``composite_loss`` node replaced, kept as
references that its values and gradients are pinned to."""

import numpy as np

from spandet import tensor as T

import reference_ops as R


def span_l1_t(a, b):
    """Elementwise |c_a-c_b| + |w_a-w_b|; reduces the trailing (c,w) axis."""
    return R.sum_(R.abs_(R.sub(a, b)), axis=-1)


def _col(t, j):
    """Column j as a new slice node per use, as tensor indexing built it, so
    the chain's backward sums its contributions in the order it always did."""
    return R.slice_(t, np.s_[..., j])


def giou_1d_t(a, b):
    ax1 = R.sub(_col(a, 0), R.mul(_col(a, 1), 0.5))
    ax2 = _col(a, 0) + R.mul(_col(a, 1), 0.5)
    bx1 = R.sub(_col(b, 0), R.mul(_col(b, 1), 0.5))
    bx2 = _col(b, 0) + R.mul(_col(b, 1), 0.5)
    inter = T.relu(R.sub(R.minimum(ax2, bx2), R.maximum(ax1, bx1)))
    union = R.sub(R.sub(ax2, ax1) + R.sub(bx2, bx1), inter)
    hull = R.sub(R.maximum(ax2, bx2), R.minimum(ax1, bx1))
    return R.sub(R.div(inter, union), R.div(R.sub(hull, union), hull))


def focal_core(logits, targets, alpha, gamma):
    """Per-element focal loss -alpha_t (1-p_t)^gamma log(p_t)."""
    p = T.sigmoid(logits)
    tg = targets
    pt = R.mul(p, tg) + R.mul(R.sub(1.0, p), 1.0 - tg)
    at = T.Tensor(alpha * tg + (1.0 - alpha) * (1.0 - tg))
    return R.scale(R.mul(R.mul(at, R.powc(R.sub(1.0, pt), gamma)), R.log(pt)), -1.0)


def focal_loss_mean(logits, targets, alpha=0.25, gamma=2.0):
    return R.mean(focal_core(logits, np.asarray(targets, dtype=np.float64), alpha, gamma))
