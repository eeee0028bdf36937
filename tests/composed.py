"""The detection objective's geometry and focal terms as chains of elementwise
tensor ops: the forms the fused ``composite_loss`` node replaced, kept as
references that its values and gradients are pinned to."""

import numpy as np

from spandet import tensor as T


def span_l1_t(a, b):
    """Elementwise |c_a-c_b| + |w_a-w_b|; reduces the trailing (c,w) axis."""
    return T.sum_(T.abs_(a - b), axis=-1)


def giou_1d_t(a, b):
    ax1 = a[..., 0] - a[..., 1] * 0.5
    ax2 = a[..., 0] + a[..., 1] * 0.5
    bx1 = b[..., 0] - b[..., 1] * 0.5
    bx2 = b[..., 0] + b[..., 1] * 0.5
    inter = T.relu(T.minimum(ax2, bx2) - T.maximum(ax1, bx1))
    union = (ax2 - ax1) + (bx2 - bx1) - inter
    hull = T.maximum(ax2, bx2) - T.minimum(ax1, bx1)
    return inter / union - (hull - union) / hull


def focal_core(logits, targets, alpha, gamma):
    """Per-element focal loss -alpha_t (1-p_t)^gamma log(p_t)."""
    p = T.sigmoid(logits)
    tg = targets
    pt = p * tg + (1.0 - p) * (1.0 - tg)
    at = T.Tensor(alpha * tg + (1.0 - alpha) * (1.0 - tg))
    return T.scale(at * T.powc(1.0 - pt, gamma) * T.log(pt), -1.0)


def focal_loss_mean(logits, targets, alpha=0.25, gamma=2.0):
    return T.mean(focal_core(logits, np.asarray(targets, dtype=np.float64), alpha, gamma))
