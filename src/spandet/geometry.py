"""1D interval algebra: normalized (center, width) boxes and character spans.

Centers and widths are fractions of the text length in characters; character
spans are half-open [x1, x2). The plain-float IoU, gIoU and span L1 are the
scalar public API; the ``*_t`` variants run on autodiff tensors and give both
the training losses and the match cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tensor as T

EDGE_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """Normalized interval: center c in [0,1], width w in (0,1]."""

    c: float
    w: float

    def __post_init__(self):
        # containment in [0,1] is guaranteed by clamp_interval, not demanded here:
        # conversions clamp at the character level and absorb small overhangs
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"interval center {self.c} outside [0, 1]")
        if not 0.0 < self.w <= 1.0:
            raise ValueError(f"interval width {self.w} outside (0, 1]")

    @property
    def x1(self) -> float:
        return self.c - self.w / 2

    @property
    def x2(self) -> float:
        return self.c + self.w / 2


@dataclass(frozen=True, order=True)
class CharSpan:
    """Half-open character span [x1, x2) into a text."""

    x1: int
    x2: int

    def __post_init__(self):
        if self.x1 < 0 or self.x2 <= self.x1:
            raise ValueError(f"invalid span ({self.x1}, {self.x2}): need 0 <= x1 < x2")

    def __len__(self) -> int:
        return self.x2 - self.x1


def clamp_interval(c: float, w: float, min_w: float = 1e-4) -> Interval:
    """Force (c, w) into a valid normalized interval."""
    w = min(max(w, min_w), 1.0)
    c = min(max(c, w / 2), 1.0 - w / 2)
    return Interval(c, w)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def cw_to_span(iv: Interval, text_len: int) -> CharSpan:
    """Convert to absolute characters; emitted spans are at least 1 char wide."""
    if text_len < 1:
        raise ValueError(f"text_len must be >= 1, got {text_len}")
    x1 = _round_half_away((iv.c - iv.w / 2) * text_len)
    x2 = _round_half_away((iv.c + iv.w / 2) * text_len)
    x1 = min(max(x1, 0), text_len - 1)
    x2 = min(max(x2, x1 + 1), text_len)
    return CharSpan(x1, x2)


def span_to_cw(sp: CharSpan, text_len: int) -> Interval:
    if sp.x2 > text_len:
        raise ValueError(f"span {sp} exceeds text length {text_len}")
    return Interval((sp.x1 + sp.x2) / (2.0 * text_len), (sp.x2 - sp.x1) / text_len)


def iou_1d(a: Interval, b: Interval) -> float:
    inter = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    union = a.w + b.w - inter
    return inter / union


def giou_1d(a: Interval, b: Interval) -> float:
    """IoU minus the hull fraction not covered by the union; range (-1, 1]."""
    inter = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    union = a.w + b.w - inter
    hull = max(a.x2, b.x2) - min(a.x1, b.x1)
    return inter / union - (hull - union) / hull


def span_l1(a: Interval, b: Interval) -> float:
    return abs(a.c - b.c) + abs(a.w - b.w)


# -- tensor variants (inputs are (..., 2) tensors of (c, w) pairs) -----------


def span_l1_t(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """Elementwise |c_a-c_b| + |w_a-w_b|; reduces the trailing (c,w) axis."""
    return T.sum_(T.abs_(a - b), axis=-1)


def giou_1d_t(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    ax1 = a[..., 0] - a[..., 1] * 0.5
    ax2 = a[..., 0] + a[..., 1] * 0.5
    bx1 = b[..., 0] - b[..., 1] * 0.5
    bx2 = b[..., 0] + b[..., 1] * 0.5
    inter = T.relu(T.minimum(ax2, bx2) - T.maximum(ax1, bx1))
    union = (ax2 - ax1) + (bx2 - bx1) - inter
    hull = T.maximum(ax2, bx2) - T.minimum(ax1, bx1)
    return inter / union - (hull - union) / hull
