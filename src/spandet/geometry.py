"""1D interval algebra: normalized (center, width) boxes and character spans.

Centers and widths are fractions of the text length in characters; character
spans are half-open [x1, x2). The plain-float IoU, gIoU and span L1 are the
scalar public API. ``span_l1_giou`` computes the same quantities row-wise over
numpy arrays, with their backward; the training objective takes its loss
terms, its match cost and its gradients from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Interval:
    """Normalized interval: center c in [0,1], width w in (0,1]."""

    c: float
    w: float

    def __post_init__(self):
        # containment of [x1, x2] in [0,1] is not demanded here: conversions
        # clamp at the character level and absorb small overhangs
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


def merge_spans(spans) -> list[CharSpan]:
    """Sorted union of character spans; spans that overlap or touch merge."""
    merged: list[CharSpan] = []
    for sp in sorted(spans):
        if merged and sp.x1 <= merged[-1].x2:
            merged[-1] = CharSpan(merged[-1].x1, max(merged[-1].x2, sp.x2))
        else:
            merged.append(sp)
    return merged


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


# -- row-wise arrays with a backward ----------------------------------------


def span_l1_giou(a: np.ndarray, b: np.ndarray):
    """Row-wise span L1, gIoU and IoU of (K, 2) ``(c, w)`` rows `a` against
    constant rows `b`, and their backward: ``grad(g_l1, g_giou)`` maps (K,)
    gradients of the L1 and the gIoU to the (K, 2) gradient of `a`.

    The forward runs the float operations of the elementwise tensor chain
    (slices, min/max, relu, divisions), and ``grad`` replays that chain's
    backward expressions in tape order, newest consumer first, so both are
    bitwise the chain's.
    """
    ax1 = a[:, 0] - a[:, 1] * 0.5
    ax2 = a[:, 0] + a[:, 1] * 0.5
    bx1 = b[:, 0] - b[:, 1] * 0.5
    bx2 = b[:, 0] + b[:, 1] * 0.5
    diff = a - b
    l1 = np.abs(diff).sum(axis=-1)
    d = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    inter = np.maximum(d, 0.0)
    union = (ax2 - ax1) + (bx2 - bx1) - inter
    hull = np.maximum(ax2, bx2) - np.minimum(ax1, bx1)
    iou = inter / union
    hu = hull - union
    giou = iou - hu / hull

    def grad(g_l1: np.ndarray, g_giou: np.ndarray) -> np.ndarray:
        g_r2 = g_giou * -1.0  # giou = iou - r2, r2 = hu / hull
        g_hu = g_r2 / hull
        g_hull = -g_r2 * hu / (hull * hull) + g_hu
        g_union = g_hu * -1.0 + -g_giou * inter / (union * union)
        g_d = (g_giou / union + g_union * -1.0) * (d > 0)
        # each endpoint: hull min/max first, then the union, then the intersection
        g_ax1 = (g_hull * -1.0 * (ax1 <= bx1) + g_union * -1.0) + g_d * -1.0 * (ax1 >= bx1)
        g_ax2 = (g_hull * (ax2 >= bx2) + g_union) + g_d * (ax2 <= bx2)
        ga = np.empty_like(a)
        ga[:, 0] = g_ax2 + g_ax1
        ga[:, 1] = g_ax2 * 0.5 + g_ax1 * -1.0 * 0.5
        return ga + g_l1[:, None] * np.sign(diff)

    return l1, giou, iou, grad
