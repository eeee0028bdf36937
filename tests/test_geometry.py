import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spandet import tensor as T
from spandet.geometry import (CharSpan, Interval, clamp_interval, cw_to_span,
                              giou_1d, iou_1d, span_l1, span_l1_giou, span_to_cw)

from composed import giou_1d_t, span_l1_t


def test_cw_to_span_examples():
    assert cw_to_span(Interval(0.5, 1.0), 100) == CharSpan(0, 100)
    assert cw_to_span(Interval(0.75, 0.5), 200) == CharSpan(100, 200)
    assert cw_to_span(Interval(0.0, 0.001), 10) == CharSpan(0, 1)


def test_span_to_cw_examples():
    assert span_to_cw(CharSpan(0, 100), 100) == Interval(0.5, 1.0)
    assert span_to_cw(CharSpan(25, 75), 100) == Interval(0.5, 0.5)
    assert span_to_cw(CharSpan(3, 7), 10) == Interval(0.5, 0.4)


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        CharSpan(5, 3)
    with pytest.raises(ValueError):
        CharSpan(-1, 3)
    with pytest.raises(ValueError):
        Interval(1.5, 0.2)
    with pytest.raises(ValueError):
        Interval(0.5, 0.0)


def test_iou_examples():
    a = Interval(0.25, 0.5)   # [0, 0.5]
    b = Interval(0.5, 0.5)    # [0.25, 0.75]
    assert iou_1d(a, a) == 1.0
    assert abs(iou_1d(a, b) - 1 / 3) < 1e-12
    assert iou_1d(Interval(0.1, 0.2), Interval(0.9, 0.2)) == 0.0


def test_giou_examples():
    a = Interval(0.1, 0.2)    # [0, 0.2]
    b = Interval(0.8, 0.4)    # [0.6, 1.0]
    assert giou_1d(a, a) == 1.0
    assert abs(giou_1d(a, b) - (-0.4)) < 1e-12
    c = Interval(0.25, 0.5)
    d = Interval(0.5, 0.5)
    assert abs(giou_1d(c, d) - iou_1d(c, d)) < 1e-15  # hull == union


def test_span_l1_examples():
    assert span_l1(Interval(0.5, 0.5), Interval(0.5, 0.5)) == 0.0
    assert abs(span_l1(Interval(0.5, 0.5), Interval(0.6, 0.3)) - 0.3) < 1e-12
    eps = 1e-4
    assert abs(span_l1(Interval(0.0, eps), Interval(1.0, eps)) - 1.0) < 1e-12


def _random_interval(rng):
    w = rng.uniform(0.01, 1.0)
    c = rng.uniform(w / 2, 1 - w / 2)
    return Interval(c, w)


def test_giou_bounded_by_iou_and_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        a, b = _random_interval(rng), _random_interval(rng)
        gi, io = giou_1d(a, b), iou_1d(a, b)
        assert gi <= io + 1e-12
        assert -1.0 < gi <= 1.0
        assert abs(giou_1d(b, a) - gi) < 1e-12
        assert abs(iou_1d(b, a) - io) < 1e-12
        hull = max(a.x2, b.x2) - min(a.x1, b.x1)
        union = a.w + b.w - max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
        if abs(hull - union) < 1e-12:
            assert abs(gi - io) < 1e-9


@given(st.integers(1, 300), st.data())
@settings(max_examples=200, deadline=None)
def test_span_roundtrip_identity(text_len, data):
    x1 = data.draw(st.integers(0, text_len - 1))
    x2 = data.draw(st.integers(x1 + 1, text_len))
    sp = CharSpan(x1, x2)
    assert cw_to_span(span_to_cw(sp, text_len), text_len) == sp


def test_span_roundtrip_exhaustive_small():
    for text_len in range(1, 40):
        for x1 in range(text_len):
            for x2 in range(x1 + 1, text_len + 1):
                sp = CharSpan(x1, x2)
                assert cw_to_span(span_to_cw(sp, text_len), text_len) == sp


def test_clamp_interval():
    iv = clamp_interval(-0.3, 2.0)
    assert iv == Interval(0.5, 1.0)
    assert clamp_interval(0.4, 0.3) == Interval(0.4, 0.3)  # valid input unchanged


def test_tensor_variants_agree_with_float():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = _random_interval(rng), _random_interval(rng)
        at, bt = T.Tensor([a.c, a.w]), T.Tensor([b.c, b.w])
        assert abs(float(giou_1d_t(at, bt).data) - giou_1d(a, b)) < 1e-12
        assert abs(float(span_l1_t(at, bt).data) - span_l1(a, b)) < 1e-12


def _near_kink(a, b, margin=1e-3):
    """True when any max/min/relu/abs argument pair inside the gIoU or L1
    computation is within `margin` of a tie."""
    inter_width = min(a.x2, b.x2) - max(a.x1, b.x1)
    return (abs(a.x1 - b.x1) < margin or abs(a.x2 - b.x2) < margin
            or abs(inter_width) < margin
            or abs(a.c - b.c) < margin or abs(a.w - b.w) < margin)


def test_geometry_gradients_at_non_kink_points():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 20:
        a, b = _random_interval(rng), _random_interval(rng)
        if _near_kink(a, b):
            continue
        bt = T.Tensor([b.c, b.w])
        at = T.Tensor([a.c, a.w], requires_grad=True)
        err_g = T.grad_check(lambda: giou_1d_t(at, bt), [at], 1e-5)
        err_l = T.grad_check(lambda: span_l1_t(at, bt), [at], 1e-5)
        assert err_g < 1e-4 and err_l < 1e-4
        checked += 1


def test_vectorized_tensor_geometry():
    rng = np.random.default_rng(5)
    pairs = [( _random_interval(rng), _random_interval(rng)) for _ in range(7)]
    a = T.Tensor([[p.c, p.w] for p, _ in pairs])
    b = T.Tensor([[q.c, q.w] for _, q in pairs])
    gi = giou_1d_t(a, b).data
    l1 = span_l1_t(a, b).data
    for i, (p, q) in enumerate(pairs):
        assert abs(gi[i] - giou_1d(p, q)) < 1e-12
        assert abs(l1[i] - span_l1(p, q)) < 1e-12


def test_row_geometry_bitwise_equals_the_tensor_chain():
    rng = np.random.default_rng(6)
    pairs = [(_random_interval(rng), _random_interval(rng)) for _ in range(200)]
    pairs += [(p, p) for p, _ in pairs[:5]]  # ties at every kink
    a = np.array([[p.c, p.w] for p, _ in pairs])
    b = np.array([[q.c, q.w] for _, q in pairs])
    g_l1, g_giou = rng.normal(size=(2, len(pairs)))
    l1, giou, iou, grad = span_l1_giou(a, b)
    at = T.Tensor(a, requires_grad=True)
    l1_t, giou_t = span_l1_t(at, T.Tensor(b)), giou_1d_t(at, T.Tensor(b))
    (T.sum_(l1_t * T.Tensor(g_l1)) + T.sum_(giou_t * T.Tensor(g_giou))).backward()
    assert np.array_equal(l1, l1_t.data) and np.array_equal(giou, giou_t.data)
    assert np.array_equal(grad(g_l1, g_giou), at.grad)
    for (p, q), got in zip(pairs, iou):
        assert abs(got - iou_1d(p, q)) < 1e-12
