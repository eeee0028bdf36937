"""Elementary tensor ops as ``T.custom`` nodes: the primitives the engine's
fused ops replaced, kept as the references those ops are pinned to.

Each op computes the numpy forward and backward expressions the engine once
had for it, with gradients in parent order, so chains built from them (the
composed attention, anchor encoding and objective) are bitwise what they
were. Tests call them as functions: ``R.mul(a, b)``, ``R.sub(a, b)``,
``R.slice_(a, idx)`` for ``a[idx]``. A plain number beside a tensor becomes
a double-precision constant; shapes follow the engine's elementwise policy
(scalar or row-vector bias).
"""

import numpy as np

from spandet import tensor as T


def _pair(op, a, b):
    a, b = T._wrap(a), T._wrap(b)
    T._check_elementwise(op, a, b)
    return a, b


def _unary(op, a, data, grad):
    """A node with the one parent ``a``; ``grad(g)`` is its gradient."""
    return T.custom(data, (a,), lambda g: (grad(g),), op)


def scale(a, s):
    a, s = T._wrap(a), float(s)
    return _unary("scale", a, a.data * s, lambda g: g * s)


def sub(a, b):
    """``a - b`` as the engine built it: ``add(a, scale(b, -1))``."""
    a, b = _pair("sub", a, b)
    return T.add(a, scale(b, -1.0))


def mul(a, b):
    a, b = _pair("mul", a, b)
    ad, bd = a.data, b.data
    return T.custom(ad * bd, (a, b), lambda g: (T._unbroadcast(g * bd, a.shape),
                                                T._unbroadcast(g * ad, b.shape)), "mul")


def div(a, b):
    a, b = _pair("div", a, b)
    ad, bd = a.data, b.data
    return T.custom(ad / bd, (a, b), lambda g: (
        T._unbroadcast(g / bd, a.shape),
        T._unbroadcast(-g * ad / (bd * bd), b.shape)), "div")


def matmul(a, b):
    a = T._wrap(a)
    b = T._wrap(b)
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise T.ShapeError(f"matmul: shapes {a.shape} and {b.shape} are not compatible")
    elif a.ndim == 3 and b.ndim == 3:
        if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
            raise T.ShapeError(f"matmul: shapes {a.shape} and {b.shape} are not compatible")
    else:
        raise T.ShapeError(f"matmul: expected 2D@2D or 3D@3D, got {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    return T.custom(ad @ bd, (a, b), lambda g: (g @ np.swapaxes(bd, -1, -2),
                                                np.swapaxes(ad, -1, -2) @ g), "matmul")


def transpose(a, axes=None):
    a = T._wrap(a)
    inv = None if axes is None else np.argsort(axes)
    return _unary("transpose", a, np.transpose(a.data, axes), lambda g: np.transpose(g, inv))


def reshape(a, shape):
    a = T._wrap(a)
    return _unary("reshape", a, a.data.reshape(shape), lambda g: g.reshape(a.shape))


def slice_(a, idx):
    """``a[idx]``: basic or fancy indexing; repeated indices add their gradients."""
    a = T._wrap(a)

    def grad(g):
        full = np.zeros(a.shape)
        np.add.at(full, idx, g)
        return full

    return _unary("slice", a, np.asarray(a.data[idx]), grad)


def _axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def _expand(g, shape, axis):
    if axis is None:
        return np.asarray(g)
    for ax in sorted(_axes(axis, len(shape))):
        g = np.expand_dims(g, ax)
    return g


def sum_(a, axis=None):
    a = T._wrap(a)
    shape = a.shape
    return _unary("sum", a, np.asarray(a.data.sum(axis=axis)),
                  lambda g: np.broadcast_to(_expand(g, shape, axis), shape).copy())


def mean(a, axis=None):
    a = T._wrap(a)
    shape = a.shape
    n = a.size if axis is None else np.prod([shape[i] for i in _axes(axis, len(shape))])
    return _unary("mean", a, np.asarray(a.data.mean(axis=axis)),
                  lambda g: np.broadcast_to(_expand(g, shape, axis), shape) / n)


def softmax(a, axis=-1):
    a = T._wrap(a)
    if not -a.ndim <= axis < a.ndim:
        raise T.ShapeError(f"softmax: axis {axis} out of range for shape {a.shape}")
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)

    def grad(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (g - dot) * y

    return _unary("softmax", a, y, grad)


def exp(a):
    a = T._wrap(a)
    y = np.exp(a.data)
    return _unary("exp", a, y, lambda g: g * y)


def log(a):
    """Natural log with the argument clamped at ``LOG_EPS`` (zero gradient
    below the clamp)."""
    a = T._wrap(a)
    x = np.maximum(a.data, T.LOG_EPS)
    dydx = np.where(a.data > T.LOG_EPS, 1.0 / x, 0.0)
    return _unary("log", a, np.log(x), lambda g: g * dydx)


def sin(a):
    a = T._wrap(a)
    return _unary("sin", a, np.sin(a.data), lambda g: g * np.cos(a.data))


def cos(a):
    a = T._wrap(a)
    return _unary("cos", a, np.cos(a.data), lambda g: -g * np.sin(a.data))


def maximum(a, b):
    a, b = _pair("maximum", a, b)
    amask = a.data >= b.data  # ties feed the first argument
    return T.custom(np.maximum(a.data, b.data), (a, b), lambda g: (
        T._unbroadcast(g * amask, a.shape), T._unbroadcast(g * ~amask, b.shape)), "maximum")


def minimum(a, b):
    a, b = _pair("minimum", a, b)
    amask = a.data <= b.data
    return T.custom(np.minimum(a.data, b.data), (a, b), lambda g: (
        T._unbroadcast(g * amask, a.shape), T._unbroadcast(g * ~amask, b.shape)), "minimum")


def abs_(a):
    a = T._wrap(a)
    s = np.sign(a.data)
    return _unary("abs", a, np.abs(a.data), lambda g: g * s)


def powc(a, p):
    """``a**p`` for a constant p; meant for non-negative arguments (focal loss)."""
    a, p = T._wrap(a), float(p)
    return _unary("powc", a, a.data ** p, lambda g: g * p * a.data ** (p - 1.0))


def inverse_sigmoid(a):
    """Logit with the input clamped to ``[LOGIT_EPS, 1 - LOGIT_EPS]``; clamped
    coordinates get zero gradient."""
    a = T._wrap(a)
    x = np.clip(a.data, T.LOGIT_EPS, 1.0 - T.LOGIT_EPS)
    interior = (a.data > T.LOGIT_EPS) & (a.data < 1.0 - T.LOGIT_EPS)
    dydx = np.where(interior, 1.0 / (x * (1.0 - x)), 0.0)
    return _unary("inverse_sigmoid", a, np.log(x) - np.log1p(-x), lambda g: g * dydx)
