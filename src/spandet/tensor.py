"""Minimal reverse-mode autodiff engine over numpy arrays.

Every operation records itself on the tensors it produces (creation-ordered
graph = the tape); ``backward`` replays the tape once in reverse creation
order, accumulating gradients. A node is always created after its parents, so
that order is topological. A first gradient contribution is stored without
a copy, and interior nodes drop their gradient once passed on: only leaves
end a backward holding one, never two the same buffer. Double precision is
the default so finite difference checks have headroom.

The cost of the engine is Python per tape node, not arithmetic, so the
layers the detector repeats most are fused primitives: one node each, with a
hand-written backward. ``linear`` is ``x @ w + b``; ``attention`` is
multi-head scaled-dot attention from the projected q/k/v to the merged
context, keeping only the probabilities for backward; ``anchor_encode`` is
the interleaved sin/cos encoding of ``(c, w)`` anchors; ``layer_norm`` takes
an optional residual that it adds first. Each computes the same numpy
expressions, in the same order, as the chain of elementary primitives it
replaces. ``custom`` makes a node from a value and a caller-written backward;
the training objective is one.

Inside ``with no_grad():`` operations record no parents and build no
backward closures; results are constants. Inference uses it, since it never
calls backward. The switch is process-wide and not thread-safe.

Broadcasting is deliberately restricted: scalar-with-tensor and row-vector
bias only. Anything else raises ``ShapeError``.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

LOG_EPS = 1e-12
LOGIT_EPS = 1e-6
LAYERNORM_EPS = 1e-12


class ShapeError(ValueError):
    """Raised when operands have incompatible shapes for an op."""


_ids = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no tape inside the block; the previous mode is restored on exit,
    also when the block raises."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op", "_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            raise TypeError("Tensor(data) does not accept a Tensor; use .clone semantics explicitly")
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype != np.float32:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"
        self._id = next(_ids)

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- autodiff ----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every requires_grad leaf.

        Nodes run in reverse creation order, so all consumers of a node are
        done before it runs. The tape is consumed: a second backward raises.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._op == "consumed":
            raise RuntimeError("backward already called: tape consumed")

        order = _interior_nodes(self)
        self.grad = np.ones_like(self.data)
        for node in order:  # each interior node exactly once
            g, node.grad = node.grad, None  # passed on, so only leaves keep grads
            if g is not None:
                node._backward(g)
            node._parents = ()
            node._backward = None
            node._op = "consumed"

    def _accumulate(self, g: np.ndarray) -> None:
        """Add a gradient contribution. The first one is stored as it is: the
        caller hands over an array that no other tensor holds."""
        if self.grad is None:
            self.grad = g if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            self.grad = self.grad + g

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __sub__(self, other):
        return add(self, scale(_wrap(other, self), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other, self), scale(self, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_wrap(other, self), self)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return slice_(self, idx)

    def sum(self, axis=None):
        return sum_(self, axis)

    def mean(self, axis=None):
        return mean(self, axis)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, axes=None):
        return transpose(self, axes)


def _interior_nodes(root: Tensor) -> list[Tensor]:
    """Nodes with parents reachable from `root`, newest first: a reverse
    creation order, which is topological. Iterative, so deep graphs are fine."""
    nodes = {id(root): root} if root._parents else {}
    stack = list(nodes.values())
    while stack:
        for p in stack.pop()._parents:
            if p._parents and id(p) not in nodes:
                nodes[id(p)] = p
                stack.append(p)
    return sorted(nodes.values(), key=lambda t: t._id, reverse=True)


def _wrap(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _result(data: np.ndarray, parents: Sequence[Tensor], bwd_builder, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out.grad = None
    out._id = next(_ids)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = bwd_builder()
        out._op = op
    else:  # constants, and everything under no_grad, stay off the tape
        out._parents = ()
        out._backward = None
        out._op = "const"
    return out


# -- elementwise shape policy ---------------------------------------------


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape:
        return
    if a.size == 1 or b.size == 1:
        return
    # row-vector bias: (..., n) op (n,)
    if b.ndim == 1 and a.ndim >= 2 and a.shape[-1] == b.shape[0]:
        return
    if a.ndim == 1 and b.ndim >= 2 and b.shape[-1] == a.shape[0]:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not compatible "
                     "(only scalar and row-vector-bias broadcasting is supported)")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over axes that were broadcast to recover a parent's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- primitives -------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, a)
    _check_elementwise("add", a, b)
    data = a.data + b.data

    def build():
        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                gb = _unbroadcast(g, b.shape)
                b._accumulate(gb.copy() if gb is a.grad else gb)
        return bwd

    return _result(data, (a, b), build, "add")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, a)
    _check_elementwise("mul", a, b)
    data = a.data * b.data

    def build():
        ad, bd = a.data, b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * bd, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * ad, b.shape))
        return bwd

    return _result(data, (a, b), build, "mul")


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, a)
    _check_elementwise("div", a, b)
    data = a.data / b.data

    def build():
        ad, bd = a.data, b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / bd, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * ad / (bd * bd), b.shape))
        return bwd

    return _result(data, (a, b), build, "div")


def scale(a: Tensor, s: float) -> Tensor:
    a = _wrap(a)
    s = float(s)
    data = a.data * s

    def build():
        def bwd(g):
            a._accumulate(g * s)
        return bwd

    return _result(data, (a,), build, "scale")


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, a)
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are not compatible")
    elif a.ndim == 3 and b.ndim == 3:
        if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
            raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are not compatible")
    else:
        raise ShapeError(f"matmul: expected 2D@2D or 3D@3D, got {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def build():
        ad, bd = a.data, b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(g @ np.swapaxes(bd, -1, -2))
            if b.requires_grad:
                b._accumulate(np.swapaxes(ad, -1, -2) @ g)
        return bwd

    return _result(data, (a, b), build, "matmul")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def build():
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def bwd(g):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                if t.requires_grad:
                    t._accumulate(piece)
        return bwd

    return _result(data, tensors, build, "concat")


def slice_(a: Tensor, idx) -> Tensor:
    a = _wrap(a)
    data = a.data[idx]
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data)

    def build():
        shape = a.shape

        def bwd(g):
            if a.requires_grad:
                full = np.zeros(shape, dtype=a.data.dtype)
                np.add.at(full, idx, g)
                a._accumulate(full)
        return bwd

    return _result(data, (a,), build, "slice")


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    data = a.data.reshape(shape)

    def build():
        orig = a.shape

        def bwd(g):
            a._accumulate(g.reshape(orig))
        return bwd

    return _result(data, (a,), build, "reshape")


def transpose(a: Tensor, axes=None) -> Tensor:
    a = _wrap(a)
    data = np.transpose(a.data, axes)

    def build():
        inv = None if axes is None else np.argsort(axes)

        def bwd(g):
            a._accumulate(np.transpose(g, inv))
        return bwd

    return _result(data, (a,), build, "transpose")


def sum_(a: Tensor, axis=None) -> Tensor:
    a = _wrap(a)
    data = np.asarray(a.data.sum(axis=axis))

    def build():
        shape = a.shape

        def bwd(g):
            a._accumulate(np.broadcast_to(_expand(g, shape, axis), shape).copy())
        return bwd

    return _result(data, (a,), build, "sum")


def mean(a: Tensor, axis=None) -> Tensor:
    a = _wrap(a)
    data = np.asarray(a.data.mean(axis=axis))

    def build():
        shape = a.shape
        n = a.size if axis is None else np.prod([shape[i] for i in _axes(axis, len(shape))])

        def bwd(g):
            a._accumulate(np.broadcast_to(_expand(g, shape, axis), shape) / n)
        return bwd

    return _result(data, (a,), build, "mean")


def _axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def _expand(g: np.ndarray, shape: tuple[int, ...], axis) -> np.ndarray:
    if axis is None:
        return np.asarray(g)
    for ax in sorted(_axes(axis, len(shape))):
        g = np.expand_dims(g, ax)
    return g


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _wrap(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def build():
        y = data

        def bwd(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            a._accumulate((g - dot) * y)
        return bwd

    return _result(data, (a,), build, "softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               residual: Tensor | None = None) -> Tensor:
    """Normalize ``x`` (plus ``residual``, when given) over the last axis,
    then apply learnable gain and bias.

    The residual add is part of the node: both inputs receive the gradient
    the sum would have passed on. eps is tiny (1e-12) so the pre-affine
    output really has unit variance; it only guards exactly-constant rows.
    """
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    ins = (x,) if residual is None else (x, _wrap(residual))
    if ins[-1].shape != x.shape:
        raise ShapeError(f"layer_norm: residual {ins[-1].shape} is not x's {x.shape}")
    xs = x.data if residual is None else x.data + ins[1].data
    mu = xs.mean(axis=-1, keepdims=True)
    xc = xs - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def build():
        gd = gain.data

        def bwd(g):
            if gain.requires_grad:
                gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
            if bias.requires_grad:
                bias._accumulate(g.reshape(-1, d).sum(axis=0))
            if any(t.requires_grad for t in ins):
                gxhat = g * gd
                # d/dx of (x - mu) * inv with mu, inv functions of the row
                term = gxhat - gxhat.mean(axis=-1, keepdims=True) \
                    - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
                gx = term * inv
                for t in ins:  # x, then the residual: the order the sum passed g on
                    if t.requires_grad:
                        t._accumulate(gx.copy() if gx is x.grad else gx)
        return bwd

    return _result(data, (x, gain, bias) + ins[1:], build, "layer_norm")


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    data = np.maximum(a.data, 0.0)

    def build():
        mask = a.data > 0

        def bwd(g):
            a._accumulate(g * mask)
        return bwd

    return _result(data, (a,), build, "relu")


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic function on an array, the values ``sigmoid`` computes."""
    t = np.exp(-np.abs(x))  # exp of a non-positive number: never overflows
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    data = expit(a.data)

    def build():
        y = data

        def bwd(g):
            a._accumulate(g * y * (1.0 - y))
        return bwd

    return _result(data, (a,), build, "sigmoid")


def inverse_sigmoid(a: Tensor) -> Tensor:
    """Logit with input clamped to [1e-6, 1-1e-6]; clamped coords get zero grad."""
    a = _wrap(a)
    x = np.clip(a.data, LOGIT_EPS, 1.0 - LOGIT_EPS)
    data = np.log(x) - np.log1p(-x)

    def build():
        interior = (a.data > LOGIT_EPS) & (a.data < 1.0 - LOGIT_EPS)
        dydx = np.where(interior, 1.0 / (x * (1.0 - x)), 0.0)

        def bwd(g):
            a._accumulate(g * dydx)
        return bwd

    return _result(data, (a,), build, "inverse_sigmoid")


def exp(a: Tensor) -> Tensor:
    a = _wrap(a)
    data = np.exp(a.data)

    def build():
        y = data

        def bwd(g):
            a._accumulate(g * y)
        return bwd

    return _result(data, (a,), build, "exp")


def log(a: Tensor) -> Tensor:
    """Natural log with the argument clamped at 1e-12 (zero grad below the clamp)."""
    a = _wrap(a)
    x = np.maximum(a.data, LOG_EPS)
    data = np.log(x)

    def build():
        dydx = np.where(a.data > LOG_EPS, 1.0 / x, 0.0)

        def bwd(g):
            a._accumulate(g * dydx)
        return bwd

    return _result(data, (a,), build, "log")


def sin(a: Tensor) -> Tensor:
    a = _wrap(a)
    data = np.sin(a.data)

    def build():
        def bwd(g):
            a._accumulate(g * np.cos(a.data))
        return bwd

    return _result(data, (a,), build, "sin")


def cos(a: Tensor) -> Tensor:
    a = _wrap(a)
    data = np.cos(a.data)

    def build():
        def bwd(g):
            a._accumulate(-g * np.sin(a.data))
        return bwd

    return _result(data, (a,), build, "cos")


def maximum(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, a)
    _check_elementwise("maximum", a, b)
    data = np.maximum(a.data, b.data)

    def build():
        amask = a.data >= b.data  # ties feed the first argument

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * amask, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * ~amask, b.shape))
        return bwd

    return _result(data, (a, b), build, "maximum")


def minimum(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, a)
    _check_elementwise("minimum", a, b)
    data = np.minimum(a.data, b.data)

    def build():
        amask = a.data <= b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * amask, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * ~amask, b.shape))
        return bwd

    return _result(data, (a, b), build, "minimum")


def abs_(a: Tensor) -> Tensor:
    a = _wrap(a)
    data = np.abs(a.data)

    def build():
        s = np.sign(a.data)

        def bwd(g):
            a._accumulate(g * s)
        return bwd

    return _result(data, (a,), build, "abs")


def powc(a: Tensor, p: float) -> Tensor:
    """a**p for constant p; intended for non-negative arguments (focal loss)."""
    a = _wrap(a)
    p = float(p)
    data = a.data ** p

    def build():
        def bwd(g):
            a._accumulate(g * p * a.data ** (p - 1.0))
        return bwd

    return _result(data, (a,), build, "powc")


# -- fused primitives -----------------------------------------------------------


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for x (n, d_in), w (d_in, d_out), b (d_out,), as one node."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape} @ {w.shape} + {b.shape} are not compatible")
    data = x.data @ w.data + b.data

    def build():
        xd, wd = x.data, w.data

        def bwd(g):
            if x.requires_grad:
                x._accumulate(g @ wd.T)
            if w.requires_grad:
                w._accumulate(xd.T @ g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0))
        return bwd

    return _result(data, (x, w, b), build, "linear")


def attention(q, k, v, heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled-dot attention as one node.

    q (n, heads*dk), k (m, heads*dk) and v (m, heads*dv) are split into heads
    by columns; each head takes softmax(q k^T / sqrt(dk) + mask) v, and the
    heads are merged back into (n, heads*dv). `mask`: optional constant (n, m)
    array added to every head's scores; -inf hides a key, and each query must
    keep one visible key. Backward keeps the probabilities, not the scores.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if (q.ndim != 2 or k.ndim != 2 or v.ndim != 2 or q.shape[1] != k.shape[1]
            or k.shape[0] != v.shape[0] or q.shape[1] % heads or v.shape[1] % heads):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} do not "
                         f"split into {heads} heads")
    n, m = q.shape[0], k.shape[0]
    if mask is not None and np.shape(mask) != (n, m):
        raise ShapeError(f"attention: mask {np.shape(mask)} is not ({n}, {m})")
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    qh = np.transpose(q.data.reshape(n, heads, dk), (1, 0, 2))     # (h, n, dk)
    kt = np.transpose(k.data.reshape(m, heads, dk), (1, 2, 0))     # (h, dk, m)
    vh = np.transpose(v.data.reshape(m, heads, dv), (1, 0, 2))     # (h, m, dv)
    s = float(1.0 / np.sqrt(dk))
    p = qh @ kt
    p *= s
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    data = np.transpose(p @ vh, (1, 0, 2)).reshape(n, heads * dv)

    def build():
        def bwd(g):
            gctx = np.ascontiguousarray(np.transpose(g.reshape(n, heads, dv), (1, 0, 2)))
            if v.requires_grad:
                gvh = np.swapaxes(p, -1, -2) @ gctx
                v._accumulate(np.transpose(gvh, (1, 0, 2)).reshape(m, heads * dv))
            if q.requires_grad or k.requires_grad:
                gp = gctx @ np.swapaxes(vh, -1, -2)
                gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * s
                if q.requires_grad:
                    gqh = gs @ np.swapaxes(kt, -1, -2)
                    q._accumulate(np.transpose(gqh, (1, 0, 2)).reshape(n, heads * dk))
                if k.requires_grad:
                    gkt = np.swapaxes(qh, -1, -2) @ gs
                    k._accumulate(np.transpose(gkt, (2, 0, 1)).reshape(m, heads * dk))
        return bwd

    return _result(data, (q, k, v), build, "attention")


def anchor_encode(cw, dim: int, temperature: float = 10000.0) -> Tensor:
    """Encode (n, 2) anchors (c, w) as (n, dim): each coordinate fills dim/2
    columns with sin/cos interleaved over a geometric frequency ladder (the
    layout of ``nn.sinusoidal_encode``), c first, then w. One node."""
    cw = _wrap(cw)
    if dim % 4:
        raise ValueError(f"anchor encoding needs dim divisible by 4, got {dim}")
    if cw.ndim != 2 or cw.shape[1] != 2:
        raise ShapeError(f"anchor_encode: expected (n, 2) anchors, got {cw.shape}")
    n, half = cw.shape[0], dim // 2
    freqs = temperature ** (2.0 * np.arange(half // 2) / half)
    inv = (2.0 * np.pi / freqs)[None, :]                    # (1, dim/4)
    args = cw.data[:, :, None] * inv                        # (n, 2, dim/4)
    sin, cos = np.sin(args), np.cos(args)
    out = np.empty((n, 2, half // 2, 2))
    out[..., 0] = sin
    out[..., 1] = cos
    data = out.reshape(n, dim)

    def build():
        def bwd(g):
            g4 = g.reshape(n, 2, half // 2, 2)
            grad = np.empty((n, 2))
            for j in range(2):  # (n, dim/4) @ (dim/4, 1) per coordinate, as the chain did
                gargs = -g4[:, j, :, 1] * sin[:, j] + g4[:, j, :, 0] * cos[:, j]
                grad[:, j] = (gargs @ inv.T)[:, 0]
            cw._accumulate(grad)
        return bwd

    return _result(data, (cw,), build, "anchor_encode")


def custom(data, parents: Sequence[Tensor], vjp: Callable, op: str) -> Tensor:
    """A node whose backward its caller writes: ``vjp(g)`` maps the node's
    gradient to one array per parent (None for none), each an array that no
    tensor holds yet."""
    def build():
        def bwd(g):
            for p, gp in zip(parents, vjp(g)):
                if p.requires_grad and gp is not None:
                    p._accumulate(gp)
        return bwd

    return _result(np.asarray(data), parents, build, op)


def grad_check(build_loss: Callable[[], Tensor], tensors: Sequence[Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `build_loss()` must rebuild a scalar from the current values of `tensors`.
    Their grads are zeroed, one backward gives the analytic gradient, then
    each coordinate is perturbed in place by +-eps and restored exactly. Error
    per coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    for t in tensors:
        t.zero_grad()
    out = build_loss()
    if out.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    out.backward()
    worst = 0.0
    for t in tensors:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        for i in np.ndindex(t.shape):
            orig = t.data[i]
            t.data[i] = orig + eps
            hi = float(build_loss().data)
            t.data[i] = orig - eps
            lo = float(build_loss().data)
            t.data[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            worst = max(worst, abs(analytic[i] - numeric) / max(1.0, abs(analytic[i])))
    return float(worst)
