"""Minimal reverse-mode autodiff engine over numpy arrays.

Every operation makes its node with one ``_result(data, parents, vjp, op)``
call: a value computed in numpy, and ``vjp(g)``, which maps the node's
gradient to one array (or None) per parent, in parent order. The nodes, in
creation order, are the tape; ``backward`` replays it once in reverse, which
is topological since a node is created after its parents. ``backward`` alone
stores gradients: it skips parents that need none, stores a first
contribution without a copy, and copies an array an earlier parent of the
same node already stored. Interior nodes drop their gradient once passed on,
so only leaves end a backward holding one, never two the same buffer. Every
tensor holds double precision, so finite difference checks have headroom.

The cost of the engine is Python per tape node, not arithmetic, so it holds
only the ops the detector calls, and the layers it repeats are fused: one
node each, with a hand-written backward. ``linear`` is ``x @ w + b``;
``attention`` is multi-head scaled-dot attention from the projected q/k/v to
the merged context, keeping only the probabilities for backward;
``anchor_encode`` is ``sinusoidal_encode``, the interleaved sin/cos encoding
of token positions, applied to ``(c, w)`` anchors; ``layer_norm`` takes an
optional residual that it adds first. The rest are ``sigmoid``, ``relu``,
``add`` and the structural ``concat``. ``custom`` is ``_result`` for
callers: a value and a hand-written vjp; the training objective, the
classifier's cross-entropy and the cross-attention's per-head interleave of
content and position parts (``concat_per_head``) are one each. Tensors take
no indexing: heads emit the shapes their losses read. The elementary ops the
fused ones replaced (products, matmul, reductions, softmax, log, reshape,
slicing, ...) live in the tests as reference ops built on ``custom``, and
the fused ones are pinned to their chains there.

Inside ``with no_grad():`` operations record no parents and keep no vjp;
results are constants. What a backward needs beyond the arrays it captures
is computed inside its vjp, so an untaped forward does no work for it.
Inference runs untaped, since it never calls backward. The switch is
process-wide and not thread-safe.

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

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("Tensor(data) does not accept a Tensor; pass its .data instead")
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence] | None = None  # the vjp
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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- autodiff ----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every requires_grad leaf.

        Nodes run in reverse creation order, so all consumers of a node are
        done before it runs; each vjp's arrays are stored by the copy rule of
        the module docstring. The tape is consumed: a second backward raises.
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
                held = []
                for p, gp in zip(node._parents, node._backward(g)):
                    if gp is not None and p.requires_grad:
                        p._accumulate(gp.copy() if any(gp is h.grad for h in held) else gp)
                        held.append(p)
            node._parents = ()
            node._backward = None
            node._op = "consumed"

    def _accumulate(self, g: np.ndarray) -> None:
        """Add a gradient contribution. The first one is stored as it is:
        ``backward`` hands over an array that no other tensor holds."""
        if self.grad is None:
            self.grad = g if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            self.grad = self.grad + g

    def __add__(self, other):
        return add(self, other)


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


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out.grad = None
    out._id = next(_ids)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = vjp
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
    a, b = _wrap(a), _wrap(b)
    _check_elementwise("add", a, b)
    return _result(a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)), "add")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def vjp(g):
        return np.split(g, np.cumsum([t.shape[axis] for t in tensors])[:-1], axis=axis)

    return _result(data, tensors, vjp, "concat")


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

    def vjp(g):
        gx = None
        if any(t.requires_grad for t in ins):
            gxhat = g * gain.data
            # d/dx of (x - mu) * inv with mu, inv functions of the row
            term = gxhat - gxhat.mean(axis=-1, keepdims=True) \
                - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
            gx = term * inv
        return (gx,
                (g * xhat).reshape(-1, d).sum(axis=0) if gain.requires_grad else None,
                g.reshape(-1, d).sum(axis=0) if bias.requires_grad else None,
                gx)  # the residual's, as x's: the gradient the sum passed on

    return _result(data, (x, gain, bias) + ins[1:], vjp, "layer_norm")


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    return _result(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0),), "relu")


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic function on an array, the values ``sigmoid`` computes."""
    t = np.exp(-np.abs(x))  # exp of a non-positive number: never overflows
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    y = expit(a.data)
    return _result(y, (a,), lambda g: (g * y * (1.0 - y),), "sigmoid")


# -- fused primitives -----------------------------------------------------------


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for x (n, d_in), w (d_in, d_out), b (d_out,), as one node."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape} @ {w.shape} + {b.shape} are not compatible")
    xd, wd = x.data, w.data

    def vjp(g):
        return (g @ wd.T if x.requires_grad else None,
                xd.T @ g if w.requires_grad else None, g.sum(axis=0))

    return _result(xd @ wd + b.data, (x, w, b), vjp, "linear")


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

    def vjp(g):
        gctx = np.ascontiguousarray(np.transpose(g.reshape(n, heads, dv), (1, 0, 2)))
        gq = gk = gv = None
        if v.requires_grad:
            gvh = np.swapaxes(p, -1, -2) @ gctx
            gv = np.transpose(gvh, (1, 0, 2)).reshape(m, heads * dv)
        if q.requires_grad or k.requires_grad:
            gp = gctx @ np.swapaxes(vh, -1, -2)
            gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * s
            if q.requires_grad:
                gqh = gs @ np.swapaxes(kt, -1, -2)
                gq = np.transpose(gqh, (1, 0, 2)).reshape(n, heads * dk)
            if k.requires_grad:
                gkt = np.swapaxes(qh, -1, -2) @ gs
                gk = np.transpose(gkt, (2, 0, 1)).reshape(m, heads * dk)
        return gq, gk, gv

    return _result(data, (q, k, v), vjp, "attention")


def _ladder(dim: int, temperature: float) -> np.ndarray:
    """Angular frequencies ``2 pi / temperature**(2k/dim)`` for k < dim/2."""
    return 2.0 * np.pi / temperature ** (2.0 * np.arange(dim // 2) / dim)


def sinusoidal_encode(pos, dim: int, temperature: float = 10000.0) -> np.ndarray:
    """Sin and cos of ``pos`` times each frequency of the ladder, interleaved:
    column 2k is sin, 2k+1 cos. A scalar gives (dim,); an array of shape s
    gives s + (dim,). Positions are normalized to [0, 1]."""
    if dim % 2:
        raise ValueError(f"sinusoidal dim must be even, got {dim}")
    args = np.asarray(pos, dtype=np.float64)[..., None] * _ladder(dim, temperature)
    out = np.empty(args.shape + (2,))
    out[..., 0] = np.sin(args)
    out[..., 1] = np.cos(args)
    return out.reshape(args.shape[:-1] + (dim,))


def anchor_encode(cw, dim: int, temperature: float = 10000.0) -> Tensor:
    """Encode (n, 2) anchors (c, w) as (n, dim): ``sinusoidal_encode`` of each
    coordinate at dim/2, c's columns first, then w's. One node; its backward
    reads sin and cos back from the output."""
    cw = _wrap(cw)
    if dim % 4:
        raise ValueError(f"anchor encoding needs dim divisible by 4, got {dim}")
    if cw.ndim != 2 or cw.shape[1] != 2:
        raise ShapeError(f"anchor_encode: expected (n, 2) anchors, got {cw.shape}")
    n, half = cw.shape[0], dim // 2
    data = sinusoidal_encode(cw.data, half, temperature).reshape(n, dim)

    def vjp(g):
        g4, sc = g.reshape(n, 2, half // 2, 2), data.reshape(n, 2, half // 2, 2)
        ladder = _ladder(half, temperature)[:, None]          # (dim/4, 1)
        grad = np.empty((n, 2))
        for j in range(2):  # (n, dim/4) @ (dim/4, 1) per coordinate, as the chain did
            gargs = -g4[:, j, :, 1] * sc[:, j, :, 0] + g4[:, j, :, 0] * sc[:, j, :, 1]
            grad[:, j] = (gargs @ ladder)[:, 0]
        return (grad,)

    return _result(data, (cw,), vjp, "anchor_encode")


def custom(data, parents: Sequence[Tensor], vjp: Callable, op: str) -> Tensor:
    """``_result`` for callers: a value and a hand-written ``vjp(g)`` giving one
    array (None for none) per parent, in parent order. One array may go to
    two parents: ``backward`` gives the later one a copy."""
    return _result(np.asarray(data), parents, vjp, op)


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
