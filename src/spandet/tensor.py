"""Minimal reverse-mode autodiff engine over numpy arrays.

Every operation makes its node with one ``_result(data, parents, vjp, op)``
call: a value computed in numpy, and ``vjp(g)``, which maps the node's
gradient to one array (or None) per parent, in parent order. The nodes, in
creation order, are the tape; ``backward`` replays it once in reverse, which
is topological since a node is created after its parents. ``backward`` alone
stores gradients: it skips parents that need none, stores a first
contribution without a copy, and copies an array an earlier parent of the
same node already stored; a tensor with a ``grad_slot`` (a parameter that
``training.AdamW`` holds) copies its first contribution into that slot
instead. Later contributions add in place. Interior nodes drop their
gradient once passed on, so only leaves end a backward holding one, never
two the same buffer. A parameter's ``grad`` is then its slice of the
optimizer's gradient vector, which the next backward overwrites: copy it to
keep it. Every tensor holds double precision, so finite difference checks
have headroom.

The cost of the engine is Python per tape node, not arithmetic, so it holds
only the ops the detector calls, and the layers it repeats are fused: one
node each, with a hand-written backward. ``linear`` is ``x @ w + b``;
``attention`` is multi-head scaled-dot attention from the projected q/k/v to
the merged context, keeping only exp(scores) and its row sums for backward;
``anchor_encode`` is ``sinusoidal_encode``, the interleaved sin/cos encoding
of token positions, applied to ``(c, w)`` anchors; ``layer_norm`` takes an
optional residual that it adds first. The rest are ``sigmoid``, ``relu``,
``add`` of two tensors of one shape, as the model makes them, and the
structural ``concat``. ``custom`` is ``_result`` for callers: a value and a
hand-written vjp; the training objective, the classifier's cross-entropy and
the cross-attention's per-head interleave of content and position parts
(``concat_per_head``) are one each. Tensors take no indexing: heads emit the
shapes their losses read. The elementary ops the fused ones replaced
(products, matmul, reductions, softmax, log, reshape, slicing, ...) live in
the tests as reference ops built on ``custom``, and the fused ones are
pinned to their chains there.

Inside ``with no_grad():`` operations record no parents and keep no vjp;
results are constants. What a backward needs beyond the arrays it captures
is computed inside its vjp, so an untaped forward does no work for it.
Inference runs untaped, since it never calls backward. The switch is
process-wide and not thread-safe.

A micro-batch of records runs as one tape by stacking the records row by
row. Every op but ``attention`` acts on rows (or sums over them, for a
parameter's gradient), so it needs no notion of records. ``attention`` takes
the rows' record ids, resolved once per forward by ``segments``, and keeps
each record's queries to its own keys; the training objective, a ``custom``
node, splits the rows by record itself. One record needs no segments.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Sequence

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
    __slots__ = ("data", "requires_grad", "grad", "grad_slot", "_parents", "_backward", "_op",
                 "_id")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("Tensor(data) does not accept a Tensor; pass its .data instead")
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.grad_slot: np.ndarray | None = None  # where a first gradient goes, if set
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
        A node is let go once its vjp has run, so the arrays of the part of
        the tape already replayed can be freed before the rest has run.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._op == "consumed":
            raise RuntimeError("backward already called: tape consumed")

        order = _interior_nodes(self)[::-1]  # oldest first, so pop() takes the newest
        self.grad = np.ones_like(self.data)
        while order:  # each interior node exactly once, then dropped
            node = order.pop()
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
        """Add a gradient contribution in place. The first one is copied into
        ``grad_slot`` when there is one, else stored as it is: ``backward``
        hands over an array that no other tensor holds."""
        if self.grad is not None:
            self.grad += g
        elif self.grad_slot is not None:
            self.grad = self.grad_slot
            self.grad[...] = g
        else:
            self.grad = g if isinstance(g, np.ndarray) else np.asarray(g)

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
    out.grad = out.grad_slot = None
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


# -- primitives -------------------------------------------------------------


def add(a, b) -> Tensor:
    """``a + b`` for two tensors of one shape; both parents get the gradient."""
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return _result(a.data + b.data, (a, b), lambda g: (g, g), "add")


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
    mu = xs.sum(axis=-1, keepdims=True) / d  # np.mean's arithmetic, without its wrapper
    xc = xs - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        gx = None
        if any(t.requires_grad for t in ins):
            gxhat = g * gain.data
            # d/dx of (x - mu) * inv with mu, inv functions of the row
            term = gxhat - gxhat.sum(axis=-1, keepdims=True) / d \
                - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True) / d
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


EXP_LIMIT = 128.0  # scores bounded by this in magnitude are exponentiated unshifted


class Segments(NamedTuple):
    """The record ids of a micro-batch's stacked query and key rows, resolved
    once by ``segments`` for every ``attention`` call over those rows:
    `shape` is (query rows, key rows) and `parts` the (query rows, key rows)
    of each record that has query rows, in record order; rows are a slice
    when contiguous."""

    shape: tuple[int, int]
    parts: list[tuple]


def segments(q_ids, k_ids) -> Segments:
    """``attention``'s `segments`: the record id of each query row and each key
    row when a micro-batch's records are stacked row by row; a record's rows
    need not be contiguous. A record with query rows and no keys is a
    ``ShapeError``. Resolve each (queries, keys) pairing once per forward and
    pass the result to every attention call over those rows."""
    q_ids, k_ids = np.asarray(q_ids), np.asarray(k_ids)
    if q_ids.ndim != 1 or k_ids.ndim != 1:
        raise ShapeError(f"segments: record ids {q_ids.shape} and {k_ids.shape} are not 1-D")
    parts = []
    for r in np.unique(q_ids):
        rows = [np.flatnonzero(ids == r) for ids in (q_ids, k_ids)]
        if not len(rows[1]):
            raise ShapeError(f"segments: record {r} has query rows but no keys")
        parts.append(tuple(slice(int(i[0]), int(i[-1]) + 1) if i[-1] - i[0] + 1 == len(i)
                           else i for i in rows))
    return Segments((len(q_ids), len(k_ids)), parts)


def _must_shift(q: np.ndarray, k: np.ndarray, dk: int, mask: np.ndarray | None) -> bool:
    """Whether ``attention`` shifts its scores by the row max: unless the
    bound on |score| over every entry of q k^T / sqrt(dk) + mask that the
    mask does not hide (dk terms of at most max|q| max|k| / sqrt(dk) each,
    plus the largest magnitude among the mask's entries other than -inf) is
    at most ``EXP_LIMIT``. A NaN or infinite bound shifts."""
    bound = dk * float(1.0 / np.sqrt(dk)) * _absmax(q) * _absmax(k)
    if mask is not None:
        bound += _absmax(mask[mask != -np.inf])
    return not bound <= EXP_LIMIT


def _absmax(x: np.ndarray) -> float:
    return float(max(x.max(initial=0.0), -x.min(initial=0.0)))  # no |x| temporary


def attention(q, k, v, heads: int, mask: np.ndarray | None = None,
              segments: Segments | None = None) -> Tensor:
    """Multi-head scaled-dot attention as one node.

    q (n, heads*dk), k (m, heads*dk) and v (m, heads*dv) are split into heads
    by columns; each head takes softmax(q k^T / sqrt(dk) + mask) v, and the
    heads are merged back into (n, heads*dv). `mask`: optional constant (n, m)
    array added to every head's scores; -inf hides a key, and hiding every key
    of a query row is a ``ShapeError`` naming the row. The (heads, n, m) scores
    are never scaled or divided: q is scaled, and the context is (e v) / z for
    e = exp(scores) and z its row sums. Backward keeps e and z and reads the
    softmax's row term from the output: with gz = g / z, the score gradient
    is (gz v^T - rowsum(gz * out)) * e, scaled through gz.

    Softmax is unchanged when a row's scores all move by one amount, so the
    row max is subtracted before exp only when the scores might leave exp's
    range. Before any score exists the node bounds them (``_must_shift``:
    dk * max|q| * max|k| / sqrt(dk), plus the mask's largest entry other than
    -inf, in magnitude). When that bound is at most ``EXP_LIMIT`` (128), every
    unmasked score lies in [-128, 128], so its exp lies in [2.6e-56, 3.9e55]:
    a finite normal number. A row sum is then positive whenever the mask
    leaves a key of the row visible and finite up to ~1e250 keys; e v and
    the backward's products overflow only where v or the gradient nears
    1e250. So the raw scores are exponentiated. Otherwise, and when the
    bound is not finite, each row is shifted by its max first. Both paths
    agree to rounding, and backward is the same.

    `segments`: optional ``Segments`` from ``segments(q_ids, k_ids)``, the
    record id of each query row and each key row of a micro-batch; it must
    be resolved for (n, m) rows. The node then works record by record: a
    record's queries see only its own keys, under its own entries of `mask`,
    so each record gets what attention over that record alone computes. Keys
    of a record without query rows get zero gradients. (One padded
    ``(records, heads, n_max, m_max)`` block makes fewer numpy calls but ran
    no faster at C08 width: its score arrays page-fault on every allocation.)
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if (q.ndim != 2 or k.ndim != 2 or v.ndim != 2 or q.shape[1] != k.shape[1]
            or k.shape[0] != v.shape[0] or q.shape[1] % heads or v.shape[1] % heads):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} do not "
                         f"split into {heads} heads")
    n, m = q.shape[0], k.shape[0]
    if mask is not None and np.shape(mask) != (n, m):
        raise ShapeError(f"attention: mask {np.shape(mask)} is not ({n}, {m})")
    if segments is None:
        parts = [_WHOLE]
    elif not isinstance(segments, Segments):
        raise TypeError(f"attention: segments must come from tensor.segments, "
                        f"got a {type(segments).__name__}")
    elif segments.shape != (n, m):
        raise ShapeError(f"attention: segment ids for {segments.shape} rows "
                         f"are not for ({n}, {m})")
    else:
        parts = segments.parts
    if mask is None:
        masks = [None] * len(parts)
    else:  # each record's own block, checked before either path runs
        masks = [mask[qi][:, ki] for qi, ki in parts]
        for (qi, _), blk in zip(parts, masks):
            hidden = np.isneginf(blk).all(axis=-1)
            if hidden.any():
                raise ShapeError(f"attention: mask hides every key of query row "
                                 f"{np.arange(n)[qi][hidden.argmax()]}")
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    s = float(1.0 / np.sqrt(dk))
    shift = _must_shift(q.data, k.data, dk, mask)

    def split(x, rows, d):  # rows of (r, heads*d) as (heads, r, d)
        return x[rows].reshape(-1, heads, d).transpose(1, 0, 2)

    blocks, ctx = [], []  # per record: qh (h, n, dk), kt (h, dk, m), vh (h, m, dv), e, z
    for (qi, ki), blk in zip(parts, masks):
        qh, kt, vh = split(q.data, qi, dk), split(k.data, ki, dk).swapaxes(-1, -2), \
            split(v.data, ki, dv)
        e = (qh * s) @ kt
        if blk is not None:
            e += blk
        if shift:
            e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        z = e.sum(axis=-1, keepdims=True)
        c = e @ vh
        c /= z
        blocks.append((qh, kt, vh, e, z))
        ctx.append(c.transpose(1, 0, 2))
    data = _merge(parts, 0, ctx, n)

    def vjp(g):
        gh, oh = (x.reshape(n, heads, dv).transpose(1, 0, 2) for x in (g, data))
        gqs, gks, gvs = [], [], []
        for (qi, _), (qh, kt, vh, e, z) in zip(parts, blocks):
            gz = gh[:, qi] / z
            if v.requires_grad:
                gvs.append((e.swapaxes(-1, -2) @ gz).transpose(1, 0, 2))
            if q.requires_grad or k.requires_grad:
                gz *= s  # the scale of the scores, applied to a small array
                gs = gz @ vh.swapaxes(-1, -2)  # the scaled score gradient, in place
                gs -= (gz * oh[:, qi]).sum(axis=-1, keepdims=True)
                gs *= e
                if q.requires_grad:
                    gqs.append((gs @ kt.swapaxes(-1, -2)).transpose(1, 0, 2))
                if k.requires_grad:
                    gks.append((qh.swapaxes(-1, -2) @ gs).transpose(2, 0, 1))
        return (_merge(parts, 0, gqs, n) if gqs else None,
                _merge(parts, 1, gks, m) if gks else None,
                _merge(parts, 1, gvs, m) if gvs else None)

    return _result(data, (q, k, v), vjp, "attention")


_WHOLE = (slice(None), slice(None))  # the query and key rows of one record, unsegmented


def _merge(parts, side: int, blocks: list[np.ndarray], rows: int) -> np.ndarray:
    """One (rows, heads*d) array from per-record (r, heads, d) blocks, each
    placed at its record's query (side 0) or key rows (side 1); rows of no
    block are 0."""
    width = blocks[0].shape[1] * blocks[0].shape[2]
    if parts[0] is _WHOLE:
        return blocks[0].reshape(rows, width)
    out = np.zeros((rows, width))
    for part, b in zip(parts, blocks):
        out[part[side]] = b.reshape(len(b), width)
    return out


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
