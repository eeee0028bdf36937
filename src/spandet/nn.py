"""Layers for the detection transformer: linear maps, layer norm and
multi-head attention.

Linear maps and attention run on the fused ``tensor.linear`` and
``tensor.attention`` primitives, one tape node each; so does the
cross-attention's per-head interleave of content and position parts, a
``tensor.custom`` node. Position encodings are
``tensor.sinusoidal_encode`` (tokens) and ``tensor.anchor_encode`` (anchors).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


class Module:
    """Parameter container; parameters() walks attributes in insertion order."""

    def parameters(self) -> dict[str, T.Tensor]:
        out: dict[str, T.Tensor] = {}
        for name, val in self.__dict__.items():
            if isinstance(val, T.Tensor) and val.requires_grad:
                out[name] = val
            elif isinstance(val, Module):
                for k, v in val.parameters().items():
                    out[f"{name}.{k}"] = v
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        for k, v in item.parameters().items():
                            out[f"{name}.{i}.{k}"] = v
        return out

    def zero_grad(self) -> None:
        for p in self.parameters().values():
            p.zero_grad()

    def state(self) -> dict[str, np.ndarray]:
        return {k: p.data.copy() for k, p in self.parameters().items()}


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = T.Tensor(xavier_uniform(d_in, d_out, rng), requires_grad=True)
        self.bias = T.Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.linear(x, self.weight, self.bias)


class MLP(Module):
    """Linear stack with ReLU between layers (none after the last)."""

    def __init__(self, dims: list[int], rng: np.random.Generator):
        self.layers = [Linear(a, b, rng) for a, b in zip(dims[:-1], dims[1:])]

    def __call__(self, x: T.Tensor) -> T.Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = T.relu(x)
        return x


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = T.Tensor(np.ones(dim), requires_grad=True)
        self.bias = T.Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: T.Tensor, residual: T.Tensor) -> T.Tensor:
        """Layer norm of ``x + residual``."""
        return T.layer_norm(x, self.gain, self.bias, residual)


class MultiHeadAttention(Module):
    """Attention where the caller bakes positional terms into q/k inputs."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, q_in: T.Tensor, k_in: T.Tensor, v_in: T.Tensor,
                 mask: np.ndarray | None = None, segments=None) -> T.Tensor:
        """`mask` (n_q, n_k) and `segments` as ``tensor.attention`` takes them."""
        return self.wo(T.attention(self.wq(q_in), self.wk(k_in), self.wv(v_in),
                                   self.heads, mask, segments))


class ConcatPosAttention(Module):
    """Cross-attention with positional and content parts concatenated per head,
    keeping their similarity contributions separate. The memory's keys and
    values come from ``keys_values``, once for every query block that reads
    the same memory."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.wq_content = Linear(dim, dim, rng)
        self.wq_pos = Linear(dim, dim, rng)
        self.wk_content = Linear(dim, dim, rng)
        self.wk_pos = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def keys_values(self, memory: T.Tensor, pos_k: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
        k = _concat_per_head(self.wk_content(memory), self.wk_pos(pos_k), self.heads)
        return k, self.wv(memory)

    def __call__(self, content_q: T.Tensor, pos_q: T.Tensor,
                 kv: tuple[T.Tensor, T.Tensor], segments=None) -> T.Tensor:
        h = self.heads
        q = _concat_per_head(self.wq_content(content_q), self.wq_pos(pos_q), h)
        return self.wo(T.attention(q, kv[0], kv[1], h, None, segments))


def _concat_per_head(content: T.Tensor, pos: T.Tensor, heads: int) -> T.Tensor:
    """(n, d) and (n, d) -> (n, 2d) whose head i is [content head i | pos head i],
    as one node. Its vjp hands each parent its half of every head's gradient."""
    n, d = content.shape
    dh = d // heads
    data = np.concatenate([t.data.reshape(n, heads, dh) for t in (content, pos)],
                          axis=-1).reshape(n, 2 * d)

    def vjp(g):
        g3 = g.reshape(n, heads, 2 * dh)
        return g3[..., :dh].reshape(n, d), g3[..., dh:].reshape(n, d)

    return T.custom(data, (content, pos), vjp, "concat_per_head")

