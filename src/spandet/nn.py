"""Layers for the detection transformer: linear maps, layer norm, multi-head
attention, and sinusoidal position encoding.

Linear maps and attention run on the fused ``tensor.linear`` and
``tensor.attention`` primitives, one tape node each; the differentiable
anchor encoding is ``tensor.anchor_encode``.
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

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ValueError(f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for k, p in params.items():
            if p.data.shape != state[k].shape:
                raise ValueError(f"{k}: shape {state[k].shape} != expected {p.data.shape}")
            p.data = state[k].astype(p.data.dtype).copy()

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

    def __call__(self, x: T.Tensor, residual: T.Tensor | None = None) -> T.Tensor:
        """Layer norm of ``x``, or of ``x + residual`` when given."""
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
                 mask: np.ndarray | None = None) -> T.Tensor:
        """`mask`: optional constant (n_q, n_k) array added to every head's
        scores; -inf hides a key. Each query must keep one visible key."""
        return self.wo(T.attention(self.wq(q_in), self.wk(k_in), self.wv(v_in),
                                   self.heads, mask))


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
                 kv: tuple[T.Tensor, T.Tensor]) -> T.Tensor:
        h = self.heads
        q = _concat_per_head(self.wq_content(content_q), self.wq_pos(pos_q), h)
        return self.wo(T.attention(q, kv[0], kv[1], h))


def _concat_per_head(content: T.Tensor, pos: T.Tensor, heads: int) -> T.Tensor:
    """(n, d) and (n, d) -> (n, 2d) whose head i is [content head i | pos head i]."""
    n, d = content.shape
    parts = [T.reshape(t, (n, heads, d // heads)) for t in (content, pos)]
    return T.reshape(T.concat(parts, axis=-1), (n, 2 * d))


def sinusoidal_encode(pos, dim: int, temperature: float = 10000.0) -> np.ndarray:
    """Interleaved sin/cos over a geometric frequency ladder; pos in [0, 1].

    Accepts a scalar or a 1D array; returns (dim,) or (n, dim).
    """
    if dim % 2:
        raise ValueError(f"sinusoidal dim must be even, got {dim}")
    scalar = np.isscalar(pos)
    p = np.atleast_1d(np.asarray(pos, dtype=np.float64))
    freqs = temperature ** (2.0 * np.arange(dim // 2) / dim)
    args = 2.0 * np.pi * p[:, None] / freqs[None, :]
    out = np.empty((len(p), dim))
    out[:, 0::2] = np.sin(args)
    out[:, 1::2] = np.cos(args)
    return out[0] if scalar else out
