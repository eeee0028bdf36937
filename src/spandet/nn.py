"""Layers for the detection transformer: linear maps, layer norm, multi-head
attention, and sinusoidal position encoding (numpy and differentiable forms).
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


def module_grad_check(module: Module, build_loss, eps: float = 1e-5) -> float:
    """Max relative error between backward and central differences over every
    parameter of a module. `build_loss` must rebuild the scalar loss from the
    module's current parameter values on each call."""
    params = module.parameters()
    module.zero_grad()
    build_loss().backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}
    worst = 0.0
    for k, p in params.items():
        flat = p.data.reshape(-1)
        gflat = analytic[k].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(build_loss().data)
            flat[i] = orig - eps
            lo = float(build_loss().data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            worst = max(worst, abs(gflat[i] - numeric) / max(1.0, abs(gflat[i])))
    return worst


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = T.Tensor(xavier_uniform(d_in, d_out, rng), requires_grad=True)
        self.bias = T.Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.matmul(x, self.weight) + self.bias


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

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.layer_norm(x, self.gain, self.bias)


def _split_heads(x: T.Tensor, heads: int) -> T.Tensor:
    n, d = x.shape
    return T.transpose(T.reshape(x, (n, heads, d // heads)), (1, 0, 2))


def _merge_heads(x: T.Tensor) -> T.Tensor:
    h, n, dh = x.shape
    return T.reshape(T.transpose(x, (1, 0, 2)), (n, h * dh))


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
        h = self.heads
        q = _split_heads(self.wq(q_in), h)
        k = _split_heads(self.wk(k_in), h)
        v = _split_heads(self.wv(v_in), h)
        dh = q.shape[-1]
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
        if mask is not None:
            scores = scores + T.Tensor(np.broadcast_to(mask, scores.shape))
        ctx = T.matmul(T.softmax(scores, axis=-1), v)
        return self.wo(_merge_heads(ctx))


class ConcatPosAttention(Module):
    """Cross-attention with positional and content parts concatenated per head,
    keeping their similarity contributions separate."""

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

    def __call__(self, content_q: T.Tensor, pos_q: T.Tensor,
                 memory: T.Tensor, pos_k: T.Tensor) -> T.Tensor:
        h = self.heads
        q = T.concat([_split_heads(self.wq_content(content_q), h),
                      _split_heads(self.wq_pos(pos_q), h)], axis=-1)
        k = T.concat([_split_heads(self.wk_content(memory), h),
                      _split_heads(self.wk_pos(pos_k), h)], axis=-1)
        v = _split_heads(self.wv(memory), h)
        dk = q.shape[-1]
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dk))
        ctx = T.matmul(T.softmax(scores, axis=-1), v)
        return self.wo(_merge_heads(ctx))


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


def sinusoidal_encode_t(pos: T.Tensor, dim: int, temperature: float = 10000.0) -> T.Tensor:
    """Differentiable version: pos is a (n,) tensor, result (n, dim)."""
    if dim % 2:
        raise ValueError(f"sinusoidal dim must be even, got {dim}")
    freqs = temperature ** (2.0 * np.arange(dim // 2) / dim)
    inv = T.Tensor((2.0 * np.pi / freqs)[None, :])
    args = T.matmul(T.reshape(pos, (-1, 1)), inv)          # (n, dim/2)
    n, half = args.shape
    parts = T.concat([T.reshape(T.sin(args), (n, half, 1)),
                      T.reshape(T.cos(args), (n, half, 1))], axis=-1)
    return T.reshape(parts, (n, dim))                       # interleaved


def encode_anchor_t(cw: T.Tensor, dim: int, temperature: float = 10000.0) -> T.Tensor:
    """Encode (c, w) anchors: each coordinate into dim/2, concatenated."""
    if dim % 4:
        raise ValueError(f"anchor encoding needs dim divisible by 4, got {dim}")
    pe_c = sinusoidal_encode_t(cw[:, 0], dim // 2, temperature)
    pe_w = sinusoidal_encode_t(cw[:, 1], dim // 2, temperature)
    return T.concat([pe_c, pe_w], axis=-1)
