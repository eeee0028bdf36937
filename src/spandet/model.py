"""1D interval detection transformer and the CLS classification head.

Embeddings are projected into a smaller hidden space, refined by a
self-attention encoder over token-midpoint position encodings, then decoded
by anchor queries: each decoder layer attends (anchor encodings concatenated
with content in cross-attention), and a shared two-layer head emits
(delta_c, delta_w) applied to the anchor in logit space.

Denoising (DN) queries run through the same layers as one extra block of
rows. In self-attention every DN row sees the learnable queries plus the rows
of its own group; a constant block mask hides the other groups. The
learnable queries run as their own block and never see DN rows, so their
outputs are bitwise independent of the denoising configuration. Each decoder
layer projects the memory's cross-attention keys and values once; both
blocks read them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .geometry import Interval
from .nn import (ConcatPosAttention, Linear, MLP, Module, MultiHeadAttention,
                 LayerNorm, sinusoidal_encode)


@dataclass
class ModelConfig:
    d_model: int
    hidden: int | None = None       # default: d_model // 16
    enc_layers: int = 3
    dec_layers: int = 3
    heads: int = 8
    ffn_mult: int = 4
    num_queries: int = 1
    max_tokens: int = 512
    dn_groups: int = 5
    dn_center_noise: float = 0.4
    dn_width_noise: float = 0.4
    temperature: float = 10000.0

    def __post_init__(self):
        if self.hidden is None:
            self.hidden = max(self.d_model // 16, 16)
        if self.hidden % self.heads:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.hidden % 4:
            raise ValueError(f"hidden {self.hidden} must be divisible by 4 for anchor encodings")
        if self.num_queries < 1:
            raise ValueError("need at least one query")
        if min(self.enc_layers, self.dec_layers) < 1:
            raise ValueError("need at least one encoder and one decoder layer")
        if self.dn_groups < 0 or self.dn_center_noise < 0 or self.dn_width_noise < 0:
            raise ValueError("denoising parameters must be non-negative")


@dataclass
class LayerPrediction:
    cw: T.Tensor        # (N, 2) intervals in (c, w), already through sigmoid
    logits: T.Tensor    # (N,) foreground logits


@dataclass
class ModelOutput:
    layers: list[LayerPrediction]
    dn_layers: list[T.Tensor]           # (D, 2) per decoder layer; empty if no dn
    dn_gt_index: np.ndarray | None      # (D,) originating GT per dn query


@dataclass
class Prediction:
    intervals: list[Interval]   # final decoder layer, one per query
    scores: list[float]


class EncoderLayer(Module):
    def __init__(self, hidden: int, heads: int, ffn_mult: int, rng):
        self.attn = MultiHeadAttention(hidden, heads, rng)
        self.ln1 = LayerNorm(hidden)
        self.ffn = MLP([hidden, hidden * ffn_mult, hidden], rng)
        self.ln2 = LayerNorm(hidden)

    def __call__(self, x: T.Tensor, pe: T.Tensor) -> T.Tensor:
        qk = x + pe
        x = self.ln1(x, self.attn(qk, qk, x))
        return self.ln2(x, self.ffn(x))


class DecoderLayer(Module):
    def __init__(self, hidden: int, heads: int, ffn_mult: int, rng):
        self.self_attn = MultiHeadAttention(hidden, heads, rng)
        self.ln1 = LayerNorm(hidden)
        self.cross_attn = ConcatPosAttention(hidden, heads, rng)
        self.ln2 = LayerNorm(hidden)
        self.ffn = MLP([hidden, hidden * ffn_mult, hidden], rng)
        self.ln3 = LayerNorm(hidden)

    def self_block(self, content: T.Tensor, q: T.Tensor,
                   prefix: tuple[T.Tensor, T.Tensor] | None = None,
                   mask: np.ndarray | None = None) -> T.Tensor:
        """Self-attention sub-layer; `q` is `content` plus its anchor encoding.
        `prefix` prepends extra key/value rows (the learnable queries, seen by
        the DN rows); `mask` is a constant (rows, prefix + rows) additive
        score mask (the DN group blocks)."""
        if prefix is None:
            k, v = q, content
        else:
            k = T.concat([prefix[0], q], axis=0)
            v = T.concat([prefix[1], content], axis=0)
        return self.ln1(content, self.self_attn(q, k, v, mask))

    def cross_ffn(self, content: T.Tensor, pe_anchor: T.Tensor,
                  memory_kv: tuple[T.Tensor, T.Tensor]) -> T.Tensor:
        """Cross-attention into the memory's keys and values
        (``cross_attn.keys_values``), then the FFN sub-layer."""
        content = self.ln2(content, self.cross_attn(content, pe_anchor, memory_kv))
        return self.ln3(content, self.ffn(content))


class DetectionModel(Module):
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        h = cfg.hidden
        self.proj = Linear(cfg.d_model, h, rng)
        self.encoder = [EncoderLayer(h, cfg.heads, cfg.ffn_mult, rng)
                        for _ in range(cfg.enc_layers)]
        self.decoder = [DecoderLayer(h, cfg.heads, cfg.ffn_mult, rng)
                        for _ in range(cfg.dec_layers)]
        init_cw = rng.uniform(0.0, 1.0, size=(cfg.num_queries, 2))
        self.query_anchors = T.Tensor(_logit(init_cw), requires_grad=True)
        self.query_content = T.Tensor(rng.normal(0.0, 0.1, size=(cfg.num_queries, h)),
                                      requires_grad=True)
        self.dn_content = T.Tensor(rng.normal(0.0, 0.1, size=(1, h)), requires_grad=True)
        self.span_head = MLP([h, h, 2], rng)
        self.class_head = Linear(h, 1, rng)

    def forward(self, vectors: np.ndarray, positions: np.ndarray,
                dn=None) -> ModelOutput:
        """Run detection over one token sequence.

        vectors: (n, d_model) embeddings; positions: (n,) normalized token
        midpoints; dn: optional DenoisingBatch (training only).
        """
        cfg = self.cfg
        h = cfg.hidden
        n = vectors.shape[0]
        if n == 0:
            raise ValueError("empty token sequence")
        if vectors.shape[1] != cfg.d_model:
            raise T.ShapeError(f"project: embedding dim {vectors.shape[1]} != "
                               f"configured d_model {cfg.d_model}")
        if n > cfg.max_tokens:
            raise ValueError(f"sequence length {n} exceeds max_tokens {cfg.max_tokens}")

        memory = self.proj(T.Tensor(vectors))
        pe_mem = T.Tensor(sinusoidal_encode(positions, h, cfg.temperature))
        for enc in self.encoder:
            memory = enc(memory, pe_mem)

        content_l = self.query_content
        anchor_l = self.query_anchors

        use_dn = dn is not None and len(dn.anchors) > 0
        if use_dn:
            d_total = len(dn.anchors)
            content_d = T.concat([self.dn_content] * d_total, axis=0)
            anchor_d = T.Tensor(_logit(np.asarray(dn.anchors, dtype=np.float64)))
            dn_mask = dn_attention_mask(cfg.num_queries, d_total, dn.n_groups)

        layers: list[LayerPrediction] = []
        dn_layers: list[T.Tensor] = []
        for dec in self.decoder:
            pe_l = T.anchor_encode(T.sigmoid(anchor_l), h, cfg.temperature)
            q_l = content_l + pe_l
            if use_dn:
                # the learnable queries' q is also the dn rows' prefix keys
                pe_d = T.anchor_encode(T.sigmoid(anchor_d), h, cfg.temperature)
                content_d = dec.self_block(content_d, content_d + pe_d,
                                           (q_l, content_l), dn_mask)
            content_l = dec.self_block(content_l, q_l)
            kv = dec.cross_attn.keys_values(memory, pe_mem)  # shared with the dn rows
            content_l = dec.cross_ffn(content_l, pe_l, kv)
            delta_l = self.span_head(content_l)
            anchor_l = anchor_l + delta_l
            layers.append(LayerPrediction(T.sigmoid(anchor_l),
                                          self.class_head(content_l)[:, 0]))
            if use_dn:
                content_d = dec.cross_ffn(content_d, pe_d, kv)
                anchor_d = anchor_d + self.span_head(content_d)
                dn_layers.append(T.sigmoid(anchor_d))

        return ModelOutput(layers, dn_layers, dn.gt_index if use_dn else None)

    def predict(self, vectors: np.ndarray, positions: np.ndarray) -> Prediction:
        """Final-layer intervals and scores; builds no tape."""
        with T.no_grad():
            final = self.forward(vectors, positions, dn=None).layers[-1]
        return Prediction([Interval(float(c), float(w)) for c, w in final.cw.data],
                          [float(p) for p in T.expit(final.logits.data)])


def dn_attention_mask(n_prefix: int, d_total: int, n_groups: int) -> np.ndarray:
    """Additive (d_total, n_prefix + d_total) mask for DN rows stored group by
    group: 0 on the prefix and the row's own group, -inf on other groups."""
    group = np.arange(d_total) * n_groups // d_total
    blocks = np.where(group[:, None] == group[None, :], 0.0, -np.inf)
    return np.concatenate([np.zeros((d_total, n_prefix)), blocks], axis=1)


def _logit(p: np.ndarray) -> np.ndarray:
    q = np.clip(p, T.LOGIT_EPS, 1.0 - T.LOGIT_EPS)
    return np.log(q) - np.log1p(-q)


class ClassifierHead(Module):
    """Two-layer head over the CLS row (last position) of an embedding matrix."""

    def __init__(self, d_model: int, hidden: int, n_classes: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.d_model = d_model
        self.hidden = hidden
        self.n_classes = n_classes
        self.lin1 = Linear(d_model, hidden, rng)
        self.lin2 = Linear(hidden, n_classes, rng)

    def logits(self, vectors: np.ndarray) -> T.Tensor:
        cls_row = T.Tensor(vectors[-1:])
        return self.lin2(T.relu(self.lin1(cls_row)))[0, :]

    def classify(self, vectors: np.ndarray) -> np.ndarray:
        return T.softmax(self.logits(vectors)).data


# -- checkpoints --------------------------------------------------------------
#
# A checkpoint is an .npz archive: "__meta__" holds a JSON document with the
# container version, the model kind, and its config; every weight is stored
# under "param/<name>" in double precision.

CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: Module, kind: str, config: dict) -> None:
    meta = json.dumps({"checkpoint_version": CHECKPOINT_VERSION,
                       "kind": kind, "config": config}, sort_keys=True)
    arrays = {f"param/{k}": v for k, v in model.state().items()}
    np.savez(path, __meta__=np.array(meta), **arrays)


def _read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["__meta__"]))
        if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version")
        state = {k[len("param/"):]: z[k] for k in z.files if k.startswith("param/")}
    return meta, state


def save_detector(path, model: DetectionModel) -> None:
    save_checkpoint(path, model, "detector", asdict(model.cfg))


def load_detector(path) -> DetectionModel:
    meta, state = _read_checkpoint(path)
    if meta["kind"] != "detector":
        raise ValueError(f"{path}: checkpoint holds a {meta['kind']!r}, not a detector")
    model = DetectionModel(ModelConfig(**meta["config"]))
    model.load_state(state)
    return model


def save_classifier(path, head: ClassifierHead) -> None:
    cfg = {"d_model": head.d_model, "hidden": head.hidden, "n_classes": head.n_classes}
    save_checkpoint(path, head, "classifier", cfg)


def load_classifier(path) -> ClassifierHead:
    meta, state = _read_checkpoint(path)
    if meta["kind"] != "classifier":
        raise ValueError(f"{path}: checkpoint holds a {meta['kind']!r}, not a classifier")
    head = ClassifierHead(**meta["config"])
    head.load_state(state)
    return head
