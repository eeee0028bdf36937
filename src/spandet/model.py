"""1D interval detection transformer and the whole-text classification head.

Embeddings are projected into a smaller hidden space, refined by a
self-attention encoder over token-midpoint position encodings, then decoded
by anchor queries: each decoder layer attends (anchor encodings concatenated
with content in cross-attention), and a shared two-layer head emits
(delta_c, delta_w) applied to the anchor in logit space.

Denoising (DN) queries run through the same layers as one extra block of
rows. In self-attention every DN row sees the learnable queries plus the rows
of its own group; a constant mask over group ids (``dn_attention_mask``)
hides the other groups. The learnable queries run as their own block and
never see DN rows, so their outputs are bitwise independent of the denoising
configuration. Each decoder layer projects the memory's cross-attention keys
and values once; both blocks read them.

Every forward takes a micro-batch, a list of records (``predict`` and
``ClassifierHead.classify`` wrap their one record in a list): the records'
tokens, learnable queries and DN rows are stacked row by row, block by block,
and every attention gets the rows' record ids, so no record sees another's
rows. A micro-batch of one needs no record ids.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from . import tensor as T
from .files import write_npz
from .geometry import Interval
from .nn import ConcatPosAttention, LayerNorm, Linear, MLP, Module, MultiHeadAttention


@dataclass
class ModelConfig:
    d_model: int
    hidden: int | None = None       # default: max(d_model // 16, 16)
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
        for name in ("d_model", "heads", "hidden", "ffn_mult", "max_tokens"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 < self.temperature < float("inf"):
            raise ValueError(f"temperature must be a positive finite number, "
                             f"got {self.temperature}")
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
    logits: T.Tensor    # (N, 1) foreground logits


@dataclass
class ModelOutput:
    layers: list[LayerPrediction]
    dn_layers: list[T.Tensor]           # (D, 2) per decoder layer; empty if no dn
    dn_gt_index: np.ndarray | None      # (D,) originating GT per dn query, in its record
    dn_rows: list[int]                  # each record's DN row count


@dataclass
class Prediction:
    intervals: list[Interval]   # final decoder layer, one per query
    scores: list[float]


def check_features(vectors: np.ndarray, cfg: ModelConfig | None = None) -> None:
    """The one rule for features a head can read: some rows and, given the
    detector's `cfg`, ``cfg.d_model`` columns and at most ``cfg.max_tokens`` rows."""
    n, d = vectors.shape
    if n == 0:
        raise ValueError("empty token sequence")
    if cfg is not None and d != cfg.d_model:
        raise T.ShapeError(f"embedding dim {d} != configured d_model {cfg.d_model}")
    if cfg is not None and n > cfg.max_tokens:
        raise ValueError(f"{n} tokens exceed max_tokens {cfg.max_tokens}")


def check_records(vectors, where: str, cfg: ModelConfig | None = None) -> None:
    """A micro-batch's input: a non-empty list of records' features, each
    passing ``check_features``; else a ``ShapeError`` naming what was passed."""
    if not isinstance(vectors, (list, tuple)) or not vectors:
        raise T.ShapeError(f"{where} takes a non-empty list of records' (n, d) features, "
                           f"got a {type(vectors).__name__} of shape {np.shape(vectors)}")
    for v in vectors:
        check_features(v, cfg)


class EncoderLayer(Module):
    def __init__(self, hidden: int, heads: int, ffn_mult: int, rng):
        self.attn = MultiHeadAttention(hidden, heads, rng)
        self.ln1 = LayerNorm(hidden)
        self.ffn = MLP([hidden, hidden * ffn_mult, hidden], rng)
        self.ln2 = LayerNorm(hidden)

    def __call__(self, x: T.Tensor, pe: T.Tensor, segments=None) -> T.Tensor:
        qk = x + pe
        x = self.ln1(x, self.attn(qk, qk, x, None, segments))
        return self.ln2(x, self.ffn(x))


class DecoderLayer(Module):
    def __init__(self, hidden: int, heads: int, ffn_mult: int, rng):
        self.self_attn = MultiHeadAttention(hidden, heads, rng)
        self.ln1 = LayerNorm(hidden)
        self.cross_attn = ConcatPosAttention(hidden, heads, rng)
        self.ln2 = LayerNorm(hidden)
        self.ffn = MLP([hidden, hidden * ffn_mult, hidden], rng)
        self.ln3 = LayerNorm(hidden)

    def self_block(self, content: T.Tensor, q: T.Tensor, k: T.Tensor, v: T.Tensor,
                   mask: np.ndarray | None = None, segments=None) -> T.Tensor:
        """Self-attention sub-layer of `content`: queries `q` (content plus its
        anchor encoding) over keys `k` and values `v`, with an optional constant
        (rows, keys) additive score `mask` (the DN group blocks) and, in a
        micro-batch, the rows' record ids (``tensor.attention``'s `segments`)."""
        return self.ln1(content, self.self_attn(q, k, v, mask, segments))

    def cross_ffn(self, content: T.Tensor, pe_anchor: T.Tensor,
                  memory_kv: tuple[T.Tensor, T.Tensor], segments=None) -> T.Tensor:
        """Cross-attention into the memory's keys and values
        (``cross_attn.keys_values``), then the FFN sub-layer."""
        content = self.ln2(content, self.cross_attn(content, pe_anchor, memory_kv, segments))
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

    def forward(self, vectors, positions, dn=None) -> ModelOutput:
        """Run detection over a micro-batch: one (n, d_model) embedding array
        per record in `vectors`, its (n,) normalized token midpoints in
        `positions`, and in `dn` None or one optional DenoisingBatch per record
        (training only). The records are stacked row by row, each block in
        record order; the row-wise nodes run once over a stack, and attention
        sees a record's own rows only (``tensor.attention``'s segments), so one
        tape serves the micro-batch. The outputs keep that order:
        ``num_queries`` rows per record, and ``dn_rows`` per record DN rows."""
        cfg = self.cfg
        h, nq = cfg.hidden, cfg.num_queries
        check_records(vectors, "forward", cfg)
        b = len(vectors)
        dns = [d if d is not None and len(d.anchors) else None for d in dn or [None] * b]
        if len(dns) != b:
            raise T.ShapeError(f"forward: {len(dns)} denoising entries for {b} records")
        dn_rows = [0 if d is None else len(d.anchors) for d in dns]

        def stack(arrays):
            return arrays[0] if b == 1 else np.concatenate(arrays)

        tok, lrn, dnr = (np.repeat(np.arange(b), c)  # the record of each token, query, dn row
                         for c in ([len(v) for v in vectors], nq, dn_rows))

        def segments(q_ids, *k_blocks):  # resolved once, for every layer; one record needs none
            return None if b == 1 else T.segments(q_ids, np.concatenate(k_blocks))

        memory = self.proj(T.Tensor(stack(vectors)))
        pe_mem = T.Tensor(T.sinusoidal_encode(stack(positions), h, cfg.temperature))
        seg_mem = segments(tok, tok)
        for enc in self.encoder:
            memory = enc(memory, pe_mem, seg_mem)

        content_l = T.concat([self.query_content] * b) if b > 1 else self.query_content
        anchor_l = T.concat([self.query_anchors] * b) if b > 1 else self.query_anchors
        box_l = T.sigmoid(anchor_l)
        seg_self_l, seg_cross_l = segments(lrn, lrn), segments(lrn, tok)

        d_total = sum(dn_rows)
        use_dn = d_total > 0
        if use_dn:
            live = [d for d in dns if d is not None]
            content_d = T.concat([self.dn_content] * d_total, axis=0)
            anchor_d = T.Tensor(_logit(stack([np.asarray(d.anchors, dtype=np.float64)
                                              for d in live])))
            box_d = T.sigmoid(anchor_d)  # a constant
            dn_mask = dn_attention_mask(b * nq, live)
            seg_self_d = segments(dnr, lrn, dnr)  # keys: the learnable rows, then the dn rows
            seg_cross_d = segments(dnr, tok)

        layers: list[LayerPrediction] = []
        dn_layers: list[T.Tensor] = []
        for dec in self.decoder:
            pe_l = T.anchor_encode(box_l, h, cfg.temperature)
            q_l = content_l + pe_l
            if use_dn:
                # the learnable rows lead the dn rows' keys and values
                pe_d = T.anchor_encode(box_d, h, cfg.temperature)
                q_d = content_d + pe_d
                content_d = dec.self_block(content_d, q_d, T.concat([q_l, q_d], axis=0),
                                           T.concat([content_l, content_d], axis=0), dn_mask,
                                           seg_self_d)
            content_l = dec.self_block(content_l, q_l, q_l, content_l, None, seg_self_l)
            kv = dec.cross_attn.keys_values(memory, pe_mem)  # shared with the dn rows
            content_l = dec.cross_ffn(content_l, pe_l, kv, seg_cross_l)
            anchor_l = anchor_l + self.span_head(content_l)
            box_l = T.sigmoid(anchor_l)  # this layer's output, the next layer's anchor
            layers.append(LayerPrediction(box_l, self.class_head(content_l)))
            if use_dn:
                content_d = dec.cross_ffn(content_d, pe_d, kv, seg_cross_d)
                anchor_d = anchor_d + self.span_head(content_d)
                box_d = T.sigmoid(anchor_d)
                dn_layers.append(box_d)

        gt_index = stack([d.gt_index for d in live]) if use_dn else None
        return ModelOutput(layers, dn_layers, gt_index, dn_rows)

    def predict(self, vectors: np.ndarray, positions: np.ndarray) -> Prediction:
        """Final-layer intervals and scores of one record; builds no tape. A
        width whose sigmoid underflows to 0 is raised to the least positive
        float, the w -> 0 limit (``cw_to_span`` widens it to one character)."""
        with T.no_grad():
            final = self.forward([vectors], [positions], dn=None).layers[-1]
        return Prediction([Interval(float(c), max(float(w), math.ulp(0.0)))
                           for c, w in final.cw.data],
                          [float(p) for p in T.expit(final.logits.data[:, 0])])


def dn_attention_mask(n_prefix: int, dns: list) -> np.ndarray:
    """Additive (D, n_prefix + D) self-attention mask of the D DN rows of `dns`
    (one DenoisingBatch per record, rows group by group) over the keys
    [n_prefix learnable rows; the DN rows]. The groups are numbered across the
    micro-batch, record after record: 0 on the learnable keys and on DN keys
    of the row's own group, -inf on every other DN key."""
    first = np.cumsum([0, *(d.n_groups for d in dns)])
    group = np.concatenate([f + np.arange(len(d.anchors)) * d.n_groups // len(d.anchors)
                            for f, d in zip(first, dns)])
    blocks = np.where(group[:, None] == group[None, :], 0.0, -np.inf)
    return np.concatenate([np.zeros((len(group), n_prefix)), blocks], axis=1)


def _logit(p: np.ndarray) -> np.ndarray:
    q = np.clip(p, T.LOGIT_EPS, 1.0 - T.LOGIT_EPS)
    return np.log(q) - np.log1p(-q)


class ClassifierHead(Module):
    """Two-layer head over the mean of a record's token rows."""

    def __init__(self, d_model: int, hidden: int, n_classes: int, seed: int = 0):
        for name, value in (("d_model", d_model), ("hidden", hidden), ("n_classes", n_classes)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        rng = np.random.default_rng(seed)
        self.lin1 = Linear(d_model, hidden, rng)
        self.lin2 = Linear(hidden, n_classes, rng)

    def logits(self, vectors: list[np.ndarray]) -> T.Tensor:
        """(B, n_classes) logits, one row per record of a micro-batch's list of
        ``(n, d_model)`` features (``check_records``): each of the mean row,
        pooled in float64 whatever the features' dtype."""
        check_records(vectors, "logits")
        return self.lin2(T.relu(self.lin1(T.Tensor(np.concatenate(
            [v.mean(axis=0, keepdims=True, dtype=np.float64) for v in vectors])))))

    def classify(self, vectors: np.ndarray) -> np.ndarray:
        """(n_classes,) class probabilities of one record."""
        with T.no_grad():
            return softmax(self.logits([vectors]).data)[0]


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the maximum so exp cannot overflow."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# -- checkpoints --------------------------------------------------------------
#
# A checkpoint is an .npz archive: "__meta__" holds a JSON document with the
# container version, the model kind ("detector") and its config; "params" holds
# every weight in one float64 vector, in the ``parameters()`` order the config fixes.

CHECKPOINT_VERSION = 2


def save_detector(path, model: DetectionModel) -> None:
    meta = json.dumps({"checkpoint_version": CHECKPOINT_VERSION,
                       "kind": "detector", "config": asdict(model.cfg)}, sort_keys=True)
    params = np.concatenate([p.data.ravel() for p in model.parameters().values()])
    write_npz(path, __meta__=np.array(meta), params=params)


def load_detector(path) -> DetectionModel:
    """The detector a checkpoint's config builds, with the checkpoint's weights
    loaded. The config's keys must be exactly ``ModelConfig``'s fields, each
    value a number (not a bool), and an int where the field is not a float.
    Any other fault, including another version, a ``ValueError`` from
    ``ModelConfig``, ``params`` that are not the model's float64 weights and
    a weight that is not finite, raises ``ValueError`` naming `path`; a
    missing file raises ``FileNotFoundError``."""
    try:
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["__meta__"]))
            vector = z.get("params")
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path}: not a readable checkpoint archive with a JSON __meta__") from e
    version = meta.get("checkpoint_version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version!r} "
                         f"(this reader takes version {CHECKPOINT_VERSION})")
    if meta.get("kind") != "detector":
        raise ValueError(f"{path}: checkpoint holds a {meta.get('kind')!r}, not a detector")
    config = meta.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"{path}: detector config {config!r} is not a JSON object")
    types = get_type_hints(ModelConfig)
    unknown, missing = sorted(set(config) - set(types)), sorted(set(types) - set(config))
    if unknown or missing:
        raise ValueError(f"{path}: detector config has unknown fields {unknown} "
                         f"and missing fields {missing}")
    for name, hint in types.items():
        if type(config[name]) not in ((int, float) if hint is float else (int,)):
            raise ValueError(f"{path}: detector config field {name} is {config[name]!r}, "
                             f"not {'a number' if hint is float else 'an int'}")
    try:
        model = DetectionModel(ModelConfig(**config))
        params = model.parameters()
        ends = np.cumsum([p.size for p in params.values()])
        if vector is None or vector.dtype != np.float64 or vector.shape != (ends[-1],):
            got = "none" if vector is None else f"{vector.dtype} of shape {vector.shape}"
            raise ValueError(f"params are {got}, not its config's {ends[-1]} float64 weights")
        for (name, p), end in zip(params.items(), ends):
            p.data[...] = vector[end - p.size:end].reshape(p.shape)
            if not np.isfinite(p.data).all():
                raise ValueError(f"weight {name} is not finite")
    except ValueError as e:
        raise ValueError(f"{path}: detector {e}") from e
    return model
