"""Training: composite detection objective, denoising queries, optimizer.

The objective is a weighted sum of span L1, gIoU, and focal terms over the
learnable queries (matched to targets by Hungarian assignment) plus L1/gIoU
reconstruction terms over the denoising queries, repeated for every decoder
layer's auxiliary outputs. Each layer's objective is one tape node: the
forward computes every term, the match cost and the assignment in numpy, and
the hand-written backward replays the backward of the same objective built
from elementwise tensor ops, so totals and gradients are bitwise that chain's.
Every ``metrics.jsonl`` record keeps the terms summed over the layers under
``"train"`` and lists each layer's terms and mean matched IoU under
``"train_layers"``.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor as T
from .geometry import Interval, span_l1_giou, span_to_cw
from .matching import build_match_cost, hungarian
from .model import (ClassifierHead, DetectionModel, LayerPrediction,
                    ModelConfig, ModelOutput, save_detector)
from .textproc import append_mean_cls


class NumericalError(RuntimeError):
    """Loss or gradients left the realm of finite numbers."""


@dataclass(frozen=True)
class LossWeights:
    span: float = 10.0
    giou: float = 1.0
    focal: float = 4.0
    dn_span: float = 9.0
    dn_giou: float = 3.0

    def __post_init__(self):
        if min(self.span, self.giou, self.focal, self.dn_span, self.dn_giou) < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass
class DenoisingBatch:
    anchors: np.ndarray    # (D, 2) noised (c, w), all valid intervals
    gt_index: np.ndarray   # (D,) originating GT index
    n_groups: int


def make_denoising(gts: list[Interval], cfg: ModelConfig,
                   rng: np.random.Generator) -> DenoisingBatch | None:
    """Noised copies of the targets: center jittered by a fraction of the
    width, width rescaled multiplicatively, then clamped back to validity
    (as ``geometry.clamp_interval``). Group-major rows; the noise is drawn as
    (center, width) per row, in row order."""
    if not gts or cfg.dn_groups == 0:
        return None
    cn, wn = cfg.dn_center_noise, cfg.dn_width_noise
    noise = rng.uniform([-cn, -wn], [cn, wn], size=(cfg.dn_groups, len(gts), 2))
    gc = np.array([gt.c for gt in gts])
    gw = np.array([gt.w for gt in gts])
    w = np.minimum(np.maximum(gw * (1.0 + noise[..., 1]), 1e-4), 1.0)
    c = np.minimum(np.maximum(gc + noise[..., 0] * gw, w / 2), 1.0 - w / 2)
    return DenoisingBatch(np.stack([c, w], axis=-1).reshape(-1, 2),
                          np.tile(np.arange(len(gts)), cfg.dn_groups), cfg.dn_groups)


def _focal(probs: np.ndarray, targets: np.ndarray, alpha: float, gamma: float):
    """Per-element focal loss -alpha_t (1-p_t)^gamma log(p_t) from foreground
    probabilities, and its backward: ``grad(g)`` maps per-element gradients
    to the logits'. The float operations, forward and backward, are those of
    the elementwise tensor chain (sigmoid, products, powc, clamped log)."""
    p, tg = probs, targets
    pt = p * tg + (1.0 - p) * (1.0 - tg)
    at = alpha * tg + (1.0 - alpha) * (1.0 - tg)
    omp = 1.0 - pt
    atpw = at * omp ** gamma
    x = np.maximum(pt, T.LOG_EPS)
    lg = np.log(x)

    def grad(g):
        g_prod = g * -1.0
        g_omp = g_prod * lg * at * gamma * omp ** (gamma - 1.0)
        g_pt = g_prod * atpw * np.where(pt > T.LOG_EPS, 1.0 / x, 0.0) + g_omp * -1.0
        g_p = g_pt * (1.0 - tg) * -1.0 + g_pt * tg
        return g_p * p * (1.0 - p)

    return atpw * lg * -1.0, grad


def focal_loss(logit: float, target: int, alpha: float = 0.25, gamma: float = 2.0) -> float:
    """Binary focal loss on one logit. Reduces to weighted cross-entropy at
    gamma=0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1)")
    if gamma < 0.0:
        raise ValueError(f"gamma {gamma} must be >= 0")
    loss, _ = _focal(T.expit(np.array([float(logit)])), np.array([float(target)]),
                     alpha, float(gamma))
    return float(loss[0])


TERMS = ("span", "giou", "focal", "dn_span", "dn_giou", "total")


def composite_loss(layer: LayerPrediction, dn_cw: T.Tensor | None,
                   dn_gt_index: np.ndarray | None, gts: list[Interval],
                   weights: LossWeights = LossWeights(),
                   alpha: float = 0.25, gamma: float = 2.0,
                   ) -> tuple[T.Tensor, dict[str, float]]:
    """One decoder layer's weighted objective, as one tape node, plus a
    per-term breakdown (``TERMS``, and ``"iou"``: the mean IoU of the matched
    pairs, NaN without targets).

    Matching runs over the learnable queries only; denoising queries are
    paired with their originating targets by construction. Span L1 and gIoU
    are computed once over every (query, target) pair: the match cost reads
    them, and the matched terms gather from them. Total and gradients are
    bitwise those of the same objective built from elementwise tensor ops.
    """
    cw, logits = layer.cw, layer.logits
    n_queries, m = cw.shape[0], len(gts)
    gt_cw = np.array([[g.c, g.w] for g in gts])
    probs = T.expit(logits.data)
    targets = np.zeros(n_queries)
    l_span = l_giou = l_dn_span = l_dn_giou = 0.0
    mean_iou = math.nan
    if gts:
        pair_rows = np.repeat(np.arange(n_queries), m)
        l1, giou, iou, pair_grad = span_l1_giou(cw.data[pair_rows], np.tile(gt_cw, (n_queries, 1)))
        cost = build_match_cost(l1.reshape(n_queries, m), giou.reshape(n_queries, m), probs,
                                (weights.span, weights.giou, weights.focal))
        rows, cols = np.array(hungarian(cost)).T
        matched = rows * m + cols
        targets[rows] = 1.0
        l_span, l_giou = _mean_terms(l1[matched], giou[matched])
        mean_iou = float(iou[matched].mean())
    focal, focal_grad = _focal(probs, targets, alpha, float(gamma))
    l_focal = focal.mean()
    use_dn = dn_cw is not None and len(dn_cw.data) > 0
    if use_dn:
        dn_l1, dn_giou, _, dn_grad = span_l1_giou(dn_cw.data, gt_cw[dn_gt_index])
        l_dn_span, l_dn_giou = _mean_terms(dn_l1, dn_giou)

    total = (l_span * weights.span + l_giou * weights.giou + l_focal * weights.focal
             + l_dn_span * weights.dn_span + l_dn_giou * weights.dn_giou)

    def vjp(g):
        g_cw = g_dn = None
        if gts:  # only the matched pairs receive a gradient
            inv = 1.0 / len(matched)
            g_l1, g_giou = np.zeros(len(l1)), np.zeros(len(l1))
            g_l1[matched] = g * weights.span * inv
            g_giou[matched] = g * weights.giou * inv * -1.0
            g_cw = np.zeros_like(cw.data)
            np.add.at(g_cw, pair_rows, pair_grad(g_l1, g_giou))
        if use_dn:
            inv = 1.0 / len(dn_l1)
            g_dn = dn_grad(np.full(len(dn_l1), g * weights.dn_span * inv),
                           np.full(len(dn_l1), g * weights.dn_giou * inv * -1.0))
        return g_cw, focal_grad(g * weights.focal / n_queries), g_dn

    node = T.custom(total, (cw, logits, dn_cw) if use_dn else (cw, logits), vjp, "objective")
    values = map(float, (l_span, l_giou, l_focal, l_dn_span, l_dn_giou, total))
    return node, dict(zip(TERMS, values), iou=mean_iou)


def _mean_terms(l1: np.ndarray, giou: np.ndarray) -> tuple[float, float]:
    """Mean span L1 and mean (1 - gIoU) over k pairs, summed then scaled."""
    inv = 1.0 / len(l1)
    return l1.sum() * inv, (1.0 - giou).sum() * inv


def detection_loss(out: ModelOutput, gts: list[Interval],
                   weights: LossWeights = LossWeights(),
                   alpha: float = 0.25, gamma: float = 2.0,
                   ) -> tuple[T.Tensor, list[dict[str, float]]]:
    """Sum of the composite objective over the auxiliary and final layers,
    and each layer's breakdown, in decoder order."""
    total = None
    layers = []
    for li, layer in enumerate(out.layers):
        dn_cw = out.dn_layers[li] if out.dn_layers else None
        t, terms = composite_loss(layer, dn_cw, out.dn_gt_index, gts,
                                  weights, alpha, gamma)
        total = t if total is None else total + t
        layers.append(terms)
    return total, layers


# -- optimizer and schedule ---------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay and bias correction."""

    def __init__(self, params: dict[str, T.Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        b1, b2 = self.betas
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * g * g
            p.data -= lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def clip_grad_norm(params: dict[str, T.Tensor], max_norm: float) -> float:
    total = math.sqrt(sum(float((p.grad * p.grad).sum())
                          for p in params.values() if p.grad is not None))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return total


def cosine_lr(step: int, total_steps: int, base_lr: float,
              warmup_steps: int = 0) -> float:
    """Linear warmup to base_lr, then cosine decay to zero at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    span = total_steps - warmup_steps
    progress = (step - warmup_steps) / span if span > 0 else 1.0
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# -- training loop ------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 75
    batch_size: int = 32
    lr: float = 1e-4
    weight_decay: float = 1e-4
    warmup_frac: float = 0.05
    grad_clip: float = 0.1
    seed: int = 0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0


@dataclass
class TrainResult:
    model: DetectionModel
    log: list[dict]
    best_epoch: int
    best_val: float


Provider = Callable[[object], tuple[np.ndarray, np.ndarray]]
"""Maps an annotated sample to (embedding matrix, normalized token midpoints)."""


def check_max_tokens(record_id: str, n: int, max_tokens: int) -> None:
    if n > max_tokens:
        raise ValueError(f"record {record_id}: {n} tokens exceed max_tokens {max_tokens}")


def _prepare(samples, provider, max_tokens: int) -> dict:
    cache = {}
    for s in samples:
        vec, pos = provider(s)
        check_max_tokens(s.id, len(vec), max_tokens)
        gts = [span_to_cw(sp, len(s.text)) for sp in s.intervals]
        cache[s.id] = (vec, pos, gts)
    return cache


def _layer_means(terms: list[dict[str, float]]) -> dict:
    """One decoder layer's terms averaged over the epoch's samples; "iou"
    over the samples that had targets (None if none had)."""
    ious = [t["iou"] for t in terms if not math.isnan(t["iou"])]
    means = {k: sum(t[k] for t in terms) / len(terms) for k in TERMS}
    means["iou"] = sum(ious) / len(ious) if ious else None
    return means


def train(split, provider: Provider, model_cfg: ModelConfig,
          train_cfg: TrainConfig = TrainConfig(),
          weights: LossWeights = LossWeights(),
          run_dir=None) -> TrainResult:
    """Train a detector; deterministic for a fixed seed (single-threaded).

    Logs one record per epoch; when `run_dir` is given, writes a config
    snapshot, a metrics log, and best/last checkpoints there.
    """
    if not split.train:
        raise ValueError("training split is empty")
    model = DetectionModel(model_cfg, seed=train_cfg.seed)
    params = model.parameters()
    opt = AdamW(params, lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)
    rng = np.random.default_rng(train_cfg.seed)

    cache = _prepare(split.train, provider, model_cfg.max_tokens)
    val_cache = _prepare(split.val, provider, model_cfg.max_tokens) if split.val else {}

    n = len(split.train)
    batches_per_epoch = math.ceil(n / train_cfg.batch_size)
    total_steps = train_cfg.epochs * batches_per_epoch
    warmup = round(train_cfg.warmup_frac * total_steps)

    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        snapshot = {"model": asdict(model_cfg), "train": asdict(train_cfg),
                    "weights": asdict(weights)}
        (run_dir / "config.json").write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        log_path = run_dir / "metrics.jsonl"
        log_path.write_text("")

    log: list[dict] = []
    best_val = math.inf
    best_epoch = -1
    best_state = model.state()
    step = 0
    for epoch in range(1, train_cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_terms: list[list[dict[str, float]]] = []   # per sample, per layer
        norms: list[float] = []
        lr = train_cfg.lr
        for b in range(batches_per_epoch):
            idxs = order[b * train_cfg.batch_size:(b + 1) * train_cfg.batch_size]
            model.zero_grad()
            for idx in idxs:
                s = split.train[idx]
                vec, pos, gts = cache[s.id]
                dnb = make_denoising(gts, model_cfg, rng)
                out = model.forward(vec, pos, dnb)
                loss, layer_terms = detection_loss(out, gts, weights,
                                                   train_cfg.focal_alpha,
                                                   train_cfg.focal_gamma)
                if not math.isfinite(float(loss.data)):
                    raise NumericalError(f"non-finite loss at epoch {epoch}")
                loss.backward()
                epoch_terms.append(layer_terms)
            inv = 1.0 / len(idxs)
            for p in params.values():
                if p.grad is not None:
                    p.grad = p.grad * inv
            norm = clip_grad_norm(params, train_cfg.grad_clip)
            norms.append(norm)
            step += 1
            if not math.isfinite(norm):
                raise NumericalError(f"non-finite gradient norm at epoch {epoch}, step {step}")
            lr = cosine_lr(step, total_steps, train_cfg.lr, warmup)
            opt.step(lr)

        record = {"epoch": epoch, "lr": lr,
                  # terms summed over the decoder layers, then averaged
                  "train": {k: sum(sum(t[k] for t in s) for s in epoch_terms) / n
                            for k in TERMS},
                  "train_layers": [_layer_means([s[li] for s in epoch_terms])
                                   for li in range(model_cfg.dec_layers)],
                  # pre-clip norms of the epoch's steps; clip_frac is the
                  # share of steps that clip_grad_norm rescaled
                  "grad_norm": {"min": min(norms), "median": statistics.median(norms),
                                "max": max(norms)},
                  "clip_frac": (sum(x > train_cfg.grad_clip for x in norms) / len(norms)
                                if train_cfg.grad_clip > 0 else 0.0)}
        if val_cache:
            v_sum = 0.0
            with T.no_grad():
                for s in split.val:
                    vec, pos, gts = val_cache[s.id]
                    out = model.forward(vec, pos, None)
                    loss, _ = detection_loss(out, gts, weights,
                                             train_cfg.focal_alpha,
                                             train_cfg.focal_gamma)
                    v_sum += float(loss.data)
            record["val_loss"] = v_sum / len(split.val)
            if record["val_loss"] < best_val:
                best_val = record["val_loss"]
                best_epoch = epoch
                best_state = model.state()
        log.append(record)
        if run_dir is not None:
            with open(log_path, "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            save_detector(run_dir / "last.npz", model)

    if best_epoch < 0:  # no validation split: keep the final weights
        best_epoch = train_cfg.epochs
        best_val = math.nan
        best_state = model.state()
    model.load_state(best_state)
    if run_dir is not None:
        save_detector(run_dir / "best.npz", model)
    return TrainResult(model, log, best_epoch, best_val)


def train_classifier(samples, labels: list[int], provider: Provider,
                     hidden: int = 32, n_classes: int = 2, epochs: int = 30,
                     batch_size: int = 16, lr: float = 1e-3,
                     weight_decay: float = 1e-4, seed: int = 0,
                     append_cls: bool = True) -> ClassifierHead:
    """Fit the two-layer CLS head with cross-entropy; the CLS row is the last
    embedding row (appended by mean pooling for providers without one)."""
    if not samples:
        raise ValueError("no training samples")
    feats = []
    for s in samples:
        vec, _ = provider(s)
        feats.append(append_mean_cls(vec) if append_cls else vec)
    d_model = feats[0].shape[1]
    head = ClassifierHead(d_model, hidden, n_classes, seed=seed)
    opt = AdamW(head.parameters(), lr=lr, weight_decay=weight_decay)
    rng = np.random.default_rng(seed)
    y = np.asarray(labels, dtype=int)
    for _ in range(epochs):
        order = rng.permutation(len(samples))
        for b in range(0, len(order), batch_size):
            idxs = order[b:b + batch_size]
            head.zero_grad()
            for i in idxs:
                probs = T.softmax(head.logits(feats[i]))
                loss = T.scale(T.log(probs[int(y[i])]), -1.0)
                loss.backward()
            for p in head.parameters().values():
                if p.grad is not None:
                    p.grad = p.grad / len(idxs)
            opt.step()
    return head
