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
from .model import (ClassifierHead, DetectionModel, LayerPrediction, ModelConfig,
                    ModelOutput, check_features, save_detector, softmax)
from .textproc import append_mean_cls


FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0


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


def focal_loss(logit: float, target: int, alpha: float = FOCAL_ALPHA,
               gamma: float = FOCAL_GAMMA) -> float:
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
                   ) -> tuple[T.Tensor, dict[str, float]]:
    """One decoder layer's weighted objective, as one tape node, plus a
    per-term breakdown (``TERMS``, and ``"iou"``: the mean IoU of the matched
    pairs, NaN without targets).

    Matching runs over the learnable queries only; denoising queries are
    paired with their originating targets by construction. Span L1 and gIoU
    are computed once over every (query, target) pair: the match cost reads
    them, and the matched terms gather from them. Total and gradients are
    bitwise those of the same objective built from elementwise tensor ops.
    Non-finite predictions raise ``NumericalError`` before matching.
    """
    cw, logits = layer.cw, layer.logits
    if not (np.isfinite(cw.data).all() and np.isfinite(logits.data).all()):
        raise NumericalError("non-finite predictions")
    n_queries, m = cw.shape[0], len(gts)
    gt_cw = np.array([[g.c, g.w] for g in gts])
    probs = T.expit(logits.data.reshape(-1))
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
    focal, focal_grad = _focal(probs, targets, FOCAL_ALPHA, FOCAL_GAMMA)
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
        return g_cw, focal_grad(g * weights.focal / n_queries).reshape(logits.shape), g_dn

    node = T.custom(total, (cw, logits, dn_cw) if use_dn else (cw, logits), vjp, "objective")
    values = map(float, (l_span, l_giou, l_focal, l_dn_span, l_dn_giou, total))
    return node, dict(zip(TERMS, values), iou=mean_iou)


def _mean_terms(l1: np.ndarray, giou: np.ndarray) -> tuple[float, float]:
    """Mean span L1 and mean (1 - gIoU) over k pairs, summed then scaled."""
    inv = 1.0 / len(l1)
    return l1.sum() * inv, (1.0 - giou).sum() * inv


def detection_loss(out: ModelOutput, gts: list[Interval],
                   weights: LossWeights = LossWeights(),
                   ) -> tuple[T.Tensor, list[dict[str, float]]]:
    """Sum of the composite objective over the auxiliary and final layers,
    and each layer's breakdown, in decoder order."""
    total = None
    layers = []
    for li, layer in enumerate(out.layers):
        dn_cw = out.dn_layers[li] if out.dn_layers else None
        t, terms = composite_loss(layer, dn_cw, out.dn_gt_index, gts, weights)
        total = t if total is None else total + t
        layers.append(terms)
    return total, layers


# -- optimizer and schedule ---------------------------------------------------


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 1e-4   # AdamW's decoupled decay, for both heads


class AdamW:
    """Adam with bias correction and decoupled weight decay, at ``ADAM_BETAS``,
    ``ADAM_EPS`` and ``WEIGHT_DECAY``; each step takes its learning rate."""

    def __init__(self, params: dict[str, T.Tensor]):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        b1, b2 = ADAM_BETAS
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            p.data *= 1.0 - lr * WEIGHT_DECAY
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * g * g
            p.data -= lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + ADAM_EPS)

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

WARMUP_FRAC = 0.05    # share of the detector's steps spent in linear warmup


@dataclass
class TrainConfig:
    epochs: int = 75
    batch_size: int = 32
    lr: float = 1e-4
    grad_clip: float = 0.1
    seed: int = 0


@dataclass
class TrainResult:
    model: DetectionModel
    log: list[dict]
    best_epoch: int
    best_val: float


Provider = Callable[[object], tuple[np.ndarray, np.ndarray]]
"""Maps an annotated sample to (embedding matrix, normalized token midpoints)."""


def record_features(provider: Provider, sample, cfg: ModelConfig | None = None):
    """The provider's features for one record, checked. Raises ``ValueError``
    naming the record on a provider ``ValueError``/``OSError``, on features
    that break ``model.check_features`` (given the detector's `cfg`, its
    width and token limit too), or on a non-finite value."""
    try:
        vec, pos = provider(sample)
        check_features(vec, cfg)
    except (ValueError, OSError) as e:
        raise ValueError(f"record {sample.id}: {e}") from e
    if not (np.isfinite(vec).all() and np.isfinite(pos).all()):
        raise ValueError(f"record {sample.id}: non-finite feature values")
    return vec, pos


def _prepare(samples, provider, cfg: ModelConfig) -> list:
    """(vectors, positions, target intervals) per sample, in order; matching
    needs a query per target, so more intervals than queries is an error."""
    for s in samples:
        if len(s.intervals) > cfg.num_queries:
            raise ValueError(f"record {s.id}: {len(s.intervals)} intervals exceed "
                             f"num_queries {cfg.num_queries}")
    return [(*record_features(provider, s, cfg),
             [span_to_cw(sp, len(s.text)) for sp in s.intervals]) for s in samples]


def _fit(params: dict[str, T.Tensor], opt: AdamW, rng: np.random.Generator,
         ids: list[str], epochs: int, batch_size: int,
         sample_loss: Callable[[int], T.Tensor], lr_at: Callable[[int], float],
         max_norm: float):
    """The mini-batch loop of both heads; yields ``(epoch, lr, pre-clip
    norms)`` per epoch. A step averages the batch's gradients, clips them to
    `max_norm` (0 never rescales) and steps at ``lr_at(step)``. A non-finite
    loss or gradient norm, or a ``NumericalError`` from `sample_loss`, raises
    ``NumericalError`` naming where, before the weights move."""
    step = 0
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(ids))
        norms: list[float] = []
        for b in range(0, len(ids), batch_size):
            idxs = order[b:b + batch_size]
            opt.zero_grad()
            for i in idxs:
                try:
                    loss = sample_loss(i)
                except NumericalError as e:
                    raise NumericalError(f"{e} on sample {ids[i]} at epoch {epoch}") from e
                if not math.isfinite(float(loss.data)):
                    raise NumericalError(f"non-finite loss on sample {ids[i]} at epoch {epoch}")
                loss.backward()
            inv = 1.0 / len(idxs)
            for p in params.values():
                if p.grad is not None:
                    p.grad = p.grad * inv
            norm = clip_grad_norm(params, max_norm)
            norms.append(norm)
            step += 1
            if not math.isfinite(norm):
                raise NumericalError(f"non-finite gradient norm at epoch {epoch}, step {step}")
            lr = lr_at(step)
            opt.step(lr)
        yield epoch, lr, norms


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
    opt = AdamW(params)
    rng = np.random.default_rng(train_cfg.seed)

    cache = _prepare(split.train, provider, model_cfg)
    val_cache = _prepare(split.val, provider, model_cfg)

    n = len(split.train)
    total_steps = train_cfg.epochs * math.ceil(n / train_cfg.batch_size)
    warmup = round(WARMUP_FRAC * total_steps)

    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        snapshot = {"model": asdict(model_cfg), "train": asdict(train_cfg),
                    "weights": asdict(weights)}
        (run_dir / "config.json").write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        log_path = run_dir / "metrics.jsonl"
        log_path.write_text("")

    epoch_terms: list[list[dict[str, float]]] = []   # per sample, per layer

    def sample_loss(idx):
        vec, pos, gts = cache[idx]
        dnb = make_denoising(gts, model_cfg, rng)
        out = model.forward(vec, pos, dnb)
        loss, layer_terms = detection_loss(out, gts, weights)
        epoch_terms.append(layer_terms)
        return loss

    log: list[dict] = []
    best_val = math.inf
    best_epoch = -1
    best_state = None
    for epoch, lr, norms in _fit(params, opt, rng, [s.id for s in split.train],
                                 train_cfg.epochs, train_cfg.batch_size, sample_loss,
                                 lambda step: cosine_lr(step, total_steps, train_cfg.lr, warmup),
                                 train_cfg.grad_clip):
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
        epoch_terms.clear()
        if val_cache:
            v_sum = 0.0
            with T.no_grad():
                for s, (vec, pos, gts) in zip(split.val, val_cache):
                    out = model.forward(vec, pos, None)
                    try:
                        loss, _ = detection_loss(out, gts, weights)
                    except NumericalError as e:
                        raise NumericalError(f"{e} on validation record {s.id} "
                                             f"at epoch {epoch}") from e
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
        best_epoch, best_val = train_cfg.epochs, math.nan
    else:
        model.load_state(best_state)
    if run_dir is not None:
        save_detector(run_dir / "best.npz", model)
    return TrainResult(model, log, best_epoch, best_val)


def cross_entropy(logits: T.Tensor, label: int) -> T.Tensor:
    """``-log softmax(logits)[label]`` of one row of logits, ``(C,)`` or
    ``(1, C)``, as one 0-d node; the log is clamped at ``LOG_EPS`` and passes
    no gradient below it. Forward and backward are the expressions of the
    softmax, index, clamped log and negation chain, in its order, so value
    and gradient are bitwise that chain's."""
    probs = softmax(logits.data)
    p = probs.reshape(-1)[label]
    x = np.maximum(p, T.LOG_EPS)
    dydx = np.where(p > T.LOG_EPS, 1.0 / x, 0.0)

    def vjp(g):
        g_probs = np.zeros_like(probs)
        g_probs.reshape(-1)[label] += g * -1.0 * dydx
        dot = (g_probs * probs).sum(axis=-1, keepdims=True)
        return ((g_probs - dot) * probs,)

    return T.custom(np.log(x) * -1.0, (logits,), vjp, "cross_entropy")


def train_classifier(samples, labels: list[int], provider: Provider,
                     hidden: int = 32, n_classes: int = 2, epochs: int = 30,
                     batch_size: int = 16, lr: float = 1e-3, seed: int = 0) -> ClassifierHead:
    """Fit the two-layer CLS head with cross-entropy through ``_fit``, at a
    constant `lr` and without clipping. The CLS row it reads is always the
    mean of a record's rows, appended as its last row (``append_mean_cls``).
    Every sample needs one integer label in ``[0, n_classes)``."""
    if not samples:
        raise ValueError("no training samples")
    if len(labels) < len(samples):
        raise ValueError(f"sample {samples[len(labels)].id}: no label ({len(labels)} "
                         f"labels for {len(samples)} samples)")
    if len(labels) > len(samples):
        raise ValueError(f"{len(labels)} labels for {len(samples)} samples: "
                         f"label {labels[len(samples)]} has no sample")
    for s, label in zip(samples, labels):
        if not (isinstance(label, (int, np.integer)) and 0 <= label < n_classes):
            raise ValueError(f"sample {s.id}: label {label} is not a class in [0, {n_classes})")
    feats = [record_features(provider, s)[0] for s in samples]
    width = feats[0].shape[1]
    for s, v in zip(samples, feats):
        if v.shape[1] != width:
            raise ValueError(f"record {s.id}: embedding dim {v.shape[1]} != {width}, "
                             f"the width of the first record {samples[0].id}")
    feats = [append_mean_cls(v) for v in feats]
    head = ClassifierHead(feats[0].shape[1], hidden, n_classes, seed=seed)
    params = head.parameters()
    opt = AdamW(params)
    for _ in _fit(params, opt, np.random.default_rng(seed), [s.id for s in samples], epochs,
                  batch_size, lambda i: cross_entropy(head.logits(feats[i]), int(labels[i])),
                  lambda step: lr, 0.0):
        pass
    return head
