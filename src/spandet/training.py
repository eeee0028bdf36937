"""Training: composite detection objective, denoising queries, optimizer.

The objective is a weighted sum of span L1, gIoU, and focal terms over the
learnable queries (matched to targets by Hungarian assignment) plus L1/gIoU
reconstruction terms over the denoising queries, repeated for every decoder
layer's auxiliary outputs. Each layer's objective is one tape node: the
forward computes every term, the match cost and the assignment in numpy, in
array steps over the micro-batch but for one Hungarian call per record, and
the hand-written backward replays the backward of the same objective built
from elementwise tensor ops, so each record's terms and gradients are
bitwise that chain's over the record alone. Every ``metrics.jsonl`` record
keeps the terms summed over the layers under ``"train"`` and lists each
layer's terms and mean matched IoU under ``"train_layers"``.

Training runs micro-batches: ``_fit`` cuts each step's records, in the
epoch's permutation order, into runs whose token rows add up to at most
``MICRO_BATCH_ROWS``, and each run is one forward over the stacked records,
one objective node per decoder layer (matching and scoring each record on
its own rows) and one backward. Validation groups its records by the same
rule. The forward, the objective and the classifier head take nothing but
micro-batches: a record alone is a micro-batch of one, and several records
agree with their one-record micro-batches up to rounding, since the bits of
one row of a matrix product depend on how many rows it has. Each epoch
record counts its training micro-batches under ``"micro_batches"``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor as T
from .files import write_json, write_jsonl
from .geometry import Interval, span_l1_giou, span_to_cw
from .matching import build_match_cost, hungarian
from .model import (ClassifierHead, DetectionModel, LayerPrediction, ModelConfig,
                    ModelOutput, check_features, save_detector, softmax)


FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0


class NumericalError(RuntimeError):
    """Loss or gradients left the realm of finite numbers. `record`: the
    position in its micro-batch of the record where it happened, if known."""

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record


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
    (the width into [1e-4, 1], then the center so the interval lies in [0, 1]).
    Group-major rows; the noise is drawn as (center, width) per row, in row order."""
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
                   dn_gt_index: np.ndarray | None, gts: list[list[Interval]],
                   weights: LossWeights = LossWeights(), dn_rows: list[int] | None = None):
    """One decoder layer's weighted objective over a micro-batch as one tape
    node, and each record's per-term breakdown (``TERMS``, and ``"iou"``: the
    mean IoU of the matched pairs, NaN without targets).

    `layer` holds ``ModelOutput`` rows, record after record; `gts` is one
    target list per record, the records sharing the query rows equally, and
    `dn_rows` each record's DN row count (None: no DN rows). Each record is
    matched on its own rows (learnable queries only; DN rows pair with their
    own targets) and scored on them, but every step runs once over the whole
    micro-batch: span L1 and gIoU over every record's (query, target) pairs,
    for the match cost and the matched terms alike, the match cost, the focal
    term and the DN terms. Only the assignment is one ``hungarian`` call per
    record with targets. Each record's terms and gradients are bitwise those
    it gets as a micro-batch of one, and the node's value is the sum of the
    records' totals in record order. Non-finite predictions raise
    ``NumericalError``, carrying the position of the first such record,
    before matching."""
    cw, logits = layer.cw, layer.logits
    if not (isinstance(gts, (list, tuple)) and gts and cw.shape[0] % len(gts) == 0
            and all(isinstance(g, (list, tuple)) for g in gts)):
        kinds = [type(g).__name__ for g in gts] if isinstance(gts, (list, tuple)) else ""
        raise T.ShapeError(f"composite_loss takes one target list per record, the records "
                           f"sharing {cw.shape[0]} query rows equally; got a "
                           f"{type(gts).__name__} {kinds}".rstrip())
    dn_rows, n_dn = dn_rows or [0] * len(gts), 0 if dn_cw is None else dn_cw.shape[0]
    if len(dn_rows) != len(gts) or sum(dn_rows) != n_dn:
        raise T.ShapeError(f"composite_loss: dn_rows {dn_rows} do not split {n_dn} DN rows "
                           f"over {len(gts)} records")
    b, nq = len(gts), cw.shape[0] // len(gts)
    finite = np.isfinite(np.hstack([cw.data.reshape(b, -1), logits.data.reshape(b, -1)]))
    if not finite.all():  # argmin: the first record holding a False
        raise NumericalError("non-finite predictions", record=int(np.argmin(finite.all(axis=1))))

    counts = np.array([len(g) for g in gts])
    gt_cw = np.array([[g.c, g.w] for targets in gts for g in targets]).reshape(-1, 2)
    first_gt = np.cumsum(counts) - counts
    # every record's (query, target) pairs, query-major, record after record
    pair_rec = np.repeat(np.arange(b), nq * counts)
    query, target = np.divmod(np.arange(nq * counts.sum()) - nq * first_gt[pair_rec],
                              counts[pair_rec])
    pair_rows = pair_rec * nq + query
    probs = T.expit(logits.data.reshape(-1))
    l1, giou, iou, pair_grad = span_l1_giou(cw.data[pair_rows], gt_cw[first_gt[pair_rec] + target])
    cost = build_match_cost(l1[:, None], giou[:, None], probs[pair_rows],
                            (weights.span, weights.giou, weights.focal))[:, 0]
    # the matched pairs' indices, record after record, each record's in column order
    matched = np.array([at + i * m + j for m, at in zip(counts, nq * first_gt) if m
                        for i, j in hungarian(cost[at:at + nq * m].reshape(nq, m))], dtype=int)
    targets = np.zeros(b * nq)
    targets[pair_rows[matched]] = 1.0
    focal, focal_grad = _focal(probs, targets, FOCAL_ALPHA, FOCAL_GAMMA)

    inv = 1.0 / np.maximum(counts, 1)
    span_sum, giou_sum, iou_sum = _run_sums(
        np.stack([l1[matched], 1.0 - giou[matched], iou[matched]]), counts)
    l_span, l_giou = span_sum * inv, giou_sum * inv
    l_focal = focal.reshape(b, nq).sum(axis=1) / nq
    dn_counts = np.array(dn_rows)
    inv_dn = 1.0 / np.maximum(dn_counts, 1)
    l_dn_span = l_dn_giou = np.zeros(b)
    if dn_cw is not None:
        dn_l1, dn_giou, _, dn_grad = span_l1_giou(
            dn_cw.data, gt_cw[np.repeat(first_gt, dn_counts) + dn_gt_index])
        l_dn_span, l_dn_giou = _run_sums(np.stack([dn_l1, 1.0 - dn_giou]), dn_counts) * inv_dn
    total = (l_span * weights.span + l_giou * weights.giou + l_focal * weights.focal
             + l_dn_span * weights.dn_span + l_dn_giou * weights.dn_giou)
    mean_iou = np.divide(iou_sum, counts, out=np.full(b, np.nan), where=counts > 0)

    def vjp(g):
        g_cw = g_dn = None
        if len(matched):  # only the matched pairs receive a gradient
            scale = inv[pair_rec[matched]]
            g_l1, g_giou = np.zeros(len(l1)), np.zeros(len(l1))
            g_l1[matched] = g * weights.span * scale
            g_giou[matched] = g * weights.giou * scale * -1.0
            g_cw = np.zeros_like(cw.data)
            np.add.at(g_cw, pair_rows, pair_grad(g_l1, g_giou))
        if dn_cw is not None:
            scale = np.repeat(inv_dn, dn_counts)
            g_dn = dn_grad(g * weights.dn_span * scale, g * weights.dn_giou * scale * -1.0)
        return g_cw, focal_grad(g * weights.focal / nq).reshape(logits.shape), g_dn

    node = T.custom(sum(total), (cw, logits) if dn_cw is None else (cw, logits, dn_cw), vjp,
                    "objective")
    table = np.stack([l_span, l_giou, l_focal, l_dn_span, l_dn_giou, total], axis=1)
    return node, [dict(zip(TERMS, row), iou=i)
                  for row, i in zip(table.tolist(), mean_iou.tolist())]


def _run_sums(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums over the consecutive runs of `counts` entries along `x`'s last axis,
    each bitwise its run's ``.sum()``, as the rows of one matrix per run length
    (``np.add.reduceat`` and zero-padding both change the bits)."""
    sums = np.zeros((*x.shape[:-1], len(counts)))
    first = np.cumsum(counts) - counts
    for k in set(counts.tolist()) - {0}:
        at = counts == k
        # take's result is C-ordered, so each run is a contiguous row
        sums[..., at] = np.take(x, first[at][:, None] + np.arange(k), axis=-1).sum(axis=-1)
    return sums


def detection_loss(out: ModelOutput, gts: list[list[Interval]],
                   weights: LossWeights = LossWeights()):
    """Sum of the composite objective over the auxiliary and final layers of
    a micro-batch's output, one target list per record in `gts`, and each
    record's list of layer breakdowns, in decoder order."""
    total = None
    layers = []
    for li, layer in enumerate(out.layers):
        dn_cw = out.dn_layers[li] if out.dn_layers else None
        t, terms = composite_loss(layer, dn_cw, out.dn_gt_index, gts, weights, out.dn_rows)
        total = t if total is None else total + t
        layers.append(terms)
    return total, [list(record) for record in zip(*layers)]


# -- optimizer and schedule ---------------------------------------------------


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 1e-4   # AdamW's decoupled decay, for both heads


class AdamW:
    """Adam with bias correction and decoupled weight decay, at ``ADAM_BETAS``,
    ``ADAM_EPS`` and ``WEIGHT_DECAY``; each step takes its learning rate. The
    weights, their gradients and the moments are the flat vectors ``data``,
    ``grad``, ``m`` and ``v``; each ``p.data`` and ``p.grad_slot`` views its slice."""

    def __init__(self, params: dict[str, T.Tensor]):
        self.params = params
        self.t = 0
        self.data = np.concatenate([p.data.ravel() for p in params.values()])
        self.grad, self.m, self.v, *self._scratch = (np.zeros_like(self.data) for _ in range(5))
        self._sizes = [p.size for p in params.values()]
        for p, end in zip(params.values(), np.cumsum(self._sizes)):
            at = slice(end - p.size, end)
            p.data, p.grad_slot = self.data[at].reshape(p.shape), self.grad[at].reshape(p.shape)

    def step(self, lr: float) -> None:
        """``p *= 1 - lr wd; m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
        p -= lr (m / bc1) / (sqrt(v / bc2) + eps)`` in that order, over whole
        vectors via two scratch ones; ``where`` skips parameters without a grad."""
        b1, b2 = ADAM_BETAS
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        live = np.repeat([p.grad is not None for p in self.params.values()], self._sizes)
        d, g, m, v, (s, u) = self.data, self.grad, self.m, self.v, self._scratch
        np.multiply(d, 1.0 - lr * WEIGHT_DECAY, out=d, where=live)
        np.add(np.multiply(b1, m, out=u), np.multiply(1.0 - b1, g, out=s), out=m, where=live)
        np.multiply(np.multiply(1.0 - b2, g, out=s), g, out=s)
        np.add(np.multiply(b2, v, out=u), s, out=v, where=live)
        np.multiply(lr, np.divide(m, bc1, out=s), out=s)
        np.add(np.sqrt(np.divide(v, bc2, out=u), out=u), ADAM_EPS, out=u)
        np.subtract(d, np.divide(s, u, out=s), out=d, where=live)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for p in self.params.values():
            p.zero_grad()


def clip_grad_norm(grad: np.ndarray, max_norm: float) -> float:
    """The L2 norm of the flat gradient `grad`, scaled in place to `max_norm`
    when longer (0 never rescales)."""
    total = math.sqrt(float(grad @ grad))
    if max_norm > 0 and total > max_norm:
        grad *= max_norm / total
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

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be a positive finite number, got {self.lr}")
        if not 0 <= self.grad_clip < math.inf:  # 0: never clip
            raise ValueError(f"grad_clip must be a finite number >= 0, got {self.grad_clip}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


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


MICRO_BATCH_ROWS = 256
"""Token rows that the records of one micro-batch may add up to. At the C08
width a tape of ~256 rows amortizes the fixed cost per tape, and a micro-batch's
live tape holds at most max(one record, 256) token rows."""


def micro_batches(idxs, rows) -> list[list[int]]:
    """`idxs`, in order, cut into runs of consecutive records whose token
    `rows` add up to at most ``MICRO_BATCH_ROWS``; a longer record is a run
    of its own."""
    runs: list[list[int]] = []
    used = 0
    for i in idxs:
        if not runs or used + rows[i] > MICRO_BATCH_ROWS:
            runs.append([])
            used = 0
        runs[-1].append(int(i))
        used += rows[i]
    return runs


def _fit(opt: AdamW, rng: np.random.Generator, ids: list[str], rows: list[int],
         epochs: int, batch_size: int,
         batch_loss: Callable[[list[int]], tuple[T.Tensor, list[float]]],
         lr_at: Callable[[int], float], max_norm: float):
    """The mini-batch loop of both heads; yields ``(epoch, lr, pre-clip
    norms, micro-batch count)`` per epoch.

    A step takes the next `batch_size` records of the epoch's permutation and
    cuts them into ``micro_batches`` by their token `rows`. Each micro-batch
    is one tape: ``batch_loss(idxs)`` returns its loss, the sum of its
    records' losses, and each record's loss (or none), and one backward adds
    its gradients to the step's. The step averages the gradients over its
    records, clips them to `max_norm` (0 never rescales) and steps at
    ``lr_at(step)``. A non-finite loss or gradient norm, or a
    ``NumericalError`` from `batch_loss`, raises ``NumericalError`` naming
    where, before the weights move: the record whose loss is not finite (the
    micro-batch's first when no record's is) or where the error arose."""
    step = 0
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(ids))
        norms: list[float] = []
        count = 0
        for b in range(0, len(ids), batch_size):
            idxs = order[b:b + batch_size]
            opt.zero_grad()
            for mb in micro_batches(idxs, rows):
                count += 1
                try:
                    loss, losses = batch_loss(mb)
                except NumericalError as e:
                    where = ids[mb[e.record or 0]]
                    raise NumericalError(f"{e} on sample {where} at epoch {epoch}") from e
                if not math.isfinite(float(loss.data)):
                    bad = next((i for i, x in zip(mb, losses) if not math.isfinite(x)), mb[0])
                    raise NumericalError(f"non-finite loss on sample {ids[bad]} at epoch {epoch}")
                loss.backward()
            opt.grad *= 1.0 / len(idxs)
            norm = clip_grad_norm(opt.grad, max_norm)
            norms.append(norm)
            step += 1
            if not math.isfinite(norm):
                raise NumericalError(f"non-finite gradient norm at epoch {epoch}, step {step}")
            lr = lr_at(step)
            opt.step(lr)
        yield epoch, lr, norms, count


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
    opt = AdamW(model.parameters())
    rng = np.random.default_rng(train_cfg.seed)

    cache = _prepare(split.train, provider, model_cfg)
    val_cache = _prepare(split.val, provider, model_cfg)

    n = len(split.train)
    total_steps = train_cfg.epochs * math.ceil(n / train_cfg.batch_size)
    warmup = round(WARMUP_FRAC * total_steps)

    if run_dir is not None:
        run_dir = Path(run_dir)
        write_json(run_dir / "config.json", {"model": asdict(model_cfg),
                                             "train": asdict(train_cfg),
                                             "weights": asdict(weights)})

    epoch_terms: list[list[dict[str, float]]] = []   # per sample, per layer

    def batch_loss(idxs):
        vecs, poss, gts = zip(*(cache[i] for i in idxs))
        dnbs = [make_denoising(g, model_cfg, rng) for g in gts]  # in record order
        loss, records = detection_loss(model.forward(vecs, poss, dnbs), gts, weights)
        epoch_terms.extend(records)
        return loss, [sum(layer["total"] for layer in r) for r in records]

    log: list[dict] = []
    best_val = math.inf
    best_epoch = -1
    best_state = None
    for epoch, lr, norms, count in _fit(
            opt, rng, [s.id for s in split.train], [len(c[0]) for c in cache],
            train_cfg.epochs, train_cfg.batch_size, batch_loss,
            lambda step: cosine_lr(step, total_steps, train_cfg.lr, warmup), train_cfg.grad_clip):
        record = {"epoch": epoch, "lr": lr, "micro_batches": count,
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
                for mb in micro_batches(range(len(val_cache)), [len(c[0]) for c in val_cache]):
                    vecs, poss, gts = zip(*(val_cache[i] for i in mb))
                    out = model.forward(vecs, poss, None)
                    try:
                        _, records = detection_loss(out, gts, weights)
                    except NumericalError as e:
                        raise NumericalError(f"{e} on validation record "
                                             f"{split.val[mb[e.record or 0]].id} "
                                             f"at epoch {epoch}") from e
                    for r in records:
                        v_sum += sum(layer["total"] for layer in r)
            record["val_loss"] = v_sum / len(split.val)
            if record["val_loss"] < best_val:
                best_val = record["val_loss"]
                best_epoch = epoch
                best_state = opt.data.copy()
        log.append(record)
        if run_dir is not None:
            write_jsonl(run_dir / "metrics.jsonl", log)
            save_detector(run_dir / "last.npz", model)

    if best_epoch < 0:  # no validation split: keep the final weights
        best_epoch, best_val = train_cfg.epochs, math.nan
    else:
        opt.data[...] = best_state  # in place: each p.data views opt.data
    if run_dir is not None:
        save_detector(run_dir / "best.npz", model)
    return TrainResult(model, log, best_epoch, best_val)


def cross_entropy(logits: T.Tensor, labels: list[int]) -> T.Tensor:
    """The sum over a micro-batch's ``(B, C)`` logits, one label per row, of
    ``-log softmax(row)[label]``, as one 0-d node; the log is clamped at
    ``LOG_EPS`` and passes no gradient below it. Forward and backward are the
    expressions of the softmax, index, clamped log and negation chain, in its
    order, so value and gradient are bitwise that chain's."""
    probs = softmax(logits.data)
    at = (np.arange(len(labels)), labels)
    p = probs[at]
    x = np.maximum(p, T.LOG_EPS)
    dydx = np.where(p > T.LOG_EPS, 1.0 / x, 0.0)

    def vjp(g):
        g_probs = np.zeros_like(probs)
        g_probs[at] += g * -1.0 * dydx
        dot = (g_probs * probs).sum(axis=-1, keepdims=True)
        return ((g_probs - dot) * probs,)

    return T.custom((np.log(x) * -1.0).sum(), (logits,), vjp, "cross_entropy")


def train_classifier(samples, labels: list[int], provider: Provider,
                     hidden: int = 32, n_classes: int = 2, epochs: int = 30,
                     batch_size: int = 16, lr: float = 1e-3, seed: int = 0) -> ClassifierHead:
    """Fit the two-layer classifier head with cross-entropy through ``_fit``,
    at a constant `lr` and without clipping. Every sample needs one integer
    label in ``[0, n_classes)``."""
    TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)  # checked before any read
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
    head = ClassifierHead(width, hidden, n_classes, seed=seed)
    opt = AdamW(head.parameters())

    def batch_loss(idxs):  # no per-record losses: a non-finite loss names the first record
        logits = head.logits([feats[i] for i in idxs])
        return cross_entropy(logits, [int(labels[i]) for i in idxs]), ()

    for _ in _fit(opt, np.random.default_rng(seed), [s.id for s in samples],
                  [len(v) for v in feats], epochs, batch_size, batch_loss,
                  lambda step: lr, 0.0):
        pass
    return head
