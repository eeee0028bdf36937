import math
import warnings

import numpy as np
import pytest

from spandet import tensor as T
from spandet import training
from spandet.data import SynthSpec, synth_generate, synthetic_provider
from spandet.geometry import Interval, clamp_interval
from spandet.matching import hungarian
from spandet.model import LayerPrediction, ModelConfig, ModelOutput
from spandet.training import (AdamW, LossWeights, NumericalError, TrainConfig,
                              clip_grad_norm, composite_loss, cosine_lr,
                              detection_loss, focal_loss, make_denoising, train)

from composed import focal_loss_mean, giou_1d_t, span_l1_t

CFG = ModelConfig(d_model=16, hidden=16, heads=4, ffn_mult=2, enc_layers=1,
                  dec_layers=1, num_queries=3, max_tokens=64,
                  dn_groups=2, dn_center_noise=0.4, dn_width_noise=0.4)


# -- focal loss ----------------------------------------------------------------


def test_focal_reduces_to_cross_entropy_at_gamma_zero():
    # p = 0.5 -> 0.5 * ln 2
    assert abs(focal_loss(0.0, 1, alpha=0.5, gamma=0.0) - 0.5 * math.log(2)) < 1e-12


def test_focal_zero_at_certain_correct():
    big = 50.0
    assert focal_loss(big, 1) < 1e-10
    assert focal_loss(-big, 0) < 1e-10


def test_focal_hand_value():
    logit = math.log(0.9 / 0.1)
    want = 0.25 * 0.01 * (-math.log(0.9))
    assert abs(focal_loss(logit, 1, alpha=0.25, gamma=2.0) - want) < 1e-9


def test_focal_validates_parameters():
    with pytest.raises(ValueError):
        focal_loss(0.0, 1, alpha=1.5)
    with pytest.raises(ValueError):
        focal_loss(0.0, 1, gamma=-1.0)


def test_focal_gradient():
    rng = np.random.default_rng(0)
    tg = np.array([1.0, 0.0, 1.0, 0.0])
    x = T.Tensor(rng.normal(size=4), requires_grad=True)
    err = T.grad_check(lambda: focal_loss_mean(x, tg), [x], 1e-5)
    assert err < 1e-4


# -- denoising batches ----------------------------------------------------------


def test_denoising_zero_noise_reproduces_targets():
    cfg = ModelConfig(**{**vars(CFG), "dn_center_noise": 0.0, "dn_width_noise": 0.0})
    gts = [Interval(0.3, 0.2), Interval(0.75, 0.3)]
    dnb = make_denoising(gts, cfg, np.random.default_rng(0))
    assert np.allclose(dnb.anchors, [[0.3, 0.2], [0.75, 0.3]] * 2, atol=1e-12)


def test_denoising_counts_and_target_map():
    cfg = ModelConfig(**{**vars(CFG), "dn_groups": 2})
    gts = [Interval(0.2, 0.1), Interval(0.5, 0.2), Interval(0.85, 0.25)]
    dnb = make_denoising(gts, cfg, np.random.default_rng(1))
    assert dnb.anchors.shape == (6, 2)
    assert dnb.gt_index.tolist() == [0, 1, 2, 0, 1, 2]
    assert dnb.n_groups == 2


def test_denoising_always_valid_intervals():
    gts = [Interval(0.05, 0.1), Interval(0.95, 0.1)]
    for seed in range(50):
        dnb = make_denoising(gts, CFG, np.random.default_rng(seed))
        for c, w in dnb.anchors:
            Interval(c, w)  # validates
            assert c - w / 2 >= -1e-12 and c + w / 2 <= 1 + 1e-12


def make_denoising_per_row(gts, cfg, rng):
    """Reference: the per-row loop the vectorized draw replaced."""
    anchors, gt_index = [], []
    for _ in range(cfg.dn_groups):
        for j, gt in enumerate(gts):
            u = rng.uniform(-cfg.dn_center_noise, cfg.dn_center_noise)
            v = rng.uniform(-cfg.dn_width_noise, cfg.dn_width_noise)
            noisy = clamp_interval(gt.c + u * gt.w, gt.w * (1.0 + v))
            anchors.append([noisy.c, noisy.w])
            gt_index.append(j)
    return np.array(anchors), np.array(gt_index, dtype=int)


def test_denoising_bitwise_equals_per_row_reference():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        widths = rng.uniform(0.01, 1.0, size=int(rng.integers(1, 5)))
        gts = [Interval(rng.uniform(w / 2, 1 - w / 2), w) for w in widths]
        # width noise above 1 drives some widths to the 1e-4 floor
        cfg = ModelConfig(**{**vars(CFG), "dn_groups": int(rng.integers(1, 6)),
                             "dn_center_noise": float(rng.uniform(0.0, 1.0)),
                             "dn_width_noise": float(rng.uniform(0.0, 1.5))})
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        dnb = make_denoising(gts, cfg, got_rng)
        anchors, gt_index = make_denoising_per_row(gts, cfg, ref_rng)
        assert np.array_equal(dnb.anchors, anchors), f"seed {seed}"
        assert np.array_equal(dnb.gt_index, gt_index), f"seed {seed}"
        assert got_rng.random() == ref_rng.random()  # the stream goes on the same


def test_denoising_empty_cases():
    assert make_denoising([], CFG, np.random.default_rng(0)) is None
    no_dn = ModelConfig(**{**vars(CFG), "dn_groups": 0})
    assert make_denoising([Interval(0.5, 0.2)], no_dn, np.random.default_rng(0)) is None


# -- composite objective ---------------------------------------------------------


import oracles
from oracles import random_instance, reference_objective


def test_composite_matches_independent_reference():
    lw = LossWeights()
    for seed in range(50):
        cw, logits, dn, dn_idx, gts = random_instance(seed)
        layer = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
        dn_t = T.Tensor(dn) if dn is not None else None
        total, _ = composite_loss(layer, dn_t, dn_idx, gts, lw)
        want = reference_objective([tuple(r) for r in cw], list(logits),
                                   [tuple(r) for r in dn] if dn is not None else None,
                                   dn_idx, [(g.c, g.w) for g in gts], lw)
        assert abs(float(total.data) - want) < 1e-9, f"seed {seed}"


def composite_loss_per_pair(layer, dn_cw, dn_gt_index, gts, weights=LossWeights()):
    """Reference objective: the match cost from the scalar oracle geometry,
    one per pair, and one span/gIoU node per pair, summed left to right."""
    cw, logits = layer.cw, layer.logits
    gt_cw = np.array([[g.c, g.w] for g in gts])
    cost = np.array([[weights.span * oracles.l1(p, g) - weights.giou * oracles.giou(p, g)
                      - weights.focal * oracles.sig(x) for g in gt_cw]
                     for p, x in zip(cw.data, logits.data)])
    pairs = hungarian(cost)

    def mean_terms(rows, targets):
        span = giou = None
        for r, tg in zip(rows, targets):
            s_r = span_l1_t(r, T.Tensor(tg))
            g_r = 1.0 - giou_1d_t(r, T.Tensor(tg))
            span = s_r if span is None else span + s_r
            giou = g_r if giou is None else giou + g_r
        return T.scale(span, 1.0 / len(rows)), T.scale(giou, 1.0 / len(rows))

    l_span, l_giou = mean_terms([cw[i, :] for i, _ in pairs], [gt_cw[j] for _, j in pairs])
    targets = np.zeros(cw.shape[0])
    targets[[i for i, _ in pairs]] = 1.0
    l_focal = focal_loss_mean(logits, targets)
    l_dn_span, l_dn_giou = mean_terms([dn_cw[q, :] for q in range(dn_cw.shape[0])],
                                      [gt_cw[j] for j in dn_gt_index])
    return (T.scale(l_span, weights.span) + T.scale(l_giou, weights.giou)
            + T.scale(l_focal, weights.focal) + T.scale(l_dn_span, weights.dn_span)
            + T.scale(l_dn_giou, weights.dn_giou))


def _loss_and_grads(objective, cw, logits, dn, dn_idx, gts):
    leaves = [T.Tensor(a, requires_grad=True) for a in (cw, logits, dn)]
    total = objective(LayerPrediction(leaves[0], leaves[1]), leaves[2], dn_idx, gts)
    total.backward()
    return float(total.data), [t.grad for t in leaves]


def test_gathered_objective_bitwise_equals_per_pair_reference():
    rng = np.random.default_rng(5)
    instances = [random_instance(seed, n=3, m=2) for seed in range(50)]  # the C04 ones
    for seed in range(200):
        n = int(rng.integers(1, 6))
        # fewer than 8 DN rows: the gathered sums run in order only below 8
        instances.append(random_instance(1000 + seed, n=n, m=int(rng.integers(1, n + 1)),
                                         dn_count=int(rng.integers(1, 8))))
    for k, inst in enumerate(instances):
        total, grads = _loss_and_grads(lambda *a: composite_loss(*a)[0], *inst)
        ref, ref_grads = _loss_and_grads(composite_loss_per_pair, *inst)
        assert total == ref, f"instance {k}"
        for name, g, want in zip(("cw", "logits", "dn"), grads, ref_grads):
            assert np.array_equal(g, want), f"instance {k}: {name}"


def test_match_probabilities_do_not_overflow(monkeypatch):
    seen = {}
    cost = training.build_match_cost

    def spy(l1, giou, probs, weights):
        seen["probs"] = probs
        return cost(l1, giou, probs, weights)

    monkeypatch.setattr(training, "build_match_cost", spy)
    layer = LayerPrediction(T.Tensor([[0.5, 0.2], [0.3, 0.2]]), T.Tensor([-800.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        composite_loss(layer, None, None, [Interval(0.5, 0.2)])
    assert seen["probs"][0] == 0.0 and seen["probs"][1] == 0.5


def test_composite_perfect_prediction_hits_focal_floor():
    gts = [Interval(0.3, 0.2), Interval(0.7, 0.2)]
    cw = np.array([[0.3, 0.2], [0.7, 0.2], [0.5, 0.1]])
    logits = np.array([40.0, 40.0, -40.0])     # matched certain, unmatched zero
    layer = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    total, terms = composite_loss(layer, None, None, gts)
    assert terms["span"] == 0.0
    assert abs(terms["giou"]) < 1e-12
    assert float(total.data) < 1e-8


def test_composite_no_targets_only_background_focal():
    cw = np.array([[0.4, 0.2]])
    logits = np.array([0.7])
    layer = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    total, terms = composite_loss(layer, None, None, [])
    assert terms["span"] == 0.0 and terms["giou"] == 0.0
    assert terms["dn_span"] == 0.0 and terms["dn_giou"] == 0.0
    want = focal_loss(0.7, 0)
    assert abs(terms["focal"] - want) < 1e-12
    assert abs(float(total.data) - 4.0 * want) < 1e-12


def test_breakdown_reports_the_matched_iou():
    gts = [Interval(0.3, 0.2), Interval(0.7, 0.2)]
    cw = np.array([[0.3, 0.2], [0.5, 0.1], [0.75, 0.2]])
    layer = LayerPrediction(T.Tensor(cw), T.Tensor([3.0, -3.0, 3.0]))
    _, terms = composite_loss(layer, None, None, gts)
    # query 0 covers target 0 exactly; query 2 overlaps target 1 on [0.65, 0.8]
    assert terms["iou"] == pytest.approx((1.0 + 0.15 / 0.25) / 2, abs=1e-12)
    _, terms = composite_loss(layer, None, None, [])
    assert math.isnan(terms["iou"])


def test_objective_linear_in_weights():
    cw, logits, dn, dn_idx, gts = random_instance(99)
    layer = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    base, _ = composite_loss(layer, T.Tensor(dn), dn_idx, gts, LossWeights())
    doubled, _ = composite_loss(LayerPrediction(T.Tensor(cw), T.Tensor(logits)),
                                T.Tensor(dn), dn_idx, gts,
                                LossWeights(20.0, 2.0, 8.0, 18.0, 6.0))
    assert abs(float(doubled.data) - 2 * float(base.data)) < 1e-9


def test_removing_dn_leaves_learnable_terms_unchanged():
    cw, logits, dn, dn_idx, gts = random_instance(17)
    with_dn = composite_loss(LayerPrediction(T.Tensor(cw), T.Tensor(logits)),
                             T.Tensor(dn), dn_idx, gts)[1]
    without = composite_loss(LayerPrediction(T.Tensor(cw), T.Tensor(logits)),
                             None, None, gts)[1]
    for key in ("span", "giou", "focal"):
        assert with_dn[key] == without[key]


def test_composite_gradient_on_two_query_instance():
    cw, logits, _, _, gts = random_instance(23, n=2, m=1, with_dn=False)
    cw_t, logits_t = T.Tensor(cw, requires_grad=True), T.Tensor(logits, requires_grad=True)

    def build_loss():
        return composite_loss(LayerPrediction(cw_t, logits_t), None, None, gts)[0]

    assert T.grad_check(build_loss, [cw_t, logits_t], 1e-5) < 1e-4


def test_weights_validated():
    with pytest.raises(ValueError):
        LossWeights(span=-1.0)


# -- optimizer and schedule -----------------------------------------------------


def test_adamw_zero_gradient_zero_decay_is_noop():
    p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = AdamW({"p": p}, lr=0.1)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adamw_first_step_magnitude_is_lr():
    p = T.Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([3.7])
    opt = AdamW({"p": p}, lr=0.01)
    opt.step()
    assert abs(abs(p.data[0]) - 0.01) < 1e-6   # bias-corrected sign step
    assert p.data[0] < 0


def test_adamw_decoupled_decay():
    p = T.Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.0])
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
    opt.step()
    assert abs(p.data[0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-12


def test_clip_grad_norm():
    p = T.Tensor(np.array([0.0, 0.0]), requires_grad=True)
    p.grad = np.array([3.0, 4.0])
    total = clip_grad_norm({"p": p}, 0.1)
    assert abs(total - 5.0) < 1e-12
    assert abs(np.linalg.norm(p.grad) - 0.1) < 1e-12


def test_cosine_schedule_milestones():
    assert cosine_lr(100, 1000, 1e-3, warmup_steps=100) == 1e-3
    assert cosine_lr(1000, 1000, 1e-3, warmup_steps=100) < 1e-18
    mid = cosine_lr(550, 1000, 1e-3, warmup_steps=100)
    assert abs(mid - 5e-4) < 1e-12
    assert cosine_lr(50, 1000, 1e-3, warmup_steps=100) == 0.5e-3
    with pytest.raises(ValueError):
        cosine_lr(1001, 1000, 1e-3)


# -- training loop ---------------------------------------------------------------


def small_corpus(sigma=5.0, n=60, seed=3):
    spec = SynthSpec(n_texts=n, style="roft", n_sentences=4,
                     words_per_sentence=(2, 4), signal=sigma, embed_dim=16)
    split = synth_generate(spec, seed=seed)
    return split, synthetic_provider(split.meta)


SMALL_MODEL = dict(d_model=16, hidden=16, heads=4, ffn_mult=2, enc_layers=1,
                   dec_layers=1, num_queries=1, max_tokens=48, dn_groups=2)


def test_training_loss_decreases():
    split, prov = small_corpus()
    cfg = ModelConfig(**SMALL_MODEL)
    res = train(split, prov, cfg, TrainConfig(epochs=5, batch_size=8, lr=1e-3, seed=0))
    assert res.log[4]["train"]["total"] < res.log[0]["train"]["total"]


def test_training_deterministic():
    split, prov = small_corpus(n=24)
    cfg = ModelConfig(**SMALL_MODEL)
    tcfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=42)
    r1 = train(split, prov, cfg, tcfg)
    r2 = train(split, prov, cfg, tcfg)
    assert r1.log == r2.log
    s1, s2 = r1.model.state(), r2.model.state()
    assert all(np.array_equal(s1[k], s2[k]) for k in s1)


def test_non_finite_gradient_stops_training_before_the_weights_move(monkeypatch):
    split, prov = small_corpus(n=24)
    seen = {}
    clip = training.clip_grad_norm

    def plant_nan(params, max_norm):
        seen["params"] = params
        seen["before"] = {k: p.data.copy() for k, p in params.items()}
        params["class_head.bias"].grad[0] = np.nan  # the loss itself stays finite
        return clip(params, max_norm)

    monkeypatch.setattr(training, "clip_grad_norm", plant_nan)
    with pytest.raises(NumericalError, match="epoch 1, step 1"):
        train(split, prov, ModelConfig(**SMALL_MODEL),
              TrainConfig(epochs=1, batch_size=8, seed=0))
    for k, p in seen["params"].items():
        assert np.array_equal(p.data, seen["before"][k]), k


@pytest.mark.parametrize("grad_clip", [0.1, 1e9])
def test_log_records_preclip_gradient_norms_and_clip_fraction(monkeypatch, grad_clip):
    split, prov = small_corpus(n=24)
    norms = []
    clip = training.clip_grad_norm

    def record(params, max_norm):
        norms.append(clip(params, max_norm))
        return norms[-1]

    monkeypatch.setattr(training, "clip_grad_norm", record)
    res = train(split, prov, ModelConfig(**SMALL_MODEL),
                TrainConfig(epochs=2, batch_size=8, seed=0, grad_clip=grad_clip))
    steps = len(norms) // 2
    for epoch, rec in enumerate(res.log):
        mine = norms[epoch * steps:(epoch + 1) * steps]
        assert rec["grad_norm"] == {"min": min(mine), "median": float(np.median(mine)),
                                    "max": max(mine)}
        assert rec["clip_frac"] == sum(x > grad_clip for x in mine) / steps
    assert res.log[0]["clip_frac"] == (1.0 if grad_clip == 0.1 else 0.0)


def test_log_records_each_decoder_layers_terms_and_matched_iou(monkeypatch):
    split, prov = small_corpus(n=24)
    seen = []
    loss_fn = training.detection_loss

    def record(out, *args):
        result = loss_fn(out, *args)
        if result[0].requires_grad:  # a training sample, not validation
            seen.append(result[1])
        return result

    monkeypatch.setattr(training, "detection_loss", record)
    res = train(split, prov, ModelConfig(**{**SMALL_MODEL, "dec_layers": 2}),
                TrainConfig(epochs=1, batch_size=8, seed=0))
    rec = res.log[0]
    assert len(seen) == len(split.train) and len(rec["train_layers"]) == 2
    for li, layer in enumerate(rec["train_layers"]):
        for k in training.TERMS:
            assert layer[k] == sum(s[li][k] for s in seen) / len(seen)
        ious = [s[li]["iou"] for s in seen if not math.isnan(s[li]["iou"])]
        assert ious and layer["iou"] == sum(ious) / len(ious)
        assert 0.0 <= layer["iou"] <= 1.0
    for k in training.TERMS:  # the summed "train" terms stay as they were
        assert rec["train"][k] == sum(sum(t[k] for t in s) for s in seen) / len(seen)
        assert abs(rec["train"][k] - sum(l[k] for l in rec["train_layers"])) < 1e-9


def test_training_rejects_empty_dataset():
    split, prov = small_corpus(n=10)
    split.train = []
    with pytest.raises(ValueError, match="empty"):
        train(split, prov, ModelConfig(**SMALL_MODEL), TrainConfig(epochs=1))


def test_training_run_directory(tmp_path):
    split, prov = small_corpus(n=24)
    run = tmp_path / "run"
    res = train(split, prov, ModelConfig(**SMALL_MODEL),
                TrainConfig(epochs=2, batch_size=8, seed=1), run_dir=run)
    assert (run / "config.json").exists()
    assert (run / "best.npz").exists() and (run / "last.npz").exists()
    lines = (run / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    assert res.best_epoch in (1, 2)


def test_detection_loss_sums_layers():
    cw, logits, _, _, gts = random_instance(31, n=2, m=1, with_dn=False)
    layer = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    out1 = ModelOutput([layer], [], None)
    layer_a = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    layer_b = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    out2 = ModelOutput([layer_a, layer_b], [], None)
    one, _ = detection_loss(out1, gts)
    two, _ = detection_loss(out2, gts)
    assert abs(float(two.data) - 2 * float(one.data)) < 1e-12
