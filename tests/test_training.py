import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spandet import tensor as T
from spandet import training
from spandet.data import SynthSpec, synth_generate, synthetic_provider
from spandet.geometry import Interval, span_to_cw
from spandet.matching import hungarian
from spandet.model import LayerPrediction, ModelConfig, ModelOutput, dn_attention_mask
from spandet.training import (ADAM_BETAS, ADAM_EPS, FOCAL_ALPHA, FOCAL_GAMMA, WEIGHT_DECAY,
                              AdamW, LossWeights, NumericalError, TERMS,
                              TrainConfig, clip_grad_norm, composite_loss, cosine_lr,
                              cross_entropy, detection_loss,
                              make_denoising, train, train_classifier)

import reference_ops as R
from composed import focal_loss_mean, giou_1d_t, span_l1_t
from oracles import clamp_interval

CFG = ModelConfig(d_model=16, hidden=16, heads=4, ffn_mult=2, enc_layers=1,
                  dec_layers=1, num_queries=3, max_tokens=64,
                  dn_groups=2, dn_center_noise=0.4, dn_width_noise=0.4)


# -- focal loss ----------------------------------------------------------------


def focal_at(logit, target, alpha=FOCAL_ALPHA, gamma=FOCAL_GAMMA):
    """The objective's focal term (``training._focal``) for one logit."""
    loss, _ = training._focal(T.expit(np.array([float(logit)])), np.array([float(target)]),
                              alpha, gamma)
    return float(loss[0])


def test_focal_reduces_to_cross_entropy_at_gamma_zero():
    # p = 0.5 -> 0.5 * ln 2
    assert abs(focal_at(0.0, 1, alpha=0.5, gamma=0.0) - 0.5 * math.log(2)) < 1e-12


def test_focal_zero_at_certain_correct():
    big = 50.0
    assert focal_at(big, 1) < 1e-10
    assert focal_at(-big, 0) < 1e-10


def test_focal_hand_value():
    logit = math.log(0.9 / 0.1)
    want = 0.25 * 0.01 * (-math.log(0.9))
    assert abs(focal_at(logit, 1, alpha=0.25, gamma=2.0) - want) < 1e-9


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
        total, _ = composite_loss(layer, dn_t, dn_idx, [gts], lw,
                                  None if dn is None else [len(dn)])
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
            g_r = R.sub(1.0, giou_1d_t(r, T.Tensor(tg)))
            span = s_r if span is None else span + s_r
            giou = g_r if giou is None else giou + g_r
        return R.scale(span, 1.0 / len(rows)), R.scale(giou, 1.0 / len(rows))

    l_span, l_giou = mean_terms([R.slice_(cw, np.s_[i, :]) for i, _ in pairs],
                                [gt_cw[j] for _, j in pairs])
    targets = np.zeros(cw.shape[0])
    targets[[i for i, _ in pairs]] = 1.0
    l_focal = focal_loss_mean(logits, targets)
    l_dn_span, l_dn_giou = mean_terms([R.slice_(dn_cw, np.s_[q, :])
                                       for q in range(dn_cw.shape[0])],
                                      [gt_cw[j] for j in dn_gt_index])
    return (R.scale(l_span, weights.span) + R.scale(l_giou, weights.giou)
            + R.scale(l_focal, weights.focal) + R.scale(l_dn_span, weights.dn_span)
            + R.scale(l_dn_giou, weights.dn_giou))


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
        total, grads = _loss_and_grads(
            lambda layer, dn, idx, gts: composite_loss(layer, dn, idx, [gts],
                                                       dn_rows=[len(dn.data)])[0], *inst)
        ref, ref_grads = _loss_and_grads(composite_loss_per_pair, *inst)
        assert total == ref, f"instance {k}"
        for name, g, want in zip(("cw", "logits", "dn"), grads, ref_grads):
            assert np.array_equal(g, want), f"instance {k}: {name}"


@given(st.integers(1, 3).flatmap(lambda nq: st.tuples(
           st.just(nq), st.lists(st.integers(0, nq), min_size=1, max_size=6))),
       st.booleans(), st.integers(0, 2 ** 16))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_a_micro_batch_objective_is_bitwise_its_records_alone(shape, dn_on, seed):
    """1-6 records sharing 1-3 queries each, 0 to num_queries targets each,
    DN rows on (1-16 per record with targets, so unequal) or off: the batched
    node's value is the sum of the records' totals in record order, and each
    record's terms, IoU and vjp outputs are those of its micro-batch of one,
    bit for bit. A non-finite prediction names the first record holding one."""
    (nq, counts), rng = shape, np.random.default_rng(seed)
    b = len(counts)
    gts = [[Interval(float(rng.uniform(w / 2, 1 - w / 2)), float(w))
            for w in rng.uniform(0.05, 0.5, size=m)] for m in counts]
    cw = np.c_[rng.uniform(0, 1, b * nq), rng.uniform(0.02, 1, b * nq)]
    if rng.random() < 0.25:  # every query alike: ties in every match
        cw[:] = cw[0]
    logits = rng.normal(size=(b * nq, 1)) * 3
    dn_rows = [int(rng.integers(1, 17)) if dn_on and m else 0 for m in counts]
    dn = np.c_[rng.uniform(0, 1, sum(dn_rows)), rng.uniform(0.02, 1, sum(dn_rows))]
    dn_idx = np.concatenate([rng.integers(0, max(m, 1), d) for m, d in zip(counts, dn_rows)])
    dn_first = np.cumsum(dn_rows) - dn_rows
    weights, g = LossWeights(*rng.uniform(0.1, 10, size=5)), rng.normal()

    def objective(r0, r1):  # records r0..r1-1 as one micro-batch
        dn_span = slice(dn_first[r0], dn_first[r1 - 1] + dn_rows[r1 - 1])
        live = sum(dn_rows[r0:r1]) > 0
        node, terms = composite_loss(
            LayerPrediction(T.Tensor(cw[r0 * nq:r1 * nq], requires_grad=True),
                            T.Tensor(logits[r0 * nq:r1 * nq], requires_grad=True)),
            T.Tensor(dn[dn_span], requires_grad=True) if live else None,
            dn_idx[dn_span] if live else None, gts[r0:r1], weights,
            dn_rows[r0:r1] if live else None)
        return node, terms, node._backward(g)

    node, terms, grads = objective(0, b)
    alone = [objective(r, r + 1) for r in range(b)]
    assert node.data == sum(t[0]["total"] for _, t, _ in alone)
    for got, (one, [want], _) in zip(terms, alone, strict=True):
        assert (math.isnan(got["iou"]) and math.isnan(want["iou"])) or got == want
        assert {k: got[k] for k in TERMS} == {k: want[k] for k in TERMS}
        assert one.data == want["total"]
    g_cw, g_logits, *g_dn = grads
    nones = [one_grads[0] is None for _, _, one_grads in alone]
    assert (g_cw is None) == all(nones)
    for r, (_, _, (one_cw, one_logits, *one_dn)) in enumerate(alone):
        rows = slice(r * nq, (r + 1) * nq)
        assert np.array_equal(g_logits[rows], one_logits)
        if g_cw is not None:
            assert np.array_equal(g_cw[rows], np.zeros((nq, 2)) if one_cw is None else one_cw)
        if dn_rows[r]:
            span = slice(dn_first[r], dn_first[r] + dn_rows[r])
            assert np.array_equal(g_dn[0][span], one_dn[0])

    poisoned = sorted(set(rng.integers(0, b, size=int(rng.integers(1, 3))).tolist()))
    for r in poisoned[::-1]:
        (cw if rng.random() < 0.5 else logits)[r * nq + int(rng.integers(nq)), 0] = (
            rng.choice([np.nan, np.inf, -np.inf]))
    with pytest.raises(NumericalError) as caught:
        objective(0, b)
    assert caught.value.record == poisoned[0]


def test_run_sums_are_each_runs_sum_bitwise_where_reduceat_is_not():
    """Runs of 1-39 entries, as ``composite_loss`` splits per-record sums."""
    rng = np.random.default_rng(3)
    counts = np.concatenate([rng.integers(0, 40, size=2000), [0, 1, 8, 9]])
    x = rng.normal(size=(2, counts.sum())) * 10.0 ** rng.integers(-4, 5, size=counts.sum())
    ends = np.cumsum(counts)
    want = np.array([[row[e - k:e].sum() for e, k in zip(ends, counts)] for row in x])
    got = training._run_sums(x, counts)
    assert np.array_equal(got, want)
    nonempty = counts > 0
    reduceat = np.add.reduceat(x[0], (ends - counts)[nonempty])
    assert not np.array_equal(reduceat, want[0][nonempty])  # a[0] + a[1:].sum() per run


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
        composite_loss(layer, None, None, [[Interval(0.5, 0.2)]])
    assert seen["probs"][0] == 0.0 and seen["probs"][1] == 0.5


def test_composite_perfect_prediction_hits_focal_floor():
    gts = [Interval(0.3, 0.2), Interval(0.7, 0.2)]
    cw = np.array([[0.3, 0.2], [0.7, 0.2], [0.5, 0.1]])
    logits = np.array([40.0, 40.0, -40.0])     # matched certain, unmatched zero
    layer = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    total, [terms] = composite_loss(layer, None, None, [gts])
    assert terms["span"] == 0.0
    assert abs(terms["giou"]) < 1e-12
    assert float(total.data) < 1e-8


def test_composite_no_targets_only_background_focal():
    cw = np.array([[0.4, 0.2]])
    logits = np.array([0.7])
    layer = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    total, [terms] = composite_loss(layer, None, None, [[]])
    assert terms["span"] == 0.0 and terms["giou"] == 0.0
    assert terms["dn_span"] == 0.0 and terms["dn_giou"] == 0.0
    want = focal_at(0.7, 0)
    assert abs(terms["focal"] - want) < 1e-12
    assert abs(float(total.data) - 4.0 * want) < 1e-12


def test_breakdown_reports_the_matched_iou():
    gts = [Interval(0.3, 0.2), Interval(0.7, 0.2)]
    cw = np.array([[0.3, 0.2], [0.5, 0.1], [0.75, 0.2]])
    layer = LayerPrediction(T.Tensor(cw), T.Tensor([3.0, -3.0, 3.0]))
    _, [terms] = composite_loss(layer, None, None, [gts])
    # query 0 covers target 0 exactly; query 2 overlaps target 1 on [0.65, 0.8]
    assert terms["iou"] == pytest.approx((1.0 + 0.15 / 0.25) / 2, abs=1e-12)
    _, [terms] = composite_loss(layer, None, None, [[]])
    assert math.isnan(terms["iou"])


def test_objective_linear_in_weights():
    cw, logits, dn, dn_idx, gts = random_instance(99)
    layer = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    base, _ = composite_loss(layer, T.Tensor(dn), dn_idx, [gts], LossWeights(), [len(dn)])
    doubled, _ = composite_loss(LayerPrediction(T.Tensor(cw), T.Tensor(logits)),
                                T.Tensor(dn), dn_idx, [gts],
                                LossWeights(20.0, 2.0, 8.0, 18.0, 6.0), [len(dn)])
    assert abs(float(doubled.data) - 2 * float(base.data)) < 1e-9


def test_removing_dn_leaves_learnable_terms_unchanged():
    cw, logits, dn, dn_idx, gts = random_instance(17)
    with_dn = composite_loss(LayerPrediction(T.Tensor(cw), T.Tensor(logits)),
                             T.Tensor(dn), dn_idx, [gts], dn_rows=[len(dn)])[1][0]
    without = composite_loss(LayerPrediction(T.Tensor(cw), T.Tensor(logits)),
                             None, None, [gts])[1][0]
    for key in ("span", "giou", "focal"):
        assert with_dn[key] == without[key]


def test_composite_gradient_on_two_query_instance():
    cw, logits, _, _, gts = random_instance(23, n=2, m=1, with_dn=False)
    cw_t, logits_t = T.Tensor(cw, requires_grad=True), T.Tensor(logits, requires_grad=True)

    def build_loss():
        return composite_loss(LayerPrediction(cw_t, logits_t), None, None, [gts])[0]

    assert T.grad_check(build_loss, [cw_t, logits_t], 1e-5) < 1e-4


def test_composite_loss_takes_one_target_list_per_record_and_says_what_was_passed():
    layer = LayerPrediction(T.Tensor(np.tile([[0.5, 0.2]], (4, 1))), T.Tensor(np.zeros((4, 1))))
    for gts, got in (([Interval(0.5, 0.2)], "a list ['Interval']"),
                     ([[], [], []], "a list ['list', 'list', 'list']"),
                     ([], "a list []"), (np.zeros(4), "a ndarray")):
        with pytest.raises(T.ShapeError, match=re.escape(
                f"one target list per record, the records sharing 4 query rows equally; "
                f"got {got}")):
            composite_loss(layer, None, None, gts)
    dn = T.Tensor(np.full((3, 2), 0.5))
    with pytest.raises(T.ShapeError, match=re.escape("dn_rows [2, 0] do not split 3 DN rows")):
        composite_loss(layer, dn, np.zeros(3, int), [[Interval(0.5, 0.2)], []], dn_rows=[2, 0])
    with pytest.raises(T.ShapeError, match=re.escape("dn_rows [0, 0] do not split 3 DN rows")):
        composite_loss(layer, dn, np.zeros(3, int), [[Interval(0.5, 0.2)], []])


def test_weights_validated():
    with pytest.raises(ValueError):
        LossWeights(span=-1.0)


@pytest.mark.parametrize("field, value", [("span", math.nan), ("giou", math.inf),
                                          ("focal", -math.inf), ("dn_giou", math.nan)])
def test_a_loss_weight_that_is_not_finite_is_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"^loss weight {field} must be a finite number >= 0, "
                                         f"got {value}$"):
        LossWeights(**{field: value})


# -- classifier cross-entropy ------------------------------------------------------


def test_cross_entropy_bitwise_equals_the_reference_chain():
    rng = np.random.default_rng(7)
    cases = [(rng.normal(size=5) * 3, int(rng.integers(5))) for _ in range(50)]
    cases.append((np.array([0.0, 40.0, -3.0]), 0))  # p(label) ~ 4e-18: the log clamps
    assert R.softmax(T.Tensor(cases[-1][0])).data[0] < T.LOG_EPS
    for k, (z, y) in enumerate(cases):
        row = z[None, :]  # a micro-batch of one: the head's (1, C)
        results = []
        for loss_fn in (lambda t: cross_entropy(t, [y]),
                        lambda t: R.scale(R.log(R.slice_(R.softmax(t), (0, y))), -1.0)):
            logits = T.Tensor(row, requires_grad=True)
            loss = loss_fn(logits)
            loss.backward()
            results.append((loss.data, logits.grad))
        (value, grad), (ref_value, ref_grad) = results
        assert value.shape == () and grad.shape == row.shape
        assert np.array_equal(value, ref_value) and np.array_equal(grad, ref_grad), k
    assert not grad.any()  # no gradient below the clamp


def test_train_classifier_rejects_bad_labels_naming_the_sample():
    split, prov = small_corpus(n=10)
    samples = split.train[:4]
    last = samples[-1].id
    for labels, match in (([0, 1, 0, -1], f"sample {last}: label -1"),
                          ([0, 1, 0, 2], f"sample {last}: label 2"),
                          ([0, 1, 0], f"sample {last}: no label"),
                          ([0, 1, 0, 1, 1], "5 labels for 4 samples")):
        match = re.escape(match)
        with pytest.raises(ValueError, match=match):
            train_classifier(samples, labels, prov, n_classes=2, epochs=1)
    with pytest.raises(ValueError, match="label 1.0"):  # not an integer class
        train_classifier(samples, [0, 1, 0, 1.0], prov, n_classes=2, epochs=1)


def test_train_classifier_stops_on_non_finite_values_naming_where(monkeypatch):
    split, prov = small_corpus(n=10)
    samples, labels = split.train[:4], [0, 1, 0, 1]
    bad = samples[2].id

    def nan_features(s):
        vec, pos = prov(s)
        if s.id == bad:
            vec = vec.copy()
            vec[0, 0] = np.nan
        return vec, pos

    with pytest.raises(ValueError, match=re.escape(f"record {bad}: non-finite feature values")):
        train_classifier(samples, labels, nan_features, n_classes=2, epochs=1)

    ce = training.cross_entropy

    def nan_loss(logits, label):
        return T.custom(np.nan, (logits,), lambda g: (np.zeros(logits.shape),), "ce")

    monkeypatch.setattr(training, "cross_entropy", nan_loss)
    first = samples[np.random.default_rng(0).permutation(4)[0]].id
    with pytest.raises(NumericalError,
                       match=re.escape(f"non-finite loss on sample {first} at epoch 1")):
        train_classifier(samples, labels, prov, n_classes=2, epochs=1)

    def nan_gradient(logits, label):  # a finite loss whose gradient is not
        loss = ce(logits, label)
        return T.custom(loss.data, (logits,), lambda g: (np.full(logits.shape, np.nan),), "ce")

    monkeypatch.setattr(training, "cross_entropy", nan_gradient)
    with pytest.raises(NumericalError, match="gradient norm at epoch 1, step 1"):
        train_classifier(samples, labels, prov, n_classes=2, epochs=1, batch_size=2)


def test_classify_scores_the_mean_row_of_the_provider_features():
    """The head pools: ``classify`` on a record's features, as the provider
    returns them and as training read them, is the reference chain over
    their mean row."""
    split = synth_generate(SynthSpec(n_texts=12, style="binary", embed_dim=16), seed=1)
    prov = synthetic_provider(split.meta)
    head = train_classifier(split.train, [s.label for s in split.train], prov,
                            hidden=8, n_classes=2, epochs=3, batch_size=4)
    for s in split.train + split.val + split.test:
        vec, _ = prov(s)
        mean_row = R.reshape(R.mean(T.Tensor(vec), axis=0), (1, vec.shape[1]))
        lin1, lin2 = head.mlp.layers
        hidden = T.relu(R.add(R.matmul(mean_row, lin1.weight), lin1.bias))
        logits = R.add(R.matmul(hidden, lin2.weight), lin2.bias)
        assert np.array_equal(head.classify(vec), R.softmax(logits).data[0]), s.id


def _binary_split_with(odd_id, reshape):
    """A 12-text binary split (seed 1, dim 16) whose record `odd_id` gets
    ``reshape(vectors, positions)`` in place of its features."""
    split = synth_generate(SynthSpec(n_texts=12, style="binary", embed_dim=16), seed=1)
    prov = synthetic_provider(split.meta)

    def provide(sample):
        vec, pos = prov(sample)
        return reshape(vec, pos) if sample.id == odd_id else (vec, pos)

    return split.train, [s.label for s in split.train], provide


@pytest.mark.parametrize("reshape, message", [
    (lambda v, p: (v[:0], p[:0]), "record binary-1-00003: empty token sequence"),
    (lambda v, p: (np.hstack([v, v]), p),
     "record binary-1-00003: embedding dim 32 != 16, the width of the first record "
     "binary-1-00000")])
def test_train_classifier_rejects_features_it_cannot_read_before_any_step(
        monkeypatch, reshape, message):
    samples, labels, provide = _binary_split_with("binary-1-00003", reshape)
    steps = []
    monkeypatch.setattr(training.AdamW, "step", lambda self, lr: steps.append(lr))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no mean of an empty slice on the way
        with pytest.raises(ValueError, match=re.escape(message)):
            train_classifier(samples, labels, provide, n_classes=2, epochs=1)
    assert steps == []


@pytest.mark.parametrize("arg, value", [("epochs", 0), ("epochs", -1),
                                        ("batch_size", 0), ("batch_size", -2)])
def test_train_classifier_rejects_epochs_or_batch_size_below_one_before_any_read(
        monkeypatch, arg, value):
    samples, labels, provide = _binary_split_with(None, None)
    reads, steps = [], []
    monkeypatch.setattr(training.AdamW, "step", lambda self, lr: steps.append(lr))
    with pytest.raises(ValueError, match=f"^{arg} must be at least 1, got {value}$"):
        train_classifier(samples, labels, lambda s: reads.append(s.id) or provide(s),
                         n_classes=2, **{arg: value})
    assert reads == [] and steps == []


@pytest.mark.parametrize("field, value, message", [
    ("lr", math.nan, "lr must be a positive finite number, got nan"),
    ("lr", math.inf, "lr must be a positive finite number, got inf"),
    ("lr", -1.0, "lr must be a positive finite number, got -1.0"),
    ("lr", 0.0, "lr must be a positive finite number, got 0.0"),
    ("grad_clip", -0.1, "grad_clip must be a finite number >= 0, got -0.1"),
    ("grad_clip", math.nan, "grad_clip must be a finite number >= 0, got nan"),
    ("grad_clip", math.inf, "grad_clip must be a finite number >= 0, got inf"),
    ("seed", -1, "seed must be at least 0, got -1"),
])
def test_train_config_rejects_an_lr_clip_or_seed_it_cannot_use_naming_the_field(
        field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(**{field: value})
    assert TrainConfig(grad_clip=0.0).grad_clip == 0.0  # 0: never clip


@pytest.mark.parametrize("arg, value, message", [
    ("lr", math.nan, "lr must be a positive finite number, got nan"),
    ("lr", -1e-3, "lr must be a positive finite number, got -0.001"),
    ("seed", -1, "seed must be at least 0, got -1"),
])
def test_train_classifier_rejects_an_lr_or_seed_it_cannot_use_before_any_read(
        monkeypatch, arg, value, message):
    samples, labels, provide = _binary_split_with(None, None)
    reads, steps = [], []
    monkeypatch.setattr(training.AdamW, "step", lambda self, lr: steps.append(lr))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        train_classifier(samples, labels, lambda s: reads.append(s.id) or provide(s),
                         n_classes=2, **{arg: value})
    assert reads == [] and steps == []


def test_record_features_names_the_record_for_every_failure():
    split, prov = small_corpus(n=10)
    s = split.train[0]
    vec, pos = training.record_features(prov, s, replace(CFG, max_tokens=len(prov(s)[0])))
    assert np.array_equal(vec, prov(s)[0]) and np.array_equal(pos, prov(s)[1])

    def failing(exc):
        def provide(sample):
            raise exc
        return provide

    for exc in (ValueError("bad header"), OSError("no such file")):
        with pytest.raises(ValueError, match=re.escape(f"record {s.id}: {exc}")):
            training.record_features(failing(exc), s)
    n = len(vec)
    with pytest.raises(ValueError, match=f"record {s.id}: {n} tokens exceed max_tokens {n - 1}"):
        training.record_features(prov, s, replace(CFG, max_tokens=n - 1))
    for bad in (np.nan, np.inf):
        planted = vec.copy()
        planted[-1, 3] = bad
        with pytest.raises(ValueError, match=f"record {s.id}: non-finite feature values"):
            training.record_features(lambda _: (planted, pos), s)
    wide = lambda _: (np.ones((n, 32)), pos)
    with pytest.raises(ValueError, match=f"record {s.id}: embedding dim 32 != configured "
                                         "d_model 16"):
        training.record_features(wide, s, CFG)
    assert training.record_features(wide, s)[0].shape == (n, 32)  # no config: any width
    for cfg in (CFG, None):  # no config still needs rows
        with pytest.raises(ValueError, match=f"record {s.id}: empty token sequence"):
            training.record_features(lambda _: (np.ones((0, 16)), np.ones(0)), s, cfg)


def test_more_intervals_than_queries_are_rejected_before_the_first_step(monkeypatch):
    spec = SynthSpec(n_texts=20, style="multi", n_sentences=4, words_per_sentence=(2, 4),
                     embed_dim=16)
    split = synth_generate(spec, seed=1)
    over = next(s for s in split.train + split.val if len(s.intervals) > 1)
    steps = []
    monkeypatch.setattr(training.AdamW, "step", lambda self, lr: steps.append(lr))
    with pytest.raises(ValueError, match=f"record {over.id}: {len(over.intervals)} intervals "
                                         "exceed num_queries 1"):
        train(split, synthetic_provider(split.meta), ModelConfig(**SMALL_MODEL),
              TrainConfig(epochs=1, batch_size=4))
    assert steps == []


# -- optimizer and schedule -----------------------------------------------------


def test_adamw_zero_gradient_moves_p_by_the_decay_alone():
    p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW({"p": p})
    p._accumulate(np.zeros(2))  # as backward hands a gradient over: into p's slot
    opt.step(0.1)
    assert np.array_equal(p.data, np.array([1.0, -2.0]) * (1.0 - 0.1 * WEIGHT_DECAY))


def test_adamw_first_step_magnitude_is_lr():
    p = T.Tensor(np.array([0.0]), requires_grad=True)
    opt = AdamW({"p": p})
    p._accumulate(np.array([3.7]))
    opt.step(0.01)
    assert abs(abs(p.data[0]) - 0.01) < 1e-6   # bias-corrected sign step
    assert p.data[0] < 0


def test_adamw_decoupled_decay():
    # the decay scales p and stays out of the moments, which see the raw gradient
    p = T.Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamW({"p": p})
    p._accumulate(np.array([3.7]))
    opt.step(0.1)
    assert abs(p.data[0] - (2.0 * (1 - 0.1 * WEIGHT_DECAY) - 0.1 * 3.7 / (3.7 + ADAM_EPS))) < 1e-12


def test_clip_grad_norm():
    p = T.Tensor(np.array([0.0, 0.0]), requires_grad=True)
    opt = AdamW({"p": p})
    p._accumulate(np.array([3.0, 4.0]))
    total = clip_grad_norm(opt.grad, 0.1)
    assert abs(total - 5.0) < 1e-12
    assert abs(np.linalg.norm(p.grad) - 0.1) < 1e-12


class PerTensorAdamW:
    """The per-tensor AdamW that the flat one replaced, as the reference: a
    loop over the parameters with name-keyed moments, skipping a parameter
    without a gradient."""

    def __init__(self, params):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr):
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


def clip_grad_norm_per_tensor(params, max_norm):
    """The per-tensor clip that the flat one replaced, as the reference."""
    total = math.sqrt(sum(float((p.grad * p.grad).sum())
                          for p in params.values() if p.grad is not None))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return total


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


@pytest.mark.parametrize("seed", range(5))
def test_the_flat_adamw_step_is_bitwise_the_per_tensor_one(seed):
    """Mixed shapes (0-d to 3-d) over four steps; in steps 3 and 4 one
    parameter, which had gradients before, has none: its value, m and v stay
    bitwise as they were, as the per-tensor loop skips it."""
    rng = np.random.default_rng(seed)
    shapes = [(), (1,), (5,), (3, 4), (2, 3, 2), (7, 1)]
    init = {f"p{i}": rng.normal(size=s) for i, s in enumerate(shapes)}
    flat = {k: T.Tensor(a, requires_grad=True) for k, a in init.items()}
    ref = {k: T.Tensor(a, requires_grad=True) for k, a in init.items()}
    opt, ref_opt = AdamW(flat), PerTensorAdamW(ref)
    idle = f"p{rng.integers(len(shapes))}"
    for step, lr in enumerate((1e-3, 0.05, 0.2, 1e-2), start=1):
        opt.zero_grad()
        for k in init:
            ref[k].grad = None
            if step > 2 and k == idle:
                continue
            g = rng.normal(size=shapes[int(k[1:])]) * 10.0 ** rng.integers(-3, 3)
            flat[k]._accumulate(g)  # copied into its slot of opt.grad
            ref[k].grad = g
        at = _offsets(opt, idle)
        kept = [a.copy() for a in (flat[idle].data, opt.m[at], opt.v[at])]
        opt.step(lr)
        ref_opt.step(lr)
        assert np.array_equal(opt.data, _flat(p.data for p in ref.values())), step
        assert np.array_equal(opt.m, _flat(ref_opt.m.values())), step
        assert np.array_equal(opt.v, _flat(ref_opt.v.values())), step
        if step > 2:
            now = (flat[idle].data, opt.m[at], opt.v[at])
            assert all(np.array_equal(a, b) for a, b in zip(now, kept)), step
        for k, p in flat.items():
            assert np.shares_memory(p.data, opt.data) and p.data.shape == shapes[int(k[1:])]


@pytest.mark.parametrize("max_norm", [0.0, 0.1, 1e9])
def test_the_flat_clip_is_the_per_tensor_one_up_to_summation_order(max_norm):
    rng = np.random.default_rng(3)
    grads = {f"p{i}": rng.normal(size=s) for i, s in enumerate([(3, 4), (), (6,), (2, 5)])}
    params = {k: T.Tensor(np.zeros(g.shape), requires_grad=True) for k, g in grads.items()}
    ref = {k: T.Tensor(np.zeros(g.shape), requires_grad=True) for k, g in grads.items()}
    opt = AdamW(params)
    for k, g in grads.items():
        if k != "p2":  # no gradient: a zero slice in the flat vector, skipped by the loop
            params[k]._accumulate(g)
            ref[k].grad = g
    total = clip_grad_norm(opt.grad, max_norm)
    assert math.isclose(total, clip_grad_norm_per_tensor(ref, max_norm), rel_tol=1e-14)
    for k, p in params.items():
        want = np.zeros(grads[k].shape) if ref[k].grad is None else ref[k].grad
        assert np.allclose(opt.grad[_offsets(opt, k)], want.ravel(), rtol=1e-14, atol=0), k
        assert p.grad is None or np.shares_memory(p.grad, opt.grad)


def _offsets(opt, name):
    """`name`'s slice of the optimizer's flat vectors."""
    end = np.cumsum([p.size for p in opt.params.values()])[list(opt.params).index(name)]
    return slice(end - opt.params[name].size, end)


def test_a_parameter_read_three_times_through_concat_ends_with_the_sum_of_its_gradients():
    rng = np.random.default_rng(8)
    w = rng.normal(size=(6, 3))
    for held in (False, True):
        p = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        opt = AdamW({"p": p}) if held else None
        for _ in range(2):  # after zero_grad, the next backward starts afresh
            if held:
                opt.zero_grad()
            else:
                p.zero_grad()
            R.sum_(R.mul(T.concat([p, p, p]), w)).backward()
            assert np.array_equal(p.grad, w[:2] + w[2:4] + w[4:]), held
        assert not held or (np.shares_memory(p.grad, opt.grad)
                            and np.array_equal(opt.grad, p.grad.ravel()))


def test_after_training_each_weight_views_the_optimizer_and_holds_the_best_epoch(monkeypatch,
                                                                                tmp_path):
    """``train`` loads the best epoch's state back into the weights the
    optimizer holds, not into fresh arrays."""
    split, prov = small_corpus(n=24)
    saved = []
    monkeypatch.setattr(_KeptAdamW, "made", [])
    monkeypatch.setattr(training, "AdamW", _KeptAdamW)
    monkeypatch.setattr(training, "save_detector",
                        lambda path, model: saved.append((path.name, model.state())))
    res = train(split, prov, ModelConfig(**SMALL_MODEL),
                TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=0), run_dir=tmp_path)
    assert res.best_epoch == 1 and [name for name, _ in saved] == ["last.npz"] * 3 + ["best.npz"]
    best = saved[res.best_epoch - 1][1]
    opt = _KeptAdamW.made[0]
    for k, p in res.model.parameters().items():
        assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad_slot, opt.grad), k
        assert np.array_equal(p.data, best[k]), k
    assert not np.array_equal(best["class_head.bias"], saved[-2][1]["class_head.bias"])
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


class _KeptAdamW(AdamW):
    """AdamW that keeps each instance in ``made``, for tests to reach the
    optimizer that ``train`` builds."""
    made: list = []

    def __init__(self, params):
        super().__init__(params)
        self.made.append(self)


def test_non_finite_gradient_stops_training_before_the_weights_move(monkeypatch):
    split, prov = small_corpus(n=24)
    seen = {}
    clip = training.clip_grad_norm
    monkeypatch.setattr(_KeptAdamW, "made", [])
    monkeypatch.setattr(training, "AdamW", _KeptAdamW)

    def plant_nan(grad, max_norm):
        seen["params"] = _KeptAdamW.made[0].params
        seen["before"] = {k: p.data.copy() for k, p in seen["params"].items()}
        seen["params"]["class_head.bias"].grad[0] = np.nan  # the loss itself stays finite
        return clip(grad, max_norm)

    monkeypatch.setattr(training, "clip_grad_norm", plant_nan)
    with pytest.raises(NumericalError, match="epoch 1, step 1"):
        train(split, prov, ModelConfig(**SMALL_MODEL),
              TrainConfig(epochs=1, batch_size=8, seed=0))
    for k, p in seen["params"].items():
        assert np.array_equal(p.data, seen["before"][k]), k



def test_planted_nan_detector_loss_names_the_sample_and_the_epoch(monkeypatch):
    split, prov = small_corpus(n=24)
    loss_fn = training.detection_loss
    validated = []

    def nan_on_the_second_epoch(out, gts, weights):
        loss, terms = loss_fn(out, gts, weights)
        if not loss.requires_grad:  # validation closes epoch 1
            validated.append(1)
        elif validated:  # the first micro-batch of epoch 2, led by its first sample
            loss = T.custom(np.nan, (loss,), lambda g: (g,), "nan")
        return loss, terms

    monkeypatch.setattr(training, "detection_loss", nan_on_the_second_epoch)
    # the permutations are the only other draws besides the DN noise, so the
    # second epoch's order is read from a replay of the same stream
    rng = np.random.default_rng(0)
    cfg = ModelConfig(**SMALL_MODEL)
    rng.permutation(len(split.train))
    for s in split.train:
        make_denoising([span_to_cw(sp, len(s.text)) for sp in s.intervals], cfg, rng)
    first = split.train[rng.permutation(len(split.train))[0]].id
    with pytest.raises(NumericalError,
                       match=re.escape(f"non-finite loss on sample {first} at epoch 2")):
        train(split, prov, cfg, TrainConfig(epochs=2, batch_size=8, seed=0))


def test_diverging_run_raises_numerical_error_naming_sample_and_epoch():
    split, prov = small_corpus()
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalError,
                           match=r"non-finite predictions on sample \S+ at epoch \d+$"):
            train(split, prov, ModelConfig(**SMALL_MODEL),
                  TrainConfig(epochs=5, batch_size=8, lr=1e12, seed=0))


def test_nan_weight_stops_validation_naming_the_record_and_epoch(monkeypatch):
    split, prov = small_corpus(n=24)
    step = training.AdamW.step

    def plant_after_the_last_step(self, lr=None):
        step(self, lr)
        if self.t == 2:  # 16 training samples in batches of 8
            self.params["class_head.bias"].data[0] = np.nan

    monkeypatch.setattr(training.AdamW, "step", plant_after_the_last_step)
    with pytest.raises(NumericalError, match=re.escape(
            f"non-finite predictions on validation record {split.val[0].id} at epoch 1")):
        train(split, prov, ModelConfig(**SMALL_MODEL),
              TrainConfig(epochs=1, batch_size=8, seed=0))


@pytest.mark.parametrize("grad_clip", [0.1, 1e9])
def test_log_records_preclip_gradient_norms_and_clip_fraction(monkeypatch, grad_clip):
    split, prov = small_corpus(n=24)
    norms = []
    clip = training.clip_grad_norm

    def record(grad, max_norm):
        norms.append(clip(grad, max_norm))
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
        if result[0].requires_grad:  # a training micro-batch, not validation
            seen.extend(result[1])  # one list of layer terms per sample
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
    out1 = ModelOutput([layer], [], None, [0])
    layer_a = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    layer_b = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
    out2 = ModelOutput([layer_a, layer_b], [], None, [0])
    one, _ = detection_loss(out1, [gts])
    two, _ = detection_loss(out2, [gts])
    assert abs(float(two.data) - 2 * float(one.data)) < 1e-12


# -- micro-batches ---------------------------------------------------------------


def test_micro_batches_keep_order_and_the_row_budget():
    rows = [100, 100, 60, 300, 10, 250, 6, 140, 110]
    runs = training.micro_batches([0, 1, 2, 3, 4, 5, 6, 7, 8], rows)
    assert runs == [[0, 1], [2], [3], [4], [5, 6], [7, 8]]
    assert training.micro_batches([8, 2, 6, 1], rows) == [[8, 2, 6], [1]]
    assert training.micro_batches(np.array([3]), rows) == [[3]]  # longer than the budget: alone
    assert [len(r) for r in training.micro_batches(range(9), [1] * 9)] == [9]


@settings(max_examples=200)
@given(st.lists(st.integers(1, 2 * training.MICRO_BATCH_ROWS), max_size=30).flatmap(
    lambda rows: st.tuples(st.just(rows), st.permutations(range(len(rows))))))
def test_generated_micro_batches_keep_order_the_budget_and_every_index_once(case):
    rows, idxs = case
    runs = training.micro_batches(idxs, rows)
    assert [i for run in runs for i in run] == list(idxs)  # in order, each once
    for run in runs:
        assert run and (len(run) == 1 or sum(rows[i] for i in run) <= training.MICRO_BATCH_ROWS)
        if any(rows[i] > training.MICRO_BATCH_ROWS for i in run):
            assert len(run) == 1  # an over-budget record runs alone
    for run, after in zip(runs, runs[1:]):  # a run ends only where the next record would overflow
        assert sum(rows[i] for i in run) + rows[after[0]] > training.MICRO_BATCH_ROWS


def _micro_batch_case(seed):
    """Five records of uneven length with 2, 0, 3, 1 and 0 targets (a record
    without targets draws no DN rows), their DN draws in record order, and a
    model with 3 queries and DN on."""
    cfg = ModelConfig(d_model=16, hidden=16, heads=4, ffn_mult=2, enc_layers=2,
                      dec_layers=2, num_queries=3, max_tokens=64, dn_groups=2)
    rng = np.random.default_rng(seed)
    records = []
    for n, m in zip((9, 23, 4, 31, 15), (2, 0, 3, 1, 0)):
        w = rng.uniform(0.05, 0.3, size=m)
        gts = [Interval(rng.uniform(x / 2, 1 - x / 2), x) for x in w]
        records.append((rng.normal(size=(n, 16)), np.sort(rng.uniform(size=n)), gts))
    dn_rng = np.random.default_rng(seed + 100)
    dnbs = [make_denoising(gts, cfg, dn_rng) for _, _, gts in records]
    return training.DetectionModel(cfg, seed=seed), records, dnbs


def _close(a, b, tol=1e-10):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= tol * max(
        1.0, np.abs(b).max(initial=0.0))


@pytest.mark.parametrize("seed", range(3))
def test_a_micro_batched_step_matches_per_record_steps(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, records, dnbs = _micro_batch_case(seed)
        params = model.parameters()
        nq = model.cfg.num_queries
        singles, losses, terms = [], [], []
        for (vec, pos, gts), dnb in zip(records, dnbs):
            out = model.forward([vec], [pos], [dnb])
            loss, [layer_terms] = detection_loss(out, [gts])
            loss.backward()  # summed over the records, as a step sums them
            singles.append(out)
            losses.append(float(loss.data))
            terms.append(layer_terms)
        want = {k: p.grad.copy() for k, p in params.items()}

        model.zero_grad()
        out = model.forward([r[0] for r in records], [r[1] for r in records], dnbs)
        loss, batch_terms = detection_loss(out, [r[2] for r in records])
        loss.backward()
    assert out.dn_rows == [0 if d is None else len(d.anchors) for d in dnbs]
    assert out.dn_rows[1] == out.dn_rows[4] == 0
    for li, layer in enumerate(out.layers):
        for r, one in enumerate(singles):
            rows = slice(r * nq, (r + 1) * nq)
            assert _close(layer.cw.data[rows], one.layers[li].cw.data)
            assert _close(layer.logits.data[rows], one.layers[li].logits.data)
        assert _close(out.dn_layers[li].data,
                      np.concatenate([o.dn_layers[li].data for o in singles if o.dn_layers]))
    assert _close(float(loss.data), sum(losses))
    assert len(batch_terms) == len(records)
    for got, ref in zip(batch_terms, terms):
        for g, w in zip(got, ref):
            assert set(g) == set(w)
            for key in w:
                assert (math.isnan(g[key]) and math.isnan(w[key])) or _close(g[key], w[key]), key
    for k, p in params.items():
        assert _close(p.grad, want[k]), k


@given(st.lists(st.tuples(st.integers(1, 20), st.integers(0, 3)), min_size=1, max_size=4),
       st.integers(0, 5), st.integers(0, 2 ** 16))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_generated_micro_batches_match_their_records_alone(shapes, dn_groups, seed):
    """1-4 records of 1-20 tokens and 0-3 targets, DN groups 0-5: each record's
    rows and keys of the micro-batch's DN mask are its one-record mask, and the
    micro-batch's outputs, loss terms and gradients are the per-record ones."""
    cfg = ModelConfig(d_model=8, hidden=8, heads=2, ffn_mult=2, enc_layers=1, dec_layers=2,
                      num_queries=3, max_tokens=20, dn_groups=dn_groups)
    rng = np.random.default_rng(seed)
    records = []
    for n, m in shapes:
        w = rng.uniform(0.05, 0.3, size=m)
        records.append((rng.normal(size=(n, 8)), np.sort(rng.uniform(size=n)),
                        [Interval(rng.uniform(x / 2, 1 - x / 2), x) for x in w]))
    dnbs = [make_denoising(gts, cfg, rng) for _, _, gts in records]
    b, nq = len(records), cfg.num_queries

    live = [d for d in dnbs if d is not None]
    mask = dn_attention_mask(b * nq, live) if live else None
    off = 0
    for r, d in enumerate(dnbs):
        if d is not None:
            rows = np.arange(off, off + len(d.anchors))
            keys = np.r_[r * nq:(r + 1) * nq, b * nq + rows]
            assert np.array_equal(mask[rows][:, keys], dn_attention_mask(nq, [d]))
            off += len(d.anchors)

    model = training.DetectionModel(cfg, seed=seed % 5)
    singles, terms = [], []
    for (vec, pos, gts), dnb in zip(records, dnbs):
        out = model.forward([vec], [pos], [dnb])
        loss, [layer_terms] = detection_loss(out, [gts])
        loss.backward()  # summed over the records, as a step sums them
        singles.append(out)
        terms.append(layer_terms)
    want = {k: p.grad for k, p in model.parameters().items()}
    model.zero_grad()
    out = model.forward([r[0] for r in records], [r[1] for r in records], dnbs)
    loss, batch_terms = detection_loss(out, [r[2] for r in records])
    loss.backward()

    for li, layer in enumerate(out.layers):
        assert _close(layer.cw.data, np.concatenate([o.layers[li].cw.data for o in singles]))
        assert _close(layer.logits.data,
                      np.concatenate([o.layers[li].logits.data for o in singles]))
        if live:
            assert _close(out.dn_layers[li].data, np.concatenate(
                [o.dn_layers[li].data for o in singles if o.dn_layers]))
    for got, ref in zip(batch_terms, terms, strict=True):
        for g, w in zip(got, ref, strict=True):
            for key in w:
                assert (math.isnan(g[key]) and math.isnan(w[key])) or _close(g[key], w[key]), key
    for k, p in model.parameters().items():
        assert (p.grad is None) == (want[k] is None), k
        assert p.grad is None or _close(p.grad, want[k]), k


def test_a_micro_batched_classifier_step_matches_per_record_steps():
    rng = np.random.default_rng(5)
    head = training.ClassifierHead(16, 8, 3, seed=2)
    feats = [rng.normal(size=(n, 16)) for n in (7, 2, 19, 11)]
    labels = [2, 0, 1, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        singles, total = [], 0.0
        for v, y in zip(feats, labels):
            logits = head.logits([v])
            loss = cross_entropy(logits, [y])
            loss.backward()
            singles.append(logits.data[0])
            total += float(loss.data)
        want = {k: p.grad.copy() for k, p in head.parameters().items()}
        head.zero_grad()
        logits = head.logits(feats)
        loss = cross_entropy(logits, labels)
        loss.backward()
    assert _close(logits.data, np.stack(singles))
    assert _close(float(loss.data), total)
    for k, p in head.parameters().items():
        assert _close(p.grad, want[k]), k


def test_denoising_is_drawn_per_record_in_permutation_order(monkeypatch):
    split, prov = small_corpus(n=24)
    cfg = ModelConfig(**SMALL_MODEL)
    drawn = []
    draw = training.make_denoising

    def spy(gts, cfg_, rng):
        dnb = draw(gts, cfg_, rng)
        drawn.append((gts, None if dnb is None else dnb.anchors))
        return dnb

    monkeypatch.setattr(training, "make_denoising", spy)
    train(split, prov, cfg, TrainConfig(epochs=2, batch_size=8, seed=4))
    rng = np.random.default_rng(4)  # the permutations, then each record's draws in order
    replay = []
    for _ in range(2):
        for i in rng.permutation(len(split.train)):
            s = split.train[i]
            gts = [span_to_cw(sp, len(s.text)) for sp in s.intervals]
            dnb = draw(gts, cfg, rng)
            replay.append((gts, None if dnb is None else dnb.anchors))
    assert len(drawn) == len(replay)
    for (g1, a1), (g2, a2) in zip(drawn, replay):
        assert g1 == g2 and (a1 is None) == (a2 is None)
        assert a1 is None or np.array_equal(a1, a2)


def test_each_epoch_logs_its_micro_batch_count(monkeypatch, tmp_path):
    split, prov = small_corpus(n=40)
    forward = training.DetectionModel.forward
    taped = []

    def spy(self, v, p, dn=None):
        if dn is not None:  # a training micro-batch, not validation
            taped.append(len(v))
        return forward(self, v, p, dn)

    monkeypatch.setattr(training.DetectionModel, "forward", spy)
    cfg = ModelConfig(**SMALL_MODEL)
    res = train(split, prov, cfg, TrainConfig(epochs=2, batch_size=8, seed=0),
                run_dir=tmp_path)
    lines = [json.loads(x) for x in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    counts = [rec["micro_batches"] for rec in res.log]
    assert counts == [rec["micro_batches"] for rec in lines]
    assert sum(counts) == len(taped) and sum(taped) == 2 * len(split.train)
    rows = [len(prov(s)[0]) for s in split.train]
    rng = np.random.default_rng(0)
    want = []
    for _ in range(2):
        order = rng.permutation(len(split.train))
        want.append(sum(len(training.micro_batches(order[b:b + 8], rows))
                        for b in range(0, len(order), 8)))
        for i in order:  # the DN draws between the permutations
            s = split.train[i]
            make_denoising([span_to_cw(sp, len(s.text)) for sp in s.intervals], cfg, rng)
    assert counts == want


def test_fit_names_the_record_of_its_micro_batch_that_failed():
    ids = ["a", "b", "c", "d"]
    rows = [10, 10, 10, 10]  # one micro-batch per step of 4

    def run(batch_loss):
        p = T.Tensor(np.zeros(1), requires_grad=True)
        fit = training._fit(AdamW({"p": p}), np.random.default_rng(0), ids, rows,
                            1, 4, batch_loss, lambda step: 0.1, 0.0)
        return next(fit)

    order = [ids[i] for i in np.random.default_rng(0).permutation(4)]

    def bad_prediction(mb):
        raise NumericalError("non-finite predictions", record=2)

    with pytest.raises(NumericalError, match=f"non-finite predictions on sample {order[2]} "
                                             "at epoch 1$"):
        run(bad_prediction)
    for losses, named in (([1.0, 2.0, np.nan, 1.0], order[2]), ((), order[0])):
        with pytest.raises(NumericalError, match=f"non-finite loss on sample {named} at epoch"):
            run(lambda mb: (T.Tensor(np.nan), losses))


def test_non_finite_predictions_carry_the_record_of_the_micro_batch():
    cw = np.tile([[0.5, 0.2]], (6, 1))
    cw[4] = np.nan  # the second query row of the third record
    layer = LayerPrediction(T.Tensor(cw), T.Tensor(np.zeros((6, 1))))
    with pytest.raises(NumericalError, match="^non-finite predictions$") as err:
        composite_loss(layer, None, None, [[], [Interval(0.5, 0.2)], []], dn_rows=[0, 0, 0])
    assert err.value.record == 2
