"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The gradient-fidelity sweep
spends its 100 seeds on the per-primitive checks and verifies the full
2-token/1-query model on a handful of seeds so the whole criterion stays
inside its runtime budget; every check uses double precision and the 1e-4
relative tolerance throughout.
"""

import filecmp
import itertools
import json
import math
import time

import numpy as np
import pytest

from grad_cases import GRAD_CASES, make_aux
from oracles import random_instance, reference_objective

from spandet import tensor as T
from spandet import training
from spandet.cli import main as cli_main
from spandet.data import (SynthSpec, split_sentences, synth_generate,
                          synthetic_provider)
from spandet.geometry import (CharSpan, Interval, cw_to_span, giou_1d, iou_1d,
                              span_to_cw)
from spandet.matching import hungarian
from spandet.metrics import (boundary_suite, classification_suite, f1_at_k,
                             interval_to_sentence, kappa, overlap_labels,
                             snap_boundaries, snap_endpoint)
from spandet.model import (DetectionModel, LayerPrediction, ModelConfig,
                           ModelOutput, load_detector)
from spandet.training import (LossWeights, TrainConfig, composite_loss,
                              detection_loss, make_denoising, train,
                              train_classifier)

TOL = 1e-4


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -- 1: gradient fidelity --------------------------------------------------------


def test_c01_gradient_fidelity():
    start = time.time()
    worst_op = 0.0
    for name, fn in GRAD_CASES.items():
        for seed in range(100):
            aux = make_aux(seed)
            x = T.Tensor(aux["x"], requires_grad=True)
            err = T.grad_check(lambda: fn(x, aux), [x], 1e-5)
            worst_op = max(worst_op, err)
            assert err < TOL, f"{name} seed {seed}: {err:.2e}"

    cfg = ModelConfig(d_model=4, hidden=8, heads=2, ffn_mult=2, enc_layers=1,
                      dec_layers=1, num_queries=1, max_tokens=8, dn_groups=1,
                      dn_center_noise=0.2, dn_width_noise=0.2)
    worst_model = 0.0
    checked = 0
    seed = 0
    while checked < 3:
        seed += 1
        rng = np.random.default_rng(100 + seed)
        vec = rng.normal(size=(2, 4))
        pos = np.array([0.25, 0.75])
        w = rng.uniform(0.15, 0.4)
        gts = [Interval(rng.uniform(w / 2, 1 - w / 2), w)]
        model = DetectionModel(cfg, seed=seed)
        dnb = make_denoising(gts, cfg, np.random.default_rng(seed))

        def build_loss():
            return detection_loss(model.forward(vec, pos, dnb), gts)[0]

        if _min_kink_distance(build_loss) < 1e-3:
            continue  # relu/abs/max within the straddle window: redraw
        err = T.grad_check(build_loss, list(model.parameters().values()), 1e-5)
        worst_model = max(worst_model, err)
        checked += 1
        assert err < TOL, f"model seed {seed}: {err:.2e}"

    elapsed = time.time() - start
    report(1, "gradient fidelity", worst_op < TOL and worst_model < TOL and elapsed < 120,
           f"(ops {worst_op:.2e}, model {worst_model:.2e}, {elapsed:.0f}s)")


def _min_kink_distance(fn):
    """Distance of the closest relu/abs/max/min argument from its kink during
    one evaluation; finite differences are only meaningful away from kinks.
    The objective's kinks count too: its |pred - target| coordinates, the
    endpoint ties of gIoU's min/max, and the intersection at 0."""
    dist = [np.inf]
    orig = {"relu": T.relu, "abs_": T.abs_, "maximum": T.maximum, "minimum": T.minimum,
            "pairs": training.span_l1_giou}

    def unary_spy(name):
        def spy(a):
            dist[0] = min(dist[0], float(np.abs(a.data).min()))
            return orig[name](a)
        return spy

    def binary_spy(name):
        def spy(a, b):
            bd = b.data if isinstance(b, T.Tensor) else np.asarray(b, dtype=np.float64)
            dist[0] = min(dist[0], float(np.abs(a.data - bd).min()))
            return orig[name](a, b)
        return spy

    def pairs_spy(a, b):
        ax1, ax2 = a[:, 0] - a[:, 1] * 0.5, a[:, 0] + a[:, 1] * 0.5
        bx1, bx2 = b[:, 0] - b[:, 1] * 0.5, b[:, 0] + b[:, 1] * 0.5
        inter = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
        for gap in (a - b, ax1 - bx1, ax2 - bx2, inter):
            dist[0] = min(dist[0], float(np.abs(gap).min()))
        return orig["pairs"](a, b)

    T.relu, T.abs_ = unary_spy("relu"), unary_spy("abs_")
    T.maximum, T.minimum = binary_spy("maximum"), binary_spy("minimum")
    training.span_l1_giou = pairs_spy
    try:
        fn()
    finally:
        T.relu, T.abs_ = orig["relu"], orig["abs_"]
        T.maximum, T.minimum = orig["maximum"], orig["minimum"]
        training.span_l1_giou = orig["pairs"]
    return dist[0]


# -- 2: matching oracle -----------------------------------------------------------


def test_c02_matching_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, n + 1))
        cost = rng.normal(size=(n, m)) * float(rng.choice([0.5, 1.0, 10.0]))
        got = hungarian(cost)
        best, best_pairs = math.inf, None
        for perm in itertools.permutations(range(n), m):
            tot = sum(cost[perm[j], j] for j in range(m))
            if tot < best:
                best, best_pairs = tot, [(perm[j], j) for j in range(m)]
        assert got == best_pairs, f"trial {trial}"
        assert sum(cost[i, j] for i, j in got) == pytest.approx(best, abs=1e-12)
    elapsed = time.time() - start
    report(2, "matching equals exhaustive search", elapsed < 10,
           f"(200 matrices, {elapsed:.1f}s)")


# -- 3: geometry algebra -----------------------------------------------------------


def test_c03_geometry_algebra():
    for text_len in range(1, 30):
        for x1 in range(text_len):
            for x2 in range(x1 + 1, text_len + 1):
                sp = CharSpan(x1, x2)
                assert cw_to_span(span_to_cw(sp, text_len), text_len) == sp
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        w1, w2 = rng.uniform(0.01, 1.0, size=2)
        a = Interval(rng.uniform(w1 / 2, 1 - w1 / 2), w1)
        b = Interval(rng.uniform(w2 / 2, 1 - w2 / 2), w2)
        gi, io = giou_1d(a, b), iou_1d(a, b)
        assert gi <= io + 1e-12
        assert -1.0 < gi <= 1.0
        assert gi == pytest.approx(giou_1d(b, a), abs=1e-12)
        assert io == pytest.approx(iou_1d(b, a), abs=1e-12)
    report(3, "geometry algebra", True,
           "(exhaustive round-trips to length 29, 10k random pairs)")


# -- 4: objective oracle ------------------------------------------------------------


def test_c04_objective_oracle():
    lw = LossWeights()
    assert (lw.span, lw.giou, lw.focal, lw.dn_span, lw.dn_giou) == (10.0, 1.0, 4.0, 9.0, 3.0)
    worst = 0.0
    for seed in range(50):
        cw, logits, dn, dn_idx, gts = random_instance(seed, n=3, m=2)
        layer = LayerPrediction(T.Tensor(cw), T.Tensor(logits))
        total, _ = composite_loss(layer, T.Tensor(dn), dn_idx, gts, lw)
        want = reference_objective([tuple(r) for r in cw], list(logits),
                                   [tuple(r) for r in dn], dn_idx,
                                   [(g.c, g.w) for g in gts], lw)
        worst = max(worst, abs(float(total.data) - want))
    report(4, "objective matches independent reference", worst < 1e-9,
           f"(50 instances, max dev {worst:.1e})")


# -- 5: denoising-mask invariance -----------------------------------------------------


def test_c05_denoising_invariance():
    cfg = ModelConfig(d_model=16, hidden=16, heads=4, ffn_mult=2, enc_layers=1,
                      dec_layers=2, num_queries=2, max_tokens=64)
    model = DetectionModel(cfg, seed=6)
    rng = np.random.default_rng(12)
    vec = rng.normal(size=(9, 16))
    pos = np.linspace(0.05, 0.95, 9)
    gts = [Interval(0.3, 0.25), Interval(0.75, 0.2)]

    outputs = {}
    grads = {}
    for groups in (0, 1, 5):
        gcfg = ModelConfig(**{**vars(cfg), "dn_groups": groups})
        dnb = make_denoising(gts, gcfg, np.random.default_rng(groups))
        out = model.forward(vec, pos, dnb)
        outputs[groups] = [(l.cw.data.copy(), l.logits.data.copy()) for l in out.layers]
        # gradients of the learnable-query terms only
        learnable_only = ModelOutput(out.layers, [], None)
        loss, _ = detection_loss(learnable_only, gts)
        model.zero_grad()
        loss.backward()
        grads[groups] = {k: (None if p.grad is None else p.grad.copy())
                         for k, p in model.parameters().items()}

    ref_out, ref_grad = outputs[0], grads[0]
    for groups in (1, 5):
        for (cw_a, lg_a), (cw_b, lg_b) in zip(ref_out, outputs[groups]):
            assert np.array_equal(cw_a, cw_b) and np.array_equal(lg_a, lg_b)
        for k in ref_grad:
            a, b = ref_grad[k], grads[groups][k]
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b), k
    report(5, "denoising-mask invariance", True,
           "(outputs and learnable-loss gradients bitwise equal for 0/1/5 groups)")


# -- 6: metric upper bounds -------------------------------------------------------------


def test_c06_metric_upper_bounds():
    # a top-3 boundary method: all true boundaries found, padded to 3 candidates
    for n_gt, ideal in [(1, 0.5), (2, 0.8), (3, 1.0)]:
        gt = [100 * (i + 1) for i in range(n_gt)]
        candidates = [(b, 0.9) for b in gt]
        filler = 77
        while len(candidates) < 3:
            candidates.append((filler, 0.1))
            filler += 7
        got = f1_at_k(candidates, gt, 3)
        assert got == pytest.approx(ideal, abs=1e-12), f"{n_gt} boundaries: {got}"

    labels = [0, 1, 2, 2, 1, 0, 1]
    assert kappa(labels, list(labels)) == 1.0

    gt_b = [3, 5, 7, 2]
    off_by_one = [4, 4, 8, 1]
    suite = boundary_suite(off_by_one, gt_b)
    assert suite["soft_acc1"] == 1.0 and suite["acc"] == 0.0
    report(6, "metric upper bounds", True,
           "(F1@3 = 0.5/0.8/1.0, kappa = 1, SoftAcc1 = 1)")


# -- 7: post-processing rules -------------------------------------------------------------


def _fixture_sentences(seed):
    """A 500-char text layout: sentence spans with single-char gaps."""
    rng = np.random.default_rng(seed)
    starts = [0]
    while True:
        nxt = starts[-1] + int(rng.integers(25, 95))
        if nxt >= 460:
            break
        starts.append(nxt)
    text_len = 500
    sents = [CharSpan(a, b - 1) for a, b in zip(starts, starts[1:] + [text_len + 1])]
    return sents, starts, text_len


def test_c07_postprocessing_rules():
    for seed in range(5):
        sents, starts, text_len = _fixture_sentences(seed)

        for t in range(text_len):
            # sentence-index rule, re-derived directly
            idx = None
            for i, sp in enumerate(sents):
                if sp.x1 <= t < sp.x2:
                    idx = i
            if idx is None:
                idx = min(range(len(sents)),
                          key=lambda i: (sents[i].x1 - t if t < sents[i].x1
                                         else t - (sents[i].x2 - 1)))
            sp = sents[idx]
            want_idx = idx + (1 if t >= (sp.x1 + sp.x2 - 1) / 2 else 0)
            assert interval_to_sentence(t, sents) == want_idx

            # boundary-snap rule, re-derived directly
            bounds = starts + [text_len]
            i = 0
            while i + 1 < len(bounds) - 1 and bounds[i + 1] <= t:
                i += 1
            b = bounds[i] if t < (bounds[i] + bounds[i + 1]) / 2 else bounds[i + 1]
            want_b = None if b in (bounds[0], text_len) else b
            assert snap_endpoint(t, sents, text_len) == want_b

        # full-text interval: both endpoints removed
        assert snap_boundaries([CharSpan(0, text_len)], sents, text_len) == []

        # overlap labeling: every start x sampled widths, vs direct fractions
        for width in (1, 10, 43, 120, 499):
            for x1 in range(0, text_len - width, 7):
                iv = CharSpan(x1, x1 + width)
                got = overlap_labels(sents, [iv], threshold=0.94)
                for s, lab in zip(sents, got):
                    o = max(0, min(s.x2, iv.x2) - max(s.x1, iv.x1)) / (s.x2 - s.x1)
                    want = 1 if o > 0.94 else (0 if o == 0 else 2)
                    assert lab == want
    report(7, "post-processing rules", True,
           "(5 layouts x 500 endpoint positions, all rules re-derived)")


# -- 8: end-to-end learning ------------------------------------------------------------


MODEL_KW = dict(d_model=32, hidden=32, heads=4, ffn_mult=4, enc_layers=3,
                dec_layers=3, num_queries=1, max_tokens=128, dn_groups=5)


def _boundary_eval(model, samples, provider):
    preds, gts = [], []
    for s in samples:
        vec, pos = provider(s)
        p = model.predict(vec, pos)
        best = int(np.argmax(p.scores))
        span = cw_to_span(p.intervals[best], len(s.text))
        sents = s.sentence_offsets or split_sentences(s.text)
        preds.append(interval_to_sentence(span.x1, sents))
        gts.append(interval_to_sentence(s.intervals[0].x1, sents))
    return boundary_suite(preds, gts)


def test_c08_end_to_end_learning():
    start = time.time()
    split = synth_generate(SynthSpec(n_texts=2000, signal=5.0, embed_dim=32), seed=7)
    provider = synthetic_provider(split.meta)
    res = train(split, provider, ModelConfig(**MODEL_KW),
                TrainConfig(epochs=8, batch_size=32, lr=3e-4, seed=0))
    suite = _boundary_eval(res.model, split.test, provider)

    control_split = synth_generate(
        SynthSpec(n_texts=600, signal=0.0, embed_dim=32), seed=7)
    control_provider = synthetic_provider(control_split.meta)
    control = train(control_split, control_provider, ModelConfig(**MODEL_KW),
                    TrainConfig(epochs=2, batch_size=32, lr=3e-4, seed=0))
    control_suite = _boundary_eval(control.model, control_split.test, control_provider)
    chance = 0.1   # boundaries uniform over 10 sentences

    elapsed = time.time() - start
    ok = (suite["acc"] >= 0.90 and suite["mse"] <= 0.5
          and abs(control_suite["acc"] - chance) <= 0.1 and elapsed < 900)
    report(8, "end-to-end learning", ok,
           f"(acc {suite['acc']:.3f}, mse {suite['mse']:.3f}, "
           f"control acc {control_suite['acc']:.3f} vs chance {chance}, {elapsed:.0f}s)")


# -- 9: reproducibility -----------------------------------------------------------------


def test_c09_reproducibility(tmp_path):
    split = synth_generate(SynthSpec(n_texts=40, n_sentences=4,
                                     words_per_sentence=(2, 4), embed_dim=16), seed=5)
    provider = synthetic_provider(split.meta)
    cfg = ModelConfig(d_model=16, hidden=16, heads=4, ffn_mult=2, enc_layers=1,
                      dec_layers=1, num_queries=1, max_tokens=48, dn_groups=2)
    tcfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=9)
    runs = []
    for name in ("r1", "r2"):
        runs.append(train(split, provider, cfg, tcfg, run_dir=tmp_path / name))
    assert (tmp_path / "r1" / "metrics.jsonl").read_bytes() == \
        (tmp_path / "r2" / "metrics.jsonl").read_bytes()
    s1, s2 = runs[0].model.state(), runs[1].model.state()
    assert set(s1) == set(s2)
    assert all(np.array_equal(s1[k], s2[k]) for k in s1)
    m1 = load_detector(tmp_path / "r1" / "best.npz").state()
    m2 = load_detector(tmp_path / "r2" / "best.npz").state()
    assert all(np.array_equal(m1[k], m2[k]) for k in m1)

    # generation and conversion commands are byte-deterministic
    for name in ("ga", "gb"):
        assert cli_main(["generate", "--n", "15", "--sentences", "4", "--seed", "3",
                         "--out", str(tmp_path / name)]) == 0
    names = sorted(p.name for p in (tmp_path / "ga").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "ga", tmp_path / "gb",
                                               names, shallow=False)
    assert not mismatch and not errors
    src = tmp_path / "roft_src.jsonl"
    src.write_text(json.dumps({"sentences": [f"w {i} q." for i in range(10)],
                               "boundary": 4}) + "\n")
    for name in ("ca.jsonl", "cb.jsonl"):
        assert cli_main(["convert", "--format", "roft", "--input", str(src),
                         "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "ca.jsonl").read_bytes() == (tmp_path / "cb.jsonl").read_bytes()
    report(9, "reproducibility", True,
           "(identical logs/checkpoints; byte-identical generate/convert)")


# -- 10: classification head ---------------------------------------------------------------


def test_c10_classification_head():
    split = synth_generate(SynthSpec(n_texts=400, style="binary", signal=5.0,
                                     embed_dim=32), seed=13)
    provider = synthetic_provider(split.meta)
    head = train_classifier(split.train, [s.label for s in split.train],
                            provider, hidden=32, n_classes=2, epochs=15,
                            batch_size=16, lr=1e-3, seed=0)

    from spandet.textproc import append_mean_cls
    scores, labels = [], []
    for s in split.test:
        vec, _ = provider(s)
        probs = head.classify(append_mean_cls(vec))
        scores.append(float(probs[1]))
        labels.append(s.label)
    suite = classification_suite(scores, labels)

    # rank-based AUROC equals the brute-force pairwise oracle exactly
    rng = np.random.default_rng(4)
    oracle_ok = True
    for _ in range(20):
        n = int(rng.integers(5, 200))
        sc = np.round(rng.uniform(size=n), 2)
        lb = rng.integers(0, 2, size=n)
        if lb.min() == lb.max():
            lb[0] = 1 - lb[0]
        pos, neg = sc[lb == 1], sc[lb == 0]
        want = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg) / (len(pos) * len(neg))
        got = classification_suite(sc, lb)["auroc"]
        oracle_ok = oracle_ok and (got == want)

    ok = suite["acc"] >= 0.95 and suite["auroc"] >= 0.98 and oracle_ok
    report(10, "classification head", ok,
           f"(acc {suite['acc']:.3f}, auroc {suite['auroc']:.3f}, "
           f"pairwise oracle exact: {oracle_ok})")
