import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spandet.data import (LABEL_HUMAN, LABEL_MACHINE, LABEL_MIXED, SynthSpec,
                          synth_generate)
from spandet.files import write_json
from spandet.geometry import CharSpan
from spandet.metrics import (auroc, boundary_suite, classification_suite,
                             co2_estimate, evaluate_detection, f1_at_k,
                             interval_to_sentence, kappa, overlap_labels,
                             snap_boundaries, snap_endpoint)

from oracles import reference_sentence_index, reference_snap_endpoint

SENTENCES = [CharSpan(0, 100), CharSpan(101, 200), CharSpan(201, 300)]


def test_interval_to_sentence_midpoint_rule():
    sents = [CharSpan(0, 100)]                  # chars 0..99, midpoint 49.5
    assert interval_to_sentence(60, sents) == 1
    assert interval_to_sentence(0, sents) == 0
    assert interval_to_sentence(49, sents) == 0


def test_interval_to_sentence_exact_midpoint_goes_up():
    sents = [CharSpan(0, 100)]                  # integer midpoint at (0+99)/2=49.5
    assert interval_to_sentence(50, sents) == 1
    sents2 = [CharSpan(0, 101)]                 # midpoint exactly 50
    assert interval_to_sentence(50, sents2) == 1


def test_interval_to_sentence_outside_goes_to_nearest():
    assert interval_to_sentence(100, SENTENCES) == 1   # gap char, nearest is s1
    assert interval_to_sentence(0, SENTENCES) == 0


@st.composite
def sentence_layouts(draw):
    """Sorted, disjoint sentences with gaps of 0-3 characters (touching
    included) and lengths from 1, then a tail of 0-3 characters."""
    sents, pos = [], 0
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6)),
                                     min_size=1, max_size=8)):
        sents.append(CharSpan(pos + gap, pos + gap + length))
        pos = sents[-1].x2
    return sents, pos + draw(st.integers(0, 3))


@settings(max_examples=400)
@given(sentence_layouts(), st.data())
def test_sentence_index_and_snap_equal_the_scan_and_nearest_derivation(layout, data):
    sents, text_len = layout
    for t in range(text_len + 3):
        assert interval_to_sentence(t, sents) == reference_sentence_index(t, sents)
    ends = data.draw(st.lists(st.tuples(st.integers(0, text_len - 1), st.integers(1, text_len)),
                              max_size=4))
    spans = [CharSpan(min(a, b - 1), max(a + 1, b)) for a, b in ends]
    want = {reference_snap_endpoint(p, sents, text_len) for sp in spans for p in (sp.x1, sp.x2)}
    assert snap_boundaries(spans, sents, text_len) == sorted(want - {None})


def test_overlap_labels_rules():
    sents = [CharSpan(0, 50)]
    assert overlap_labels(sents, [CharSpan(0, 50)]) == [LABEL_MACHINE]
    assert overlap_labels(sents, []) == [LABEL_HUMAN]
    assert overlap_labels(sents, [CharSpan(0, 30)]) == [LABEL_MIXED]   # o = 0.6


def test_overlap_threshold_is_strict():
    sents = [CharSpan(0, 100)]
    assert overlap_labels(sents, [CharSpan(0, 94)]) == [LABEL_MIXED]    # o = 0.94
    assert overlap_labels(sents, [CharSpan(0, 95)]) == [LABEL_MACHINE]  # o = 0.95
    assert overlap_labels(sents, [CharSpan(0, 94)], threshold=0.5) == [LABEL_MACHINE]


def test_overlap_counts_union_not_sum():
    sents = [CharSpan(0, 100)]
    labels = overlap_labels(sents, [CharSpan(0, 60), CharSpan(40, 80)])
    assert labels == [LABEL_MIXED]              # union covers 80, not 100


def test_overlap_monotone_under_enlargement():
    rng = np.random.default_rng(0)
    sents = [CharSpan(0, 40), CharSpan(41, 90), CharSpan(91, 140)]
    for _ in range(200):
        x1 = int(rng.integers(0, 139))
        x2 = int(rng.integers(x1 + 1, 141))
        small = overlap_labels(sents, [CharSpan(x1, x2)])
        grown = overlap_labels(sents, [CharSpan(max(0, x1 - 5), min(140, x2 + 5))])
        for a, b in zip(small, grown):
            if a == LABEL_MACHINE:
                assert b == LABEL_MACHINE
            if a == LABEL_MIXED:
                assert b != LABEL_HUMAN


def test_snap_full_text_interval_has_no_boundaries():
    assert snap_boundaries([CharSpan(0, 300)], SENTENCES, 300) == []


def test_snap_second_half_goes_to_next_start():
    # sentence 0 occupies [0, 101) in start-to-start terms; 80 is past midpoint 50.5
    assert snap_endpoint(80, SENTENCES, 300) == 101
    assert snap_endpoint(30, SENTENCES, 300) is None   # snaps to text start
    assert snap_endpoint(120, SENTENCES, 300) == 101


def test_snap_deduplicates():
    # endpoints 90 and 110 both snap to 101; both 230s snap to 201
    got = snap_boundaries([CharSpan(90, 230), CharSpan(110, 230)], SENTENCES, 300)
    assert got == [101, 201]
    # endpoints at the very end of the text are removed
    assert snap_boundaries([CharSpan(90, 290)], SENTENCES, 300) == [101]


def test_f1_at_k_upper_bounds():
    # a top-3 method padding its boundary list to exactly 3 candidates
    gt1 = [101]
    cands = [(101, 0.9), (201, 0.2), (1, 0.1)]
    assert f1_at_k(cands, gt1, 3) == pytest.approx(0.5)
    gt2 = [101, 201]
    cands = [(101, 0.9), (201, 0.8), (1, 0.1)]
    assert f1_at_k(cands, gt2, 3) == pytest.approx(0.8)
    gt3 = [1, 101, 201]
    cands = [(1, 0.9), (101, 0.8), (201, 0.7)]
    assert f1_at_k(cands, gt3, 3) == pytest.approx(1.0)


def test_f1_at_k_dedupes_and_truncates():
    cands = [(101, 0.9), (101, 0.5), (201, 0.8), (1, 0.7), (55, 0.6)]
    # top 3 distinct: 101, 201, 1
    assert f1_at_k(cands, [101], 3) == pytest.approx(0.5)
    assert f1_at_k([], [101], 3) == 0.0
    assert f1_at_k([(101, 1.0)], [101], 3) == pytest.approx(1.0)  # fewer than K exist


def test_f1_at_k_rejects_bad_k():
    with pytest.raises(ValueError):
        f1_at_k([], [], 0)


def test_boundary_suite_cases():
    assert boundary_suite([3, 5], [3, 5]) == {"acc": 1.0, "soft_acc1": 1.0, "mse": 0.0}
    off = boundary_suite([4, 6], [3, 5])
    assert off == {"acc": 0.0, "soft_acc1": 1.0, "mse": 1.0}
    mixed = boundary_suite([3, 5], [3, 9])
    assert mixed == {"acc": 0.5, "soft_acc1": 0.5, "mse": 8.0}
    with pytest.raises(ValueError):
        boundary_suite([1], [1, 2])


def test_kappa_identical_is_one():
    assert kappa([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0


def test_kappa_formula_hand_value():
    # 20 items with balanced marginals (pe = 0.5) and 14 agreements (p0 = 0.7)
    pred = [0] * 10 + [1] * 10
    gt = [0] * 7 + [1] * 3 + [0] * 3 + [1] * 7
    p = np.array(pred)
    g = np.array(gt)
    p0 = float(np.mean(p == g))
    pe = float(sum(np.mean(p == c) * np.mean(g == c) for c in (0, 1, 2)))
    assert p0 == 0.7 and pe == 0.5
    assert kappa(pred, gt) == pytest.approx((0.7 - 0.5) / 0.5)   # = 0.4


def test_kappa_independent_labelings_near_zero():
    rng = np.random.default_rng(42)
    a = rng.integers(0, 3, size=10_000)
    b = rng.integers(0, 3, size=10_000)
    assert abs(kappa(a.tolist(), b.tolist())) < 0.05


def test_kappa_invariant_to_class_permutation():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 3, size=500)
    b = rng.integers(0, 3, size=500)
    perm = {0: 2, 1: 0, 2: 1}
    base = kappa(a.tolist(), b.tolist())
    mapped = kappa([perm[x] for x in a], [perm[x] for x in b])
    assert mapped == pytest.approx(base, abs=1e-12)


def test_kappa_degenerate():
    assert kappa([1, 1], [1, 1]) == 1.0


def test_auroc_pairwise_oracle_exact():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.uniform(size=n), 2)   # rounding forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        want = wins / (len(pos) * len(neg))
        assert auroc(scores, labels) == want    # exact, including ties


def test_auroc_hand_value():
    # pairs: (0.9 vs 0.1) win, (0.9 vs 0.85) win, (0.8 vs 0.1) win, (0.8 vs 0.85) loss
    assert auroc([0.9, 0.8, 0.1, 0.85], [1, 1, 0, 0]) == pytest.approx(0.75)


def test_auroc_single_class_error():
    with pytest.raises(ValueError, match="single class"):
        auroc([0.5, 0.6], [1, 1])


def test_classification_suite_perfect():
    out = classification_suite([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert all(out[k] == 1.0 for k in out)


def test_classification_all_machine_balanced():
    out = classification_suite([0.9, 0.9, 0.9, 0.9], [1, 1, 0, 0])
    assert out["machine_rec"] == 1.0 and out["human_rec"] == 0.0
    assert out["avg_rec"] == 0.5


def test_classification_rejects_out_of_range_scores():
    with pytest.raises(ValueError):
        classification_suite([1.5], [1])


def test_non_finite_scores_are_rejected_naming_the_score():
    # NaN compares false with both ends of [0, 1]; it used to pass the check and
    # rank as the highest score, giving AUROC 1.0 here
    with pytest.raises(ValueError, match=r"score 0 is nan: scores must lie in \[0, 1\]"):
        classification_suite([np.nan, 0.7, 0.2], [1, 1, 0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="score 2 is .*: scores must be finite"):
            auroc([0.3, 0.7, bad, 0.2], [1, 1, 0, 0])


def test_auroc_counts_every_tie_half():
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert auroc([0.0, -0.0, 1.0], [1, 0, 1]) == 0.75  # -0.0 ties with 0.0


def test_co2_estimate():
    assert co2_estimate(1.3, 10, 400) == pytest.approx(5.2)
    assert co2_estimate(1.3, 0, 400) == 0.0
    assert co2_estimate(2.6, 10, 400) == pytest.approx(10.4)   # linear in PUE
    with pytest.raises(ValueError):
        co2_estimate(-1.0, 10, 400)


# -- corpus-level evaluation -----------------------------------------------------


def oracle_predictions(samples, fillers=0):
    """Prediction records that reproduce the ground truth exactly, optionally
    padded with low-scoring decoys (extra queries firing at low confidence)."""
    preds = {}
    for s in samples:
        intervals = [[sp.x1, sp.x2] for sp in s.intervals]
        scores = [0.9] * len(intervals)
        sents = s.sentence_offsets
        for f in range(fillers):
            # a short span inside sentence f+1, snapping to its start
            sp = sents[min(f + 1, len(sents) - 1)]
            intervals.append([sp.x1, sp.x1 + 1])
            scores.append(0.05 + 0.001 * f)
        preds[s.id] = {"id": s.id, "intervals": intervals, "scores": scores}
    return preds


def test_evaluate_oracle_predictions_are_perfect():
    split = synth_generate(SynthSpec(n_texts=30, n_sentences=5), seed=21)
    samples = split.test
    report = evaluate_detection(samples, oracle_predictions(samples))
    assert report["boundary"]["acc"] == 1.0
    assert report["boundary"]["mse"] == 0.0
    assert report["kappa"] == 1.0
    assert report["f1_at_k"]["all"] == 1.0


def test_evaluate_of_no_texts_raises_before_any_mean():
    with pytest.raises(ValueError, match="^no texts to score$"):
        evaluate_detection([], {})


def test_evaluate_missing_predictions_counted():
    split = synth_generate(SynthSpec(n_texts=10, n_sentences=4), seed=22)
    samples = split.test
    report = evaluate_detection(samples, {})
    assert report["missing_predictions"] == len(samples)


def test_evaluate_rejects_an_interval_past_its_text_and_takes_one_ending_at_it():
    s = synth_generate(SynthSpec(n_texts=10, n_sentences=4), seed=22).test[0]
    n = len(s.text)
    evaluate_detection([s], {s.id: {"id": s.id, "intervals": [[5, n]], "scores": [0.9]}})
    with pytest.raises(ValueError, match=f"^record {s.id}: interval \\[5, {n + 1}\\] ends past "
                                         f"the {n}-character text$"):
        evaluate_detection([s], {s.id: {"id": s.id, "intervals": [[5, n + 1]],
                                        "scores": [0.1]}})


def test_write_metric_report(tmp_path):
    """``spandet eval --out`` writes {"metrics", "config"} as one JSON
    document: sorted keys, an indent of 2 and a trailing newline."""
    path = tmp_path / "report.json"
    write_json(path, {"metrics": {"acc": 1.0}, "config": {"k": 3}})
    assert path.read_text() == ('{\n  "config": {\n    "k": 3\n  },\n'
                                '  "metrics": {\n    "acc": 1.0\n  }\n}\n')


def test_rule_agreement_with_direct_reimplementation():
    """Cross-check the three post-processing rules against independent
    rule-by-rule evaluations over every position of a fixture text."""
    rng = np.random.default_rng(5)
    starts = [0]
    for _ in range(7):
        starts.append(starts[-1] + int(rng.integers(20, 90)))
    text_len = starts[-1] + int(rng.integers(20, 90))
    sents = [CharSpan(a, b - 1) for a, b in zip(starts, starts[1:] + [text_len + 1])]

    for t in range(text_len):
        # independent evaluation of the sentence-index rule
        idx = None
        for i, sp in enumerate(sents):
            if sp.x1 <= t < sp.x2:
                idx = i
        if idx is None:
            idx = min(range(len(sents)),
                      key=lambda i: (sents[i].x1 - t if t < sents[i].x1
                                     else t - (sents[i].x2 - 1)))
        want = idx + (1 if t >= (sents[idx].x1 + sents[idx].x2 - 1) / 2 else 0)
        assert interval_to_sentence(t, sents) == want

        # independent evaluation of the boundary-snap rule
        bounds = starts + [text_len]
        i = 0
        while i + 1 < len(bounds) - 1 and bounds[i + 1] <= t:
            i += 1
        b = bounds[i] if t < (bounds[i] + bounds[i + 1]) / 2 else bounds[i + 1]
        want_snap = None if (b == bounds[0] or b == text_len) else b
        assert snap_endpoint(t, sents, text_len) == want_snap


@pytest.mark.parametrize("name, value", [("score_threshold", float("nan")),
                                         ("score_threshold", 1.5),
                                         ("overlap_threshold", -1.0),
                                         ("overlap_threshold", float("nan"))])
def test_evaluate_rejects_a_threshold_outside_0_1_naming_it_before_any_work(name, value):
    # no texts at all: the threshold is named before the empty split is
    with pytest.raises(ValueError, match=rf"^{name} {value} is not a number in \[0, 1\]$"):
        evaluate_detection([], {}, **{name: value})
